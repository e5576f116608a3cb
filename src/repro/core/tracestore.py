"""The omniscient, queryable trace store: ask questions of a recording.

PR 3's timelines answer "what was the state at pause k?"; this module
answers the converse family — "when did ``x`` last change?", "which calls
of ``f`` returned INVALID?", "every snapshot where ``len(heap) > 100``" —
the hypothesis-testing workflow of *Tracers for debugging and program
exploration* and the omniscient navigation of *SpaceTime Programming*.

Three layers, all built on the delta codec the timeline already ships:

- :class:`TraceIndex` — an inverted index (variable → sorted snapshot
  indices where it changed, function → call/return ranges with rendered
  return values, pause reason → indices) maintained *incrementally at
  record time* by inspecting the same :func:`diff_tree` patches the
  timeline computes for storage. No second pass over state: the recorder
  registers a :meth:`Timeline.add_append_listener` hook and reads the
  patch that was going to be stored anyway.

- :class:`SegmentSpool` / :class:`TraceStore` — a disk-backed
  ``.tracedir/`` layout (``manifest.json``, an append-only segment log
  and per-segment blob files, read back through ``mmap``) that
  recordings spill into: with a spool
  attached, ``max_snapshots`` ring-buffer eviction *moves* keyframe-led
  segments to disk instead of dropping them, and reconstruction loads
  them back lazily on query or ``goto``.

- :class:`TimelineView` — the unified query API over live, replay, and
  on-disk recordings: ``history("x")``, ``calls("f", returned=...)``,
  ``where(predicate)``, ``changes_between(i, j)``, ``at(k)``, plus the
  navigation calls (``goto`` / ``backward_*``). Obtain one with ``tracker.timeline_view()``
  or ``TimelineView.open(path)`` (a ``.timeline.json``, a PT trace, or a
  ``.tracedir/``).

A small expression grammar (:func:`parse_query`) backs the CLI and the MI
``-timeline-query`` command: ``x changed``, ``f() == INVALID``,
``len(heap) > 100``, ``x >= 7``. Queries that the index can answer are
pushed down to it; value predicates fall back to a streaming
reconstruction scan.
"""

from __future__ import annotations

import json
import mmap
import os
import re
from bisect import bisect_right, insort
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.errors import TraceStoreError, TrackerError
from repro.core.state import AbstractType, HeapDecoder, HeapEncoder
from repro.core.timeline import (
    EVENT_CALL,
    EVENT_EXIT,
    EVENT_RETURN,
    StateSnapshot,
    Timeline,
    diff_tree,
    load_timeline,
)

MANIFEST_NAME = "manifest.json"
#: The append-only log of spilled segments, one JSON entry per line.
SEGMENT_LOG_NAME = "segments.jsonl"
TRACEDIR_FORMAT = "repro-tracedir"
#: 2: heap-table snapshot trees and the segment log; version 1 is refused.
TRACEDIR_VERSION = 2


# ---------------------------------------------------------------------------
# Change extraction: which variables does one delta patch touch?
# ---------------------------------------------------------------------------
#
# Variable ids use the watchpoint grammar: a plain name is a global, a
# ``function:name`` id is a local of ``function``. A variable's own entry
# in a snapshot tree is small: an inline value, or the key of its heap
# entry. A variable changed when that entry differs between the two trees,
# or when it reaches (through heap keys) an entry the patch modifies. The
# heap holds each shared value once, so one mutation is one modified entry
# however many names reach it. A key with a "#" is numbered in encoding
# order, so the same object may hold another key in the next tree (a new
# frame meets its summary first): when either tree has one, each name the
# entries flag is compared by value before it counts.


def _flatten_vars(tree: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Variable id -> its entry, over a snapshot tree's frames and globals.

    Innermost occurrence wins for recursive frames, matching
    :meth:`StateSnapshot.lookup`.
    """
    flat: Dict[str, Any] = {}
    if not tree:
        return flat
    frame = tree.get("frame")
    while frame:
        name = frame.get("name") or "?"
        for var, data in frame["variables"].items():
            flat.setdefault(f"{name}:{var}", data["value"])
        frame = frame.get("parent")
    for var, data in (tree.get("globals") or {}).items():
        flat.setdefault(var, data["value"])
    return flat


def _key_of(position: Any) -> Optional[str]:
    """The heap key a position holds: the key itself, or the target of an
    inline REF (a REF to a REF is a heap entry, so this is one level)."""
    if position.__class__ is str:
        return position
    if position["abstract_type"] == "ref":
        target = position["content"]
        if target.__class__ is str:
            return target
    return None


def _reaches(
    heap: Dict[str, Any], root: str, reaching: Set[str], clear: Set[str]
) -> bool:
    """Whether heap key ``root`` leads to a key in ``reaching`` (modified
    entries, and keys already found to lead to one). A search that fails
    adds every key it saw to ``clear``: none of them leads to one either."""
    seen = {root}
    stack = [root]
    while stack:
        key = stack.pop()
        if key in reaching:
            reaching.add(root)
            return True
        kind, content = heap[key]["abstract_type"], heap[key]["content"]
        if kind == "list":
            items = content
        elif kind == "struct":
            items = content.values()
        elif kind == "dict":
            items = [position for pair in content for position in pair]
        elif kind == "ref":
            items = (content,)
        else:
            continue  # a scalar holds no key
        for item in items:
            child = _key_of(item)
            if child is not None and child not in seen and child not in clear:
                seen.add(child)
                stack.append(child)
    clear.update(seen)
    return False


def _canonical(decoder: HeapDecoder, position: Any) -> Tuple[Any, Any]:
    """A position decoded and encoded again on its own: equal for equal
    values (addresses, sharing and cycles included), whatever keys their
    trees gave them."""
    encoder = HeapEncoder()
    return encoder.value(decoder.value(position)), encoder.heap


def changed_variable_ids(
    prev_tree: Optional[Dict[str, Any]],
    tree: Dict[str, Any],
    patch: Any,
) -> Set[str]:
    """Variable ids whose value differs between two snapshot trees.

    ``patch`` is the :func:`diff_tree` of ``prev_tree`` against ``tree``
    (the one the timeline computed for storage); pass ``None`` with
    ``prev_tree=None`` for the first snapshot, where every visible
    variable counts as newly changed.
    """
    if prev_tree is None:
        return set(_flatten_vars(tree))
    sub = patch["$d"].get("sub", {}) if patch is not None else {}
    if not ("frame" in sub or "globals" in sub or "heap" in sub):
        return set()
    old, new = _flatten_vars(prev_tree), _flatten_vars(tree)
    changed = {name for name in old if name not in new}
    changed.update(
        name for name, entry in new.items()
        if name not in old or old[name] != entry
    )
    heap_patch = sub.get("heap")
    reaching = set(heap_patch["$d"].get("sub", ())) if heap_patch else set()
    if reaching:
        clear: Set[str] = set()
        for name, entry in new.items():
            key = _key_of(entry)
            if (
                key is not None and key not in clear and name not in changed
                and _reaches(tree["heap"], key, reaching, clear)
            ):
                changed.add(name)
    old_heap, new_heap = prev_tree["heap"], tree["heap"]
    if changed and ("#" in "".join(old_heap) or "#" in "".join(new_heap)):
        before, after = HeapDecoder(old_heap), HeapDecoder(new_heap)
        changed = {
            name for name in changed
            if name not in old or name not in new
            or _canonical(before, old[name]) != _canonical(after, new[name])
        }
    return changed


def _render_position(decoder: HeapDecoder, position: Any) -> Optional[str]:
    """Human rendering of a value position of a tree, references chased."""
    if position is None:
        return None
    try:
        value = decoder.value(position)
    except (KeyError, TypeError, ValueError):
        return None
    return value.chase().render()


def _render_reason_payload(payload: Any, heap: Dict[str, Any]) -> Optional[str]:
    """Rendered form of a pause reason's return-value payload."""
    if payload is None:
        return None
    if isinstance(payload, dict) and "$value" in payload:
        return _render_position(HeapDecoder(heap), payload["$value"])
    return str(payload)


# ---------------------------------------------------------------------------
# TraceIndex: the inverted index
# ---------------------------------------------------------------------------


class TraceIndex:
    """Inverted index over a recording, maintained incrementally.

    Three maps, all keyed for the query API:

    - variable id → sorted snapshot indices where its value changed
      (plain names are globals, ``function:name`` ids are locals);
    - function name → call records (``call``/``return`` snapshot indices
      plus the rendered return value), in call order;
    - pause-reason type → sorted snapshot indices.

    Fed by :meth:`observe` — from a :meth:`Timeline.add_append_listener`
    hook at record time, or by :meth:`TimelineView.ensure_index` scanning
    an already-stored recording (both paths see identical patches, so the
    resulting indexes are identical).
    """

    VERSION = 1

    def __init__(self) -> None:
        self._changes: Dict[str, List[int]] = {}
        #: basename → variable ids, so ``history("x")`` finds ``f:x`` too.
        self._basenames: Dict[str, Set[str]] = {}
        self._calls: Dict[str, List[Dict[str, Any]]] = {}
        self._open_calls: Dict[str, List[int]] = {}
        self._reasons: Dict[str, List[int]] = {}
        self._observed = 0
        #: undo journal for ``drop_last`` (index, var ids, reason, call op)
        self._journal: Optional[
            Tuple[int, Set[str], str, Optional[Tuple[str, str]]]
        ] = None

    # -- maintenance -----------------------------------------------------

    def observe(
        self,
        index: int,
        prev_tree: Optional[Dict[str, Any]],
        tree: Dict[str, Any],
        patch: Any,
    ) -> None:
        """Ingest one appended snapshot (tree + the stored delta patch)."""
        event = tree.get("event")
        frame = tree.get("frame")
        if event == EVENT_EXIT and frame is None:
            changed: Set[str] = set()
        else:
            changed = changed_variable_ids(prev_tree, tree, patch)
        for name in changed:
            self._changes.setdefault(name, []).append(index)
            base = name.rsplit(":", 1)[-1]
            self._basenames.setdefault(base, set()).add(name)
        reason = (tree.get("reason") or {}).get("type") or "step"
        self._reasons.setdefault(reason, []).append(index)
        call_op = self._observe_call(index, tree, event)
        self._observed = max(self._observed, index + 1)
        self._journal = (index, changed, reason, call_op)

    def _observe_call(
        self, index: int, tree: Dict[str, Any], event: Optional[str]
    ) -> Optional[Tuple[str, str]]:
        func = tree.get("func_name")
        if not func or event not in (EVENT_CALL, EVENT_RETURN):
            return None
        records = self._calls.setdefault(func, [])
        if event == EVENT_CALL:
            records.append(
                {
                    "function": func,
                    "call": index,
                    "return": None,
                    "returned": None,
                    "depth": tree.get("depth", 0),
                }
            )
            self._open_calls.setdefault(func, []).append(len(records) - 1)
            return ("call", func)
        open_stack = self._open_calls.get(func)
        if open_stack:
            record = records[open_stack.pop()]
        else:
            # Recording started mid-run: a return with no recorded call.
            record = {
                "function": func,
                "call": None,
                "return": None,
                "returned": None,
                "depth": tree.get("depth", 0),
            }
            records.append(record)
        record["return"] = index
        record["returned"] = _render_reason_payload(
            (tree.get("reason") or {}).get("return_value"), tree["heap"]
        )
        return ("return", func)

    def forget(self, index: int) -> bool:
        """Undo the most recent :meth:`observe` (``drop_last`` support)."""
        if self._journal is None or self._journal[0] != index:
            return False
        _, changed, reason, call_op = self._journal
        for name in changed:
            indices = self._changes.get(name)
            if indices and indices[-1] == index:
                indices.pop()
                if not indices:
                    del self._changes[name]
                    base = name.rsplit(":", 1)[-1]
                    self._basenames.get(base, set()).discard(name)
        indices = self._reasons.get(reason)
        if indices and indices[-1] == index:
            indices.pop()
        if call_op is not None:
            kind, func = call_op
            records = self._calls.get(func, [])
            if kind == "call" and records and records[-1].get("call") == index:
                records.pop()
                stack = self._open_calls.get(func)
                if stack and stack[-1] == len(records):
                    stack.pop()
            elif kind == "return":
                for position in range(len(records) - 1, -1, -1):
                    record = records[position]
                    if record.get("return") == index:
                        if record.get("call") is None:
                            records.pop(position)
                        else:
                            record["return"] = None
                            record["returned"] = None
                            self._open_calls.setdefault(func, []).append(
                                position
                            )
                        break
        self._journal = None
        return True

    # -- queries ---------------------------------------------------------

    @property
    def observed(self) -> int:
        """One past the highest snapshot index this index has ingested."""
        return self._observed

    def change_indices(self, name: str) -> List[int]:
        """Sorted snapshot indices where variable ``name`` changed.

        A plain name matches the global *and* any local of that name; a
        qualified ``function:name`` id matches exactly.
        """
        if ":" in name:
            return list(self._changes.get(name, ()))
        ids = set(self._basenames.get(name, ()))
        ids.add(name)
        merged: List[int] = []
        for var_id in ids:
            for index in self._changes.get(var_id, ()):
                insort(merged, index)
        # de-duplicate (an id set may alias, and merged inserts keep order)
        deduped: List[int] = []
        for index in merged:
            if not deduped or deduped[-1] != index:
                deduped.append(index)
        return deduped

    def call_records(self, function: str) -> List[Dict[str, Any]]:
        """Call records of ``function``, in call order (copies)."""
        return [dict(record) for record in self._calls.get(function, ())]

    def reason_indices(self, reason: str) -> List[int]:
        """Sorted snapshot indices paused for ``reason`` (type value)."""
        return list(self._reasons.get(reason, ()))

    def variables(self) -> List[str]:
        """Every indexed variable id, sorted."""
        return sorted(self._changes)

    def functions(self) -> List[str]:
        """Every function with recorded call/return pauses, sorted."""
        return sorted(self._calls)

    # -- (de)serialization ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.VERSION,
            "observed": self._observed,
            "changes": self._changes,
            "calls": self._calls,
            "open_calls": self._open_calls,
            "reasons": self._reasons,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceIndex":
        index = cls()
        try:
            index._observed = int(data.get("observed", 0))
            index._changes = {
                name: [int(i) for i in indices]
                for name, indices in data.get("changes", {}).items()
            }
            index._calls = {
                func: [dict(record) for record in records]
                for func, records in data.get("calls", {}).items()
            }
            index._open_calls = {
                func: [int(i) for i in stack]
                for func, stack in data.get("open_calls", {}).items()
            }
            index._reasons = {
                reason: [int(i) for i in indices]
                for reason, indices in data.get("reasons", {}).items()
            }
        except (TypeError, ValueError, AttributeError) as error:
            raise TraceStoreError(f"corrupt trace index: {error}") from error
        for name in index._changes:
            base = name.rsplit(":", 1)[-1]
            index._basenames.setdefault(base, set()).add(name)
        return index


# ---------------------------------------------------------------------------
# SegmentSpool: the .tracedir/ disk layout
# ---------------------------------------------------------------------------


def _dumps(data: Any) -> str:
    """Compact JSON text. ``json.dumps`` runs the C encoder, several
    times faster than the pure-Python ``iterencode`` of ``json.dump``."""
    return json.dumps(data, separators=(",", ":"))


class SegmentSpool:
    """Disk half of the trace store: manifest, segment log, segment blobs.

    Layout of a ``.tracedir/``::

        manifest.json        {format, version, count, timeline: {...},
                              index: {...} | null}
        segments.jsonl       {"file": ..., "base": ..., "count": ...}
                             (one line per spilled segment)
        segment-00000.json   {"key": <full tree>, "deltas": [patch, ...]}
        segment-00001.json   ...

    Creation writes the manifest, each spill appends to the log, and
    :meth:`finalize` rewrites the manifest once (metadata and index). A
    store never finalized opens with the segments its log names.

    Each segment file is a keyframe-led segment exactly as the in-memory
    timeline stores it; files are read back through ``mmap`` and parsed
    lazily, with a small LRU of decoded segments, so opening a 10k-pause
    recording costs the manifest and log reads until a query touches
    history.
    """

    _CACHE_SEGMENTS = 4

    def __init__(self, path: str, create: bool = False) -> None:
        self.path = path
        self._segments: List[Dict[str, Any]] = []
        #: ``base`` of each entry of ``_segments``, for :meth:`load`.
        self._bases: List[int] = []
        self._meta: Dict[str, Any] = {}
        self._index_data: Optional[Dict[str, Any]] = None
        self._count = 0
        self._cache: "OrderedDict[int, Tuple[int, Dict[str, Any]]]" = (
            OrderedDict()
        )
        if create:
            os.makedirs(path, exist_ok=True)
            self._write_manifest()
            # A new recording starts a new log, in a reused directory too.
            try:
                os.remove(os.path.join(path, SEGMENT_LOG_NAME))
            except FileNotFoundError:
                pass
        else:
            self._read_manifest()

    # -- manifest --------------------------------------------------------

    @classmethod
    def open(cls, path: str) -> "SegmentSpool":
        """Open an existing ``.tracedir/`` (typed errors on corruption)."""
        return cls(path, create=False)

    def _manifest_path(self) -> str:
        return os.path.join(self.path, MANIFEST_NAME)

    def _read_manifest(self) -> None:
        manifest_path = self._manifest_path()
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except OSError as error:
            raise TraceStoreError(
                f"cannot open trace store {self.path!r}: {error}"
            ) from error
        except json.JSONDecodeError as error:
            raise TraceStoreError(
                f"corrupt trace-store manifest {manifest_path!r}: {error}"
            ) from error
        if not isinstance(manifest, dict) or manifest.get("format") != TRACEDIR_FORMAT:
            raise TraceStoreError(
                f"{manifest_path!r} is not a repro trace-store manifest"
            )
        if manifest.get("version") != TRACEDIR_VERSION:
            raise TraceStoreError(
                f"trace store {self.path!r} has format version "
                f"{manifest.get('version')!r}; this build reads version "
                f"{TRACEDIR_VERSION}"
            )
        # Every complete log entry ends with a newline: the last piece is
        # "" or a line torn by a recording that stopped mid-append.
        log_path = os.path.join(self.path, SEGMENT_LOG_NAME)
        try:
            with open(log_path, "r", encoding="utf-8") as handle:
                lines = handle.read().split("\n")[:-1]
        except FileNotFoundError:
            lines = []  # nothing spilled yet
        except OSError as error:
            raise TraceStoreError(f"cannot read {log_path!r}: {error}") from error
        try:
            self._segments = [
                {"file": str(entry["file"]), "base": int(entry["base"]),
                 "count": int(entry["count"])}
                for entry in map(json.loads, lines)
            ]
            self._count = int(manifest.get("count", 0))
        except (KeyError, TypeError, ValueError) as error:
            raise TraceStoreError(
                f"corrupt trace store {self.path!r}: {error}"
            ) from error
        self._bases = [entry["base"] for entry in self._segments]
        if self._segments:
            last = self._segments[-1]
            self._count = max(self._count, last["base"] + last["count"])
        self._meta = dict(manifest.get("timeline") or {})
        index_data = manifest.get("index")
        self._index_data = index_data if isinstance(index_data, dict) else None

    def _write_manifest(self) -> None:
        manifest = {
            "format": TRACEDIR_FORMAT,
            "version": TRACEDIR_VERSION,
            "count": self._count,
            "timeline": self._meta,
            "index": self._index_data,
        }
        path = self._manifest_path()
        temp = path + ".tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(_dumps(manifest))
        os.replace(temp, path)

    # -- record side -----------------------------------------------------

    def spill(self, segment: Dict[str, Any], base: int) -> None:
        """Persist one evicted segment (called by :meth:`Timeline._evict`)."""
        count = 1 + len(segment["deltas"])
        filename = f"segment-{len(self._segments):05d}.json"
        with open(
            os.path.join(self.path, filename), "w", encoding="utf-8"
        ) as handle:
            # The text of _dumps(segment), one tree per encode: the C
            # encoder keeps every token of a call as its own string until
            # it joins them, so one call on a whole ~90 KB segment raised
            # peak memory by ~0.7 MB.
            handle.write(
                '{"key":' + _dumps(segment["key"]) + ',"deltas":['
                + ",".join(map(_dumps, segment["deltas"])) + "]}"
            )
        entry = {"file": filename, "base": base, "count": count}
        with open(
            os.path.join(self.path, SEGMENT_LOG_NAME), "a", encoding="utf-8"
        ) as log:
            log.write(_dumps(entry) + "\n")
        self._segments.append(entry)
        self._bases.append(base)
        self._count = max(self._count, base + count)

    def finalize(
        self, timeline: Timeline, index: Optional[TraceIndex]
    ) -> None:
        """Flush the timeline's in-memory tail and seal the manifest (its
        one rewrite after creation).

        After this, :meth:`open` / :meth:`TimelineView.open` see the full
        recording (spilled segments + tail) plus the serialized index.
        """
        base = timeline.start_index
        for segment in timeline._segments:
            self.spill(segment, base)
            base += 1 + len(segment["deltas"])
        self._count = max(self._count, len(timeline))
        self._meta = {
            "program": timeline.program,
            "backend": timeline.backend,
            "source": timeline.source,
            "keyframe_interval": timeline.keyframe_interval,
            "max_snapshots": timeline.max_snapshots,
        }
        self._index_data = index.to_dict() if index is not None else None
        self._write_manifest()

    # -- read side -------------------------------------------------------

    @property
    def first_index(self) -> Optional[int]:
        """Global index of the oldest spilled snapshot (None if empty)."""
        return self._segments[0]["base"] if self._segments else None

    @property
    def count(self) -> int:
        return self._count

    @property
    def timeline_meta(self) -> Dict[str, Any]:
        return dict(self._meta)

    @property
    def index_data(self) -> Optional[Dict[str, Any]]:
        return self._index_data

    def load(self, global_index: int) -> Tuple[int, Dict[str, Any]]:
        """``(base, segment)`` of the spilled segment holding an index."""
        position = bisect_right(self._bases, global_index) - 1
        if position < 0:
            raise TraceStoreError(
                f"snapshot {global_index} precedes the spilled window"
            )
        entry = self._segments[position]
        if global_index >= entry["base"] + entry["count"]:
            raise TraceStoreError(
                f"snapshot {global_index} falls in a gap of the spilled "
                f"window (segment {entry['file']} ends at "
                f"{entry['base'] + entry['count'] - 1})"
            )
        cached = self._cache.get(position)
        if cached is not None:
            self._cache.move_to_end(position)
            return cached
        segment = self._read_segment(entry["file"])
        self._cache[position] = (entry["base"], segment)
        while len(self._cache) > self._CACHE_SEGMENTS:
            self._cache.popitem(last=False)
        return entry["base"], segment

    def _read_segment(self, filename: str) -> Dict[str, Any]:
        path = os.path.join(self.path, filename)
        try:
            with open(path, "rb") as handle:
                with mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                ) as mapped:
                    segment = json.loads(mapped[:])
        except (OSError, ValueError) as error:
            raise TraceStoreError(
                f"corrupt trace-store segment {path!r}: {error}"
            ) from error
        if (
            not isinstance(segment, dict)
            or "key" not in segment
            or not isinstance(segment.get("deltas"), list)
        ):
            raise TraceStoreError(
                f"corrupt trace-store segment {path!r}: not a segment blob"
            )
        return segment

    def all_segments(self) -> List[Dict[str, Any]]:
        """Every spilled segment, decoded, oldest first (for full dumps)."""
        return [
            self._read_segment(entry["file"]) for entry in self._segments
        ]


class TraceStore:
    """Record-side orchestration: spool + index attached to one timeline.

    Created by :meth:`Tracker.enable_recording(tracedir=...)`; eviction
    from the timeline's ring buffer spills into the store as the run
    proceeds, and :meth:`close` seals the directory (tail segments +
    manifest + serialized index) for later :meth:`TimelineView.open`.
    """

    def __init__(
        self,
        path: str,
        timeline: Timeline,
        index: Optional[TraceIndex] = None,
    ) -> None:
        self.path = path
        self.timeline = timeline
        self.index = index
        self.spool = SegmentSpool(path, create=True)
        timeline.attach_spool(self.spool)
        self._closed = False

    def close(self) -> str:
        """Seal the store; returns its path. Idempotent.

        The timeline's in-memory tail is handed to the spool, so after
        closing, every reconstruction (and ``to_dict``) reads from disk —
        no segment is counted twice.
        """
        if not self._closed:
            self.spool.finalize(self.timeline, self.index)
            self.timeline._segments = []
            self.timeline._start_index = self.timeline._count
            self.timeline._cursor = None
            self._closed = True
        return self.path


# ---------------------------------------------------------------------------
# The query grammar
# ---------------------------------------------------------------------------

_IDENT = r"[A-Za-z_][A-Za-z_0-9]*(?::[A-Za-z_][A-Za-z_0-9]*)?"
_OPS = ("==", "!=", "<=", ">=", "<", ">")
_QUERY_PATTERNS = [
    (
        "changed",
        re.compile(rf"^\s*(?P<name>{_IDENT})\s+changed\s*$"),
    ),
    (
        "calls",
        re.compile(
            rf"^\s*(?P<name>{_IDENT})\s*\(\s*\)\s*"
            r"(?P<op>==|!=|<=|>=|<|>)\s*(?P<lit>.+?)\s*$"
        ),
    ),
    (
        "len",
        re.compile(
            rf"^\s*len\s*\(\s*(?P<name>{_IDENT})\s*\)\s*"
            r"(?P<op>==|!=|<=|>=|<|>)\s*(?P<lit>.+?)\s*$"
        ),
    ),
    (
        "var",
        re.compile(
            rf"^\s*(?P<name>{_IDENT})\s*"
            r"(?P<op>==|!=|<=|>=|<|>)\s*(?P<lit>.+?)\s*$"
        ),
    ),
]


@dataclass
class Query:
    """A parsed trace query (see :func:`parse_query`)."""

    kind: str  # "changed" | "calls" | "len" | "var"
    name: str
    op: Optional[str] = None
    literal: Optional[str] = None
    text: str = ""


def parse_query(text: str) -> Query:
    """Parse one query expression.

    Grammar::

        <var> changed                   when did <var> change?
        <func>() <op> <literal>         calls of <func> by return value
        len(<var>) <op> <number>        aggregate-size predicate
        <var> <op> <literal>            value predicate

    ``<op>`` is one of ``== != < <= > >=``; ``<var>`` is a global name or
    a ``function:name`` local id; literals are numbers, quoted strings,
    or bare words (``INVALID`` matches invalid values).
    """
    for kind, pattern in _QUERY_PATTERNS:
        match = pattern.match(text)
        if match is not None:
            groups = match.groupdict()
            return Query(
                kind=kind,
                name=groups["name"],
                op=groups.get("op"),
                literal=groups.get("lit"),
                text=text.strip(),
            )
    raise TraceStoreError(
        f"cannot parse query {text!r} (expected '<var> changed', "
        "'<func>() == <value>', 'len(<var>) > N', or '<var> <op> <value>')"
    )


def _strip_quotes(text: str) -> str:
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def _as_number(text: Optional[str]) -> Optional[float]:
    if text is None:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _compare(actual: Optional[str], op: str, literal: str) -> bool:
    """Compare a rendered value against a query literal.

    Numbers compare numerically; everything else compares as strings
    after quote normalization (so ``'abc'`` matches ``"abc"`` and the
    rendered ``'abc'`` alike). The bare word ``INVALID`` matches the
    rendering of invalid values.
    """
    if actual is None:
        return False
    literal = literal.strip()
    if literal.upper() == "INVALID":
        literal = "<invalid>"
    actual_number = _as_number(actual)
    literal_number = _as_number(_strip_quotes(literal))
    if actual_number is not None and literal_number is not None:
        left, right = actual_number, literal_number
    else:
        left, right = _strip_quotes(actual), _strip_quotes(literal)
        if op not in ("==", "!="):
            # Ordered comparison needs numbers on both sides.
            return False
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


# ---------------------------------------------------------------------------
# TimelineView: the unified query API
# ---------------------------------------------------------------------------


@dataclass
class ChangeEvent:
    """One value-change event of a variable (a ``history()`` element)."""

    index: int
    variable: str
    value: Optional[str]
    line: Optional[int]
    function: Optional[str]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "variable": self.variable,
            "value": self.value,
            "line": self.line,
            "function": self.function,
        }


@dataclass
class CallRecord:
    """One recorded call of a tracked function (a ``calls()`` element)."""

    function: str
    call_index: Optional[int]
    return_index: Optional[int]
    returned: Optional[str]
    depth: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "function": self.function,
            "call_index": self.call_index,
            "return_index": self.return_index,
            "returned": self.returned,
            "depth": self.depth,
        }


@dataclass
class QueryResult:
    """Structured result of :meth:`TimelineView.query` (CLI/MI payload)."""

    kind: str
    text: str
    matches: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "query": self.text, "matches": self.matches}

    @property
    def indices(self) -> List[int]:
        seen: List[int] = []
        for match in self.matches:
            for key in ("index", "return_index", "call_index"):
                value = match.get(key)
                if value is not None:
                    if not seen or seen[-1] != value:
                        seen.append(value)
                    break
        return seen


class TimelineView:
    """One object that owns a recording: query it, navigate it.

    Unifies the three places a recording can live:

    - **live**: ``tracker.timeline_view()`` over the recorder's timeline
      (bound to the tracker, so the navigation calls move its time-travel
      cursor);
    - **replay**: the same call on a :class:`ReplayTracker`;
    - **on disk**: ``TimelineView.open(path)`` over a ``.timeline.json``,
      a PT trace, or a spilled ``.tracedir/`` (loaded lazily).

    Queries use the :class:`TraceIndex` when one was maintained at record
    time (or persisted in the tracedir manifest); otherwise
    :meth:`ensure_index` builds one by scanning the recording once.
    """

    def __init__(
        self,
        timeline: Timeline,
        index: Optional[TraceIndex] = None,
        tracker: Optional[Any] = None,
    ) -> None:
        if timeline is None:
            raise TrackerError(
                "no timeline recorded; call enable_recording() first"
            )
        self.timeline = timeline
        self._index = index
        self._tracker = tracker

    @classmethod
    def open(cls, path: str) -> "TimelineView":
        """Open a saved recording: ``.timeline.json``, PT trace, or
        ``.tracedir/`` (whose persisted index is reused)."""
        if not os.path.exists(path):
            raise TraceStoreError(f"no such recording: {path}")
        timeline = load_timeline(path)
        index_data = (
            timeline.spool.index_data if timeline.spool is not None else None
        )
        index = (
            TraceIndex.from_dict(index_data) if index_data is not None else None
        )
        return cls(timeline, index=index)

    # -- geometry --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timeline)

    @property
    def first_index(self) -> int:
        """Oldest reconstructable snapshot index."""
        return self.timeline.first_index

    @property
    def last_index(self) -> int:
        """Newest snapshot index."""
        return len(self.timeline) - 1

    def at(self, index: int) -> StateSnapshot:
        """The :class:`StateSnapshot` at global ``index`` (negatives ok)."""
        return self.timeline.snapshot(index)

    # -- index -----------------------------------------------------------

    def ensure_index(self) -> TraceIndex:
        """The recording's :class:`TraceIndex`, building it if absent.

        The build replays the stored delta stream once (same patches the
        record-time maintenance saw), so a scan-built index is identical
        to an incrementally-maintained one.
        """
        index = self._index
        if index is not None and index.observed >= len(self.timeline):
            return index
        if index is None:
            index = TraceIndex()
        # The oldest retained snapshot is observed as a first snapshot.
        previous: Optional[Dict[str, Any]] = None
        start = max(self.first_index, index.observed)
        if start > self.first_index:
            previous = self.timeline._tree_at(start - 1)
        for position in range(start, len(self.timeline)):
            tree = self.timeline._tree_at(position)
            patch = diff_tree(previous, tree) if previous is not None else None
            index.observe(position, previous, tree, patch)
            previous = tree
        self._index = index
        return index

    @property
    def index(self) -> Optional[TraceIndex]:
        """The index if one exists (``None`` before :meth:`ensure_index`)."""
        return self._index

    # -- queries ---------------------------------------------------------

    def history(self, name: str) -> List[ChangeEvent]:
        """Every recorded value change of variable ``name``, in order.

        A plain name covers the global and any same-named local; use the
        watchpoint grammar (``function:name``) to scope to one function.
        The first snapshot where a variable is visible counts as its
        first change.
        """
        function, var = self._split_id(name)
        events: List[ChangeEvent] = []
        for position in self.ensure_index().change_indices(name):
            snapshot = self.at(position)
            variable = snapshot.lookup(var, function)
            rendered = None
            if variable is not None:
                rendered = variable.value.chase().render()
            events.append(
                ChangeEvent(
                    index=position,
                    variable=name,
                    value=rendered,
                    line=snapshot.line,
                    function=snapshot.func_name,
                )
            )
        return events

    def last_change(self, name: str) -> Optional[ChangeEvent]:
        """The most recent change of ``name`` ("when did x last change?")."""
        events = self.history(name)
        return events[-1] if events else None

    def calls(
        self, function: str, returned: Optional[str] = None
    ) -> List[CallRecord]:
        """Recorded calls of ``function`` (requires call/return pauses,
        i.e. ``track_function``), optionally filtered by return value.

        ``returned`` compares against the rendered return value with the
        query-literal semantics (numbers numerically, ``"INVALID"``
        matches invalid values).
        """
        records = [
            CallRecord(
                function=record["function"],
                call_index=record.get("call"),
                return_index=record.get("return"),
                returned=record.get("returned"),
                depth=record.get("depth", 0),
            )
            for record in self.ensure_index().call_records(function)
        ]
        if returned is None:
            return records
        return [
            record
            for record in records
            if _compare(record.returned, "==", str(returned))
        ]

    def where(
        self, predicate: Union[str, Callable[[StateSnapshot], bool]]
    ) -> List[int]:
        """Snapshot indices satisfying ``predicate``.

        A string predicate goes through :func:`parse_query` — indexable
        forms (``x changed``, ``f() == v``) are answered from the
        inverted index; value predicates stream-reconstruct the recording
        (sequential cursor, so the scan is one delta replay). A callable
        receives each :class:`StateSnapshot`.
        """
        if isinstance(predicate, str):
            return self.query(predicate).indices
        matched: List[int] = []
        for position in range(self.first_index, len(self.timeline)):
            if predicate(self.at(position)):
                matched.append(position)
        return matched

    def changes_between(self, start: int, end: int) -> Dict[str, Any]:
        """Change-point diff: what changed between snapshots i and j.

        Returns ``{"variables": {id: {"old": r, "new": r}}, "from": i,
        "to": j, ...}`` with rendered old/new values (``None`` for a
        variable absent on that side), plus position movement.
        """
        count = len(self.timeline)
        if start < 0:
            start += count
        if end < 0:
            end += count
        if start > end:
            start, end = end, start
        old_tree = self.timeline._tree_at(start)
        new_tree = self.timeline._tree_at(end)
        old_vars = _flatten_vars(old_tree)
        new_vars = _flatten_vars(new_tree)
        old_decoder = HeapDecoder(old_tree["heap"])
        new_decoder = HeapDecoder(new_tree["heap"])
        changed = changed_variable_ids(
            old_tree, new_tree, diff_tree(old_tree, new_tree)
        )
        variables: Dict[str, Any] = {}
        for name in sorted(changed):
            variables[name] = {
                "old": _render_position(old_decoder, old_vars.get(name)),
                "new": _render_position(new_decoder, new_vars.get(name)),
            }
        return {
            "from": start,
            "to": end,
            "variables": variables,
            "line": {
                "old": old_tree.get("line"),
                "new": new_tree.get("line"),
            },
            "function": {
                "old": old_tree.get("func_name"),
                "new": new_tree.get("func_name"),
            },
        }

    def query(self, text: str) -> QueryResult:
        """Run one grammar query; returns a structured result."""
        query = parse_query(text)
        if query.kind == "changed":
            return QueryResult(
                kind="history",
                text=query.text,
                matches=[event.to_dict() for event in self.history(query.name)],
            )
        if query.kind == "calls":
            matches = [
                record.to_dict()
                for record in self.calls(query.name)
                if _compare(record.returned, query.op, query.literal)
            ]
            return QueryResult(kind="calls", text=query.text, matches=matches)
        # Value predicates: stream over the recording.
        function, var = self._split_id(query.name)
        use_len = query.kind == "len"
        matches = []
        for position in range(self.first_index, len(self.timeline)):
            snapshot = self.at(position)
            actual = _predicate_value(snapshot, var, function, use_len)
            if actual is not None and _compare(
                actual, query.op, query.literal
            ):
                matches.append(
                    {
                        "index": position,
                        "variable": query.name,
                        "value": actual,
                        "line": snapshot.line,
                        "function": snapshot.func_name,
                    }
                )
        return QueryResult(kind="where", text=query.text, matches=matches)

    @staticmethod
    def _split_id(name: str) -> Tuple[Optional[str], str]:
        if ":" in name:
            function, _, var = name.partition(":")
            return (function or None), var
        return None, name

    # -- navigation (bound views) ---------------------------------------

    def _require_tracker(self) -> Any:
        if self._tracker is None:
            raise TrackerError(
                "this view is not bound to a tracker; open it with "
                "tracker.timeline_view() to navigate"
            )
        return self._tracker

    @property
    def position(self) -> int:
        """Global index of the bound tracker's current snapshot."""
        return self._require_tracker()._timeline_position()

    def goto(self, index: int) -> StateSnapshot:
        """Jump the bound tracker to the snapshot at global ``index``."""
        return self._require_tracker()._goto(index)

    def backward_step(self) -> None:
        """Rewind the bound tracker to the previous recorded pause."""
        self._require_tracker()._backward("step")

    def backward_next(self) -> None:
        """Rewind to the previous pause at the same depth or shallower."""
        self._require_tracker()._backward("next")

    def backward_finish(self) -> None:
        """Rewind to the previous pause in a caller (shallower depth)."""
        self._require_tracker()._backward("finish")

    def backward_resume(self) -> None:
        """Rewind to the previous control-point pause."""
        self._require_tracker()._backward("resume")


def _predicate_value(
    snapshot: StateSnapshot,
    var: str,
    function: Optional[str],
    use_len: bool,
) -> Optional[str]:
    """The rendered comparand of a value predicate at one snapshot."""
    variable = snapshot.lookup(var, function)
    if variable is None:
        return None
    value = variable.value.chase()
    if use_len:
        kind = value.abstract_type
        if kind in (
            AbstractType.LIST,
            AbstractType.DICT,
            AbstractType.STRUCT,
        ):
            return str(len(value.content))
        if kind is AbstractType.PRIMITIVE and isinstance(
            value.content, (str, bytes)
        ):
            return str(len(value.content))
        return None
    return value.render()
