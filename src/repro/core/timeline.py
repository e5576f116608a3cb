"""Time-travel timelines: delta-compressed recording of paused state.

The state model of Section II-B2 was designed to be serializable so that
state can cross process boundaries; this module pushes that one step
further and makes it *navigable in time*. A :class:`TimelineRecorder`
attaches to any tracker and, at every pause, captures a
:class:`StateSnapshot` — an immutable, serializable bundle of
frames/globals/position/stdout/exit state — into a :class:`Timeline`.

Storage is delta-compressed: each snapshot serializes to a JSON tree
(frames, globals and one heap table, built by
:class:`repro.core.state.HeapEncoder`) and the timeline stores a
structural diff against the previous tree, with a full
*keyframe* every ``keyframe_interval`` snapshots and an optional bounded
ring buffer (whole keyframe-led segments are evicted from the front, so
reconstruction never needs an evicted base).

On top of a timeline the tracker base class implements the reverse
control calls behind ``TimelineView.backward_*`` / ``goto`` —
backend-agnostically, by replaying recorded snapshots instead of
touching the (forward-only) inferior — and
:class:`repro.core.replay.ReplayTracker` exposes a saved timeline behind
the full tracker API, generalizing the Python Tutor replay tracker
(PT traces are just one timeline *codec*; see :func:`load_timeline`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import ProgramLoadError, TraceStoreError, TrackerError
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.state import Frame, HeapDecoder, HeapEncoder, Value, Variable

#: Snapshot event kinds, aligned with the Python Tutor event vocabulary so
#: PT trace steps convert losslessly (EVENT_CALL == "call" and so on).
EVENT_CALL = "call"
EVENT_RETURN = "return"
EVENT_LINE = "step_line"
EVENT_EXIT = "exit"


# ---------------------------------------------------------------------------
# Structural JSON-tree diffing (the delta codec)
# ---------------------------------------------------------------------------
#
# A patch is one of:
#   None                      -- no change
#   {"$r": new}               -- wholesale replacement
#   {"$d": {"set": {...}, "del": [...], "sub": {key: patch}}}
#                             -- dict edit (added / removed / patched keys)
#   {"$l": {"n": len, "sub": {index: patch}, "tail": [...]}}
#                             -- list edit (patched prefix, new length, tail)
#
# Snapshot trees only use the fixed key names of the state codecs plus
# variable names, so the "$"-prefixed marker keys cannot collide with data.
#
# The diff and ``trees_equal`` are strict: ``True`` != ``1`` != ``1.0``,
# which a plain ``==`` on containers conflates. A value dict (a heap entry
# or an inline value of :class:`~repro.core.state.HeapEncoder`) is still
# compared with one ``==``: its ``language_type`` fixes the type of its
# scalar content, and every other scalar below it is a heap key string or
# sits in another value dict. A tree that breaks that contract (a ``bool``
# content under an ``int`` tag) may diff as unchanged.


def _is_value_dict(tree: Dict[str, Any]) -> bool:
    return "language_type" in tree and "abstract_type" in tree


def diff_tree(old: Any, new: Any) -> Optional[Any]:
    """Structural diff of two JSON trees; ``None`` means "identical"."""
    if old is new:
        return None
    if type(old) is type(new):
        if isinstance(old, dict):
            if _is_value_dict(old) and old == new:
                return None
            removed = [key for key in old if key not in new]
            added: Dict[str, Any] = {}
            patched: Dict[str, Any] = {}
            for key, value in new.items():
                if key not in old:
                    added[key] = value
                else:
                    prior = old[key]
                    if prior is value:
                        continue
                    patch = diff_tree(prior, value)
                    if patch is not None:
                        patched[key] = patch
            if not (removed or added or patched):
                return None
            edit: Dict[str, Any] = {}
            if added:
                edit["set"] = added
            if removed:
                edit["del"] = removed
            if patched:
                edit["sub"] = patched
            return {"$d": edit}
        if isinstance(old, list):
            common = min(len(old), len(new))
            patched_items: Dict[str, Any] = {}
            for index in range(common):
                patch = diff_tree(old[index], new[index])
                if patch is not None:
                    patched_items[str(index)] = patch
            if len(old) == len(new) and not patched_items:
                return None
            edit = {"n": len(new)}
            if patched_items:
                edit["sub"] = patched_items
            if len(new) > common:
                edit["tail"] = new[common:]
            return {"$l": edit}
        if old == new:
            return None
    return {"$r": new}


def apply_patch(old: Any, patch: Optional[Any]) -> Any:
    """Apply a :func:`diff_tree` patch to ``old``, returning the new tree.

    ``old`` is never mutated; unmodified subtrees are shared by reference
    (callers must treat reconstructed trees as read-only, which the
    snapshot decoder does).
    """
    if patch is None:
        return old
    if "$r" in patch:
        return patch["$r"]
    if "$d" in patch:
        edit = patch["$d"]
        result = dict(old)
        for key in edit.get("del", ()):
            result.pop(key, None)
        for key, sub_patch in edit.get("sub", {}).items():
            result[key] = apply_patch(old[key], sub_patch)
        result.update(edit.get("set", {}))
        return result
    if "$l" in patch:
        edit = patch["$l"]
        result = list(old)
        for index, sub_patch in edit.get("sub", {}).items():
            position = int(index)
            result[position] = apply_patch(old[position], sub_patch)
        del result[edit["n"]:]
        result.extend(edit.get("tail", ()))
        return result
    raise TrackerError(f"malformed timeline patch: {patch!r}")


def trees_equal(a: Any, b: Any) -> bool:
    """Strict structural equality (``True`` and ``1`` are *different*)."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        if _is_value_dict(a):
            return a == b
        if a.keys() != b.keys():
            return False
        return all(trees_equal(value, b[key]) for key, value in a.items())
    if isinstance(a, list):
        return len(a) == len(b) and all(
            trees_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


# ---------------------------------------------------------------------------
# StateSnapshot: the unified inspection bundle
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class StateSnapshot:
    """Everything inspectable about one paused (or exited) inferior state.

    This is both the return type of :meth:`Tracker.snapshot` — the unified
    replacement for the ``get_frames`` / ``get_global_variables`` /
    ``get_position`` / ``get_source_lines`` call quartet — and the unit a
    :class:`TimelineRecorder` stores.

    Attributes:
        frame: innermost :class:`Frame` with its parent chain, or ``None``
            for an exit snapshot of a backend without post-exit inspection.
        globals: the inferior's global variables by name.
        filename: main program file (``get_position()[0]``).
        line: next line to execute, or ``None`` at exit.
        depth: the frame depth used by ``maxdepth`` semantics (0 = entry).
        stdout: inferior output accumulated up to this pause ("" when the
            backend does not capture output).
        exit_code: exit status if the inferior has terminated, else ``None``.
        reason: the :class:`PauseReason` of this pause, when known.
        event: coarse event kind ("call", "return", "step_line", "exit"),
            used by replay-side control-point evaluation.
        func_name: name of the innermost function, for replay matching.
        thread: index of the inferior thread that produced this pause
            (``None`` on single-threaded captures).

    Snapshots are immutable by contract; equality is *structural* over the
    serialized tree (two snapshots captured from identical states compare
    equal even though their ``Value`` objects differ by identity).
    """

    frame: Optional[Frame]
    globals: Dict[str, Variable] = field(default_factory=dict)
    filename: str = ""
    line: Optional[int] = None
    depth: int = 0
    stdout: str = ""
    exit_code: Optional[int] = None
    reason: Optional[PauseReason] = None
    event: str = EVENT_LINE
    func_name: Optional[str] = None
    thread: Optional[int] = None

    @classmethod
    def capture(cls, tracker: Any) -> "StateSnapshot":
        """Capture the current state of a started tracker from its backend.

        Works at any lifecycle point after ``start``: a paused inferior
        yields a full snapshot; a terminated one (on a backend without
        post-exit inspection) yields a frameless exit snapshot. Tools call
        :meth:`Tracker.snapshot` instead, which captures through here once
        per pause and shares the result.
        """
        exit_code = tracker.get_exit_code()
        reason = tracker.pause_reason
        try:
            stdout = tracker._get_output() or ""
        except TrackerError:
            stdout = ""
        if exit_code is not None and not tracker._allows_post_exit_inspection():
            return cls(
                frame=None,
                filename=tracker._program or "",
                stdout=stdout,
                exit_code=exit_code,
                reason=reason,
                event=EVENT_EXIT,
            )
        frame = tracker._get_current_frame()
        # The innermost frame is where the inferior paused; only a backend
        # whose frames record no position is asked for it separately.
        if frame.filename and frame.line is not None:
            filename, line = frame.filename, frame.line
        else:
            filename, line = tracker._get_position()
        thread = reason.thread if reason is not None else None
        if thread is None and frame is not None:
            thread = frame.thread
        return cls(
            frame=frame,
            globals=dict(tracker._get_global_variables()),
            filename=filename,
            line=line,
            depth=frame.depth,
            stdout=stdout,
            exit_code=exit_code,
            reason=reason,
            event=event_for_reason(reason),
            func_name=frame.name,
            thread=thread,
        )

    # -- convenience views (mirror the old inspection quartet) ----------

    def frames(self) -> List[Frame]:
        """All frames, innermost first (empty for an exit snapshot)."""
        return self.frame.stack() if self.frame is not None else []

    def position(self) -> Tuple[str, Optional[int]]:
        """``(filename, next line)`` as ``get_position`` returns it."""
        return (self.filename, self.line)

    def lookup(self, name: str, function: Optional[str] = None) -> Optional[Variable]:
        """Variable lookup with ``Tracker.get_variable`` semantics."""
        if function is not None:
            for frame in self.frames():
                if frame.name == function:
                    return frame.lookup(name)
            return None
        if self.frame is not None:
            found = self.frame.lookup(name)
            if found is not None:
                return found
        return self.globals.get(name)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Encode as a JSON-serializable tree (the delta-codec substrate).

        Frames, globals and the reason share one ``heap`` table: a value
        they share is one entry that each of them holds by key (see
        :class:`repro.core.state.HeapEncoder`).
        """
        encoder = HeapEncoder()
        encoded = {
            "frame": encoder.frame(self.frame) if self.frame else None,
            "globals": encoder.variables(self.globals),
            "filename": self.filename,
            "line": self.line,
            "depth": self.depth,
            "stdout": self.stdout,
            "exit_code": self.exit_code,
            "reason": _reason_to_dict(self.reason, encoder),
            "event": self.event,
            "func_name": self.func_name,
            "heap": encoder.heap,
        }
        if self.thread is not None:  # only when set, like Value.truncated
            encoded["thread"] = self.thread
        return encoded

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StateSnapshot":
        """Decode the output of :meth:`to_dict` (one table: a key shared
        by frames, globals and reason decodes to one :class:`Value`)."""
        decoder = HeapDecoder(data["heap"])
        return cls(
            frame=decoder.frame(data["frame"]) if data["frame"] else None,
            globals=decoder.variables(data.get("globals", {})),
            filename=data.get("filename", ""),
            line=data.get("line"),
            depth=data.get("depth", 0),
            stdout=data.get("stdout", ""),
            exit_code=data.get("exit_code"),
            reason=_reason_from_dict(data.get("reason"), decoder),
            event=data.get("event", EVENT_LINE),
            func_name=data.get("func_name"),
            thread=data.get("thread"),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateSnapshot):
            return NotImplemented
        return trees_equal(self.to_dict(), other.to_dict())

    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"{self.func_name or '?'}:{self.line}"
        if self.exit_code is not None and self.frame is None:
            where = f"exit({self.exit_code})"
        return f"StateSnapshot({where}, depth={self.depth}, event={self.event!r})"


def event_for_reason(reason: Optional[PauseReason]) -> str:
    """The coarse :attr:`StateSnapshot.event` of a pause with ``reason``."""
    if reason is None:
        return EVENT_LINE
    if reason.type is PauseReasonType.CALL:
        return EVENT_CALL
    if reason.type is PauseReasonType.RETURN:
        return EVENT_RETURN
    if reason.type is PauseReasonType.EXIT:
        return EVENT_EXIT
    return EVENT_LINE


def _reason_to_dict(
    reason: Optional[PauseReason], encoder: HeapEncoder
) -> Optional[Dict[str, Any]]:
    if reason is None:
        return None
    encoded = {
        "type": reason.type.value,
        "function": reason.function,
        "variable": reason.variable,
        "old_value": _wrap_value(reason.old_value, encoder),
        "new_value": _wrap_value(reason.new_value, encoder),
        "return_value": _wrap_value(reason.return_value, encoder),
        "line": reason.line,
    }
    if reason.thread is not None:
        encoded["thread"] = reason.thread
    if reason.thread_name is not None:
        encoded["thread_name"] = reason.thread_name
    if reason.details is not None:
        encoded["details"] = reason.details
    return encoded


def _reason_from_dict(
    data: Optional[Dict[str, Any]], decoder: HeapDecoder
) -> Optional[PauseReason]:
    if data is None:
        return None
    return PauseReason(
        type=PauseReasonType(data["type"]),
        function=data.get("function"),
        variable=data.get("variable"),
        old_value=_unwrap_value(data.get("old_value"), decoder),
        new_value=_unwrap_value(data.get("new_value"), decoder),
        return_value=_unwrap_value(data.get("return_value"), decoder),
        line=data.get("line"),
        thread=data.get("thread"),
        thread_name=data.get("thread_name"),
        details=data.get("details"),
    )


def _wrap_value(payload: Any, encoder: HeapEncoder) -> Any:
    """Reason payloads are usually rendered strings, but RETURN may carry
    a model :class:`Value`; tag its position in the snapshot's heap so the
    round trip is unambiguous."""
    if isinstance(payload, Value):
        return {"$value": encoder.value(payload)}
    return payload


def _unwrap_value(payload: Any, decoder: HeapDecoder) -> Any:
    if isinstance(payload, dict) and "$value" in payload:
        return decoder.value(payload["$value"])
    return payload


# ---------------------------------------------------------------------------
# Timeline: keyframes + deltas + ring buffer
# ---------------------------------------------------------------------------


class Timeline:
    """An append-only, delta-compressed sequence of snapshots.

    Indexes are *global*: the first recorded snapshot is index 0 forever,
    even after the ring buffer evicts it — so ``goto(i)`` stays meaningful
    across evictions. ``len(timeline)`` is the total number of snapshots
    ever recorded; the retained window is
    ``[timeline.start_index, len(timeline))``.

    Args:
        keyframe_interval: a full keyframe every this many snapshots; the
            snapshots between two keyframes are stored as structural
            deltas (:func:`diff_tree`) against their predecessor.
        max_snapshots: bound on retained snapshots. When exceeded, whole
            oldest *segments* (keyframe + its deltas) are evicted, so the
            bound may be overshot by at most ``keyframe_interval - 1``.
        program / source / backend: provenance, so a saved timeline can be
            replayed (``source`` feeds ``get_source_lines``).
    """

    FORMAT = "repro-timeline"
    #: 2: one heap table per snapshot tree; version 1 is refused.
    VERSION = 2

    def __init__(
        self,
        keyframe_interval: int = 16,
        max_snapshots: Optional[int] = None,
        program: str = "",
        source: str = "",
        backend: str = "",
    ) -> None:
        if keyframe_interval < 1:
            raise ValueError("keyframe_interval must be >= 1")
        if max_snapshots is not None and max_snapshots < 1:
            raise ValueError("max_snapshots must be >= 1 (or None)")
        self.keyframe_interval = keyframe_interval
        self.max_snapshots = max_snapshots
        self.program = program
        self.source = source
        self.backend = backend
        #: segments: each holds a full "key" tree plus forward deltas.
        self._segments: List[Dict[str, Any]] = []
        self._start_index = 0
        self._count = 0  # total snapshots ever appended
        self._last_tree: Optional[Any] = None
        #: (global index, tree) of the last reconstruction, so sequential
        #: access (replay, scrubbing) patches forward instead of starting
        #: from the keyframe every time.
        self._cursor: Optional[Tuple[int, Any]] = None
        #: Called as ``fn(index, prev_tree, tree, patch)`` on every append;
        #: this is how the trace-store index observes the same diff_tree
        #: patches the codec computes, without a second pass over state.
        self._append_listeners: List[
            Callable[[int, Optional[Any], Any, Optional[Any]], None]
        ] = []
        #: Called as ``fn(index)`` when :meth:`drop_last` forgets a
        #: snapshot, so an incrementally-maintained index can roll back.
        self._drop_listeners: List[Callable[[int], None]] = []
        #: Disk spill target (:class:`repro.core.tracestore.SegmentSpool`).
        #: When attached, ring-buffer eviction *moves* whole segments to
        #: segment files instead of dropping them, and reconstruction of
        #: pre-window indexes loads them back lazily.
        self.spool: Optional[Any] = None

    # -- sizes -----------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def start_index(self) -> int:
        """Global index of the oldest *in-memory* snapshot."""
        return self._start_index

    @property
    def first_index(self) -> int:
        """Global index of the oldest *reconstructable* snapshot.

        Equal to :attr:`start_index` unless a spill spool is attached, in
        which case evicted segments remain reachable from disk.
        """
        if self.spool is not None:
            spooled = self.spool.first_index
            if spooled is not None:
                return min(spooled, self._start_index)
        return self._start_index

    @property
    def retained(self) -> int:
        """Number of snapshots currently reconstructable."""
        return self._count - self.first_index

    def add_append_listener(
        self, listener: Callable[[int, Optional[Any], Any, Optional[Any]], None]
    ) -> None:
        """Observe every append as ``(index, prev_tree, tree, patch)``.

        ``patch`` is the :func:`diff_tree` of the previous snapshot tree
        against the new one (``None`` for the very first snapshot). With a
        listener installed the patch is computed even for keyframe
        appends, so listeners see an unbroken delta stream.
        """
        self._append_listeners.append(listener)

    def add_drop_listener(self, listener: Callable[[int], None]) -> None:
        """Observe every :meth:`drop_last` as ``(dropped_index)``."""
        self._drop_listeners.append(listener)

    def attach_spool(self, spool: Any) -> None:
        """Spill evicted segments to ``spool`` instead of dropping them."""
        self.spool = spool

    def stats(self) -> Dict[str, Any]:
        """Storage accounting (used by the overhead benchmarks)."""
        deltas = sum(len(segment["deltas"]) for segment in self._segments)
        return {
            "snapshots": self._count,
            "retained": self.retained,
            "keyframes": len(self._segments),
            "deltas": deltas,
            "json_bytes": len(self.dumps()),
        }

    # -- append / evict --------------------------------------------------

    def append(self, snapshot: StateSnapshot) -> int:
        """Record one snapshot; returns its (stable) global index."""
        tree = snapshot.to_dict()
        previous = self._last_tree
        last_segment = self._segments[-1] if self._segments else None
        patch: Optional[Any] = None
        if (
            last_segment is None
            or previous is None
            or 1 + len(last_segment["deltas"]) >= self.keyframe_interval
        ):
            # Keyframe append: the patch is only needed by listeners.
            if self._append_listeners and previous is not None:
                patch = diff_tree(previous, tree)
            self._segments.append({"key": tree, "deltas": []})
        else:
            patch = diff_tree(previous, tree)
            last_segment["deltas"].append(patch)
        self._last_tree = tree
        index = self._count
        self._count += 1
        for listener in self._append_listeners:
            listener(index, previous, tree, patch)
        self._evict()
        return index

    def drop_last(self) -> bool:
        """Forget the most recent snapshot (``record=False`` support)."""
        if not self._segments:
            return False
        segment = self._segments[-1]
        if segment["deltas"]:
            segment["deltas"].pop()
        else:
            self._segments.pop()
        self._count -= 1
        self._cursor = None
        self._last_tree = (
            self._tree_at(self._count - 1) if self.retained > 0 else None
        )
        for listener in self._drop_listeners:
            listener(self._count)
        return True

    def _evict(self) -> None:
        if self.max_snapshots is None:
            return
        while (
            self._count - self._start_index > self.max_snapshots
            and len(self._segments) > 1
        ):
            evicted = self._segments.pop(0)
            if self.spool is not None:
                self.spool.spill(evicted, self._start_index)
            self._start_index += 1 + len(evicted["deltas"])
            if self._cursor is not None and self._cursor[0] < self._start_index:
                self._cursor = None

    # -- random access ---------------------------------------------------

    def snapshot(self, index: int) -> StateSnapshot:
        """Reconstruct the snapshot at global ``index`` (negatives ok)."""
        return StateSnapshot.from_dict(self._tree_at(index))

    def snapshots(self):
        """Iterate over all retained snapshots, oldest first (spilled
        segments included, loaded lazily)."""
        for index in range(self.first_index, self._count):
            yield self.snapshot(index)

    def _tree_at(self, index: int) -> Any:
        if index < 0:
            index += self._count
        if not self.first_index <= index < self._count:
            raise IndexError(
                f"timeline index {index} outside retained window "
                f"[{self.first_index}, {self._count})"
            )
        cursor = self._cursor
        if cursor is not None and cursor[0] == index:
            return cursor[1]
        if index < self._start_index:
            # Evicted from memory but spilled to disk: load lazily.
            base, segment = self.spool.load(index)
        else:
            base = self._start_index
            for segment in self._segments:
                if index < base + 1 + len(segment["deltas"]):
                    break
                base += 1 + len(segment["deltas"])
        tree, start = segment["key"], 0
        # Resume from the cached reconstruction when it sits between this
        # segment's keyframe and the target.
        if cursor is not None and base <= cursor[0] < index:
            tree, start = cursor[1], cursor[0] - base
        for delta in segment["deltas"][start:index - base]:
            tree = apply_patch(tree, delta)
        self._cursor = (index, tree)
        return tree

    # -- (de)serialization ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        segments = self._segments
        start = self._start_index
        if self.spool is not None:
            spilled = self.spool.all_segments()
            if spilled:
                segments = spilled + segments
                start = self.first_index
        return {
            "format": self.FORMAT,
            "version": self.VERSION,
            "program": self.program,
            "backend": self.backend,
            "source": self.source,
            "keyframe_interval": self.keyframe_interval,
            "max_snapshots": self.max_snapshots,
            "start_index": start,
            "segments": segments,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Timeline":
        if data.get("format") != cls.FORMAT:
            raise ProgramLoadError("not a repro timeline")
        if data.get("version") != cls.VERSION:
            raise ProgramLoadError(
                f"timeline format version {data.get('version')!r} is not "
                f"supported (this build reads version {cls.VERSION})"
            )
        timeline = cls(
            keyframe_interval=data.get("keyframe_interval", 16),
            max_snapshots=data.get("max_snapshots"),
            program=data.get("program", ""),
            source=data.get("source", ""),
            backend=data.get("backend", ""),
        )
        timeline._segments = [
            {"key": segment["key"], "deltas": list(segment["deltas"])}
            for segment in data.get("segments", [])
        ]
        timeline._start_index = data.get("start_index", 0)
        timeline._count = timeline._start_index + sum(
            1 + len(segment["deltas"]) for segment in timeline._segments
        )
        if timeline.retained > 0:
            timeline._last_tree = timeline._tree_at(timeline._count - 1)
        return timeline

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as output:
            output.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "Timeline":
        try:
            return cls.from_dict(json.loads(text))
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            raise ProgramLoadError(f"not a timeline: {error}") from error

    @classmethod
    def load(cls, path: str) -> "Timeline":
        with open(path, "r", encoding="utf-8") as source:
            return cls.loads(source.read())


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------


class TimelineRecorder:
    """Records a tracker's pauses into a :class:`Timeline`.

    Created by :meth:`Tracker.enable_recording`; after that, every control
    call that returns appends one snapshot (suppress a single pause with
    the ``record=False`` control-call keyword, or everything with
    :attr:`enabled`).
    """

    def __init__(
        self,
        tracker: Any,
        keyframe_interval: int = 16,
        max_snapshots: Optional[int] = None,
    ) -> None:
        self.tracker = tracker
        self.enabled = True
        self.timeline = Timeline(
            keyframe_interval=keyframe_interval,
            max_snapshots=max_snapshots,
            program=tracker._program or "",
            backend=tracker.backend,
        )

    def record(self) -> int:
        """Append the tracker's paused state; return its index.

        The state is the one :meth:`Tracker.snapshot` shares with every
        inspection call of this pause, so recording and inspecting the
        same pause capture it once.
        """
        if not self.timeline.source:
            self._capture_source()
        return self.timeline.append(self.tracker.snapshot())

    def _capture_source(self) -> None:
        if not self.timeline.program:
            self.timeline.program = self.tracker._program or ""
        try:
            self.timeline.source = "\n".join(self.tracker.get_source_lines())
        except (TrackerError, OSError):
            pass


# ---------------------------------------------------------------------------
# Timeline navigation (shared by live-tracker rewind and ReplayTracker)
# ---------------------------------------------------------------------------

#: Pause-reason types that count as "control points" for backward_resume.
_BREAKPOINT_REASONS = (
    PauseReasonType.BREAKPOINT,
    PauseReasonType.WATCH,
    PauseReasonType.CALL,
    PauseReasonType.RETURN,
)


def scan_backward(timeline: Timeline, current: int, mode: str) -> int:
    """Index of the snapshot a reverse control call should land on.

    Args:
        timeline: the recorded timeline.
        current: global index of the current snapshot.
        mode: "step" (previous snapshot), "next" (previous snapshot at
            depth <= current), "finish" (previous snapshot at depth <
            current), or "resume" (previous control-point pause).

    The scan falls back to the oldest retained snapshot when no snapshot
    matches, mirroring how a forward ``resume`` falls through to exit.
    """
    if mode == "step":
        return max(current - 1, timeline.first_index)
    depth = timeline.snapshot(current).depth
    for index in range(current - 1, timeline.first_index - 1, -1):
        snapshot = timeline.snapshot(index)
        if mode == "next" and snapshot.depth <= depth:
            return index
        if mode == "finish" and snapshot.depth < depth:
            return index
        if mode == "resume" and (
            snapshot.reason is not None
            and snapshot.reason.type in _BREAKPOINT_REASONS
        ):
            return index
    return timeline.first_index


def scan_forward(timeline: Timeline, current: int, mode: str) -> int:
    """Forward counterpart of :func:`scan_backward` for rewound trackers.

    Used when a forward control call arrives while a live tracker is
    rewound into its history: the call moves through *recorded* pauses
    until it reaches the newest snapshot (where the live inferior still
    sits, and control goes live again).
    """
    head = len(timeline) - 1
    if mode == "step":
        return min(current + 1, head)
    depth = timeline.snapshot(current).depth
    for index in range(current + 1, head + 1):
        snapshot = timeline.snapshot(index)
        if mode == "next" and snapshot.depth <= depth:
            return index
        if mode == "finish" and snapshot.depth < depth:
            return index
        if mode == "resume" and (
            snapshot.reason is not None
            and snapshot.reason.type in _BREAKPOINT_REASONS
        ):
            return index
    return head


# ---------------------------------------------------------------------------
# Codec registry: .timeline.json is the native format, PT traces are
# another codec (registered by repro.pytutor.timeline_codec).
# ---------------------------------------------------------------------------

_CODECS: List[Tuple[str, Callable[[Any], bool], Callable[[Any], Timeline]]] = []


def register_timeline_codec(
    name: str,
    sniff: Callable[[Any], bool],
    build: Callable[[Any], Timeline],
) -> None:
    """Register a loader for an on-disk execution-history format.

    ``sniff(data)`` inspects parsed JSON and says whether ``build(data)``
    can turn it into a :class:`Timeline`. Third-party trace formats plug
    in here, the same way third-party trackers plug into the factory.
    """
    _CODECS.append((name, sniff, build))


def _ensure_builtin_codecs() -> None:
    if not any(name == "native" for name, _, _ in _CODECS):
        register_timeline_codec(
            "native",
            lambda data: isinstance(data, dict)
            and data.get("format") == Timeline.FORMAT,
            Timeline.from_dict,
        )
    if not any(name == "pt" for name, _, _ in _CODECS):
        try:
            import repro.pytutor.timeline_codec  # noqa: F401 (self-registers)
        except ImportError:  # pragma: no cover - pytutor always ships
            pass


def load_timeline(path: str) -> Timeline:
    """Load a timeline from any registered codec (native or PT trace).

    ``path`` may also be a ``.tracedir/`` directory written (and sealed)
    by the disk-backed trace store: the timeline then holds nothing in
    memory, every reconstruction loads segments lazily through the
    store's spool (see :mod:`repro.core.tracestore`), and it is read-only.
    """
    import os

    if os.path.isdir(path):
        from repro.core.tracestore import SegmentSpool

        spool = SegmentSpool.open(path)
        meta = spool.timeline_meta
        timeline = Timeline(
            keyframe_interval=int(meta.get("keyframe_interval") or 16),
            max_snapshots=meta.get("max_snapshots"),
            program=meta.get("program") or "",
            source=meta.get("source") or "",
            backend=meta.get("backend") or "",
        )
        timeline._count = spool.count
        timeline._start_index = spool.count
        timeline.attach_spool(spool)
        if timeline.retained == 0:
            raise TraceStoreError(f"trace store {path!r} holds no snapshots")
        return timeline
    with open(path, "r", encoding="utf-8") as source:
        text = source.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ProgramLoadError(f"{path!r} is not JSON: {error}") from error
    _ensure_builtin_codecs()
    for name, sniff, build in _CODECS:
        try:
            matches = sniff(data)
        except Exception:
            matches = False
        if matches:
            return build(data)
    raise ProgramLoadError(
        f"{path!r} matches no registered timeline codec "
        f"(known: {', '.join(name for name, _, _ in _CODECS)})"
    )
