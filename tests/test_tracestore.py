"""The queryable trace store: index, spill, TimelineView, query grammar.

Covers the PR's tentpole pieces: incremental index maintenance from the
codec's own diff patches (and its parity with a scan-built index), the
``.tracedir/`` spill layout (eviction moves segments to disk; reads load
them back lazily), the unified :class:`TimelineView` query API over live
and reopened recordings, the query expression grammar, typed
:class:`TraceStoreError` on corruption, and the navigation re-homing
(``goto``/``backward_*`` as deprecated shims over the view).
"""

import json
import os
import warnings

import pytest

from repro.api import TimelineView, TraceStoreError, parse_query
from repro.core.errors import TrackerError
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.state import AbstractType, Value, Variable
from repro.core.timeline import (
    EVENT_CALL,
    EVENT_RETURN,
    StateSnapshot,
    Timeline,
    load_timeline,
)
from repro.core.tracestore import (
    SegmentSpool,
    TraceIndex,
    TraceStore,
    changed_variable_ids,
)
from repro.pytracker import PythonTracker

PROGRAM = """\
def f(n):
    y = n * 2
    return y

x = 0
heap = []
for i in range(5):
    x = f(i)
    heap.append(i)
done = True
"""


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "prog.py"
    path.write_text(PROGRAM)
    return str(path)


def _record(program, **kwargs):
    """Step a program to completion with recording (and f tracked)."""
    tracker = PythonTracker()
    tracker.load_program(program)
    tracker.enable_recording(**kwargs)
    tracker.start()
    tracker.track_function("f")
    for _ in range(500):
        if tracker.get_exit_code() is not None:
            return tracker
        tracker.step()
    pytest.fail("inferior did not terminate")


# ---------------------------------------------------------------------------
# The inverted index
# ---------------------------------------------------------------------------


class TestTraceIndex:
    def test_record_time_index_matches_scan_built(self, program):
        """The incrementally-maintained index (observing the codec's own
        patches) must be identical to one built by scanning the stored
        recording — the guarantee that lets queries trust either."""
        tracker = _record(program, keyframe_interval=4)
        live = tracker._trace_index
        assert live is not None
        scan = TimelineView(tracker.timeline).ensure_index()
        assert live.to_dict() == scan.to_dict()
        tracker.terminate()

    def test_change_indices_plain_name_merges_scopes(self, program):
        tracker = _record(program, keyframe_interval=4)
        index = tracker._trace_index
        # 'y' exists only as a local of f; the plain name finds it.
        assert index.change_indices("y") == index.change_indices("f:y")
        assert index.change_indices("y")
        tracker.terminate()

    def test_call_records_pair_calls_with_returns(self, program):
        tracker = _record(program, keyframe_interval=4)
        records = tracker._trace_index.call_records("f")
        assert len(records) == 5
        for position, record in enumerate(records):
            assert record["call"] is not None
            assert record["return"] is not None
            assert record["call"] < record["return"]
            assert record["returned"] == str(position * 2)
        tracker.terminate()

    def test_reason_indices(self, program):
        tracker = _record(program, keyframe_interval=4)
        index = tracker._trace_index
        timeline = tracker.timeline
        for reason in ("call", "return"):
            for position in index.reason_indices(reason):
                snapshot = timeline.snapshot(position)
                assert snapshot.reason.type.value == reason
        tracker.terminate()

    def test_forget_rolls_back_the_last_observation(self):
        index = TraceIndex()
        tree_a = _snapshot_tree(line=1, variables={"x": 1})
        tree_b = _snapshot_tree(line=2, variables={"x": 2})
        index.observe(0, None, tree_a, None)
        before = json.loads(json.dumps(index.to_dict()))
        from repro.core.timeline import diff_tree

        index.observe(1, tree_a, tree_b, diff_tree(tree_a, tree_b))
        assert index.forget(1)
        after = index.to_dict()
        before["observed"] = after["observed"]  # high-water mark may stay
        assert after["changes"] == before["changes"]
        assert after["reasons"] == before["reasons"]

    def test_index_survives_serialization(self, program):
        tracker = _record(program, keyframe_interval=4)
        index = tracker._trace_index
        clone = TraceIndex.from_dict(
            json.loads(json.dumps(index.to_dict()))
        )
        assert clone.to_dict() == index.to_dict()
        assert clone.change_indices("x") == index.change_indices("x")
        tracker.terminate()


def _snapshot_tree(line, variables):
    return StateSnapshot(
        frame=None,
        globals={
            name: Variable(
                name=name,
                value=Value(
                    abstract_type=AbstractType.PRIMITIVE, content=value
                ),
                scope="global",
            )
            for name, value in variables.items()
        },
        line=line,
    ).to_dict()


class TestChangeExtraction:
    def test_first_snapshot_counts_all_visible_variables(self):
        tree = _snapshot_tree(line=1, variables={"x": 1, "y": 2})
        assert changed_variable_ids(None, tree, None) == {"x", "y"}

    def test_patch_names_only_the_changed_variable(self):
        from repro.core.timeline import diff_tree

        old = _snapshot_tree(line=1, variables={"x": 1, "y": 2})
        new = _snapshot_tree(line=2, variables={"x": 5, "y": 2})
        changed = changed_variable_ids(old, new, diff_tree(old, new))
        assert changed == {"x"}

    def test_a_nested_mutation_marks_every_variable_that_reaches_it(self):
        from repro.core.timeline import diff_tree

        def tree(inner_items):
            inner = Value(AbstractType.LIST, tuple(
                Value(AbstractType.PRIMITIVE, n, address=100 + n,
                      language_type="int") for n in inner_items
            ), address=2, language_type="list")
            outer = Value(AbstractType.LIST, (inner,), address=1,
                          language_type="list")
            other = Value(AbstractType.LIST, (), address=3,
                          language_type="list")

            def ref(target):
                return Value(AbstractType.REF, target, language_type="list")

            return StateSnapshot(frame=None, globals={
                name: Variable(name, ref(target), "global")
                for name, target in (("outer", outer), ("alias", inner),
                                     ("other", other))
            }).to_dict()

        old, new = tree([1]), tree([1, 2])
        patch = diff_tree(old, new)
        # One heap entry changed, however many names reach it.
        assert list(patch["$d"]["sub"]) == ["heap"]
        assert list(patch["$d"]["sub"]["heap"]["$d"]["sub"]) == ["2:list"]
        assert changed_variable_ids(old, new, patch) == {"outer", "alias"}

    def test_a_none_argument_does_not_change_a_none_global(self, tmp_path):
        """Every ``None`` of one pause is one ``Value``, so a frame that
        holds ``None`` leaves the global ``None``'s entry alone."""
        path = tmp_path / "none.py"
        path.write_text(
            "result = None\n"
            "def f(node):\n"
            "    return node\n"
            "f(None)\n"
            "done = 1\n"
        )
        tracker = _record(str(path))
        try:
            trees = [
                tracker.timeline._tree_at(i)
                for i in range(len(tracker.timeline))
            ]
            keys = {
                tree["globals"]["result"]["value"]["content"]
                for tree in trees if "result" in tree["globals"]
            }
            assert len(keys) == 1 and "#" not in keys.pop()
            events = tracker.timeline_view().history("result")
            assert [event.value for event in events] == ["None"]
        finally:
            tracker.terminate()

    def test_a_renumbered_key_is_not_a_change(self, tmp_path):
        """With ``snapshot_depth=1`` the global ``box`` is met first as
        ``nest``'s depth summary, so it holds a "#" key at module level;
        inside ``f`` its full capture is met first and holds the plain
        key. Its value never changes, so it has one history event."""
        path = tmp_path / "depth.py"
        path.write_text(
            "nest = [[[1]]]\n"
            "box = nest[0][0]\n"
            "def f(n):\n"
            "    return n\n"
            "f(box)\n"
            "done = 1\n"
        )
        tracker = PythonTracker(snapshot_depth=1)
        tracker.load_program(str(path))
        tracker.enable_recording()
        tracker.start()
        try:
            while tracker.get_exit_code() is None:
                tracker.step()
            trees = [
                tracker.timeline._tree_at(i)
                for i in range(len(tracker.timeline))
            ]
            keys = [
                tree["globals"]["box"]["value"]["content"]
                for tree in trees if "box" in tree["globals"]
            ]
            assert any("#" in key for key in keys)
            assert any("#" not in key for key in keys)
            events = tracker.timeline_view().history("box")
            assert [event.value for event in events] == ["[1]"]
        finally:
            tracker.terminate()


# ---------------------------------------------------------------------------
# Spill parity: in-memory vs spilled-to-disk recordings answer alike
# ---------------------------------------------------------------------------


class TestSpillParity:
    def test_where_and_history_identical_after_spill(self, program, tmp_path):
        reference = _record(program, keyframe_interval=4)
        spilled = _record(
            program,
            keyframe_interval=4,
            max_snapshots=5,  # tiny: forces nearly everything to disk
            tracedir=str(tmp_path / "run.tracedir"),
        )
        assert spilled.timeline.start_index > 0  # eviction really happened
        assert spilled.timeline.first_index == 0  # ... but nothing was lost
        view_a = reference.timeline_view()
        view_b = spilled.timeline_view()
        for name in ("x", "heap", "y", "done"):
            assert [
                (event.index, event.value) for event in view_a.history(name)
            ] == [(event.index, event.value) for event in view_b.history(name)]
        for predicate in ("len(heap) > 3", "x >= 4", "x changed", "f() == 6"):
            assert view_a.where(predicate) == view_b.where(predicate)
        reference.terminate()
        spilled.terminate()

    def test_sealed_tracedir_reopens_with_identical_answers(
        self, program, tmp_path
    ):
        tracedir = str(tmp_path / "run.tracedir")
        tracker = _record(
            program, keyframe_interval=4, max_snapshots=5, tracedir=tracedir
        )
        live_history = [
            (event.index, event.value)
            for event in tracker.timeline_view().history("x")
        ]
        live_len = len(tracker.timeline)
        tracker.terminate()  # seals the store

        view = TimelineView.open(tracedir)
        assert len(view) == live_len
        assert view.first_index == 0
        # The record-time index was persisted in the manifest.
        assert view.index is not None
        assert [
            (event.index, event.value) for event in view.history("x")
        ] == live_history
        # Snapshots reconstruct lazily from the mmap'd segment files.
        assert view.at(0).line is not None
        assert view.at(-1).exit_code == 0

    def test_load_timeline_opens_a_tracedir(self, program, tmp_path):
        tracedir = str(tmp_path / "run.tracedir")
        tracker = _record(program, keyframe_interval=4, tracedir=tracedir)
        count = len(tracker.timeline)
        tracker.terminate()
        timeline = load_timeline(tracedir)
        assert len(timeline) == count
        assert timeline.snapshot(0).line is not None

    def test_goto_reaches_spilled_snapshots(self, program, tmp_path):
        tracker = _record(
            program,
            keyframe_interval=4,
            max_snapshots=5,
            tracedir=str(tmp_path / "run.tracedir"),
        )
        view = tracker.timeline_view()
        assert tracker.timeline.start_index > 0
        snapshot = view.goto(0)  # before the in-memory window
        assert snapshot.line is not None
        assert view.position == 0
        view.goto(-1)
        tracker.terminate()

    def test_segment_and_manifest_text_is_compact_json(self, tmp_path):
        shared = {"abstract_type": "primitive", "content": "é", "location":
                  "heap", "address": 1, "language_type": "str"}
        segment = {
            "key": {"globals": {"a": shared, "b": shared}, "line": 3},
            "deltas": [None, {"$r": [True, 1.0]}, {"$d": {"del": ["a"]}}],
        }
        tracedir = str(tmp_path / "run.tracedir")
        spool = SegmentSpool(tracedir, create=True)
        spool.spill(segment, 10)
        spool.spill({"key": shared, "deltas": []}, 14)
        with open(os.path.join(tracedir, "segment-00000.json")) as handle:
            assert handle.read() == json.dumps(segment, separators=(",", ":"))
        with open(os.path.join(tracedir, "segment-00001.json")) as handle:
            assert handle.read() == json.dumps(
                {"key": shared, "deltas": []}, separators=(",", ":")
            )
        with open(os.path.join(tracedir, "manifest.json")) as handle:
            text = handle.read()
        assert text == json.dumps(json.loads(text), separators=(",", ":"))
        reopened = SegmentSpool.open(tracedir)
        assert reopened.load(13) == (10, segment)
        assert reopened.load(14)[0] == 14
        with pytest.raises(TraceStoreError):
            reopened.load(9)

    def test_eviction_without_spool_still_drops(self, program):
        tracker = _record(program, keyframe_interval=4, max_snapshots=5)
        timeline = tracker.timeline
        assert timeline.start_index > 0
        assert timeline.first_index == timeline.start_index
        with pytest.raises(TrackerError):
            tracker.timeline_view().goto(0)
        tracker.terminate()


# ---------------------------------------------------------------------------
# Corruption: typed errors, never stack traces
# ---------------------------------------------------------------------------


class TestCorruption:
    def _sealed_tracedir(self, program, tmp_path):
        tracedir = str(tmp_path / "run.tracedir")
        tracker = _record(
            program, keyframe_interval=4, max_snapshots=5, tracedir=tracedir
        )
        tracker.terminate()
        return tracedir

    def test_corrupt_manifest_raises_typed_error(self, program, tmp_path):
        tracedir = self._sealed_tracedir(program, tmp_path)
        with open(os.path.join(tracedir, "manifest.json"), "w") as handle:
            handle.write("{definitely not json")
        with pytest.raises(TraceStoreError):
            TimelineView.open(tracedir)

    def test_wrong_format_manifest_raises_typed_error(
        self, program, tmp_path
    ):
        tracedir = self._sealed_tracedir(program, tmp_path)
        with open(os.path.join(tracedir, "manifest.json"), "w") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(TraceStoreError):
            TimelineView.open(tracedir)

    def test_missing_directory_raises_typed_error(self, tmp_path):
        with pytest.raises(TraceStoreError):
            SegmentSpool.open(str(tmp_path / "nope.tracedir"))

    def test_missing_path_raises_typed_error(self, tmp_path):
        with pytest.raises(TraceStoreError):
            TimelineView.open(str(tmp_path / "nope.timeline.json"))

    def test_corrupt_segment_raises_typed_error(self, program, tmp_path):
        tracedir = self._sealed_tracedir(program, tmp_path)
        segment = sorted(
            name
            for name in os.listdir(tracedir)
            if name.startswith("segment-")
        )[0]
        with open(os.path.join(tracedir, segment), "w") as handle:
            handle.write("garbage")
        view = TimelineView.open(tracedir)  # manifest alone is fine (lazy)
        with pytest.raises(TraceStoreError):
            view.at(0)

    def test_cli_surfaces_error_exit_2(self, program, tmp_path, capsys):
        from repro.cli import main

        tracedir = self._sealed_tracedir(program, tmp_path)
        with open(os.path.join(tracedir, "manifest.json"), "w") as handle:
            handle.write("{broken")
        assert main(["timeline", "query", "--tracedir", tracedir, "x",
                     "changed"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_a_version_1_store_is_refused(self, program, tmp_path):
        tracedir = self._sealed_tracedir(program, tmp_path)
        path = os.path.join(tracedir, "manifest.json")
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["version"] = 1
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(TraceStoreError, match="version 1.*version 2"):
            TimelineView.open(tracedir)


def test_recording_again_into_a_store_replaces_it(program, tmp_path):
    """Creating a store starts a new segment log: a second recording into
    the same directory answers like that recording alone."""
    tracedir = str(tmp_path / "run.tracedir")
    _record(
        program, keyframe_interval=4, max_snapshots=5, tracedir=tracedir
    ).terminate()
    short = tmp_path / "short.py"
    short.write_text(PROGRAM.replace("range(5)", "range(2)"))
    tracker = _record(
        str(short), keyframe_interval=3, max_snapshots=4, tracedir=tracedir
    )
    live_len = len(tracker.timeline)
    live = [tracker.timeline.snapshot(i) for i in range(live_len)]
    history = tracker.timeline_view().history("x")
    tracker.terminate()
    view = TimelineView.open(tracedir)
    assert (view.first_index, len(view)) == (0, live_len)
    assert [view.at(i) for i in range(live_len)] == live
    assert view.history("x") == history


def test_an_unterminated_store_opens_with_its_spilled_segments(
    program, tmp_path
):
    """The manifest is written at creation and at the seal; in between,
    each spill appends one line to the segment log, so a store whose
    tracker was never terminated opens with the segments it spilled (and
    a torn last line is ignored)."""
    tracedir = str(tmp_path / "run.tracedir")
    tracker = PythonTracker()
    tracker.load_program(program)
    tracker.enable_recording(
        keyframe_interval=4, max_snapshots=5, tracedir=tracedir
    )
    tracker.start()
    try:
        for _ in range(30):
            tracker.step()
        spilled = tracker.timeline.spool.count
        assert spilled >= 8
        with open(os.path.join(tracedir, "segments.jsonl"), "a") as log:
            log.write('{"file": "segment-99')
        view = TimelineView.open(tracedir)
        assert (view.first_index, len(view)) == (0, spilled)
        assert [view.at(i) for i in range(spilled)] == [
            tracker.timeline.snapshot(i) for i in range(spilled)
        ]
        live = tracker.timeline_view().history("x")
        assert view.history("x") == [e for e in live if e.index < spilled]
    finally:
        tracker.terminate()


# ---------------------------------------------------------------------------
# TimelineView queries
# ---------------------------------------------------------------------------


class TestTimelineView:
    def test_history_orders_change_events(self, program):
        tracker = _record(program, keyframe_interval=4)
        events = tracker.timeline_view().history("x")
        assert [event.value for event in events] == ["0", "2", "4", "6", "8"]
        assert events == sorted(events, key=lambda event: event.index)
        tracker.terminate()

    def test_last_change(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = tracker.timeline_view()
        last = view.last_change("x")
        assert last.value == "8"
        assert last.index == view.history("x")[-1].index
        assert view.last_change("no_such_variable") is None
        tracker.terminate()

    def test_calls_filter_by_return_value(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = tracker.timeline_view()
        assert len(view.calls("f")) == 5
        matching = view.calls("f", returned="4")
        assert len(matching) == 1
        assert matching[0].returned == "4"
        tracker.terminate()

    def test_where_callable_predicate(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = tracker.timeline_view()
        deep = view.where(lambda snapshot: snapshot.depth > 0)
        assert deep
        assert all(view.at(i).depth > 0 for i in deep)
        tracker.terminate()

    def test_changes_between(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = tracker.timeline_view()
        first_x = view.history("x")[0].index
        last_x = view.history("x")[-1].index
        diff = view.changes_between(first_x, last_x)
        assert diff["variables"]["x"]["old"] == "0"
        assert diff["variables"]["x"]["new"] == "8"
        tracker.terminate()

    def test_invalid_return_values_match_INVALID(self):
        timeline = Timeline(keyframe_interval=4)
        invalid = Value(abstract_type=AbstractType.INVALID, content=None)
        for position, event in enumerate([EVENT_CALL, EVENT_RETURN]):
            reason = PauseReason(
                type=(
                    PauseReasonType.CALL
                    if event == EVENT_CALL
                    else PauseReasonType.RETURN
                ),
                function="g",
                return_value=invalid if event == EVENT_RETURN else None,
                line=position + 1,
            )
            timeline.append(
                StateSnapshot(
                    frame=None,
                    globals={},
                    line=position + 1,
                    reason=reason,
                    event=event,
                    func_name="g",
                )
            )
        view = TimelineView(timeline)
        matches = view.query("g() == INVALID").matches
        assert len(matches) == 1
        assert matches[0]["returned"] == "<invalid>"

    def test_unbound_view_refuses_navigation(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = TimelineView(tracker.timeline)
        with pytest.raises(TrackerError):
            view.goto(0)
        tracker.terminate()

    def test_mi_timeline_query_command(self, tmp_path):
        from repro.subproc.server import PythonDebugServer

        path = tmp_path / "prog.py"
        path.write_text(PROGRAM)
        server = PythonDebugServer(str(path))
        try:
            assert server.handle("-timeline-start")[0].startswith("^done")
            server.handle("-exec-run")
            for _ in range(200):
                if "exited" in "".join(server.handle("-exec-step")):
                    break
            reply = server.handle('-timeline-query "x changed"')[0]
            assert reply.startswith("^done")
            payload = json.loads(reply[len("^done,"):])
            assert payload["kind"] == "history"
            assert [m["value"] for m in payload["matches"]] == [
                "0", "2", "4", "6", "8",
            ]
            bad = server.handle("-timeline-query nonsense ~~ 3")[0]
            assert bad.startswith("^error")
        finally:
            server.handle("-gdb-exit")


# ---------------------------------------------------------------------------
# The query grammar
# ---------------------------------------------------------------------------


class TestQueryGrammar:
    def test_parse_forms(self):
        assert parse_query("x changed").kind == "changed"
        assert parse_query("f() == INVALID").kind == "calls"
        assert parse_query("len(heap) > 100").kind == "len"
        assert parse_query("x >= 7").kind == "var"
        query = parse_query("f:y != 'abc'")
        assert query.kind == "var"
        assert query.name == "f:y"

    def test_parse_rejects_nonsense_with_typed_error(self):
        for text in ("", "x", "f(", "x ~~ 3", "== 3"):
            with pytest.raises(TraceStoreError):
                parse_query(text)

    def test_value_predicates(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = tracker.timeline_view()
        geq = view.where("x >= 4")
        assert geq
        # Matches start exactly where history says x first reached 4,
        # and the complementary predicate is disjoint ...
        threshold = next(
            event.index
            for event in view.history("x")
            if int(event.value) >= 4
        )
        assert min(geq) >= threshold
        assert set(geq).isdisjoint(view.where("x < 4"))
        # ... and string comparison handles quotes either way.
        assert view.where("done == True") == view.where("done == 'True'")
        tracker.terminate()


# ---------------------------------------------------------------------------
# Navigation lives on the view
# ---------------------------------------------------------------------------


class TestViewNavigation:
    def test_tracker_has_no_navigation_shims(self, program):
        tracker = _record(program, keyframe_interval=4)
        for name in ("goto", "backward_step", "backward_next",
                     "backward_finish", "backward_resume"):
            assert not hasattr(tracker, name)
        view = tracker.timeline_view()
        view.goto(2)
        view.backward_step()
        assert tracker._timeline_position() == 1
        tracker.terminate()

    def test_view_navigation_does_not_warn(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = tracker.timeline_view()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error", DeprecationWarning)
            view.goto(2)
            view.backward_step()
            view.backward_resume()
        assert caught == []
        tracker.terminate()
