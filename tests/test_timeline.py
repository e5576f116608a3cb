"""Timeline recording, delta compression, and reverse control calls.

Covers the tentpole pieces in isolation: the structural JSON diff codec,
the keyframe/ring-buffer storage of :class:`Timeline`, the recorder
attached to a live ``PythonTracker``, the backend-agnostic
``backward_*``/``goto`` calls (including determinism of reverse-step),
the unified :meth:`Tracker.snapshot` inspection call, the keyword-only
``timeout=`` deprecation shim, and the codec registry behind
:func:`load_timeline`.
"""

import json
import warnings

import pytest

from repro.core.errors import (
    NotPausedError,
    NotStartedError,
    ProgramLoadError,
    TrackerError,
)
from repro.core.pause import PauseReasonType
from repro.core.timeline import (
    StateSnapshot,
    Timeline,
    apply_patch,
    diff_tree,
    load_timeline,
    register_timeline_codec,
    trees_equal,
)
from repro.pytracker import PythonTracker

RECURSION = """\
def rec(n):
    x = n
    if n == 0:
        return 0
    return rec(n - 1)

result = rec(3)
print(result)
"""


@pytest.fixture
def recursion_program(tmp_path):
    path = tmp_path / "rec.py"
    path.write_text(RECURSION)
    return str(path)


def _recorded_tracker(program, **kwargs):
    tracker = PythonTracker(capture_output=True)
    tracker.load_program(program)
    tracker.enable_recording(**kwargs)
    tracker.start()
    return tracker


def _run_to_exit(tracker, move="step"):
    for _ in range(500):
        if tracker.get_exit_code() is not None:
            return
        getattr(tracker, move)()
    pytest.fail("inferior did not terminate")


# ---------------------------------------------------------------------------
# diff_tree / apply_patch
# ---------------------------------------------------------------------------


class TestDeltaCodec:
    def roundtrip(self, old, new):
        patch = diff_tree(old, new)
        rebuilt = apply_patch(old, patch)
        assert trees_equal(rebuilt, new)
        return patch

    def test_identical_trees_have_no_patch(self):
        tree = {"a": [1, {"b": None}], "c": "x"}
        assert diff_tree(tree, json.loads(json.dumps(tree))) is None

    def test_dict_set_del_sub(self):
        old = {"keep": 1, "drop": 2, "edit": {"x": 1}}
        new = {"keep": 1, "add": 3, "edit": {"x": 2}}
        patch = self.roundtrip(old, new)
        assert patch["$d"]["set"] == {"add": 3}
        assert patch["$d"]["del"] == ["drop"]
        assert "edit" in patch["$d"]["sub"]
        assert "keep" not in patch["$d"].get("sub", {})

    def test_list_grow_shrink_and_edit(self):
        self.roundtrip([1, 2, 3], [1, 2, 3, 4, 5])
        self.roundtrip([1, 2, 3], [1])
        self.roundtrip([1, 2, 3], [1, 9, 3])
        self.roundtrip([], [{"a": 1}])
        self.roundtrip([1, 2], [])

    def test_type_change_is_replacement(self):
        assert diff_tree({"a": 1}, [1]) == {"$r": [1]}
        assert diff_tree(1, "1") == {"$r": "1"}

    def test_bool_int_are_distinct(self):
        # JSON bool vs int must not be conflated (True == 1 in Python).
        assert diff_tree(True, 1) == {"$r": 1}
        assert not trees_equal(True, 1)
        assert not trees_equal([True], [1])

    def test_patch_does_not_mutate_old(self):
        old = {"a": [1, 2], "b": {"c": 1}}
        patch = diff_tree(old, {"a": [1], "b": {"c": 2}})
        apply_patch(old, patch)
        assert old == {"a": [1, 2], "b": {"c": 1}}

    def test_malformed_patch_rejected(self):
        with pytest.raises(TrackerError):
            apply_patch({}, {"$bogus": 1})


# ---------------------------------------------------------------------------
# Timeline storage
# ---------------------------------------------------------------------------


def _snap(line, depth=0, **kwargs):
    return StateSnapshot(
        frame=None, filename="p.py", line=line, depth=depth, **kwargs
    )


class TestTimelineStorage:
    def test_keyframe_segmentation(self):
        timeline = Timeline(keyframe_interval=4)
        for line in range(10):
            timeline.append(_snap(line))
        stats = timeline.stats()
        assert stats["keyframes"] == 3  # 4 + 4 + 2
        assert stats["deltas"] == 7
        for line in range(10):
            assert timeline.snapshot(line).line == line

    def test_random_access_and_negative_indexes(self):
        timeline = Timeline(keyframe_interval=3)
        for line in range(7):
            timeline.append(_snap(line))
        assert timeline.snapshot(-1).line == 6
        assert timeline.snapshot(3).line == 3
        assert timeline.snapshot(0).line == 0
        with pytest.raises(IndexError):
            timeline.snapshot(7)

    def test_ring_eviction_keeps_global_indexes(self):
        timeline = Timeline(keyframe_interval=4, max_snapshots=6)
        for line in range(12):
            timeline.append(_snap(line))
        assert len(timeline) == 12
        # Whole keyframe-led segments are evicted from the front as the
        # bound is crossed; with interval 4 the survivors are [8..11].
        assert timeline.start_index == 8
        assert timeline.retained == 4
        # Retained snapshots answer to their original global index.
        assert timeline.snapshot(8).line == 8
        assert timeline.snapshot(11).line == 11
        with pytest.raises(IndexError):
            timeline.snapshot(7)

    def test_drop_last_across_segment_boundary(self):
        timeline = Timeline(keyframe_interval=2)
        for line in range(3):  # segments: [0,1], [2]
            timeline.append(_snap(line))
        assert timeline.drop_last()  # drops the keyframe-only segment
        assert len(timeline) == 2
        assert timeline.snapshot(-1).line == 1
        assert timeline.drop_last()
        assert timeline.drop_last()
        assert not timeline.drop_last()  # empty
        timeline.append(_snap(42))
        assert timeline.snapshot(0).line == 42

    def test_save_load_roundtrip(self, tmp_path):
        timeline = Timeline(
            keyframe_interval=3, program="p.py", source="x = 1", backend="python"
        )
        for line in range(8):
            timeline.append(_snap(line, stdout="out" * line))
        path = str(tmp_path / "t.timeline.json")
        timeline.save(path)
        loaded = Timeline.load(path)
        assert loaded.program == "p.py"
        assert loaded.source == "x = 1"
        assert loaded.backend == "python"
        assert len(loaded) == len(timeline)
        for index in range(8):
            assert loaded.snapshot(index) == timeline.snapshot(index)

    def test_snapshot_structural_equality(self):
        assert _snap(1, stdout="a") == _snap(1, stdout="a")
        assert _snap(1) != _snap(2)


# ---------------------------------------------------------------------------
# Recording on a live PythonTracker
# ---------------------------------------------------------------------------


class TestRecording:
    def test_every_pause_is_recorded(self, recursion_program):
        tracker = _recorded_tracker(recursion_program)
        lines = [tracker.get_position()[1]]
        while tracker.get_exit_code() is None:
            tracker.step()
            if tracker.get_exit_code() is None:
                lines.append(tracker.get_position()[1])
        timeline = tracker.timeline
        # one snapshot per pause (start + each step) plus the exit snapshot
        assert len(timeline) == len(lines) + 1
        recorded = [timeline.snapshot(i).line for i in range(len(lines))]
        assert recorded == lines
        final = timeline.snapshot(-1)
        assert final.exit_code == 0
        tracker.terminate()

    def test_record_false_skips_one_pause(self, recursion_program):
        tracker = _recorded_tracker(recursion_program)
        length = len(tracker.timeline)
        tracker.step(record=False)
        assert len(tracker.timeline) == length
        tracker.step()
        assert len(tracker.timeline) == length + 1
        tracker.terminate()

    def test_disable_recording_keeps_history(self, recursion_program):
        tracker = _recorded_tracker(recursion_program)
        tracker.step()
        length = len(tracker.timeline)
        tracker.disable_recording()
        tracker.step()
        assert len(tracker.timeline) == length
        tracker.timeline_view().backward_step()  # history stays navigable
        tracker.terminate()

    def test_recorder_captures_source_and_stdout(self, recursion_program):
        tracker = _recorded_tracker(recursion_program)
        _run_to_exit(tracker, move="resume")
        timeline = tracker.timeline
        assert timeline.source.splitlines() == RECURSION.splitlines()
        assert timeline.snapshot(-1).stdout == "0\n"
        assert timeline.backend == "python"
        tracker.terminate()


# ---------------------------------------------------------------------------
# Reverse control calls
# ---------------------------------------------------------------------------


class TestReverseControl:
    def test_requires_recording(self, recursion_program):
        tracker = PythonTracker()
        tracker.load_program(recursion_program)
        tracker.start()
        with pytest.raises(TrackerError):
            tracker.timeline_view().backward_step()
        tracker.terminate()

    def test_backward_step_rewinds_inspection(self, recursion_program):
        tracker = _recorded_tracker(recursion_program)
        forward = []
        for _ in range(6):
            forward.append(tracker.snapshot())
            tracker.step()
        forward.append(tracker.snapshot())
        for expected in reversed(forward[:-1]):
            tracker.timeline_view().backward_step()
            assert tracker.snapshot() == expected
            assert tracker.get_position()[1] == expected.line
        with pytest.raises(NotPausedError):
            tracker.timeline_view().backward_step()
        tracker.terminate()

    def test_forward_through_history_then_live(self, recursion_program):
        tracker = _recorded_tracker(recursion_program)
        for _ in range(5):
            tracker.step()
        live_line = tracker.get_position()[1]
        for _ in range(5):
            tracker.timeline_view().backward_step()
        # Forward steps replay history without touching the inferior...
        for _ in range(5):
            tracker.step()
        assert tracker.get_position()[1] == live_line
        # ...and the next step goes live again.
        tracker.step()
        assert len(tracker.timeline) == 7
        tracker.terminate()

    def test_backward_next_and_finish_use_depth(self, recursion_program):
        tracker = _recorded_tracker(recursion_program)
        while tracker.get_exit_code() is None and tracker.snapshot().depth < 2:
            tracker.step()
        here = tracker.snapshot()
        assert here.depth == 2
        tracker.timeline_view().backward_finish()
        assert tracker.snapshot().depth == 1
        tracker.timeline_view().goto(-1)
        tracker.timeline_view().backward_next()
        assert tracker.snapshot().depth <= here.depth
        tracker.terminate()

    def test_backward_resume_lands_on_control_point(self, recursion_program):
        tracker = PythonTracker()
        tracker.load_program(recursion_program)
        tracker.break_before_line(3)
        tracker.enable_recording()
        tracker.start()
        tracker.resume()  # breakpoint at depth 1
        tracker.resume()  # breakpoint at depth 2
        tracker.step()
        tracker.timeline_view().backward_resume()
        reason = tracker.pause_reason
        assert reason.type is PauseReasonType.BREAKPOINT
        assert tracker.get_position()[1] == 3
        tracker.terminate()

    def test_goto_bounds_and_return_value(self, recursion_program):
        tracker = _recorded_tracker(recursion_program)
        for _ in range(4):
            tracker.step()
        landed = tracker.timeline_view().goto(2)
        assert isinstance(landed, StateSnapshot)
        assert tracker.snapshot() == landed
        with pytest.raises(TrackerError):
            tracker.timeline_view().goto(99)
        with pytest.raises(TrackerError):
            tracker.timeline_view().goto(-99)
        tracker.timeline_view().goto(-1)  # back to live
        tracker.step()
        tracker.terminate()

    def test_rewound_output_is_historical(self, recursion_program):
        tracker = _recorded_tracker(recursion_program)
        _run_to_exit(tracker, move="step")
        assert tracker.get_output() == "0\n"
        tracker.timeline_view().goto(0)
        assert tracker.get_output() == ""
        tracker.timeline_view().goto(-1)
        assert tracker.get_output() == "0\n"
        tracker.terminate()

    def test_reverse_step_determinism(self, recursion_program):
        """step xN then backward_step xN revisits the same states, twice."""
        tracker = _recorded_tracker(recursion_program)
        forward = [tracker.snapshot()]
        for _ in range(8):
            tracker.step()
            forward.append(tracker.snapshot())
        for _ in range(2):  # rewind fully, replay forward, rewind again
            rewound = []
            for _ in range(8):
                tracker.timeline_view().backward_step()
                rewound.append(tracker.snapshot())
            assert rewound == forward[-2::-1]
            for _ in range(8):
                tracker.step()
            assert tracker.snapshot() == forward[-1]
        tracker.terminate()


# ---------------------------------------------------------------------------
# The unified snapshot() inspection call
# ---------------------------------------------------------------------------


class TestSnapshotUnification:
    def test_snapshot_matches_the_quartet(self, recursion_program):
        tracker = PythonTracker(capture_output=True)
        tracker.load_program(recursion_program)
        tracker.start()
        for _ in range(4):
            tracker.step()
        snapshot = tracker.snapshot()
        assert snapshot.position() == tracker.get_position()
        frames = tracker.get_frames()
        assert [f.name for f in snapshot.frames()] == [f.name for f in frames]
        assert snapshot.frame.depth == frames[0].depth
        assert set(snapshot.globals) == set(tracker.get_global_variables())
        looked_up = snapshot.lookup("n", function="rec")
        assert looked_up is not None
        assert looked_up.value.render() == tracker.get_variable(
            "n", function="rec"
        ).value.render()
        tracker.terminate()

    def test_snapshot_requires_start(self, recursion_program):
        tracker = PythonTracker()
        tracker.load_program(recursion_program)
        with pytest.raises(NotStartedError):
            tracker.snapshot()

    def test_exit_snapshot(self, recursion_program):
        tracker = PythonTracker(capture_output=True)
        tracker.load_program(recursion_program)
        tracker.start()
        _run_to_exit(tracker, move="resume")
        snapshot = tracker.snapshot()
        assert snapshot.exit_code == 0
        tracker.terminate()


# ---------------------------------------------------------------------------
# Keyword-only control-call signature
# ---------------------------------------------------------------------------


class TestKeywordOnlyShim:
    def test_keyword_timeout_is_silent(self, recursion_program):
        tracker = PythonTracker()
        tracker.load_program(recursion_program)
        tracker.start()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracker.step(timeout=5.0)
        tracker.terminate()

    def test_both_positional_and_keyword_rejected(self, recursion_program):
        tracker = PythonTracker()
        tracker.load_program(recursion_program)
        tracker.start()
        with pytest.raises(TypeError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tracker.step(1.0, timeout=2.0)
        tracker.terminate()


# ---------------------------------------------------------------------------
# Codec registry / load_timeline
# ---------------------------------------------------------------------------


class TestCodecs:
    def test_native_roundtrip_through_load_timeline(
        self, recursion_program, tmp_path
    ):
        tracker = _recorded_tracker(recursion_program)
        _run_to_exit(tracker, move="step")
        path = str(tmp_path / "run.timeline.json")
        tracker.timeline.save(path)
        tracker.terminate()
        loaded = load_timeline(path)
        assert len(loaded) == len(Timeline.load(path))
        assert loaded.snapshot(0).line == 1

    def test_pt_trace_loads_as_timeline(self, recursion_program, tmp_path):
        from repro.pytutor import record_trace

        trace = record_trace(recursion_program)
        path = str(tmp_path / "run.trace.json")
        trace.save(path)
        timeline = load_timeline(path)
        assert timeline.retained == len(trace.steps)
        assert timeline.source == trace.code
        assert [s.line for s in timeline.snapshots()] == [
            step.line for step in trace.steps
        ]

    def test_unknown_json_is_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ProgramLoadError, match="codec"):
            load_timeline(str(path))
        path.write_text("not json at all")
        with pytest.raises(ProgramLoadError):
            load_timeline(str(path))

    def test_third_party_codec_registration(self, tmp_path):
        def sniff(data):
            return isinstance(data, dict) and data.get("format") == "toy-v1"

        def build(data):
            timeline = Timeline(program="toy")
            for line in data["lines"]:
                timeline.append(_snap(line))
            return timeline

        register_timeline_codec("toy", sniff, build)
        path = tmp_path / "toy.json"
        path.write_text('{"format": "toy-v1", "lines": [3, 1, 4]}')
        timeline = load_timeline(str(path))
        assert [s.line for s in timeline.snapshots()] == [3, 1, 4]


# ---------------------------------------------------------------------------
# Compression ratio (the ISSUE's acceptance assert lives in benchmarks too)
# ---------------------------------------------------------------------------


def test_delta_timeline_is_half_of_all_keyframes(recursion_program):
    delta = _recorded_tracker(recursion_program, keyframe_interval=16)
    _run_to_exit(delta, move="step")
    delta_bytes = delta.timeline.stats()["json_bytes"]
    delta.terminate()

    keyframed = _recorded_tracker(recursion_program, keyframe_interval=1)
    _run_to_exit(keyframed, move="step")
    keyframe_bytes = keyframed.timeline.stats()["json_bytes"]
    keyframed.terminate()

    assert delta_bytes <= keyframe_bytes * 0.5


# ---------------------------------------------------------------------------
# One heap entry per shared value: one mutation, one sub-patch
# ---------------------------------------------------------------------------

ALIASED = """\
data = [1, 2]


def f(xs):
    y = xs
    y.append(3)
    return len(y)


n = f(data)
"""


def test_a_shared_list_is_patched_once(tmp_path):
    """``data`` (global and module-frame variable), ``xs`` and ``y`` reach
    one list: the delta across ``y.append(3)`` modifies that list's heap
    entry once and no variable's own entry."""
    path = tmp_path / "alias.py"
    path.write_text(ALIASED)
    tracker = PythonTracker()
    tracker.load_program(str(path))
    tracker.enable_recording()
    patches = []
    tracker.timeline.add_append_listener(
        lambda index, prev, tree, patch: patches.append(patch)
    )
    tracker.break_before_line(6)
    try:
        tracker.start()
        tracker.resume()
        key = tracker.get_variable("y").value.content
        key = f"{key.address}:list"
        tracker.step()
        assert tracker.get_position()[1] == 7
        sub = patches[-1]["$d"]["sub"]
        assert "globals" not in sub
        assert "variables" not in json.dumps(sub["frame"])
        heap_edit = sub["heap"]["$d"]
        assert list(heap_edit["sub"]) == [key]
        # The append is the only list edit in the whole patch.
        assert json.dumps(patches[-1]).count('"$l"') == 1
    finally:
        tracker.terminate()


def test_a_version_1_timeline_is_refused(recursion_program, tmp_path):
    tracker = _recorded_tracker(recursion_program)
    _run_to_exit(tracker)
    data = tracker.timeline.to_dict()
    tracker.terminate()
    data["version"] = 1
    path = tmp_path / "old.timeline.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ProgramLoadError, match="version 1.*version 2"):
        load_timeline(str(path))
