"""Unit tests for the shared ControlPointEngine decision core."""

import pytest

from repro.core.engine import (
    AddressBreakpoint,
    ControlPointEngine,
    TrackerStats,
)
from repro.core.pause import PauseReasonType
from repro.core.tracker import (
    FunctionBreakpoint,
    LineBreakpoint,
    TrackedFunction,
    Watchpoint,
)


def make_engine(**points):
    engine = ControlPointEngine()
    engine.line_breakpoints.extend(points.get("lines", []))
    engine.function_breakpoints.extend(points.get("functions", []))
    engine.tracked_functions.extend(points.get("tracked", []))
    engine.watchpoints.extend(points.get("watches", []))
    engine.address_breakpoints.extend(points.get("addresses", []))
    engine.refresh()
    return engine


class TestCompilation:
    def test_recompile_only_when_dirty(self):
        engine = make_engine(lines=[LineBreakpoint(line=3)])
        built = engine.stats.recompiles
        engine.refresh()
        engine.refresh()
        assert engine.stats.recompiles == built
        engine.mark_dirty()
        engine.refresh()
        assert engine.stats.recompiles == built + 1

    def test_line_set_fast_reject(self):
        engine = make_engine(lines=[LineBreakpoint(line=7)])
        assert engine.may_match_line(7)
        assert not engine.may_match_line(8)

    def test_registry_mutation_visible_after_mark_dirty(self):
        engine = make_engine()
        assert not engine.may_match_line(5)
        engine.line_breakpoints.append(LineBreakpoint(line=5))
        engine.mark_dirty()
        engine.refresh()
        assert engine.may_match_line(5)

    def test_clear_empties_every_registry(self):
        engine = make_engine(
            lines=[LineBreakpoint(line=1)],
            functions=[FunctionBreakpoint(function="f")],
            tracked=[TrackedFunction(function="g")],
            watches=[Watchpoint(variable_id="x")],
            addresses=[AddressBreakpoint(address=0x10)],
        )
        engine.clear()
        assert list(engine.all_points()) == []


class TestLineMatching:
    def test_first_match_in_install_order(self):
        first = LineBreakpoint(line=3, maxdepth=None)
        second = LineBreakpoint(line=3, maxdepth=None)
        engine = make_engine(lines=[first, second])
        assert engine.match_line(None, 3, 0) is first

    def test_disabled_skipped(self):
        off = LineBreakpoint(line=3, enabled=False)
        on = LineBreakpoint(line=3)
        engine = make_engine(lines=[off, on])
        assert engine.match_line(None, 3, 0) is on
        # enabled flips need no mark_dirty
        on.enabled = False
        assert engine.match_line(None, 3, 0) is None

    def test_maxdepth_filter(self):
        shallow = LineBreakpoint(line=3, maxdepth=1)
        engine = make_engine(lines=[shallow])
        assert engine.match_line(None, 3, 1) is shallow
        assert engine.match_line(None, 3, 2) is None

    def test_filename_matching_by_basename(self):
        scoped = LineBreakpoint(line=3, filename="prog.py")
        engine = make_engine(lines=[scoped])
        assert engine.match_line("/somewhere/prog.py", 3, 0) is scoped
        assert engine.match_line("/somewhere/other.py", 3, 0) is None

    def test_file_agnostic_backend_passes_none(self):
        scoped = LineBreakpoint(line=3, filename="prog.c")
        engine = make_engine(lines=[scoped])
        assert engine.match_line(None, 3, 0) is scoped


class TestFunctionMatching:
    def test_function_breakpoint_lookup(self):
        target = FunctionBreakpoint(function="f", maxdepth=2)
        engine = make_engine(functions=[target])
        assert engine.may_match_function("f")
        assert not engine.may_match_function("g")
        assert engine.match_function_breakpoint("f", 2) is target
        assert engine.match_function_breakpoint("f", 3) is None

    def test_tracked_lookup(self):
        tracked = TrackedFunction(function="g")
        engine = make_engine(tracked=[tracked])
        assert engine.may_match_function("g")
        assert engine.match_tracked("g", 9) is tracked
        assert engine.match_tracked("f", 0) is None

    def test_address_lookup(self):
        point = AddressBreakpoint(address=0x4000)
        engine = make_engine(addresses=[point])
        assert engine.has_address_breakpoints
        assert engine.match_address(0x4000, 0) is point
        assert engine.match_address(0x4004, 0) is None
        assert engine.match_address(None, 0) is None


class TestStepMachine:
    def test_step_always_pauses(self):
        engine = make_engine()
        engine.arm("step")
        assert engine.should_step_pause(0)
        assert engine.should_step_pause(9)

    def test_next_pauses_at_or_above_issue_depth(self):
        engine = make_engine()
        engine.arm("next", 2)
        assert engine.should_step_pause(2)
        assert engine.should_step_pause(1)
        assert not engine.should_step_pause(3)

    def test_finish_pauses_strictly_above(self):
        engine = make_engine()
        engine.arm("finish", 2)
        assert engine.should_step_pause(1)
        assert not engine.should_step_pause(2)

    def test_resume_never_step_pauses(self):
        engine = make_engine()
        engine.arm("resume")
        assert not engine.should_step_pause(0)


class TestFrameSkip:
    def test_skips_unrelated_file(self):
        engine = make_engine(
            lines=[LineBreakpoint(line=3, filename="/tmp/prog.py")]
        )
        engine.arm("resume")
        assert engine.can_skip_frame("/tmp/other.py", "helper")
        assert not engine.can_skip_frame("/tmp/prog.py", "helper")

    def test_basename_match_blocks_skip(self):
        engine = make_engine(lines=[LineBreakpoint(line=3, filename="prog.py")])
        engine.arm("resume")
        assert not engine.can_skip_frame("/elsewhere/prog.py", "helper")

    def test_no_control_points_skips_everything(self):
        engine = make_engine()
        engine.arm("resume")
        assert engine.can_skip_frame("/tmp/prog.py", "helper")

    def test_file_agnostic_breakpoint_blocks_skip(self):
        engine = make_engine(lines=[LineBreakpoint(line=3)])
        engine.arm("resume")
        assert not engine.can_skip_frame("/tmp/any.py", "helper")

    def test_stepping_blocks_skip(self):
        engine = make_engine()
        engine.arm("step")
        assert not engine.can_skip_frame("/tmp/prog.py", "helper")

    def test_watchpoints_block_skip(self):
        engine = make_engine(watches=[Watchpoint(variable_id="x")])
        engine.arm("resume")
        assert not engine.can_skip_frame("/tmp/prog.py", "helper")

    def test_function_points_block_skip_everywhere(self):
        # A function breakpoint in a nested call can re-arm stepping that
        # needs line events in this frame — never drop its tracing.
        engine = make_engine(functions=[FunctionBreakpoint(function="f")])
        engine.arm("resume")
        assert not engine.can_skip_frame("/tmp/prog.py", "g")


class TestWatchEvaluation:
    def test_fires_on_change_only(self):
        watch = Watchpoint(variable_id="x")
        engine = make_engine(watches=[watch])
        values = iter(["1", "1", "2"])
        fetch = lambda function, name: next(values)
        assert engine.evaluate_watches(0, fetch) == (watch, None, "1")
        assert engine.evaluate_watches(0, fetch) is None
        assert engine.evaluate_watches(0, fetch) == (watch, "1", "2")

    def test_baseline_suppresses_initial_value(self):
        watch = Watchpoint(variable_id="x")
        engine = make_engine(watches=[watch])
        engine.baseline_watches(lambda function, name: "1")
        assert engine.evaluate_watches(0, lambda f, n: "1") is None
        hit = engine.evaluate_watches(0, lambda f, n: "2")
        assert hit == (watch, "1", "2")

    def test_seed_watch_sets_baseline_for_one(self):
        watch = Watchpoint(variable_id="x")
        engine = make_engine(watches=[watch])
        engine.seed_watch(watch, "5")
        assert engine.evaluate_watches(0, lambda f, n: "5") is None

    def test_disabled_watch_keeps_stale_snapshot(self):
        watch = Watchpoint(variable_id="x", enabled=False)
        engine = make_engine(watches=[watch])
        assert engine.evaluate_watches(0, lambda f, n: "1") is None
        watch.enabled = True
        # first evaluation after re-enabling sees no baseline -> first sighting
        assert engine.evaluate_watches(0, lambda f, n: "1") == (
            watch,
            None,
            "1",
        )

    def test_missing_value_never_fires(self):
        watch = Watchpoint(variable_id="x")
        engine = make_engine(watches=[watch])
        assert engine.evaluate_watches(0, lambda f, n: None) is None

    def test_maxdepth_swallows_but_updates_snapshot(self):
        watch = Watchpoint(variable_id="x", maxdepth=0)
        engine = make_engine(watches=[watch])
        assert engine.evaluate_watches(5, lambda f, n: "1") is None
        # the change at depth 5 was swallowed, and is not re-reported later
        assert engine.evaluate_watches(0, lambda f, n: "1") is None


class TestSyncBookkeeping:
    def test_take_unsynced_is_incremental(self):
        first = LineBreakpoint(line=1)
        engine = make_engine(lines=[first])
        assert engine.take_unsynced() == [first]
        assert engine.take_unsynced() == []
        second = Watchpoint(variable_id="x")
        engine.watchpoints.append(second)
        assert engine.take_unsynced() == [second]

    def test_reset_sync_forgets(self):
        first = LineBreakpoint(line=1)
        engine = make_engine(lines=[first])
        engine.take_unsynced()
        engine.reset_sync()
        assert engine.take_unsynced() == [first]


class TestStats:
    def test_events_and_pauses_counted(self):
        engine = make_engine()
        engine.note_event("line")
        engine.note_event("line")
        engine.record_pause(PauseReasonType.BREAKPOINT)
        stats = engine.stats
        assert stats.events_seen["line"] == 2
        assert stats.events_paused["line"] == 1
        assert stats.events_suppressed["line"] == 1
        assert stats.pauses["breakpoint"] == 1
        assert stats.pause_count == 1
        assert stats.last_pause_latency_ns >= 0
        assert stats.total_pause_latency_ns >= stats.last_pause_latency_ns

    def test_round_trip_through_dict(self):
        engine = make_engine()
        engine.note_event("line")
        engine.record_pause(PauseReasonType.STEP)
        engine.note_event("call")
        restored = TrackerStats.from_dict(engine.stats.to_dict())
        assert restored.to_dict() == engine.stats.to_dict()

    def test_merged_sums_counters(self):
        left = TrackerStats(
            events_seen={"line": 2},
            events_paused={"line": 1},
            pauses={"step": 1},
            watch_evaluations=3,
        )
        right = TrackerStats(
            events_seen={"line": 1, "call": 4},
            pauses={"step": 2},
            watch_evaluations=1,
        )
        merged = left.merged(right)
        assert merged.events_seen == {"line": 3, "call": 4}
        assert merged.pauses == {"step": 3}
        assert merged.watch_evaluations == 4
        assert merged.events_suppressed == {"line": 2, "call": 4}


class TestEndToEndStats:
    def test_python_tracker_exposes_stats(self, tmp_path):
        from repro.pytracker import PythonTracker

        program = tmp_path / "prog.py"
        program.write_text(
            "total = 0\n"
            "for i in range(5):\n"
            "    total += i\n"
            "print(total)\n"
        )
        tracker = PythonTracker(capture_output=True)
        tracker.load_program(str(program))
        tracker.break_before_line(4)
        tracker.start()
        tracker.resume()
        stats = tracker.get_stats()
        assert stats.pauses.get("breakpoint") == 1
        assert stats.events_seen.get("line", 0) > 5
        assert stats.events_suppressed.get("line", 0) > 0
        tracker.terminate()

    def test_gdb_tracker_merges_server_stats(self, tmp_path):
        from repro.gdbtracker import GDBTracker

        program = tmp_path / "prog.c"
        program.write_text(
            "int main(void) {\n"
            "    int x = 0;\n"
            "    x = x + 1;\n"
            "    x = x + 2;\n"
            "    return 0;\n"
            "}\n"
        )
        tracker = GDBTracker()
        tracker.load_program(str(program))
        tracker.break_before_line(4)
        tracker.start()
        tracker.resume()
        stats = tracker.get_stats()
        assert stats.pauses.get("breakpoint") == 1
        assert stats.events_seen.get("line", 0) >= 2
        tracker.terminate()


class _Probe:
    """A backend stand-in: answers the decision's questions, counts them."""

    def __init__(self, values=None, depth=0):
        self.values = dict(values or {})
        self.depth = depth
        self.asked = 0

    def _event_depth(self, subject):
        self.asked += 1
        return self.depth

    def _event_thread(self, subject):
        return 0

    def _watched_value(self, subject, function, name):
        return self.values.get(name)

    def _event_pc(self, subject):
        return None


def probed_engine(probe, **points):
    engine = make_engine(**points)
    engine.probe = probe
    return engine


class TestDecide:
    def test_no_hit_line_asks_the_backend_nothing(self):
        probe = _Probe()
        engine = probed_engine(probe, lines=[LineBreakpoint(line=9)])
        engine.arm("resume")
        assert engine.decide("line", 3, None, None, object()) is None
        assert probe.asked == 0
        assert engine.stats.events_seen == {"line": 1}

    def test_line_precedence_watch_then_breakpoint_then_step(self):
        probe = _Probe({"x": "1"})
        watch = Watchpoint(variable_id="x")
        line = LineBreakpoint(line=3)
        engine = probed_engine(probe, lines=[line], watches=[watch])
        engine.arm("step")
        reason, point = engine.decide("line", 3, None, None, object())
        # The start pause takes the baselines: no watch fires there.
        assert (reason.type, point) == (PauseReasonType.BREAKPOINT, line)
        probe.values["x"] = "2"
        reason, point = engine.decide("line", 3, None, None, object())
        assert (reason.type, point) == (PauseReasonType.WATCH, watch)
        assert (reason.old_value, reason.new_value) == ("1", "2")
        reason, point = engine.decide("line", 4, None, None, object())
        assert (reason.type, point) == (PauseReasonType.STEP, None)

    def test_call_precedence_function_breakpoint_then_tracked(self):
        probe = _Probe()
        breakpoint_ = FunctionBreakpoint(function="f")
        tracked = TrackedFunction(function="f")
        engine = probed_engine(
            probe, functions=[breakpoint_], tracked=[tracked]
        )
        engine.arm("step")
        reason, point = engine.decide("call", 1, "f", None, object())
        assert (reason.type, point) == (PauseReasonType.BREAKPOINT, breakpoint_)
        reason, point = engine.decide("return", 2, "f", None, object())
        assert (reason.type, point) == (PauseReasonType.RETURN, tracked)
        # Step never pauses on a call or return event by itself.
        assert engine.decide("call", 1, "g", None, object()) is None

    def test_interrupt_wins_on_any_event(self):
        engine = probed_engine(_Probe(), lines=[LineBreakpoint(line=3)])
        engine.interrupt_requested = True
        reason, point = engine.decide("call", 3, "f", None, object())
        assert (reason.type, point) == (PauseReasonType.INTERRUPT, None)
        assert not engine.interrupt_requested
        assert engine.stats.interrupts == 1

    def test_watch_installed_after_the_start_pause_is_seeded(self):
        probe = _Probe({"x": "5"})
        engine = probed_engine(probe)
        engine.arm("step")
        engine.decide("line", 1, None, None, object())  # the start pause
        watch = Watchpoint(variable_id="x")
        engine.watchpoints.append(watch)
        engine.mark_dirty()
        engine.watch_installed(watch, object())
        engine.arm("resume")
        assert engine.decide("line", 2, None, None, object()) is None
        probe.values["x"] = "6"
        reason, _ = engine.decide("line", 3, None, None, object())
        assert (reason.old_value, reason.new_value) == ("5", "6")
