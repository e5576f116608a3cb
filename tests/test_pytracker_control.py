"""Tests for the Python tracker's control interface (Section II-C2)."""

import threading
import time

import pytest

from repro.core.errors import ProgramLoadError
from repro.core.pause import PauseReasonType
from repro.pytracker.tracker import PythonTracker

COUNT = """\
a = 1
b = 2
c = a + b
"""

CALLS = """\
def inner(k):
    return k * 2

def outer(n):
    partial = inner(n)
    return partial + 1

result = outer(10)
"""

RECURSIVE = """\
def down(n):
    if n == 0:
        return 0
    return down(n - 1)

down(4)
"""

LOOP_MUTATION = """\
def work():
    data = [0, 0]
    for i in range(2):
        data[i] = i + 1
    return data

out = work()
"""


def run_to_end(tracker, limit=500):
    reasons = []
    while tracker.get_exit_code() is None and len(reasons) < limit:
        tracker.resume()
        if tracker.pause_reason is not None:
            reasons.append(tracker.pause_reason)
    return reasons


@pytest.fixture
def tracker():
    instance = PythonTracker()
    yield instance
    instance.terminate()


class TestLifecycle:
    def test_missing_program_raises(self, tracker):
        with pytest.raises(ProgramLoadError):
            tracker.load_program("/nonexistent/prog.py")

    def test_syntax_error_raises_at_load(self, tracker, write_program):
        path = write_program("bad.py", "def broken(:\n")
        with pytest.raises(ProgramLoadError, match="syntax error"):
            tracker.load_program(path)

    def test_start_pauses_before_first_line(self, tracker, write_program):
        tracker.load_program(write_program("p.py", COUNT))
        tracker.start()
        assert tracker.get_exit_code() is None
        assert tracker.pause_reason.type is PauseReasonType.STEP
        assert tracker.next_lineno == 1

    def test_exit_code_zero_on_normal_end(self, tracker, write_program):
        tracker.load_program(write_program("p.py", COUNT))
        tracker.start()
        tracker.resume()
        assert tracker.get_exit_code() == 0
        assert tracker.pause_reason.type is PauseReasonType.EXIT

    def test_sys_exit_code_is_reported(self, tracker, write_program):
        tracker.load_program(write_program("p.py", "import sys\nsys.exit(3)\n"))
        tracker.start()
        tracker.resume()
        assert tracker.get_exit_code() == 3

    def test_inferior_exception_sets_exit_code_one(self, tracker, write_program):
        tracker.load_program(write_program("p.py", "x = 1\nraise ValueError('boom')\n"))
        tracker.start()
        tracker.resume()
        assert tracker.get_exit_code() == 1
        assert isinstance(tracker.get_inferior_exception(), ValueError)

    def test_raise_if_crashed(self, tracker, write_program):
        from repro.core.errors import InferiorCrashError

        tracker.load_program(write_program("p.py", "raise KeyError('k')\n"))
        tracker.start()
        tracker.resume()
        with pytest.raises(InferiorCrashError):
            tracker.raise_if_crashed()

    def test_terminate_kills_paused_inferior(self, write_program):
        tracker = PythonTracker()
        tracker.load_program(write_program("p.py", "while True:\n    pass\n"))
        tracker.start()
        tracker.step()
        tracker.terminate()
        assert not tracker._thread.is_alive()

    def test_argv_passed_to_inferior(self, tracker, write_program):
        source = "import sys\nargs = sys.argv[1:]\nassert args == ['alpha', 'beta']\n"
        tracker.load_program(write_program("p.py", source), args=["alpha", "beta"])
        tracker.start()
        tracker.resume()
        assert tracker.get_exit_code() == 0  # the assert inside passed


class TestStepping:
    def test_step_visits_every_line(self, tracker, write_program):
        tracker.load_program(write_program("p.py", COUNT))
        tracker.start()
        lines = [tracker.next_lineno]
        while tracker.get_exit_code() is None:
            tracker.step()
            if tracker.get_exit_code() is None:
                lines.append(tracker.next_lineno)
        assert lines == [1, 2, 3]

    def test_step_enters_calls(self, tracker, write_program):
        tracker.load_program(write_program("p.py", CALLS))
        tracker.start()
        visited = set()
        while tracker.get_exit_code() is None:
            visited.add(tracker.next_lineno)
            tracker.step()
        assert 2 in visited  # the body of inner()

    def test_next_steps_over_calls(self, tracker, write_program):
        tracker.load_program(write_program("p.py", CALLS))
        tracker.start()
        visited = []
        while tracker.get_exit_code() is None:
            visited.append(tracker.next_lineno)
            tracker.next()
        # Lines 1 and 4 are `def` statements (module level); function bodies
        # (2, 5, 6) must never appear.
        assert set(visited) == {1, 4, 8}

    def test_finish_runs_to_caller(self, tracker, write_program):
        tracker.load_program(write_program("p.py", CALLS))
        tracker.start()
        tracker.break_before_func("inner")
        tracker.resume()  # paused entering inner (depth 2)
        assert tracker.get_current_frame().name == "inner"
        tracker.finish()
        assert tracker.get_current_frame().name == "outer"


class TestBreakpoints:
    def test_line_breakpoint(self, tracker, write_program):
        tracker.load_program(write_program("p.py", COUNT))
        tracker.break_before_line(3)
        tracker.start()
        tracker.resume()
        reason = tracker.pause_reason
        assert reason.type is PauseReasonType.BREAKPOINT
        assert reason.line == 3
        # c is not yet assigned: break happens *before* the line runs.
        assert tracker.get_variable("c") is None

    def test_function_breakpoint_sees_arguments(self, tracker, write_program):
        tracker.load_program(write_program("p.py", CALLS))
        tracker.break_before_func("inner")
        tracker.start()
        tracker.resume()
        reason = tracker.pause_reason
        assert reason.type is PauseReasonType.BREAKPOINT
        assert reason.function == "inner"
        frame = tracker.get_current_frame()
        assert frame.variables["k"].value.content.content == 10

    def test_breakpoint_maxdepth_filters_deep_frames(self, tracker, write_program):
        tracker.load_program(write_program("p.py", RECURSIVE))
        tracker.break_before_func("down", maxdepth=2)
        tracker.start()
        hits = []
        while tracker.get_exit_code() is None:
            tracker.resume()
            if tracker.pause_reason.type is PauseReasonType.BREAKPOINT:
                hits.append(tracker.get_current_frame().depth)
        assert hits == [1, 2]  # depths 3, 4, 5 filtered out

    def test_line_breakpoint_maxdepth(self, tracker, write_program):
        tracker.load_program(write_program("p.py", RECURSIVE))
        tracker.break_before_line(2, maxdepth=1)
        tracker.start()
        hits = 0
        while tracker.get_exit_code() is None:
            tracker.resume()
            if tracker.pause_reason.type is PauseReasonType.BREAKPOINT:
                hits += 1
        assert hits == 1  # only the outermost call


class TestTrackFunction:
    def test_entry_and_exit_events(self, tracker, write_program):
        tracker.load_program(write_program("p.py", CALLS))
        tracker.track_function("inner")
        tracker.start()
        events = []
        while tracker.get_exit_code() is None:
            tracker.resume()
            reason = tracker.pause_reason
            if reason.type in (PauseReasonType.CALL, PauseReasonType.RETURN):
                events.append(reason.type)
        assert events == [PauseReasonType.CALL, PauseReasonType.RETURN]

    def test_return_value_in_pause_reason(self, tracker, write_program):
        tracker.load_program(write_program("p.py", CALLS))
        tracker.track_function("inner")
        tracker.start()
        tracker.resume()  # CALL
        tracker.resume()  # RETURN
        reason = tracker.pause_reason
        assert reason.type is PauseReasonType.RETURN
        assert reason.return_value.content == 20

    def test_recursive_tracking_sees_all_levels(self, tracker, write_program):
        tracker.load_program(write_program("p.py", RECURSIVE))
        tracker.track_function("down")
        tracker.start()
        calls = returns = 0
        while tracker.get_exit_code() is None:
            tracker.resume()
            if tracker.pause_reason.type is PauseReasonType.CALL:
                calls += 1
            elif tracker.pause_reason.type is PauseReasonType.RETURN:
                returns += 1
        assert calls == 5
        assert returns == 5

    def test_track_maxdepth(self, tracker, write_program):
        tracker.load_program(write_program("p.py", RECURSIVE))
        tracker.track_function("down", maxdepth=1)
        tracker.start()
        events = 0
        while tracker.get_exit_code() is None:
            tracker.resume()
            if tracker.pause_reason.type in (
                PauseReasonType.CALL,
                PauseReasonType.RETURN,
            ):
                events += 1
        assert events == 2  # one call + one return at depth 1


class TestWatchpoints:
    def test_watch_global_fires_per_assignment(self, tracker, write_program):
        tracker.load_program(write_program("p.py", COUNT))
        tracker.watch("a")
        tracker.start()
        tracker.resume()
        reason = tracker.pause_reason
        assert reason.type is PauseReasonType.WATCH
        assert reason.variable == "a"
        assert reason.new_value == "1"

    def test_watch_function_scoped(self, tracker, write_program):
        tracker.load_program(write_program("p.py", CALLS))
        tracker.watch("outer:partial")
        tracker.start()
        hits = []
        while tracker.get_exit_code() is None:
            tracker.resume()
            if tracker.pause_reason.type is PauseReasonType.WATCH:
                hits.append(tracker.pause_reason.new_value)
        assert hits == ["20"]

    def test_watch_detects_list_mutation(self, tracker, write_program):
        tracker.load_program(write_program("p.py", LOOP_MUTATION))
        tracker.watch("work:data")
        tracker.start()
        changes = []
        while tracker.get_exit_code() is None:
            tracker.resume()
            if tracker.pause_reason.type is PauseReasonType.WATCH:
                changes.append(tracker.pause_reason.new_value)
        # initial binding, then each element write
        assert changes == ["[0, 0]", "[1, 0]", "[1, 2]"]

    def test_watch_reports_old_value(self, tracker, write_program):
        # Watches are checked *before each line*, so a trailing line is
        # needed for the second assignment to be observed (paper §II-C2).
        tracker.load_program(write_program("p.py", "x = 1\nx = 2\ny = x\n"))
        tracker.watch("x")
        tracker.start()
        tracker.resume()
        assert tracker.pause_reason.old_value is None
        tracker.resume()
        assert tracker.pause_reason.old_value == "1"
        assert tracker.pause_reason.new_value == "2"


class TestWatchPaths:
    """Watch identifiers can address inside objects: attrs and elements."""

    OBJECT_PROGRAM = """\
class Box:
    def __init__(self):
        self.level = 0

box = Box()
box.level = 1
unrelated = 5
box.level = 2
tail = 1
"""

    def test_watch_attribute_path(self, tracker, write_program):
        tracker.load_program(write_program("p.py", self.OBJECT_PROGRAM))
        tracker.watch("box.level")
        tracker.start()
        values = []
        while tracker.get_exit_code() is None:
            tracker.resume()
            if tracker.pause_reason.type is PauseReasonType.WATCH:
                values.append(tracker.pause_reason.new_value)
        assert values == ["0", "1", "2"]

    def test_watch_element_path(self, tracker, write_program):
        source = (
            "data = [0, 0, 0]\n"
            "data[1] = 7\n"
            "data[0] = 9\n"
            "data[1] = 8\n"
            "tail = 1\n"
        )
        tracker.load_program(write_program("p.py", source))
        tracker.watch("data[1]")
        tracker.start()
        values = []
        while tracker.get_exit_code() is None:
            tracker.resume()
            if tracker.pause_reason.type is PauseReasonType.WATCH:
                values.append(tracker.pause_reason.new_value)
        # data[0] writes do not trigger the element watch.
        assert values == ["0", "7", "8"]

    def test_watch_dict_key_path(self, tracker, write_program):
        source = (
            "table = {'k': 1}\n"
            "table['k'] = 2\n"
            "table['other'] = 99\n"
            "tail = 1\n"
        )
        tracker.load_program(write_program("p.py", source))
        tracker.watch("table['k']")
        tracker.start()
        hits = 0
        while tracker.get_exit_code() is None:
            tracker.resume()
            if tracker.pause_reason.type is PauseReasonType.WATCH:
                hits += 1
        assert hits == 2  # initial binding + the k update; 'other' ignored

    def test_invalid_path_never_fires(self, tracker, write_program):
        tracker.load_program(write_program("p.py", "x = 1\ny = 2\n"))
        tracker.watch("x.missing.attr")
        tracker.start()
        tracker.resume()
        assert tracker.get_exit_code() == 0  # ran to completion, no pause


class TestOutputCapture:
    def test_captured_output_available(self, write_program):
        tracker = PythonTracker(capture_output=True)
        tracker.load_program(write_program("p.py", "print('hello inferior')\n"))
        tracker.start()
        tracker.resume()
        assert tracker.get_output() == "hello inferior\n"
        tracker.terminate()

    def test_output_not_captured_by_default(self, write_program, capfd):
        tracker = PythonTracker()
        tracker.load_program(write_program("p.py", "print('direct')\n"))
        tracker.start()
        tracker.resume()
        tracker.terminate()
        assert tracker.get_output() == ""


GATED_LOOP = """\
total = 0
hits = 0
for i in range({n}):
    total += i % 7
    if i % {period} == 0:
        hits += 1
done = total
"""

SPIN = """\
n = 0
while True:
    n += 1
"""

CALLEE_IN_LOOP = """\
def callee(x):
    y = x + 1
    return y

total = 0
for i in range(3):
    total += callee(i)
    total += 1
done = total
"""


def gated_line_count(n, period):
    """Line events of GATED_LOOP, in closed form: the two assignments, the
    ``for`` header once per iteration plus the exit test, the two body
    lines per iteration, the sparse branch, and the final line."""
    hits = len(range(0, n, period))
    return 2 + (n + 1) + 2 * n + hits + 1


class TestLineGate:
    """A plain ``resume`` runs inferior lines through the gated line hook;
    everything that can pause must still reach the full trace hook."""

    def test_deadline_interrupt_lands_in_a_call_free_loop(
        self, tracker, write_program
    ):
        tracker.load_program(write_program("spin.py", SPIN))
        tracker.start()
        tracker.resume(timeout=0.3)
        reason = tracker.pause_reason
        assert reason.type is PauseReasonType.INTERRUPT
        assert tracker.next_lineno in (2, 3)
        assert tracker.get_stats().interrupts == 1

    def test_terminate_kills_a_call_free_loop_promptly(self, write_program):
        tracker = PythonTracker(terminate_grace=5.0)
        tracker.load_program(write_program("spin.py", SPIN))
        tracker.start()
        resumer = threading.Thread(target=tracker.resume, daemon=True)
        resumer.start()
        time.sleep(0.2)  # the loop is now free-running on the line hook
        begin = time.monotonic()
        tracker.terminate()
        resumer.join(timeout=5.0)
        assert time.monotonic() - begin < 2.0
        assert not resumer.is_alive()
        assert tracker.health == "ok"
        assert tracker.get_exit_code() == -9

    def test_finish_and_next_stop_in_the_fast_caller(
        self, tracker, write_program
    ):
        tracker.load_program(write_program("p.py", CALLEE_IN_LOOP))
        tracker.break_before_line(2)
        tracker.start()
        tracker.resume()
        assert tracker.pause_reason.type is PauseReasonType.BREAKPOINT
        assert tracker.get_current_frame().name == "callee"
        tracker.finish()
        assert tracker.get_current_frame().name == "<module>"
        assert tracker.next_lineno == 8
        tracker.resume()
        assert tracker.get_current_frame().name == "callee"
        tracker.next()
        assert tracker.next_lineno == 3
        tracker.next()
        assert tracker.get_current_frame().name == "<module>"
        assert tracker.next_lineno == 8

    def test_breakpoint_added_while_paused_fires(self, tracker, write_program):
        tracker.load_program(
            write_program("p.py", GATED_LOOP.format(n=50, period=10))
        )
        tracker.break_before_line(6)
        tracker.start()
        tracker.resume()
        assert tracker.next_lineno == 6
        tracker.break_before_line(4)
        tracker.resume()
        assert tracker.pause_reason.type is PauseReasonType.BREAKPOINT
        assert tracker.next_lineno == 4

    def test_watch_added_while_paused_fires(self, tracker, write_program):
        tracker.load_program(
            write_program("p.py", GATED_LOOP.format(n=50, period=10))
        )
        tracker.break_before_line(6)
        tracker.start()
        tracker.resume()
        assert tracker.next_lineno == 6
        tracker.watch("hits")
        tracker.resume()
        reason = tracker.pause_reason
        assert reason.type is PauseReasonType.WATCH
        assert (reason.old_value, reason.new_value) == ("0", "1")
        assert tracker.next_lineno == 3  # the line right after the change

    def test_line_events_match_the_closed_form(self, tracker, write_program):
        n, period = 3000, 256
        tracker.load_program(
            write_program("p.py", GATED_LOOP.format(n=n, period=period))
        )
        tracker.break_before_line(6)
        tracker.start()
        reasons = run_to_end(tracker)
        assert len(reasons) == len(range(0, n, period)) + 1  # hits + exit
        stats = tracker.get_stats()
        assert stats.events_seen["line"] == gated_line_count(n, period)
        # The start pause is a step pause on line 1, then one per hit.
        assert stats.events_paused["line"] == len(range(0, n, period)) + 1

    def test_last_lineno_after_a_fast_stretch(self, tracker, write_program):
        tracker.load_program(
            write_program("p.py", GATED_LOOP.format(n=600, period=256))
        )
        tracker.break_before_line(6)
        tracker.start()
        tracker.resume()
        tracker.resume()  # i == 256: 256 loop iterations ran free
        assert tracker.pause_reason.type is PauseReasonType.BREAKPOINT
        assert (tracker.last_lineno, tracker.next_lineno) == (5, 6)


class TestProgramCompile:
    def test_program_does_not_inherit_future_flags(
        self, tracker, write_program
    ):
        """The inferior is its own module: annotations are evaluated, as
        under ``python``, not stringified by the tracker's own
        ``from __future__ import annotations``."""
        source = "def f(x: int):\n    pass\n\nann = f.__annotations__\n"
        tracker.load_program(write_program("ann.py", source))
        tracker.start()
        run_to_end(tracker)
        assert tracker._globals["ann"] == {"x": int}

    def test_trackers_on_one_file_share_the_code(self, write_program):
        path = write_program("p.py", COUNT)
        first, second = PythonTracker(), PythonTracker()
        first.load_program(path)
        second.load_program(path)
        assert first._code is second._code

    def test_edited_file_recompiles(self, write_program):
        path = write_program("p.py", COUNT)
        first = PythonTracker()
        first.load_program(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("d = c * 2\n")
        second = PythonTracker()
        second.load_program(path)
        assert first._code is not second._code
        second.start()
        run_to_end(second)
        assert second._globals["d"] == 6
        second.terminate()
