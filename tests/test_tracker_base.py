"""Tests for the abstract tracker base: lifecycle, registries, factory."""

import pytest

from repro.core.errors import (
    AlreadyTerminatedError,
    NotPausedError,
    NotStartedError,
    TrackerError,
)
from repro.core.factory import available_trackers, init_tracker, register_tracker
from repro.core.tracker import Tracker, Watchpoint


class _FakeTracker(Tracker):
    """A minimal concrete tracker for exercising the base-class logic."""

    backend = "fake"

    def __init__(self):
        super().__init__()
        self.calls = []

    def _load_program(self, path, args):
        self.calls.append(("load", path, args))

    def _start(self):
        self.calls.append(("start",))

    def _resume(self):
        self.calls.append(("resume",))

    def _next(self):
        self.calls.append(("next",))

    def _step(self):
        self.calls.append(("step",))

    def _finish(self):
        self.calls.append(("finish",))

    def _terminate(self):
        self.calls.append(("terminate",))

    def _get_current_frame(self):
        from repro.core.state import Frame

        return Frame(name="main", depth=0)

    def _get_global_variables(self):
        return {}

    def _get_position(self):
        return "prog", 1


class TestLifecycle:
    def test_start_requires_load(self):
        tracker = _FakeTracker()
        with pytest.raises(NotStartedError):
            tracker.start()

    def test_double_start_rejected(self):
        tracker = _FakeTracker()
        tracker.load_program("p")
        tracker.start()
        with pytest.raises(NotStartedError):
            tracker.start()

    def test_control_requires_start(self):
        tracker = _FakeTracker()
        tracker.load_program("p")
        for control in (tracker.resume, tracker.next, tracker.step, tracker.finish):
            with pytest.raises(NotStartedError):
                control()

    def test_control_rejected_after_exit(self):
        tracker = _FakeTracker()
        tracker.load_program("p")
        tracker.start()
        tracker._exit_code = 0
        with pytest.raises(AlreadyTerminatedError):
            tracker.resume()

    def test_inspection_requires_pause(self):
        tracker = _FakeTracker()
        with pytest.raises(NotStartedError):
            tracker.get_current_frame()
        tracker.load_program("p")
        tracker.start()
        tracker._exit_code = 0
        with pytest.raises(NotPausedError):
            tracker.get_current_frame()

    def test_terminate_is_idempotent(self):
        tracker = _FakeTracker()
        tracker.load_program("p")
        tracker.start()
        tracker.terminate()
        tracker.terminate()
        assert tracker.calls.count(("terminate",)) == 1

    def test_exit_code_initially_none(self):
        assert _FakeTracker().get_exit_code() is None


class TestControlPointRegistries:
    def test_break_before_line_records_parameters(self):
        tracker = _FakeTracker()
        breakpoint_ = tracker.break_before_line(10, filename="f.py", maxdepth=2)
        assert breakpoint_.line == 10
        assert breakpoint_.filename == "f.py"
        assert breakpoint_.maxdepth == 2
        assert tracker.line_breakpoints == [breakpoint_]

    def test_break_before_func_and_track(self):
        tracker = _FakeTracker()
        tracker.break_before_func("f")
        tracker.track_function("g", maxdepth=3)
        assert tracker.function_breakpoints[0].function == "f"
        assert tracker.tracked_functions[0].maxdepth == 3

    def test_watch_registers(self):
        tracker = _FakeTracker()
        tracker.watch("main:x")
        assert tracker.watchpoints[0].variable_id == "main:x"

    def test_clear_control_points(self):
        tracker = _FakeTracker()
        tracker.break_before_line(1)
        tracker.break_before_func("f")
        tracker.watch("x")
        tracker.track_function("g")
        tracker.clear_control_points()
        assert not tracker.line_breakpoints
        assert not tracker.function_breakpoints
        assert not tracker.watchpoints
        assert not tracker.tracked_functions

    #: The shared split table: every tracker resolves watch identifiers
    #: through repro.core.engine.split_variable_id, so one table covers
    #: them all.
    SPLIT_CASES = [
        # plain names
        ("x", (None, "x")),
        ("counter", (None, "counter")),
        # function-scoped
        ("f:x", ("f", "x")),
        ("main:total", ("main", "total")),
        # method-qualified (dotted) function part
        ("Stack.push:item", ("Stack.push", "item")),
        ("a.b.c:x", ("a.b.c", "x")),
        # empty function part means "no scope"
        (":x", (None, "x")),
        # only the first scope colon splits
        ("f:x:y", ("f", "x:y")),
        # colons inside brackets/quotes belong to the variable path
        ('d[":k"]', (None, 'd[":k"]')),
        ("f:d[':k']", ("f", "d[':k']")),
        # a non-identifier prefix is not a function scope
        ("d[0]:x", (None, "d[0]:x")),
        # paths survive unscoped and scoped
        ("obj.attr[0]", (None, "obj.attr[0]")),
        ("f:obj.attr[0]", ("f", "obj.attr[0]")),
    ]

    @pytest.mark.parametrize("variable_id,expected", SPLIT_CASES)
    def test_watchpoint_split(self, variable_id, expected):
        assert Watchpoint(variable_id).split() == expected

    @pytest.mark.parametrize("variable_id,expected", SPLIT_CASES)
    def test_split_variable_id_matches_watchpoint_split(
        self, variable_id, expected
    ):
        from repro.core.engine import split_variable_id

        assert split_variable_id(variable_id) == expected

    def test_depth_allows(self):
        assert Tracker._depth_allows(None, 99)
        assert Tracker._depth_allows(2, 2)
        assert not Tracker._depth_allows(2, 3)


class TestGetVariable:
    def test_lookup_in_current_frame(self):
        from repro.core.state import AbstractType, Frame, Value, Variable

        tracker = _FakeTracker()
        tracker.load_program("p")
        tracker.start()
        frame = Frame(name="main", depth=0)
        frame.variables["x"] = Variable("x", Value(AbstractType.PRIMITIVE, 1))
        tracker._get_current_frame = lambda: frame
        assert tracker.get_variable("x").value.content == 1
        assert tracker.get_variable("missing") is None

    def test_lookup_by_function(self):
        from repro.core.state import AbstractType, Frame, Value, Variable

        tracker = _FakeTracker()
        tracker.load_program("p")
        tracker.start()
        outer = Frame(name="main", depth=0)
        outer.variables["y"] = Variable("y", Value(AbstractType.PRIMITIVE, 2))
        inner = Frame(name="g", depth=1, parent=outer)
        tracker._get_current_frame = lambda: inner
        assert tracker.get_variable("y", function="main").value.content == 2
        assert tracker.get_variable("y", function="nowhere") is None


class TestFactory:
    def test_builtin_backends_registered(self):
        names = available_trackers()
        assert "python" in names
        assert "gdb" in names
        assert "pt" in names

    def test_init_tracker_is_case_insensitive(self):
        assert init_tracker("GDB").backend == "GDB"
        assert init_tracker("Python").backend == "python"

    def test_unknown_backend_raises(self):
        with pytest.raises(TrackerError, match="unknown tracker"):
            init_tracker("rr")

    def test_custom_backend_registration(self):
        register_tracker("fake-test", _FakeTracker)
        assert init_tracker("fake-test").backend == "fake"

    def test_building_one_backend_imports_only_that_backend(self):
        """Package re-exports and built-in backends resolve on first use:
        a settrace tool loads no mini-C, RISC-V, tool or MI server code,
        and every exported name still resolves."""
        import os
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from repro import init_tracker\n"
            "init_tracker('python')\n"
            "heavy = ('repro.minic', 'repro.riscv', 'repro.tools',"
            " 'repro.mi.server')\n"
            "loaded = sorted(m for m in sys.modules if m.startswith(heavy))\n"
            "assert not loaded, loaded\n"
            "import repro, repro.mi\n"
            "for package in (repro, repro.mi):\n"
            "    for name in package.__all__:\n"
            "        getattr(package, name)\n"
            "    assert set(package.__all__) <= set(dir(package))\n"
        )
        source = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(source, "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
