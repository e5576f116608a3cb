"""Unit tests for the out-of-process Python backend.

The server half (:class:`repro.subproc.server.PythonDebugServer`) is
driven through its pure ``handle()`` interface — same idiom as
``tests/test_mi_server.py`` — so protocol behavior is tested without
spawning a child. The resource-limit plumbing and the client's
exit-code mapping are pure functions and tested directly. End-to-end
child-process behavior lives in ``tests/test_hostile_inferiors.py`` and
the parity suites.
"""

import pytest

from repro.mi.protocol import parse_record
from repro.subproc.limits import ResourceLimits
from repro.subproc.server import PythonDebugServer
from repro.subproc.tracker import _process_exit_code

PY_PROGRAM = """\
total = 0

def square(v):
    r = v * v
    return r

for i in range(1, 4):
    total = total + square(i)
print("total", total)
"""


def make_server(write_program, source, name="prog.py"):
    return PythonDebugServer(write_program(name, source))


def records(lines):
    return [parse_record(line) for line in lines]


def last_stopped(lines):
    stopped = [r for r in records(lines) if r.kind == "stopped"]
    assert stopped, f"no *stopped in {lines}"
    return stopped[-1].payload


@pytest.fixture
def server(write_program):
    return make_server(write_program, PY_PROGRAM)


class TestLifecycle:
    def test_run_pauses_at_first_line(self, server):
        lines = server.handle("-exec-run")
        assert records(lines)[0].kind == "running"
        payload = last_stopped(lines)
        assert payload["reason"] == "end-stepping-range"
        assert payload["line"] == 1

    def test_double_run_is_error(self, server):
        server.handle("-exec-run")
        assert records(server.handle("-exec-run"))[0].kind == "error"

    def test_continue_to_exit(self, server):
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "exited"
        assert payload["exitcode"] == 0

    def test_control_before_run_is_error(self, server):
        assert records(server.handle("-exec-continue"))[0].kind == "error"

    def test_control_after_exit_is_error(self, server):
        server.handle("-exec-run")
        server.handle("-exec-continue")
        assert records(server.handle("-exec-continue"))[0].kind == "error"

    def test_crash_reports_error_in_stopped(self, write_program):
        server = make_server(
            write_program, "raise ValueError('boom')\n", "crash.py"
        )
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["exitcode"] == 1
        assert "ValueError: boom" in payload["error"]

    def test_gdb_exit_sets_finished(self, server):
        assert records(server.handle("-gdb-exit"))[0].kind == "done"
        assert server._finished

    def test_stale_interrupt_emits_nothing(self, server):
        server.handle("-exec-run")
        assert server.handle("-exec-interrupt") == []


class TestControlPoints:
    def test_function_breakpoint_and_output_stream(self, server):
        number = records(server.handle("-break-insert square"))[0]
        assert number.payload == {"number": 1}
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "breakpoint-hit"
        assert payload["func"] == "square"
        # run to exit: prints cross as ~stream records
        for _ in range(10):
            lines = server.handle("-exec-continue")
            payload = last_stopped(lines)
            if payload["reason"] == "exited":
                break
        streams = [r for r in records(lines) if r.kind == "stream"]
        assert any("total 14" in s.payload for s in streams)

    def test_line_breakpoint_with_filename(self, server):
        path = server.path
        records(server.handle(f"-break-insert {path}:4"))
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "breakpoint-hit"
        assert payload["line"] == 4

    def test_address_breakpoint_is_rejected(self, server):
        record = records(server.handle("-break-insert *0x400000"))[0]
        assert record.kind == "error"
        assert "address" in record.payload

    def test_tracked_function_return_value_is_serialized(self, server):
        server.handle("-track-function square")
        server.handle("-exec-run")
        server.handle("-exec-continue")  # entry
        payload = last_stopped(server.handle("-exec-continue"))  # exit
        assert payload["reason"] == "function-exit"
        retval = payload["retval"]
        assert retval["heap"][retval["value"]]["content"] == 1
        assert retval["heap"][retval["value"]]["language_type"] == "int"

    def test_watchpoint(self, server):
        server.handle("-break-watch total")
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "watchpoint-trigger"
        assert payload["var"] == "total"
        assert payload["new"] == "0"  # the initial total = 0 assignment

    def test_break_delete_all(self, server):
        server.handle("-break-insert square")
        server.handle("-break-delete all")
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "exited"

    def test_maxdepth_option_rides_along(self, write_program):
        source = (
            "def rec(n):\n"
            "    if n == 0:\n"
            "        return 0\n"
            "    return rec(n - 1)\n"
            "rec(3)\n"
        )
        server = make_server(write_program, source, "rec.py")
        server.handle('-break-insert rec --maxdepth "2"')
        server.handle("-exec-run")
        hits = 0
        for _ in range(20):
            payload = last_stopped(server.handle("-exec-continue"))
            if payload["reason"] == "exited":
                break
            hits += 1
        assert hits == 2


class TestInspection:
    def test_position_and_globals(self, server):
        server.handle("-exec-run")
        record = records(server.handle("-inferior-position"))[0]
        assert record.payload["line"] == 1
        server.handle("-break-insert 9")
        server.handle("-exec-continue")
        globals_record = records(server.handle("-data-list-globals"))[0]
        payload = globals_record.payload
        total = payload["variables"]["total"]["value"]
        assert total["abstract_type"] == "ref"  # global -> heap int
        assert payload["heap"][total["content"]]["content"] == 14

    def test_list_functions(self, server):
        record = records(server.handle("-list-functions"))[0]
        assert record.payload == ["square"]

    def test_tracker_stats_cross_the_pipe(self, server):
        server.handle("-exec-run")
        record = records(server.handle("-tracker-stats"))[0]
        assert "events_seen" in record.payload


class TestTimeline:
    def test_timeline_requires_start(self, server):
        record = records(server.handle("-timeline-length"))[0]
        assert record.kind == "error"
        assert "-timeline-start" in record.payload

    def test_timeline_records_pauses(self, server):
        server.handle("-timeline-start")
        server.handle("-break-insert square")
        server.handle("-exec-run")
        for _ in range(10):
            payload = last_stopped(server.handle("-exec-continue"))
            if payload["reason"] == "exited":
                break
        length = records(server.handle("-timeline-length"))[0]
        # entry + 3 breakpoint hits + exit
        assert length.payload["length"] == 5
        dump = records(server.handle("-timeline-dump"))[0]
        assert dump.payload["start_index"] == 0
        assert dump.payload["segments"]  # serialized delta segments


class TestResourceLimits:
    def test_argv_round_trip(self):
        limits = ResourceLimits(
            address_space=123, cpu_seconds=4, file_size=56
        )
        argv = limits.to_argv() + ["prog.py", "arg1"]
        parsed, rest = ResourceLimits.consume_argv(argv)
        assert parsed == limits
        assert rest == ["prog.py", "arg1"]

    def test_unset_limits_add_no_flags(self):
        assert ResourceLimits().to_argv() == []

    def test_missing_value_raises(self):
        with pytest.raises(ValueError):
            ResourceLimits.consume_argv(["--limit-cpu"])

    def test_unknown_flags_pass_through(self):
        _, rest = ResourceLimits.consume_argv(["--limit-other", "prog.py"])
        assert rest == ["--limit-other", "prog.py"]


class TestExitCodeMapping:
    def test_signal_death_maps_to_shell_convention(self):
        assert _process_exit_code(-11) == 139  # SIGSEGV
        assert _process_exit_code(-24) == 152  # SIGXCPU

    def test_plain_codes_pass_through(self):
        assert _process_exit_code(0) == 0
        assert _process_exit_code(7) == 7

    def test_unknown_death_is_nonzero(self):
        assert _process_exit_code(None) == 1


class TestIdleBootAndReload:
    """The pooled-child life: boot idle, bind via load, taint via limits."""

    def test_idle_server_reports_unloaded(self):
        server = PythonDebugServer()
        info = records(server.handle("-server-info"))[0].payload
        assert info["loaded"] is None
        assert info["started"] is False
        assert info["limits_applied"] is False
        assert info["pid"]

    def test_run_before_load_is_error(self):
        server = PythonDebugServer()
        record = records(server.handle("-exec-run"))[0]
        assert record.kind == "error"

    def test_load_binds_an_idle_server(self, write_program):
        server = PythonDebugServer()
        path = write_program("late.py", "print('hi')\n")
        done = records(server.handle(f"-file-exec-and-symbols {path}"))[0]
        assert done.kind == "done"
        lines = server.handle("-exec-run")
        assert records(lines)[0].kind == "running"

    def test_reload_resets_state(self, server, write_program):
        server.handle("-break-insert square")
        server.handle("-exec-run")
        other = write_program("other.py", "y = 2\nprint('other', y)\n")
        done = records(server.handle(f"-file-exec-and-symbols {other}"))[0]
        assert done.kind == "done"
        # numbering, run state, and control points all start over
        info = records(server.handle("-server-info"))[0].payload
        assert info["started"] is False
        number = records(server.handle("-break-insert 2"))[0].payload
        assert number == {"number": 1}
        lines = server.handle("-exec-run")
        assert records(lines)[0].kind == "running"
        server.handle("-exec-continue")
        final = server.handle("-exec-continue")
        assert last_stopped(final)["reason"] == "exited"

    def test_failed_reload_leaves_server_idle(self, server):
        error = records(
            server.handle("-file-exec-and-symbols /no/such/prog.py")
        )[0]
        assert error.kind == "error"
        info = records(server.handle("-server-info"))[0].payload
        assert info["loaded"] is None

    def test_load_report_without_args_still_works(self, server):
        done = records(server.handle("-file-exec-and-symbols"))[0]
        assert done.kind == "done"
        assert done.payload["file"].endswith("prog.py")

    def test_apply_limits_taints_the_server(self):
        server = PythonDebugServer()
        # an enormous fsize cap: harmless to the test process, but the
        # taint flag must flip regardless of the cap's size
        done = records(
            server.handle("-apply-limits --fsize 10000000000")
        )[0]
        assert done.payload == {"limits_applied": True}
        info = records(server.handle("-server-info"))[0].payload
        assert info["limits_applied"] is True

    def test_empty_apply_limits_is_a_no_op(self):
        server = PythonDebugServer()
        done = records(server.handle("-apply-limits"))[0]
        assert done.payload == {"limits_applied": False}


PY_SERIAL_THREADS = """\
import threading

def worker(tag):
    value = tag * 2
    return value

t1 = threading.Thread(name="w1", target=worker, args=(1,))
t1.start()
t1.join()
t2 = threading.Thread(name="w2", target=worker, args=(2,))
t2.start()
t2.join()
print("done")
"""


class TestThreadsOverMi:
    """The thread dimension crossing the MI boundary.

    Workers run strictly serially so stable indexes are deterministic
    (first worker = 1, second = 2) regardless of scheduler whims.
    """

    def test_thread_info_lists_the_main_thread(self, server):
        server.handle("-exec-run")
        payload = records(server.handle("-thread-info"))[0].payload
        threads = {t["id"]: t for t in payload["threads"]}
        assert 0 in threads
        assert threads[0]["state"] == "paused"

    def test_stop_payload_names_the_pausing_thread(self, write_program):
        server = make_server(write_program, PY_SERIAL_THREADS, "thr.py")
        server.handle("-break-insert worker")
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "breakpoint-hit"
        assert payload["thread"] == 1
        assert payload["thread-name"] == "w1"

    def test_thread_scoped_breakpoint_option(self, write_program):
        server = make_server(write_program, PY_SERIAL_THREADS, "thr.py")
        server.handle('-break-insert worker --thread "2"')
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "breakpoint-hit"
        assert payload["thread"] == 2
        assert payload["thread-name"] == "w2"
        # Exactly one hit: the next continue runs to exit.
        for _ in range(5):
            payload = last_stopped(server.handle("-exec-continue"))
            if payload["reason"] == "exited":
                break
        assert payload["reason"] == "exited"

    def test_thread_info_while_paused_on_a_worker(self, write_program):
        server = make_server(write_program, PY_SERIAL_THREADS, "thr.py")
        server.handle("-break-insert worker")
        server.handle("-exec-run")
        server.handle("-exec-continue")  # breakpoint on w1
        payload = records(server.handle("-thread-info"))[0].payload
        threads = {t["id"]: t for t in payload["threads"]}
        assert {0, 1} <= set(threads)
        assert threads[1]["name"] == "w1"
        assert threads[1]["state"] == "paused"
        assert threads[0]["state"] in ("running", "blocked", "parked")
