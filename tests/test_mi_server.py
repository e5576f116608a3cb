"""Tests for the debug server, driven through its pure handle() interface
(and, for SIGINT delivery, over its stdio pipes)."""

import json
import signal
import sys
import time

import pytest

from repro.core.timeline import StateSnapshot
from repro.mi.protocol import parse_record
from repro.mi.server import DebugServer
from repro.mi.transport import PipeTransport

C_PROGRAM = """\
int total = 0;

int square(int v) {
    int r = v * v;
    return r;
}

int main(void) {
    int i;
    for (i = 1; i <= 3; i++) {
        total = total + square(i);
    }
    return total;
}
"""

C_RECURSIVE = """\
int down(int n) {
    if (n == 0) {
        return 0;
    }
    return down(n - 1);
}

int main(void) {
    return down(3);
}
"""

ASM_PROGRAM = """\
main:
    li t0, 5
    li t1, 7
    call add2
    li a7, 93
    ecall
add2:
    add a0, t0, t1
    ret
"""


def make_server(write_program, source, name="prog.c"):
    return DebugServer(write_program(name, source))


def records(lines):
    return [parse_record(line) for line in lines]


def last_stopped(lines):
    stopped = [r for r in records(lines) if r.kind == "stopped"]
    assert stopped, f"no *stopped in {lines}"
    return stopped[-1].payload


@pytest.fixture
def server(write_program):
    return make_server(write_program, C_PROGRAM)


class TestLifecycle:
    def test_run_pauses_at_first_line(self, server):
        lines = server.handle("-exec-run")
        assert records(lines)[0].kind == "running"
        payload = last_stopped(lines)
        assert payload["reason"] == "end-stepping-range"
        assert payload["func"] == "main"

    def test_double_run_is_error(self, server):
        server.handle("-exec-run")
        record = records(server.handle("-exec-run"))[0]
        assert record.kind == "error"

    def test_continue_to_exit(self, server):
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "exited"
        assert payload["exitcode"] == 1 + 4 + 9

    def test_control_after_exit_is_error(self, server):
        server.handle("-exec-run")
        server.handle("-exec-continue")
        record = records(server.handle("-exec-continue"))[0]
        assert record.kind == "error"

    def test_control_before_run_is_error(self, server):
        record = records(server.handle("-exec-continue"))[0]
        assert record.kind == "error"

    def test_unknown_command(self, server):
        record = records(server.handle("-frobnicate"))[0]
        assert record.kind == "error"
        assert "undefined command" in record.payload

    def test_gdb_exit_sets_finished(self, server):
        assert records(server.handle("-gdb-exit"))[0].kind == "done"
        assert server._finished

    def test_crash_reports_error_in_stopped(self, write_program):
        server = make_server(
            write_program,
            "int main(void) { int *p = (int*)5; return *p; }",
            "crash.c",
        )
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["exitcode"] == 139
        assert "invalid" in payload["error"]


class TestStepping:
    def test_step_enters_function(self, server):
        server.handle("-exec-run")
        seen = set()
        for _ in range(40):
            payload = last_stopped(server.handle("-exec-step"))
            if payload["reason"] == "exited":
                break
            seen.add(payload["func"])
        assert "square" in seen

    def test_next_stays_in_main(self, server):
        server.handle("-exec-run")
        for _ in range(40):
            payload = last_stopped(server.handle("-exec-next"))
            if payload["reason"] == "exited":
                break
            assert payload["func"] == "main"

    def test_finish_returns_to_caller(self, server):
        server.handle("-break-insert square")
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["func"] == "square"
        payload = last_stopped(server.handle("-exec-finish"))
        assert payload["func"] == "main"


class TestBreakpoints:
    def test_line_breakpoint(self, server):
        done = records(server.handle("-break-insert 4"))[0]
        assert done.kind == "done"
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "breakpoint-hit"
        assert payload["line"] == 4
        assert payload["bkptno"] == done.payload["number"]

    def test_file_line_form(self, server):
        server.handle("-break-insert prog.c:4")
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["line"] == 4

    def test_function_breakpoint(self, server):
        server.handle("-break-insert square")
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "breakpoint-hit"
        assert payload["func"] == "square"

    def test_breakpoint_maxdepth(self, write_program):
        server = make_server(write_program, C_RECURSIVE, "rec.c")
        server.handle("-break-insert down --maxdepth 2")
        server.handle("-exec-run")
        depths = []
        while True:
            payload = last_stopped(server.handle("-exec-continue"))
            if payload["reason"] == "exited":
                break
            depths.append(payload["depth"])
        assert depths == [1, 2]

    def test_break_delete_clears_all(self, server):
        server.handle("-break-insert 4")
        server.handle("-break-delete all")
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "exited"

    def test_break_delete_by_number(self, server):
        first = records(server.handle("-break-insert 4"))[0].payload["number"]
        records(server.handle("-break-insert 13"))
        assert records(server.handle(f"-break-delete {first}"))[0].kind == "done"
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["line"] == 13  # only the second breakpoint remains

    def test_break_delete_unknown_number(self, server):
        assert records(server.handle("-break-delete 99"))[0].kind == "error"

    def test_break_disable_enable(self, server):
        number = records(server.handle("-break-insert 4"))[0].payload["number"]
        server.handle(f"-break-disable {number}")
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "exited"  # disabled: never hit

    def test_enable_restores_watch(self, write_program):
        server = make_server(write_program, C_PROGRAM, "p2.c")
        number = records(server.handle("-break-watch total"))[0].payload["number"]
        server.handle(f"-break-disable {number}")
        server.handle(f"-break-enable {number}")
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "watchpoint-trigger"

    def test_missing_location_is_error(self, server):
        assert records(server.handle("-break-insert"))[0].kind == "error"


class TestWatchAndTrack:
    def test_watch_global(self, server):
        server.handle("-break-watch total")
        server.handle("-exec-run")
        values = []
        while True:
            payload = last_stopped(server.handle("-exec-continue"))
            if payload["reason"] == "exited":
                break
            assert payload["reason"] == "watchpoint-trigger"
            values.append(payload["new"])
        assert len(values) == 3  # 1, 5, 14

    def test_watch_does_not_fire_on_initial_value(self, server):
        server.handle("-break-watch total")
        lines = server.handle("-exec-run")
        assert last_stopped(lines)["reason"] == "end-stepping-range"

    def test_watch_function_scoped_local(self, server):
        server.handle("-break-watch square:r")
        server.handle("-exec-run")
        payload = last_stopped(server.handle("-exec-continue"))
        assert payload["reason"] == "watchpoint-trigger"
        assert payload["var"] == "square:r"

    def test_track_function_entry_exit(self, server):
        server.handle("-track-function square")
        server.handle("-exec-run")
        events = []
        while True:
            payload = last_stopped(server.handle("-exec-continue"))
            if payload["reason"] == "exited":
                break
            events.append(payload["reason"])
            if payload["reason"] == "function-exit":
                assert payload["retval"] in ("1", "4", "9")
        assert events == ["function-entry", "function-exit"] * 3

    def test_track_maxdepth(self, write_program):
        server = make_server(write_program, C_RECURSIVE, "rec.c")
        server.handle("-track-function down --maxdepth 1")
        server.handle("-exec-run")
        events = []
        while True:
            payload = last_stopped(server.handle("-exec-continue"))
            if payload["reason"] == "exited":
                break
            events.append(payload["reason"])
        assert events == ["function-entry", "function-exit"]


class TestInspection:
    def test_stack_list_frames(self, server):
        server.handle("-break-insert square")
        server.handle("-exec-run")
        server.handle("-exec-continue")
        # step into the body so the local exists
        server.handle("-exec-step")
        payload = records(server.handle("-stack-list-frames"))[0].payload
        frame_data, heap = payload["frame"], payload["heap"]
        assert frame_data["name"] == "square"
        assert frame_data["parent"]["name"] == "main"
        assert heap[frame_data["variables"]["v"]["value"]]["content"] == 1
        assert frame_data["variables"]["v"]["scope"] == "argument"

    def test_globals(self, server):
        server.handle("-exec-run")
        payload = records(server.handle("-data-list-globals"))[0].payload
        key = payload["variables"]["total"]["value"]
        assert payload["heap"][key]["content"] == 0

    def test_state_snapshot_is_one_tree(self, server):
        server.handle("-break-insert square")
        server.handle("-exec-run")
        server.handle("-exec-continue")
        server.handle("-exec-step")
        payload = records(server.handle("-state-snapshot"))[0].payload
        state = StateSnapshot.from_dict(payload)
        assert state.frame.name == "square"
        assert state.frame.variables["v"].value.content == 1
        assert state.globals["total"].value.content == 0
        assert state.stdout == ""  # the client has it from ~ records
        assert not [key for key in payload["heap"] if "#" in key]

    def test_inspection_before_run_is_error(self, server):
        assert records(server.handle("-stack-list-frames"))[0].kind == "error"
        assert records(server.handle("-state-snapshot"))[0].kind == "error"

    def test_read_memory(self, server):
        server.handle("-exec-run")
        globals_payload = records(server.handle("-data-list-globals"))[0].payload
        key = globals_payload["variables"]["total"]["value"]
        address = globals_payload["heap"][key]["address"]
        record = records(
            server.handle(f"-data-read-memory {address:#x} 4")
        )[0]
        assert record.payload["bytes"] == "00000000"

    def test_registers_error_for_c(self, server):
        assert (
            records(server.handle("-data-list-register-values"))[0].kind
            == "error"
        )

    def test_evaluate_expression(self, server):
        server.handle("-exec-run")
        record = records(server.handle("-data-evaluate-expression total"))[0]
        assert record.kind == "done"
        record = records(server.handle("-data-evaluate-expression missing"))[0]
        assert record.kind == "error"

    def test_list_functions(self, server):
        payload = records(server.handle("-list-functions"))[0].payload
        assert payload == ["main", "square"]

    def test_heap_blocks(self, write_program):
        server = make_server(
            write_program,
            "int main(void) {\n"
            "    int *p = malloc(12);\n"
            "    int x = 0;\n"
            "    free(p);\n"
            "    return 0;\n"
            "}",
            "heap.c",
        )
        server.handle("-break-insert 3")
        server.handle("-exec-run")
        server.handle("-exec-continue")
        blocks = records(server.handle("-heap-blocks"))[0].payload
        assert list(blocks.values()) == [12]

    def test_malformed_command_line(self, server):
        record = records(server.handle("not a command"))[0]
        assert record.kind == "error"


class TestAssemblyInferior:
    @pytest.fixture
    def asm_server(self, write_program):
        return make_server(write_program, ASM_PROGRAM, "prog.s")

    def test_run_and_exit(self, asm_server):
        asm_server.handle("-exec-run")
        while True:
            payload = last_stopped(asm_server.handle("-exec-continue"))
            if payload["reason"] == "exited":
                break
        assert payload["exitcode"] == 12

    def test_registers_and_pc(self, asm_server):
        asm_server.handle("-exec-run")
        payload = records(
            asm_server.handle("-data-list-register-values")
        )[0].payload
        assert "pc" in payload and "sp" in payload

    def test_disassemble_and_ret_scan(self, asm_server):
        listing = records(asm_server.handle("-data-disassemble add2"))[0].payload
        returns = [entry for entry in listing if entry["is_return"]]
        assert len(returns) == 1

    def test_address_breakpoint(self, asm_server):
        listing = records(asm_server.handle("-data-disassemble add2"))[0].payload
        ret_address = next(e["address"] for e in listing if e["is_return"])
        asm_server.handle(f"-break-insert *{ret_address:#x}")
        asm_server.handle("-exec-run")
        payload = last_stopped(asm_server.handle("-exec-continue"))
        assert payload["reason"] == "breakpoint-hit"
        assert payload["pc"] == ret_address

    def test_watch_register(self, asm_server):
        asm_server.handle("-break-watch t0")
        asm_server.handle("-exec-run")
        payload = last_stopped(asm_server.handle("-exec-continue"))
        assert payload["reason"] == "watchpoint-trigger"
        assert payload["new"] == "5"

    def test_asm_frames_have_registers(self, asm_server):
        asm_server.handle("-exec-run")
        frame = records(asm_server.handle("-stack-list-frames"))[0].payload
        frame = frame["frame"]
        assert frame["name"] == "main"
        assert "sp" in frame["variables"]


class TestTimeline:
    """The -timeline-* family: server-side recording for time travel."""

    def test_requires_start_first(self, server):
        server.handle("-exec-run")
        for command in (
            "-timeline-length",
            "-timeline-dump",
            "-timeline-snapshot 0",
            "-timeline-drop-last",
        ):
            record = records(server.handle(command))[0]
            assert record.kind == "error"
            assert "-timeline-start" in record.payload

    def test_records_every_stop(self, server):
        server.handle("-break-insert square")
        assert records(server.handle("-timeline-start"))[0].payload == {
            "recording": True
        }
        server.handle("-exec-run")
        for _ in range(3):
            server.handle("-exec-continue")
        server.handle("-exec-continue")  # to exit
        payload = records(server.handle("-timeline-length"))[0].payload
        # entry pause + 3 breakpoint hits + exit
        assert payload == {"length": 5, "start": 0, "retained": 5}

    def test_start_mid_run_opens_with_current_state(self, server):
        server.handle("-exec-run")
        server.handle("-exec-step")
        server.handle("-timeline-start")
        payload = records(server.handle("-timeline-length"))[0].payload
        assert payload["length"] == 1

    def test_snapshot_and_dump_round_trip(self, server):
        from repro.core.timeline import StateSnapshot, Timeline

        server.handle("-break-insert square")
        server.handle("-timeline-start --keyframe-interval 2")
        server.handle("-exec-run")
        server.handle("-exec-continue")
        snap_payload = records(server.handle("-timeline-snapshot 1"))[0].payload
        snapshot = StateSnapshot.from_dict(snap_payload)
        assert snapshot.func_name == "square"
        assert snapshot.lookup("v").value.content == 1

        timeline = Timeline.from_dict(
            records(server.handle("-timeline-dump"))[0].payload
        )
        assert timeline.backend == "GDB"
        assert timeline.retained == 2
        assert timeline.snapshot(1) == snapshot

    def test_stop_suspends_recording(self, server):
        server.handle("-timeline-start")
        server.handle("-exec-run")
        assert records(server.handle("-timeline-stop"))[0].payload == {
            "recording": False
        }
        server.handle("-exec-step")
        payload = records(server.handle("-timeline-length"))[0].payload
        assert payload["length"] == 1  # the step was not recorded

    def test_drop_last(self, server):
        server.handle("-timeline-start")
        server.handle("-exec-run")
        server.handle("-exec-step")
        assert records(server.handle("-timeline-drop-last"))[0].payload == {
            "dropped": True
        }
        payload = records(server.handle("-timeline-length"))[0].payload
        assert payload["length"] == 1

    def test_ring_bound_over_the_pipe(self, server):
        server.handle("-timeline-start --keyframe-interval 2 --max-snapshots 4")
        server.handle("-exec-run")
        for _ in range(9):
            server.handle("-exec-step")
        payload = records(server.handle("-timeline-length"))[0].payload
        assert payload["length"] == 10
        assert payload["retained"] <= 5
        assert payload["start"] > 0


PY_PROGRAM = """\
a = 1
b = a + 1
c = b + 1
d = c + 1
"""


class TestSigintBetweenCommands:
    """A SIGINT that reaches an idle server interrupts nothing."""

    @staticmethod
    def _stopped(transport):
        while True:
            line = transport.recv_line(timeout=30)
            assert line is not None, "no *stopped within 30s"
            record = parse_record(line)
            if record.kind == "stopped":
                return record.payload

    @pytest.mark.parametrize(
        "name, source", [("prog.c", C_PROGRAM), ("prog.py", PY_PROGRAM)]
    )
    def test_late_sigint_does_not_stop_the_next_command(
        self, write_program, name, source
    ):
        path = write_program(name, source)
        transport = PipeTransport([sys.executable, "-m", "repro.mi.server", path])
        try:
            assert parse_record(transport.recv_line(timeout=30)).kind == "done"
            transport.send_line("-exec-run")
            self._stopped(transport)
            transport._process.send_signal(signal.SIGINT)
            time.sleep(0.2)  # the handler runs while the server is idle
            for _ in range(2):
                transport.send_line("-exec-next")
                assert self._stopped(transport)["reason"] == (
                    "end-stepping-range"
                )
        finally:
            transport.close()
