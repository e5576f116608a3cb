"""End-to-end tests for the GDB tracker (tool process <-> server subprocess)."""

import pytest

from repro.core.errors import TrackerError
from repro.core.pause import PauseReasonType
from repro.core.state import AbstractType
from repro.gdbtracker.tracker import GDBTracker

C_PROGRAM = """\
int total = 0;

int square(int v) {
    int r = v * v;
    return r;
}

int main(void) {
    int *data = malloc(2 * sizeof(int));
    data[0] = square(3);
    data[1] = square(4);
    total = data[0] + data[1];
    free(data);
    return 0;
}
"""

ASM_PROGRAM = """\
main:
    li a0, 3
    call double_it
    call double_it
    li a7, 93
    ecall
double_it:
    add a0, a0, a0
    ret
"""


@pytest.fixture
def c_tracker(write_program):
    tracker = GDBTracker()
    tracker.load_program(write_program("prog.c", C_PROGRAM))
    yield tracker
    tracker.terminate()


@pytest.fixture
def asm_tracker(write_program):
    tracker = GDBTracker()
    tracker.load_program(write_program("prog.s", ASM_PROGRAM))
    yield tracker
    tracker.terminate()


class TestCControl:
    def test_start_pauses_at_first_line(self, c_tracker):
        c_tracker.start()
        assert c_tracker.get_exit_code() is None
        assert c_tracker.pause_reason.type is PauseReasonType.STEP

    def test_run_to_completion(self, c_tracker):
        c_tracker.start()
        c_tracker.resume()
        assert c_tracker.get_exit_code() == 0
        assert c_tracker.pause_reason.type is PauseReasonType.EXIT

    def test_track_function_events(self, c_tracker):
        c_tracker.track_function("square")
        c_tracker.start()
        events = []
        while c_tracker.get_exit_code() is None:
            c_tracker.resume()
            reason = c_tracker.pause_reason
            if reason.type is PauseReasonType.CALL:
                events.append(("call", None))
            elif reason.type is PauseReasonType.RETURN:
                events.append(("return", reason.return_value))
        assert events == [
            ("call", None), ("return", "9"),
            ("call", None), ("return", "16"),
        ]

    def test_watch_global(self, c_tracker):
        c_tracker.watch("total")
        c_tracker.start()
        c_tracker.resume()
        reason = c_tracker.pause_reason
        assert reason.type is PauseReasonType.WATCH
        assert reason.variable == "total"

    def test_break_before_line(self, c_tracker):
        c_tracker.break_before_line(12)
        c_tracker.start()
        c_tracker.resume()
        assert c_tracker.pause_reason.type is PauseReasonType.BREAKPOINT
        assert c_tracker.next_lineno == 12

    def test_control_points_added_while_running(self, c_tracker):
        c_tracker.start()
        c_tracker.break_before_func("square")  # added after start
        c_tracker.resume()
        assert c_tracker.pause_reason.type is PauseReasonType.BREAKPOINT
        assert c_tracker.pause_reason.function == "square"

    def test_step_and_next(self, c_tracker):
        c_tracker.start()
        c_tracker.next()
        assert c_tracker.get_current_frame().name == "main"
        # Stepping from the call line eventually enters square.
        for _ in range(10):
            c_tracker.step()
            if c_tracker.get_current_frame().name == "square":
                break
        assert c_tracker.get_current_frame().name == "square"


class TestCInspection:
    def test_frames_cross_pipe(self, c_tracker):
        c_tracker.break_before_func("square")
        c_tracker.start()
        c_tracker.resume()
        frame = c_tracker.get_current_frame()
        assert frame.name == "square"
        assert frame.depth == 1
        assert frame.parent.name == "main"
        assert frame.variables["v"].value.content == 3

    def test_globals_cross_pipe(self, c_tracker):
        c_tracker.start()
        globals_map = c_tracker.get_global_variables()
        assert globals_map["total"].value.content == 0

    def test_heap_blocks(self, c_tracker):
        c_tracker.break_before_line(12)
        c_tracker.start()
        c_tracker.resume()
        blocks = c_tracker.get_heap_blocks()
        assert list(blocks.values()) == [8]

    def test_malloc_pointer_renders_as_list(self, c_tracker):
        c_tracker.break_before_line(12)
        c_tracker.start()
        c_tracker.resume()
        data = c_tracker.get_current_frame().variables["data"].value
        assert data.abstract_type is AbstractType.REF
        assert [v.content for v in data.content.content] == [9, 16]

    def test_get_position(self, c_tracker):
        c_tracker.start()
        filename, line = c_tracker.get_position()
        assert filename.endswith("prog.c")
        assert line == 9

    def test_get_position_at_a_call_pause_is_the_callee_line(self, c_tracker):
        # The hosted tracker reports the pause line, like the Python
        # backend and the innermost frame, not the caller's last line.
        c_tracker.track_function("square")
        c_tracker.start()
        c_tracker.resume()
        assert c_tracker.pause_reason.type is PauseReasonType.CALL
        assert c_tracker.get_position()[1] == 3
        assert c_tracker.get_current_frame().line == 3

    def test_get_threads_reports_the_main_thread(self, c_tracker):
        c_tracker.break_before_func("square")
        c_tracker.start()
        c_tracker.resume()
        (thread,) = c_tracker.get_threads()
        assert (thread.id, thread.name, thread.function) == (0, "main", "square")

    def test_get_variable(self, c_tracker):
        c_tracker.break_before_func("square")
        c_tracker.start()
        c_tracker.resume()
        assert c_tracker.get_variable("v").value.content == 3
        assert c_tracker.get_variable("total").value.content == 0

    def test_output_collected(self, write_program):
        tracker = GDBTracker()
        tracker.load_program(
            write_program("hello.c",
                          'int main(void) { printf("hi %d\\n", 9); return 0; }')
        )
        tracker.start()
        tracker.resume()
        assert tracker.get_output() == "hi 9\n"
        tracker.terminate()

    def test_list_functions(self, c_tracker):
        assert c_tracker.list_functions() == ["main", "square"]

    def test_load_error_propagates(self, write_program):
        tracker = GDBTracker()
        with pytest.raises(TrackerError):
            tracker.load_program(write_program("bad.c", "int main( {"))


class TestAssemblyRetScan:
    def test_track_function_via_ret_scan(self, asm_tracker):
        asm_tracker.track_function("double_it")
        asm_tracker.start()
        events = []
        while asm_tracker.get_exit_code() is None:
            asm_tracker.resume()
            reason = asm_tracker.pause_reason
            if reason.type in (PauseReasonType.CALL, PauseReasonType.RETURN):
                events.append(reason.type)
        # Two calls, each with an entry and a (ret-scan) exit pause.
        assert events == [
            PauseReasonType.CALL, PauseReasonType.RETURN,
            PauseReasonType.CALL, PauseReasonType.RETURN,
        ]
        assert asm_tracker.get_exit_code() == 12

    def test_ret_scan_fails_for_function_without_ret(self, write_program):
        tracker = GDBTracker()
        tracker.load_program(
            write_program(
                "noret.s",
                "main:\n  j spin\nspin:\n  li a7, 93\n  ecall\n",
            )
        )
        with pytest.raises(TrackerError, match="no return instruction"):
            tracker.track_function("spin")
            tracker.start()
        tracker.terminate()

    def test_registers_and_memory(self, asm_tracker):
        asm_tracker.start()
        registers = asm_tracker.get_registers_gdb()
        assert registers["sp"] == 0x7FFF_F000
        raw = asm_tracker.get_value_at_gdb(0x7FFF_F000 - 8, 8)
        assert len(raw) == 8

    def test_disassemble(self, asm_tracker):
        listing = asm_tracker.disassemble("double_it")
        assert [entry["mnemonic"] for entry in listing] == ["add", "jalr"]
        assert listing[-1]["is_return"]

    def test_asm_exit_code(self, asm_tracker):
        asm_tracker.start()
        asm_tracker.resume()
        assert asm_tracker.get_exit_code() == 12
