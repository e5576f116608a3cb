"""The debug server: GDB's role in the reproduction.

Runs as a subprocess (``python -m repro.mi.server program.c``), reads MI
commands on stdin, emits records on stdout. Like the paper's GDB, it owns
all run control: inside, an :class:`InferiorTracker` drives a mini-C or
RISC-V inferior through its event generator — line/function breakpoints
with the ``maxdepth`` extension, byte-level watchpoints, function
entry/exit tracking, step/next/finish, timeline recording — through the
same :class:`repro.core.tracker.Tracker` API every backend implements.

Everything that only calls that API (run control, breakpoints, watches,
inspection, the ``-timeline-*`` family, the ``*stopped`` encoding) lives
in :class:`repro.mi.servercore.ServerCore`, shared with the out-of-process
Python server (:mod:`repro.subproc.server`). :class:`DebugServer` adds
what only this substrate has: address breakpoints, registers, memory,
disassembly, the heap map, ``=alloc`` notifications, the ``bkptno`` /
``pc`` / ``wpnum`` stop fields. A SIGINT sets the engine's interrupt
flag, which the run loop's next event turns into an ``interrupted`` stop.

``DebugServer.handle`` is pure (command line in, record lines out), so
the whole server is unit-testable without pipes; ``main`` adds the stdio
loop.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.engine import AddressBreakpoint
from repro.core.errors import ProgramLoadError
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.state import Frame, Variable
from repro.core.timeline import StateSnapshot
from repro.core.tracker import LineBreakpoint, Tracker
from repro.minic.events import (
    AllocEvent,
    CallEvent,
    Event,
    ExitEvent,
    LineEvent,
    OutputEvent,
    ReturnEvent,
)
from repro.mi import protocol
from repro.mi.inferiors import InferiorAdapter, open_inferior
from repro.mi.servercore import ServerCore, serve_stdio


class InferiorTracker(Tracker):
    """The tracker over a mini-C or RISC-V inferior's event generator.

    The interpreters yield one event per observable step; holding the
    generator *is* the pause. The run loop feeds each event to the shared
    :class:`repro.core.engine.ControlPointEngine` — the server-side analog
    of the settrace handler — until it decides to pause. Hosted by
    :class:`DebugServer`; tools reach these inferiors through
    :class:`repro.gdbtracker.GDBTracker`, so this class is not a factory
    backend.
    """

    backend = "GDB"

    def __init__(self) -> None:
        super().__init__()
        self.inferior: Optional[InferiorAdapter] = None
        self._events: Optional[Iterator[Event]] = None
        self._stdout = ""
        #: function of the newest event
        self.function: Optional[str] = None
        #: the event of the last pause (its depth is the next/finish
        #: reference, as a settrace frame's is)
        self.stop_event: Optional[Event] = None
        #: the control point that caused the last pause
        self.hit: Any = None
        self.exit_error: Optional[str] = None
        #: output and allocation events not yet drained by the server
        self.side_events: List[Event] = []

    def _load_program(self, path: str, args: List[str]) -> None:
        self.inferior = open_inferior(path, args)

    def _start(self) -> None:
        self._events = self.inferior.events()
        self._advance("step")

    def _resume(self) -> None:
        self._advance("resume")

    def _next(self) -> None:
        self._advance("next")

    def _step(self) -> None:
        self._advance("step")

    def _finish(self) -> None:
        self._advance("finish")

    def _terminate(self) -> None:
        self._events = None

    def _request_interrupt(self) -> None:
        self.engine.interrupt_requested = True

    # -- the engine's probe ---------------------------------------------------

    def _event_depth(self, event: Optional[Event]) -> int:
        return 0 if event is None else event.depth

    def _watched_value(
        self, event: Event, function: Optional[str], name: str
    ) -> Optional[str]:
        return self.inferior.render_watch(function, name)

    def _event_pc(self, event: Event) -> Optional[int]:
        return self.inferior.current_pc()

    def _pause_subject(self) -> Optional[Event]:
        return self.stop_event

    # -- inspection -------------------------------------------------------

    def _capture(self) -> StateSnapshot:
        self.inferior.new_capture()
        return super()._capture()

    def _get_current_frame(self) -> Frame:
        return self.inferior.frame_chain()

    def _get_global_variables(self) -> Dict[str, Variable]:
        return self.inferior.globals_map()

    def _get_position(self) -> Tuple[str, Optional[int]]:
        return self.inferior.filename, self.next_lineno

    def _get_output(self) -> str:
        return self._stdout

    # -- the run loop -------------------------------------------------------

    def _advance(self, mode: str) -> None:
        """Consume events until a pause decision or the exit."""
        engine = self.engine
        engine.arm(mode, self._event_depth(self.stop_event))
        while True:
            event = next(self._events, None)
            if event is None or isinstance(event, ExitEvent):
                self._exit(event)
                return
            if isinstance(event, OutputEvent):
                self._stdout += event.text
                self.side_events.append(event)
                continue
            if isinstance(event, AllocEvent):
                self.side_events.append(event)
                continue
            if isinstance(event, LineEvent):
                kind = "line"
            elif isinstance(event, CallEvent):
                kind = "call"
            elif isinstance(event, ReturnEvent):
                kind = "return"
            else:
                # WriteEvent and any future event kinds: no run-control effect.
                continue
            self.function = event.function
            pause = engine.decide(
                kind, event.line, event.function, None, event
            )
            if pause is not None:
                reason, self.hit = pause
                if reason.type is PauseReasonType.RETURN:
                    reason.return_value = event.value
                self.stop_event = event
                self._pause_reason = reason
                self.last_lineno = self.next_lineno
                self.next_lineno = reason.line
                return

    def _exit(self, event: Optional[ExitEvent]) -> None:
        self.engine.note_event("exit")
        self.engine.record_pause(PauseReasonType.EXIT)
        self._exit_code = event.code if event is not None else 0
        self.exit_error = self.inferior.exit_error()
        self._pause_reason = PauseReason(type=PauseReasonType.EXIT)


class DebugServer(ServerCore):
    """One debugging session over one mini-C or RISC-V inferior.

    Hosts an :class:`InferiorTracker`; control points are the tracker's
    own (:class:`repro.core.tracker.LineBreakpoint` etc., plus
    :class:`repro.core.engine.AddressBreakpoint`), with an MI ``number``
    attribute added for enable/disable/delete addressing.
    """

    def __init__(self, path: str, args: Optional[List[str]] = None):
        super().__init__()
        self.path = path
        self.tracker = InferiorTracker()
        self.tracker.load_program(path, args)
        self.inferior: InferiorAdapter = self.tracker.inferior

    def _drain_output(self) -> List[str]:
        records = []
        for event in self.tracker.side_events:
            if isinstance(event, OutputEvent):
                records.append(protocol.format_stream(event.text))
            else:
                records.append(
                    protocol.format_notify(
                        "alloc",
                        {
                            "kind": event.kind,
                            "address": event.address,
                            "size": event.size,
                        },
                    )
                )
        self.tracker.side_events.clear()
        return records

    def _stop_fields(self, reason: PauseReason) -> Dict[str, Any]:
        tracker = self.tracker
        if reason.type is PauseReasonType.EXIT:
            return {"error": tracker.exit_error} if tracker.exit_error else {}
        fields: Dict[str, Any] = {"depth": tracker.stop_event.depth}
        if reason.type is PauseReasonType.INTERRUPT:
            return fields
        fields["func"] = tracker.function
        hit = tracker.hit
        if reason.type is PauseReasonType.WATCH:
            fields["wpnum"] = getattr(hit, "number", 0)
        elif reason.type is PauseReasonType.BREAKPOINT:
            fields["bkptno"] = getattr(hit, "number", 0)
        if reason.type is PauseReasonType.STEP or isinstance(
            hit, (LineBreakpoint, AddressBreakpoint)
        ):
            fields["pc"] = self.inferior.current_pc()
        return fields

    # -- what only this substrate has ---------------------------------------

    def _cmd_file_exec_and_symbols(self, command) -> List[str]:
        return [protocol.format_done({"file": self.inferior.filename})]

    def _break_at_address(
        self, address: int, maxdepth: Optional[int]
    ) -> AddressBreakpoint:
        point = AddressBreakpoint(address=address, maxdepth=maxdepth)
        self.engine.address_breakpoints.append(point)
        return point

    def _cmd_data_list_register_values(self, command) -> List[str]:
        registers = self.inferior.registers()
        if registers is None:
            return [protocol.format_error("this inferior has no registers")]
        return [protocol.format_done(registers)]

    def _cmd_data_read_memory(self, command) -> List[str]:
        address = int(command.args[0], 0)
        count = int(command.args[1], 0)
        raw = self.inferior.read_memory(address, count)
        return [protocol.format_done({"address": address, "bytes": raw.hex()})]

    def _cmd_data_disassemble(self, command) -> List[str]:
        return [protocol.format_done(self.inferior.disassemble(command.args[0]))]

    def _evaluate(self, function: Optional[str], name: str) -> Optional[str]:
        self.tracker._require_paused()
        return self.inferior.render_watch(function, name)

    def _cmd_list_functions(self, command) -> List[str]:
        return [protocol.format_done(self.inferior.function_names())]

    def _cmd_heap_blocks(self, command) -> List[str]:
        payload = {
            f"{address:#x}": size
            for address, size in self.inferior.heap_blocks().items()
        }
        return [protocol.format_done(payload)]


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: ``python -m repro.mi.server program.c [args...]``.

    A ``.py`` program is delegated to the out-of-process Python server
    (:mod:`repro.subproc.server`), so one entry point serves every
    substrate.
    """
    argv = argv if argv is not None else sys.argv[1:]
    if not argv:
        print(protocol.format_error("usage: server <program> [args...]"))
        return 2
    if argv[0].endswith(".py"):
        from repro.subproc.server import main as python_main

        return python_main(argv)
    try:
        server = DebugServer(argv[0], argv[1:])
    except (ProgramLoadError, OSError) as error:
        print(protocol.format_error(str(error)), flush=True)
        return 1
    return serve_stdio(server, {"loaded": argv[0]})


if __name__ == "__main__":
    sys.exit(main())
