"""A Debug Adapter Protocol server over the tracker API.

The paper's Table II discusses DAP as the one debugger machine interface
with broad front-end adoption, but notes it is still low-level and lacks
the teaching-oriented features. This adapter closes the loop from the
other side: because the tracker API is a *superset* of what DAP's core
requests need, any tracker backend (Python, mini-C, RISC-V assembly, or a
recorded PT trace) can sit behind a standard DAP front-end.

``DebugAdapter.handle(request)`` is pure — a request dict in, a list of
response/event dicts out — so every request is unit-testable;
:func:`serve` adds the framed stdio loop for real clients.

Implemented requests: initialize, launch, setBreakpoints,
setFunctionBreakpoints, configurationDone, threads, stackTrace, scopes,
variables, continue, next, stepIn, stepOut, evaluate, disconnect, plus the
non-standard ``trackerStats`` (the engine's observability counters).
"""

from __future__ import annotations

from typing import Any, BinaryIO, Dict, List, Optional

from repro.core.errors import (
    BackendUnavailableError,
    ControlTimeout,
    TrackerError,
)
from repro.core.factory import init_tracker
from repro.core.pause import PauseReasonType
from repro.core.state import AbstractType, Value, Variable
from repro.core.tracker import Tracker
from repro.dap import protocol

#: The default DAP thread id. Tracker thread indexes are 0-based; DAP
#: requires positive ids, so index ``n`` is exposed as thread ``n + 1``.
THREAD_ID = 1

_STOP_REASONS = {
    PauseReasonType.BREAKPOINT: "breakpoint",
    PauseReasonType.WATCH: "data breakpoint",
    PauseReasonType.CALL: "function breakpoint",
    PauseReasonType.RETURN: "function breakpoint",
    PauseReasonType.STEP: "step",
    PauseReasonType.INTERRUPT: "pause",
    PauseReasonType.DEADLOCK_SUSPECTED: "deadlock",
}


class DebugAdapter:
    """One DAP session over one tracker."""

    def __init__(self) -> None:
        self.tracker: Optional[Tracker] = None
        self._seq = 0
        self._program: Optional[str] = None
        self._stop_on_entry = True
        self._started = False
        self._terminated_sent = False
        #: variablesReference -> list of model Variables
        self._variable_scopes: Dict[int, List[Variable]] = {}
        self._next_reference = 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Process one request; return the response plus any events."""
        command = request.get("command", "")
        handler = getattr(self, "_req_" + command, None)
        if handler is None:
            return [self._error(request, f"unsupported request {command!r}")]
        try:
            return handler(request)
        except TrackerError as error:
            return [self._error(request, str(error))]

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _ok(self, request, body: Optional[Dict[str, Any]] = None):
        return protocol.make_response(self._next_seq(), request, body)

    def _error(self, request, message: str):
        return protocol.make_response(
            self._next_seq(), request, success=False, message=message
        )

    def _event(self, name: str, body: Optional[Dict[str, Any]] = None):
        return protocol.make_event(self._next_seq(), name, body)

    # ------------------------------------------------------------------
    # Lifecycle requests
    # ------------------------------------------------------------------

    def _req_initialize(self, request):
        body = {
            "supportsConfigurationDoneRequest": True,
            "supportsFunctionBreakpoints": True,
            "supportsEvaluateForHovers": True,
            # Serviced by replaying the recorded timeline (launch with
            # "record": true); covers stepBack and reverseContinue.
            "supportsStepBack": True,
        }
        return [self._ok(request, body), self._event("initialized")]

    def _req_launch(self, request):
        arguments = request.get("arguments", {})
        program = arguments.get("program")
        if not program:
            return [self._error(request, "launch needs a 'program' argument")]
        self._program = program
        self._stop_on_entry = bool(arguments.get("stopOnEntry", True))
        # Any registered factory name works here — e.g. "python-mon"
        # selects the sys.monitoring (3.12+) fast backend; an unavailable
        # one surfaces as a DAP error response listing the alternatives.
        backend = arguments.get(
            "backend", "python" if program.endswith(".py") else "GDB"
        )
        kwargs = {}
        # "isolate": true runs a Python inferior out of process, in a
        # sandboxed child interpreter; the limit arguments cap it.
        if arguments.get("isolate") and backend.lower() == "python":
            backend = "python-subproc"
        if backend.lower() == "python-subproc":
            from repro.subproc.limits import ResourceLimits

            limits = ResourceLimits(
                address_space=arguments.get("limitAddressSpace"),
                cpu_seconds=arguments.get("limitCpuSeconds"),
                file_size=arguments.get("limitFileSize"),
            )
            kwargs["resource_limits"] = limits
        self.tracker = init_tracker(backend, **kwargs)
        timeout = arguments.get("controlTimeout")
        if timeout is not None:
            self.tracker.default_timeout = float(timeout)
        self.tracker.load_program(program, arguments.get("args"))
        record = arguments.get("record")
        if record:
            options = record if isinstance(record, dict) else {}
            self.tracker.enable_recording(
                keyframe_interval=int(options.get("keyframeInterval", 16)),
                max_snapshots=options.get("maxSnapshots"),
            )
        return [self._ok(request)]

    def _req_configurationDone(self, request):
        if self.tracker is None:
            return [self._error(request, "launch first")]
        self.tracker.start()
        self._started = True
        messages = [self._ok(request)]
        if self.tracker.get_exit_code() is not None:
            messages.extend(self._exit_events())
        elif self._stop_on_entry:
            messages.append(self._stopped_event("entry"))
        else:
            messages.extend(self._run("resume"))
        return messages

    def _req_disconnect(self, request):
        if self.tracker is not None:
            self.tracker.terminate()
        return [self._ok(request)]

    # ------------------------------------------------------------------
    # Breakpoints
    # ------------------------------------------------------------------

    def _req_setBreakpoints(self, request):
        if self.tracker is None:
            return [self._error(request, "launch first")]
        arguments = request.get("arguments", {})
        requested = arguments.get("breakpoints", [])
        self.tracker.line_breakpoints.clear()
        verified = []
        for entry in requested:
            line = entry.get("line")
            self.tracker.break_before_line(line)
            verified.append({"verified": True, "line": line})
        self.tracker._control_points_changed()
        return [self._ok(request, {"breakpoints": verified})]

    def _req_setFunctionBreakpoints(self, request):
        if self.tracker is None:
            return [self._error(request, "launch first")]
        arguments = request.get("arguments", {})
        self.tracker.function_breakpoints.clear()
        verified = []
        for entry in arguments.get("breakpoints", []):
            name = entry.get("name")
            self.tracker.break_before_func(name)
            verified.append({"verified": True})
        self.tracker._control_points_changed()
        return [self._ok(request, {"breakpoints": verified})]

    # ------------------------------------------------------------------
    # Execution requests
    # ------------------------------------------------------------------

    def _req_continue(self, request):
        return [self._ok(request, {"allThreadsContinued": True})] + self._run(
            "resume"
        )

    def _req_next(self, request):
        return [self._ok(request)] + self._run("next")

    def _req_stepIn(self, request):
        return [self._ok(request)] + self._run("step")

    def _req_stepOut(self, request):
        return [self._ok(request)] + self._run("finish")

    def _req_stepBack(self, request):
        return [self._ok(request)] + self._run_backward("step")

    def _req_reverseContinue(self, request):
        return [self._ok(request)] + self._run_backward("resume")

    def _run_backward(self, mode: str) -> List[Dict[str, Any]]:
        """Rewind over the recorded timeline and report where we landed.

        Unlike :meth:`_run` there is no exit path — rewinding away from
        the end of the program clears the exit state by definition — and
        no supervision drain: reverse calls never touch the inferior.
        """
        if self.tracker is None or not self._started:
            return []
        self.tracker._backward(mode)
        self._variable_scopes.clear()
        reason = self.tracker.pause_reason
        dap_reason = _STOP_REASONS.get(
            reason.type if reason else PauseReasonType.STEP, "step"
        )
        return [self._stopped_event(dap_reason)]

    def _run(self, control: str) -> List[Dict[str, Any]]:
        if self.tracker is None or not self._started:
            return []
        try:
            getattr(self.tracker, control)()
        except ControlTimeout as error:
            return self._supervision_messages() + [
                self._output_event(f"control timeout: {error}\n")
            ]
        except BackendUnavailableError as error:
            return (
                self._supervision_messages()
                + [self._output_event(f"backend unavailable: {error}\n")]
                + [self._event("terminated")]
            )
        self._variable_scopes.clear()
        messages = self._supervision_messages()
        if self.tracker.get_exit_code() is not None:
            return messages + self._exit_events()
        reason = self.tracker.pause_reason
        dap_reason = _STOP_REASONS.get(
            reason.type if reason else PauseReasonType.STEP, "step"
        )
        return messages + [self._stopped_event(dap_reason)]

    def _supervision_messages(self) -> List[Dict[str, Any]]:
        """Drained supervision events, surfaced as DAP output events."""
        if self.tracker is None:
            return []
        return [
            self._output_event(f"[{event.kind}] {event.message}\n")
            for event in self.tracker.drain_supervision_events()
        ]

    def _output_event(self, text: str):
        return self._event(
            "output", {"category": "console", "output": text}
        )

    def _stopped_event(self, reason: str):
        pause = self.tracker.pause_reason if self.tracker else None
        thread_id = THREAD_ID
        body = {
            "reason": reason,
            "threadId": thread_id,
            "allThreadsStopped": True,
        }
        if pause is not None:
            if pause.thread is not None:
                body["threadId"] = pause.thread + 1
            if pause.type is PauseReasonType.DEADLOCK_SUSPECTED:
                waits = (pause.details or {}).get("threads", [])
                body["description"] = (
                    "suspected deadlock: all "
                    f"{len(waits)} inferior thread(s) blocked on locks"
                )
        return self._event("stopped", body)

    def _exit_events(self) -> List[Dict[str, Any]]:
        if self._terminated_sent:
            return []
        self._terminated_sent = True
        return [
            self._event("exited", {"exitCode": self.tracker.get_exit_code()}),
            self._event("terminated"),
        ]

    # ------------------------------------------------------------------
    # Inspection requests
    # ------------------------------------------------------------------

    def _req_threads(self, request):
        threads = []
        try:
            infos = self.tracker.get_threads() if self.tracker else []
        except TrackerError:
            infos = []
        for info in infos:
            name = info.name or f"thread-{info.id}"
            threads.append(
                {"id": info.id + 1, "name": f"{name} [{info.state}]"}
            )
        if not threads:
            threads = [{"id": THREAD_ID, "name": "inferior"}]
        return [self._ok(request, {"threads": threads})]

    def _req_stackTrace(self, request):
        requested = request.get("arguments", {}).get("threadId")
        pause = self.tracker.pause_reason
        current = (pause.thread if pause and pause.thread is not None else 0) + 1
        if requested is not None and requested != current:
            # Another thread's stack is view-only: the frame ids are
            # deliberately out of the scopes/variables range.
            try:
                frames = self.tracker.get_thread_frames(requested - 1)
            except TrackerError:
                frames = []
            stack = [
                {
                    "id": 10_000 + index,
                    "name": frame.name,
                    "line": frame.line or 0,
                    "column": 1,
                    "source": {"path": frame.filename or self._program},
                }
                for index, frame in enumerate(frames)
            ]
            return [
                self._ok(
                    request,
                    {"stackFrames": stack, "totalFrames": len(stack)},
                )
            ]
        frames = []
        for index, frame in enumerate(self.tracker.get_frames()):
            frames.append(
                {
                    "id": index,
                    "name": frame.name,
                    "line": frame.line or 0,
                    "column": 1,
                    "source": {"path": frame.filename or self._program},
                }
            )
        return [
            self._ok(
                request, {"stackFrames": frames, "totalFrames": len(frames)}
            )
        ]

    def _req_scopes(self, request):
        frame_id = request.get("arguments", {}).get("frameId", 0)
        frames = self.tracker.get_frames()
        if not 0 <= frame_id < len(frames):
            return [self._error(request, f"no frame {frame_id}")]
        locals_reference = self._register(list(frames[frame_id].variables.values()))
        globals_reference = self._register(
            list(self.tracker.get_global_variables().values())
        )
        return [
            self._ok(
                request,
                {
                    "scopes": [
                        {
                            "name": "Locals",
                            "variablesReference": locals_reference,
                            "expensive": False,
                        },
                        {
                            "name": "Globals",
                            "variablesReference": globals_reference,
                            "expensive": False,
                        },
                    ]
                },
            )
        ]

    def _req_variables(self, request):
        reference = request.get("arguments", {}).get("variablesReference", 0)
        variables = self._variable_scopes.get(reference)
        if variables is None:
            return [self._error(request, f"unknown variablesReference {reference}")]
        rendered = [self._render_variable(variable) for variable in variables]
        return [self._ok(request, {"variables": rendered})]

    def _req_trackerStats(self, request):
        """Non-standard extension: the tracker's observability counters."""
        if self.tracker is None:
            return [self._error(request, "launch first")]
        return [self._ok(request, self.tracker.get_stats().to_dict())]

    def _req_evaluate(self, request):
        expression = request.get("arguments", {}).get("expression", "")
        function = None
        name = expression
        if ":" in expression:
            function, name = expression.split(":", 1)
        variable = self.tracker.get_variable(name, function)
        if variable is None:
            return [self._error(request, f"cannot evaluate {expression!r}")]
        chased = variable.value.chase()
        return [
            self._ok(
                request,
                {
                    "result": chased.render(),
                    "type": chased.language_type,
                    "variablesReference": self._children_reference(chased),
                },
            )
        ]

    # ------------------------------------------------------------------
    # Value rendering with nested references
    # ------------------------------------------------------------------

    def _register(self, variables: List[Variable]) -> int:
        reference = self._next_reference
        self._next_reference += 1
        self._variable_scopes[reference] = variables
        return reference

    def _render_variable(self, variable: Variable) -> Dict[str, Any]:
        value = variable.value.chase()
        return {
            "name": variable.name,
            "value": value.render(),
            "type": value.language_type,
            "variablesReference": self._children_reference(value),
        }

    def _children_reference(self, value: Value) -> int:
        """Structured values get a reference expanding to their children."""
        children: List[Variable] = []
        if value.abstract_type is AbstractType.LIST:
            children = [
                Variable(name=str(index), value=element)
                for index, element in enumerate(value.content)
            ]
        elif value.abstract_type is AbstractType.STRUCT:
            children = [
                Variable(name=name, value=element)
                for name, element in value.content.items()
            ]
        elif value.abstract_type is AbstractType.DICT:
            children = [
                Variable(name=key.render(), value=element)
                for key, element in value.content.items()
            ]
        if not children:
            return 0
        return self._register(children)


def serve(input_stream: BinaryIO, output_stream: BinaryIO) -> None:
    """The framed stdio loop: run one DAP session until disconnect/EOF."""
    adapter = DebugAdapter()
    while True:
        request = protocol.read_message(input_stream)
        if request is None:
            break
        for message in adapter.handle(request):
            protocol.write_message(output_stream, message)
        if request.get("command") == "disconnect":
            break


def main() -> int:  # pragma: no cover - exercised via tests on handle()
    import sys

    serve(sys.stdin.buffer, sys.stdout.buffer)
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
