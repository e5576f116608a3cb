"""The out-of-process Python debug server.

Runs as a subprocess (``python -m repro.subproc.server program.py``),
reads MI commands on stdin, emits records on stdout — the exact
architecture of the mini-C debug server, but the inferior substrate is a
full :class:`repro.pytracker.PythonTracker` hosted in *this* (child)
interpreter. The tool process on the other side of the pipe
(:class:`repro.subproc.tracker.SubprocPythonTracker`) gets settrace-grade
Python tracking without sharing its address space, CPU or lifetime with
the inferior.

Run-control commands block in the hosted tracker (that is the tracker
contract): the main thread waits for the inferior thread's pause. A
SIGINT runs its handler on that waiting thread, which sets the
tracker's interrupt flag; the inferior pauses at its next trace event
and the command answers with a ``*stopped,reason="interrupted"`` record.

Resource limits (``--limit-as``, ``--limit-cpu``, ``--limit-fsize``) are
applied to this whole process before the server starts — the child *is*
the sandbox.

The server can also boot **idle** (``python -m repro.subproc.server
--idle``): no program loaded, interpreter warm. The tracker service's
warm pool (:mod:`repro.service.pool`) pre-forks idle children so opening
a session costs one ``-file-exec-and-symbols prog.py args...`` round
trip instead of an interpreter boot. Two commands exist for that pooled
life: ``-file-exec-and-symbols`` with arguments (re)loads a program into
a fresh tracker, and ``-apply-limits`` lowers this process's rlimits at
session bind time (rlimits only go down, so a limited child is spent —
the pool discards it instead of reusing it).
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, List, Optional

from repro.core.errors import ProgramLoadError
from repro.core.pause import PauseReason, PauseReasonType
from repro.mi import protocol
from repro.mi.servercore import ServerCore, serve_stdio
from repro.pytracker.tracker import PythonTracker
from repro.subproc.limits import ResourceLimits


class PythonDebugServer(ServerCore):
    """One debugging session over one Python inferior, MI on the outside.

    The hosted tracker is driven through its *public* API (``start``,
    ``resume``, ``break_before_line``, ``watch``, ``enable_recording``...)
    by the shared :class:`ServerCore` handlers, so in-process and
    out-of-process tracking cannot drift apart: the pause decisions, watch
    semantics and timeline snapshots are literally the same code. This
    class adds the Python substrate's own commands.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        args: Optional[List[str]] = None,
        tracker: Optional[PythonTracker] = None,
    ):
        super().__init__()
        self.path = path
        self.tracker = tracker if tracker is not None else PythonTracker(
            capture_output=True
        )
        if path is not None:
            self.tracker.load_program(path, list(args or []))
        #: Characters of inferior output already emitted as stream records
        #: (an *absolute* position: survives ring-buffer eviction).
        self._emitted_output = 0
        #: Whether ``-apply-limits`` lowered this process's rlimits —
        #: rlimits cannot be raised back, so the warm pool must not hand
        #: this child to another session.
        self.limits_applied = False

    # ------------------------------------------------------------------
    # Lifecycle + run control
    # ------------------------------------------------------------------

    def _cmd_file_exec_and_symbols(self, command) -> List[str]:
        """Report the loaded program — or, with args, (re)load one.

        ``-file-exec-and-symbols prog.py [args...]`` is how a pooled idle
        child becomes a session: the warm interpreter loads the program
        and is ready to ``-exec-run``. On an already-loaded server the
        same command starts over with a *fresh* tracker (the old one is
        terminated first), so control points, stats, and MI numbering all
        reset — a failed load leaves the server idle rather than
        half-bound to the retired program.
        """
        if not command.args:
            if self.path is None:
                return [protocol.format_error("no program loaded")]
            return [
                protocol.format_done({"file": self.tracker._program_abspath})
            ]
        if self.path is not None:
            self.tracker.terminate()
            self.tracker = PythonTracker(capture_output=True)
            self.path = None
            self._running = False
            self._emitted_output = 0
            self._number = 0
        self.tracker.load_program(command.args[0], list(command.args[1:]))
        self.path = command.args[0]
        return [protocol.format_done({"file": self.tracker._program_abspath})]

    def _cmd_apply_limits(self, command) -> List[str]:
        """Lower this process's rlimits at session-bind time.

        Pooled children are forked *before* their session exists, so the
        session's :class:`ResourceLimits` cannot ride the command line;
        this command applies them in-process instead. One-way: the child
        is marked spent (``limits_applied``) and will not be reused.
        """
        limits = ResourceLimits(
            address_space=command.option_int("as"),
            cpu_seconds=command.option_int("cpu"),
            file_size=command.option_int("fsize"),
        )
        limited = limits != ResourceLimits()
        if limited:
            limits.apply()
            self.limits_applied = True
        return [protocol.format_done({"limits_applied": self.limits_applied})]

    def _cmd_server_info(self, command) -> List[str]:
        """Liveness + reuse probe: pid, load state, taint flags."""
        return [
            protocol.format_done(
                {
                    "pid": os.getpid(),
                    "loaded": self.path,
                    "started": self._running,
                    "exitcode": self.tracker.get_exit_code(),
                    "limits_applied": self.limits_applied,
                }
            )
        ]

    # ------------------------------------------------------------------
    # Output streaming and stop fields
    # ------------------------------------------------------------------

    def _drain_output(self) -> List[str]:
        """New inferior output since the last drain, as stream records."""
        buffer = self.tracker._output
        text = buffer.getvalue()
        dropped = buffer.dropped
        start = max(self._emitted_output - dropped, 0)
        self._emitted_output = dropped + len(text)
        delta = text[start:]
        return [protocol.format_stream(delta)] if delta else []

    def _stop_fields(self, reason: PauseReason) -> Dict[str, Any]:
        tracker = self.tracker
        if reason.type is PauseReasonType.EXIT:
            error = tracker.get_inferior_exception()
            if error is None:
                return {}
            return {"error": f"{type(error).__name__}: {error}"}
        return {"depth": tracker._current_depth()}

    # ------------------------------------------------------------------
    # Inspection the Python substrate adds
    # ------------------------------------------------------------------

    def _evaluate(self, function: Optional[str], name: str) -> Optional[str]:
        return self.tracker._watched_value(
            self.tracker._paused_py_frame, function, name
        )

    def _cmd_list_functions(self, command) -> List[str]:
        return [protocol.format_done(_function_names(self.tracker._code))]


def _function_names(code, _names: Optional[List[str]] = None) -> List[str]:
    """Function names defined in a compiled module, nested ones included."""
    if _names is None:
        _names = []
    for constant in code.co_consts:
        if hasattr(constant, "co_name") and hasattr(constant, "co_consts"):
            if not constant.co_name.startswith("<"):
                _names.append(constant.co_name)
            _function_names(constant, _names)
    return _names


def main(argv: Optional[List[str]] = None) -> int:
    """Entry: ``python -m repro.subproc.server [--limit-*] prog.py [args]``.

    With ``--idle`` (and no program), boots a warm program-less server
    for the tracker service's pool; the program arrives later via
    ``-file-exec-and-symbols``.
    """
    argv = argv if argv is not None else sys.argv[1:]
    try:
        limits, rest = ResourceLimits.consume_argv(argv)
    except ValueError as error:
        print(protocol.format_error(str(error)), flush=True)
        return 2
    idle = "--idle" in rest
    rest = [token for token in rest if token != "--idle"]
    if not rest and not idle:
        print(
            protocol.format_error(
                "usage: server [--idle] [--limit-as N] [--limit-cpu N] "
                "[--limit-fsize N] [<program.py> [args...]]"
            ),
            flush=True,
        )
        return 2
    limits.apply()
    try:
        server = PythonDebugServer(rest[0] if rest else None, rest[1:])
    except (ProgramLoadError, OSError) as error:
        print(protocol.format_error(str(error)), flush=True)
        return 1
    greeting = {"loaded": rest[0]} if rest else {"idle": True}
    return serve_stdio(server, greeting)


if __name__ == "__main__":
    sys.exit(main())
