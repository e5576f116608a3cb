"""A pygdbmi-style client for the debug server, with supervision.

Spawns ``python -m repro.mi.server <program>`` as a subprocess and talks MI
records over its stdin/stdout pipe — the same process architecture as the
paper's GDB tracker (Fig. 4): tool process on one side, debugger process
(with the inferior inside it) on the other, serialized state crossing the
pipe.

Robustness additions over the seed client:

- reads are pumped by a background thread into a queue, so every receive
  can carry a deadline — the client can *never* block forever on a silent
  or wedged server;
- liveness is checked on every send and detected promptly on pipe EOF; a
  dead server is reaped and reported as
  :class:`repro.core.errors.ServerCrashError` carrying the exit code and
  the last ~20 stderr lines;
- a control call whose deadline expires interrupts the inferior
  (``SIGINT`` to the server, with an ``-exec-interrupt`` line that a
  tracker service routes by session) and keeps waiting one grace period
  for the ``*stopped``
  record; only if that also fails does it raise
  :class:`repro.core.errors.ControlTimeout`;
- :meth:`MIClient.restart` respawns the server subprocess in place, so the
  supervision layer (see :mod:`repro.core.supervision`) can recover from
  crashes without rebuilding the client;
- :meth:`close`/:meth:`stop` are idempotent, including after a crash.

The transport is a swappable object (:class:`PipeTransport`, which lives
in :mod:`repro.mi.transport` alongside its asyncio sibling
:class:`~repro.mi.transport.AsyncPipeTransport`) so the fault injection
harness (:mod:`repro.testing.faults`) can wrap it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import TrackerError
from repro.core.supervision import Deadline
from repro.mi import protocol
from repro.mi.transport import (  # PipeTransport re-exported: historic home
    SPAWN_TIMEOUT,
    PipeTransport,
    default_transport_factory,
)


class MIClient:
    """Drives one debug-server subprocess.

    Args:
        program: path of the inferior source (.c or .s).
        args: command-line arguments for the inferior.
        transport_factory: builds the transport on (re)spawn; injection
            point for the fault harness. Defaults to a
            :class:`PipeTransport` over ``python -m repro.mi.server``.
    """

    def __init__(
        self,
        program: str,
        args: Optional[List[str]] = None,
        *,
        transport_factory: Optional[Callable[[], PipeTransport]] = None,
    ):
        self.program = program
        self._transport_factory = transport_factory or default_transport_factory(
            program, list(args or [])
        )
        #: all inferior output seen so far, in order
        self.console: List[str] = []
        #: async notifications (e.g. heap allocations), in order
        self.notifications: List[protocol.Record] = []
        #: server restarts performed over this client's lifetime
        self.restart_count = 0
        self._transport: Optional[PipeTransport] = None
        self._spawn()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _spawn(self) -> None:
        self._transport = self._transport_factory()
        try:  # the greeting is the reply to the spawn itself
            self._read_reply(
                protocol.ReplyReader("greeting", Deadline(SPAWN_TIMEOUT)),
                lambda message: TrackerError(
                    f"debug server refused {self.program!r}: {message}"
                ),
            )
        except BaseException:
            self.close()
            raise

    def restart(self) -> None:
        """Kill whatever is left of the server and spawn a fresh one.

        The new server knows nothing: the caller (the supervision layer in
        :class:`repro.gdbtracker.tracker.GDBTracker`) re-installs the
        control-point registry from the client-side engine index and
        re-runs the inferior.
        """
        if self._transport is not None:
            self._transport.close(graceful_exit=False)
        self._spawn()
        self.restart_count += 1

    def alive(self) -> bool:
        """Whether the server subprocess is currently running."""
        return self._transport is not None and self._transport.alive()

    def transport_lines_dropped(self) -> int:
        """Lines evicted by the transport's bounded stdout/stderr rings.

        Zero for transports without ring bounds (the scripted fault
        transports); surfaced as ``TrackerStats.transport_lines_dropped``.
        """
        counter = getattr(self._transport, "lines_dropped", None)
        return counter() if callable(counter) else 0

    # ------------------------------------------------------------------
    # Command API
    # ------------------------------------------------------------------

    def execute(
        self,
        name: str,
        args: Optional[List[str]] = None,
        options: Optional[Dict[str, Any]] = None,
        deadline: Optional[Deadline] = None,
    ) -> Any:
        """Run one command; return its ``^done`` payload.

        An exec command (:data:`protocol.EXEC_COMMANDS`, conventionally
        sent as :meth:`run_control`) returns its ``*stopped`` payload: it
        blocks until the inferior is paused or terminated, exactly the
        synchronous contract of the tracker control interface. With a
        ``deadline``, expiry first *interrupts* the inferior (the server
        answers with a ``*stopped,reason="interrupted"`` record, so the
        contract still holds).

        Raises:
            TrackerError: on a ``^error`` reply.
            ServerCrashError: the server died mid-command (recoverable by
                the supervision layer).
            ControlTimeout: the deadline expired with no reply (for an
                exec command: the interrupt also went unanswered for the
                grace period).
        """
        self._transport.send_line(protocol.format_command(name, args, options))
        return self._read_reply(protocol.ReplyReader(name, deadline))

    #: Run an exec command and block until ``*stopped``; the same call as
    #: :meth:`execute`, whose reply rule tells the two apart by name.
    run_control = execute

    def _read_reply(
        self,
        reader: protocol.ReplyReader,
        error: Callable[[Any], Exception] = TrackerError,
    ) -> Any:
        """Drive ``reader`` over the transport until the reply has ended."""
        while True:
            if reader.interrupt_due():
                self._transport.interrupt()
            line = self._transport.recv_line(timeout=reader.timeout())
            if line is None:
                continue  # this wait ran out; the reader decides what next
            record = protocol.parse_record(line)
            if reader.feed(record):
                return reader.result(error)
            if record.kind == "stream":
                self.console.append(record.payload)
            elif record.kind == "notify":
                self.notifications.append(record)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Terminate the server subprocess (idempotent, crash-tolerant)."""
        if self._transport is not None:
            self._transport.close()

    #: Alias kept deliberately: tools written against other debugger
    #: client libraries call ``stop()``; both are safe after a crash.
    stop = close

    def __enter__(self) -> "MIClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
