"""The asyncio client: many trackers over one service connection.

:class:`ServiceClient` owns the socket and one reader task that demuxes
incoming records by their session-id prefix into per-session queues.
:class:`AsyncTracker` is the per-session facade over one of those queues
— the tracker control interface of the paper (``start`` / ``resume`` /
``break_before_line`` / ``get_global_variables`` ...) with every control
call a coroutine, so a grading script can drive dozens of inferiors
concurrently from one thread::

    client = await ServiceClient.connect(host, port)
    a = await client.open_tracker("submission_a.py")
    b = await client.open_tracker("submission_b.py")
    await asyncio.gather(a.start(), b.start())

**Reconnection.** A dropped TCP connection no longer kills the trackers
riding on it: the client reconnects with bounded backoff (``reconnect``
policy), re-authenticates, and re-attaches every open session via
``-session-attach`` — the service has been holding the sessions detached
(for its ``detach_grace``) and flushes any records produced in the gap,
including the answer of a command that was in flight when the connection
died. A call that was awaiting a reply simply keeps awaiting; the caller
never notices beyond the delay. Only when every reconnect attempt fails
(or the service refuses the attach) do pending calls fail with the usual
typed :class:`~repro.core.errors.ServerCrashError`.

Service-level rejections arrive as typed errors —
:class:`~repro.service.manager.ServiceDraining` (with ``retry_after``),
:class:`~repro.service.manager.SessionOverloaded`,
:class:`~repro.service.manager.ProgramQuarantined`,
:class:`~repro.service.manager.ServiceBusy`,
:class:`~repro.service.manager.ServiceAuthError` — so callers can
distinguish "back off and retry" from "give up".
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import (
    ControlTimeout,
    ProtocolError,
    ServerCrashError,
    TrackerError,
)
from repro.core.state import Frame, Variable
from repro.core.supervision import BackoffPolicy, Deadline
from repro.core.timeline import StateSnapshot
from repro.core.tracker import (
    FunctionBreakpoint,
    LineBreakpoint,
    TrackedFunction,
    Watchpoint,
)
from repro.mi import protocol
from repro.mi.transport import _ASYNC_LINE_LIMIT, SPAWN_TIMEOUT
from repro.service.manager import (
    SESSION_RESURRECTED,
    ProgramQuarantined,
    ServiceAuthError,
    ServiceBusy,
    ServiceDraining,
    SessionOverloaded,
)
from repro.subproc.limits import ResourceLimits

#: Grace period after an interrupt before ``ControlTimeout`` (seconds).
INTERRUPT_GRACE = 5.0

#: Default reconnect schedule after a TCP drop (bounded backoff).
DEFAULT_RECONNECT = BackoffPolicy(
    max_restarts=5, initial_delay=0.05, max_delay=1.0
)

#: Sentinel queued to every session when the connection drops for good.
_CLOSED = object()


def _client_ssl_context(tls_ca: Optional[str]) -> Any:
    """Client-side TLS context, verifying against ``tls_ca`` when given.

    With a CA bundle (typically the server's own self-signed certificate)
    the chain is verified against exactly that file; hostname checking is
    kept off because self-signed deployment certificates rarely carry the
    right SAN — the chain pin is the trust anchor. Without ``tls_ca`` the
    system trust store applies in full, hostname check included.
    """
    import ssl

    if tls_ca:
        context = ssl.create_default_context(cafile=tls_ca)
        context.check_hostname = False
        return context
    return ssl.create_default_context()


def _deadline(timeout: Optional[float], grace: float) -> Optional[Deadline]:
    """A :class:`Deadline` of ``timeout`` whose second phase is ``grace``."""
    if timeout is None:
        return None
    deadline = Deadline(timeout)
    deadline.grace = grace
    return deadline


def _connection_lost(how: str) -> ServerCrashError:
    return ServerCrashError(
        f"the tracker service connection {how}",
        exit_code=None,
        stderr_tail=[],
    )


def _typed_error(payload: Any) -> TrackerError:
    """Map a service ``^error`` message onto the typed error hierarchy."""
    message = str(payload)
    retry_after = protocol.parse_retry_after(message)
    if "draining" in message:
        return ServiceDraining(message, retry_after=retry_after)
    if "overloaded" in message:
        return SessionOverloaded(message, retry_after=retry_after)
    if "quarantined" in message:
        return ProgramQuarantined(message)
    if "at capacity" in message:
        return ServiceBusy(message)
    if (
        "authentication required" in message
        or "invalid service token" in message
    ):
        return ServiceAuthError(message)
    return TrackerError(message)


class ServiceClient:
    """One connection to a :class:`~repro.service.server.TrackerService`."""

    def __init__(self) -> None:
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._token: Optional[str] = None
        self._ssl: Any = None
        self._reconnect_policy: Optional[BackoffPolicy] = DEFAULT_RECONNECT
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional["asyncio.Task[None]"] = None
        self._queues: Dict[str, "asyncio.Queue"] = {}
        self._control: "asyncio.Queue" = asyncio.Queue()
        #: serializes id-less request/reply (opens, stats) — their replies
        #: are only attributable by arrival order
        self._control_lock = asyncio.Lock()
        #: set while a live, authenticated connection is up; cleared
        #: during reconnection so sends park instead of failing
        self._ready = asyncio.Event()
        #: open trackers by session id, for re-attach after reconnect
        self._trackers: Dict[str, "AsyncTracker"] = {}
        #: connections established over this client's lifetime (1 = the
        #: original; each successful reconnect adds one)
        self.connections = 0
        self._closed = False

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        token: Optional[str] = None,
        tls: bool = False,
        tls_ca: Optional[str] = None,
        reconnect: Optional[BackoffPolicy] = DEFAULT_RECONNECT,
    ) -> "ServiceClient":
        """Connect, verify the greeting, authenticate if needed.

        ``reconnect`` bounds the transparent-reconnect backoff after a
        TCP drop; ``None`` disables reconnection (a drop fails all
        pending calls immediately, the pre-reconnect behavior).

        ``tls`` wraps the connection in TLS; ``tls_ca`` pins the CA
        bundle (or self-signed server certificate) used for verification
        — without it the system store decides, which rejects the
        self-signed certificates ``repro serve --tls-cert`` typically
        runs with.
        """
        client = cls()
        client._host = host
        client._port = port
        client._token = token
        if tls or tls_ca:
            client._ssl = _client_ssl_context(tls_ca)
        client._reconnect_policy = reconnect
        await client._establish_with_backoff()
        client._ready.set()
        client._reader_task = asyncio.ensure_future(client._run())
        return client

    # ------------------------------------------------------------------
    # Connection establishment and supervision
    # ------------------------------------------------------------------

    async def _establish(self) -> None:
        """Open a socket, consume the greeting, authenticate.

        All reads are direct (the pump is not running), so greeting and
        auth replies cannot be misrouted into session queues.
        """
        reader, writer = await asyncio.open_connection(
            self._host, self._port, limit=_ASYNC_LINE_LIMIT, ssl=self._ssl
        )
        try:
            greeting = await self._direct_reply(reader, "greeting")
            if greeting.kind != "done" or "service" not in (
                greeting.payload or {}
            ):
                raise ProtocolError(
                    f"unexpected service greeting: {greeting.payload!r}"
                )
            if self._token is not None:
                reply = await self._direct_reply(
                    reader, "-service-auth", writer, [self._token]
                )
                if reply.kind == "error":
                    raise ServiceAuthError(str(reply.payload))
        except BaseException:
            writer.close()
            raise
        self._reader = reader
        self._writer = writer
        self.connections += 1

    async def _direct_reply(
        self,
        reader: asyncio.StreamReader,
        name: str,
        writer: Optional[asyncio.StreamWriter] = None,
        args: Optional[List[str]] = None,
    ) -> protocol.Record:
        """The id-less reply to ``name`` (sent first when a ``writer`` is
        given), read straight off ``reader`` while the pump is not
        running; session records read on the way are demuxed."""
        if writer is not None:
            writer.write(
                (protocol.format_command(name, args) + "\n").encode("utf-8")
            )
            await writer.drain()
        reply = protocol.ReplyReader(name)
        while True:
            record = await asyncio.wait_for(
                self._read_record(reader), SPAWN_TIMEOUT
            )
            if record is None:
                raise _connection_lost("closed during setup")
            if record.session is None and reply.feed(record):
                return record
            self._demux(record)

    @staticmethod
    async def _read_record(
        reader: asyncio.StreamReader,
    ) -> Optional[protocol.Record]:
        """The next record off ``reader``; ``None`` at end of stream."""
        while True:
            raw = await reader.readline()
            if not raw:
                return None
            try:
                return protocol.parse_record(
                    raw.decode("utf-8", "replace").strip()
                )
            except ProtocolError:
                continue  # blank lines and noise on the shared pipe

    async def _run(self) -> None:
        """The supervisor: pump records, reconnect on drop, finalize."""
        while True:
            await self._read_loop()
            if self._closed:
                break
            # Connection lost: fail control waiters fast (their replies
            # are unattributable across a reconnect), keep session
            # waiters parked (the service holds their sessions and will
            # flush the backlog after re-attach).
            self._ready.clear()
            stale_control = self._control
            self._control = asyncio.Queue()
            stale_control.put_nowait(_CLOSED)
            if self._reconnect_policy is None:
                break
            if not await self._reconnect():
                break
        self._finalize()

    async def _read_loop(self) -> None:
        try:
            while True:
                record = await self._read_record(self._reader)
                if record is None:
                    break
                self._demux(record)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    def _demux(self, record: protocol.Record) -> None:
        if record.session is None:
            self._control.put_nowait(record)
            return
        queue = self._queues.get(record.session)
        if queue is not None:  # a closed session's late record is dropped
            queue.put_nowait(record)

    async def _establish_with_backoff(self) -> None:
        """Establish and re-attach, retried on the reconnect policy: at
        once, then after each backoff delay. A wrong token is fatal at
        once; otherwise the last attempt's error propagates."""
        policy = self._reconnect_policy
        delays = [0.0] + (list(policy.delays()) if policy is not None else [])
        for attempt, delay in enumerate(delays, 1):
            await asyncio.sleep(delay)
            if self._closed:
                raise _connection_lost("was closed by the client")
            try:
                await self._establish()
                await self._reattach()
                return
            except ServiceAuthError:
                raise
            except (OSError, TrackerError, asyncio.TimeoutError):
                if self._writer is not None:
                    self._writer.close()
                    self._writer = None
                if attempt == len(delays):
                    raise

    async def _reconnect(self) -> bool:
        """Bounded-backoff reconnect + re-attach; whether it succeeded."""
        try:
            await self._establish_with_backoff()
        except (OSError, TrackerError, asyncio.TimeoutError):
            return False
        self._ready.set()
        return True

    async def _reattach(self) -> None:
        """Re-adopt every open session on the fresh connection.

        Runs before the pump restarts, reading directly: attach replies
        are id-less, backlog records are session-tagged and demuxed into
        their queues (where the in-flight waiters from before the drop
        are still listening).
        """
        for sid in list(self._trackers):
            tracker = self._trackers.get(sid)
            if tracker is None or tracker._closed:
                continue
            record = await self._direct_reply(
                self._reader, "-session-attach", self._writer, [sid]
            )
            if record.kind == "error":
                message = str(record.payload)
                if "another connection" in message:
                    # The service has not yet noticed the old connection
                    # died; retry the whole attempt after a backoff step.
                    raise TrackerError(message)
                # The session is gone (reaped, drained, or closed):
                # fail its waiters, keep the rest of the reconnect.
                self._trackers.pop(sid, None)
                self._queues[sid].put_nowait(_CLOSED)
                continue
            tracker._note_attach(record.payload or {})

    def _finalize(self) -> None:
        self._closed = True
        self._control.put_nowait(_CLOSED)
        for queue in self._queues.values():
            queue.put_nowait(_CLOSED)
        self._ready.set()  # unblock parked senders; they see _closed

    # ------------------------------------------------------------------
    # Demux plumbing
    # ------------------------------------------------------------------

    async def _next(
        self, queue: "asyncio.Queue", timeout: Optional[float]
    ) -> Optional[protocol.Record]:
        """Next record from ``queue``; ``None`` when ``timeout`` expires."""
        try:
            record = await asyncio.wait_for(queue.get(), timeout)
        except asyncio.TimeoutError:
            return None
        if record is _CLOSED:
            queue.put_nowait(_CLOSED)  # keep later reads failing fast
            raise _connection_lost("closed")
        return record

    # ------------------------------------------------------------------
    # The control channel (id-less request/reply)
    # ------------------------------------------------------------------

    async def _send_line(self, line: str) -> None:
        if not self._ready.is_set() and not self._closed:
            await self._ready.wait()  # park while a reconnect is running
        if self._closed or self._writer is None:
            raise _connection_lost("closed")
        try:
            self._writer.write((line + "\n").encode("utf-8"))
            await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as error:
            raise _connection_lost(f"dropped mid-send ({error})") from error

    async def _control_request(
        self, line: str, timeout: float = SPAWN_TIMEOUT
    ) -> Any:
        """Send an id-less command; the payload of its reply.

        A line prefixed with an id of no open tracker (``ghost-exec-run``)
        is answered under that id, so it is read from a queue that lives
        for this one reply.
        """
        async with self._control_lock:
            session, command = protocol.split_session(line)
            tagged = session is not None and session not in self._queues
            if tagged:
                self._queues[session] = asyncio.Queue()
            try:
                # Capture the queue: a reconnect swaps self._control, and
                # a waiter must fail fast on its own (pre-drop) queue
                # rather than silently migrate to the new connection's
                # replies.
                queue = self._queues[session] if tagged else self._control
                await self._send_line(line)
                if not tagged and queue is not self._control:
                    queue = self._control  # send parked across a swap
                reader = protocol.ReplyReader(
                    command.split(None, 1)[0], _deadline(timeout, 0.0)
                )
                while True:
                    record = await self._next(queue, reader.timeout())
                    if record is not None and reader.feed(record):
                        return reader.result(_typed_error)
                    # stream/notify noise on the control channel: skip
            finally:
                if tagged:
                    self._queues.pop(session, None)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    async def open_tracker(
        self,
        program: str,
        args: Optional[List[str]] = None,
        *,
        limits: Optional[ResourceLimits] = None,
        timeout: float = SPAWN_TIMEOUT,
    ) -> "AsyncTracker":
        """Open a session and wrap it in an :class:`AsyncTracker`."""
        options = None if limits is None else protocol.limit_options(limits)
        payload = await self._control_request(
            protocol.format_command(
                "-session-open", [program] + list(args or []), options
            ),
            timeout=timeout,
        )
        session_id = payload["session"]
        queue = self._queues[session_id] = asyncio.Queue()
        tracker = AsyncTracker(self, session_id, queue)
        tracker._note_attach(payload)
        self._trackers[session_id] = tracker
        return tracker

    async def service_stats(self) -> Dict[str, Any]:
        return await self._control_request(
            protocol.format_command("-service-stats")
        )

    async def close(self) -> None:
        """Drop the connection (the service closes or detaches sessions)."""
        self._closed = True
        self._ready.set()
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        self._finalize()

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class AsyncTracker:
    """The paper's tracker control interface, as coroutines, per session.

    Obtained from :meth:`ServiceClient.open_tracker`; all methods must be
    awaited on the same event loop as the client.
    """

    def __init__(
        self,
        client: ServiceClient,
        session_id: str,
        queue: "asyncio.Queue",
    ):
        self.client = client
        self.session_id = session_id
        self._queue = queue
        #: everything the inferior printed, in arrival order
        self.console: List[str] = []
        #: async notifications (heap events etc.), in arrival order
        self.notifications: List[protocol.Record] = []
        self._exit_code: Optional[int] = None
        self._last_stop: Optional[Dict[str, Any]] = None
        self._pid: Optional[int] = None
        self._epoch: int = 1
        self._degraded: bool = False
        self._resurrections: int = 0
        self._closed = False
        #: commands sent on this session, and the paused state fetched by
        #: :meth:`snapshot`, held until the next command or resurrection
        self._sent = 0
        self._state: Optional[StateSnapshot] = None

    # -- crash-only introspection ---------------------------------------

    @property
    def pid(self) -> Optional[int]:
        """The child server's pid (changes across resurrections)."""
        return self._pid

    @property
    def epoch(self) -> int:
        """The session epoch: 1 + the number of resurrections seen."""
        return self._epoch

    @property
    def degraded(self) -> bool:
        """The last resurrection lost the execution position."""
        return self._degraded

    @property
    def resurrections(self) -> int:
        """``=session-resurrected`` notifications observed so far."""
        return self._resurrections

    def _note_attach(self, payload: Dict[str, Any]) -> None:
        self._epoch = payload.get("epoch", self._epoch)
        self._degraded = payload.get("degraded", self._degraded)
        self._pid = payload.get("pid", self._pid)

    # -- record plumbing -------------------------------------------------

    def _absorb(self, record: protocol.Record) -> None:
        if record.kind == "stream":
            self.console.append(record.payload)
        elif record.kind == "notify":
            if record.notify_name == SESSION_RESURRECTED:
                payload = record.payload or {}
                self._resurrections += 1
                self._note_attach(payload)
                self._state = None
            self.notifications.append(record)

    async def execute(
        self,
        name: str,
        args: Optional[List[str]] = None,
        options: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = SPAWN_TIMEOUT,
    ) -> Any:
        """One synchronous command round trip; the ``^done`` payload."""
        return await self._request(name, args, options, _deadline(timeout, 0.0))

    async def _run_control(
        self,
        name: str,
        timeout: Optional[float] = None,
        grace: float = INTERRUPT_GRACE,
    ) -> Dict[str, Any]:
        """An exec command: block (asynchronously) until ``*stopped``."""
        payload = await self._request(
            name, None, None, _deadline(timeout, grace)
        )
        self._last_stop = payload
        if payload.get("reason") == "exited":
            self._exit_code = payload.get("exitcode")
        return payload

    async def _request(
        self,
        name: str,
        args: Optional[List[str]],
        options: Optional[Dict[str, Any]],
        deadline: Optional[Deadline],
    ) -> Any:
        """Send one command and drive :class:`protocol.ReplyReader` over
        this session's queue until its reply has ended."""
        self._sent += 1
        self._state = None
        await self.client._send_line(
            protocol.format_command(name, args, options, session=self.session_id)
        )
        reader = protocol.ReplyReader(name, deadline)
        while True:
            if reader.interrupt_due():
                await self.interrupt()
            record = await self.client._next(self._queue, reader.timeout())
            if record is None:
                continue  # this wait ran out; the reader decides what next
            if reader.feed(record):
                return reader.result(_typed_error)
            self._absorb(record)

    async def interrupt(self) -> None:
        """Fire-and-forget: pause the running inferior."""
        await self.client._send_line(
            protocol.format_command("-exec-interrupt", session=self.session_id)
        )

    # -- run control -----------------------------------------------------

    async def start(
        self, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        return await self._run_control("-exec-run", timeout)

    async def resume(
        self, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        return await self._run_control("-exec-continue", timeout)

    async def step(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return await self._run_control("-exec-step", timeout)

    async def next(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return await self._run_control("-exec-next", timeout)

    async def finish(
        self, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        return await self._run_control("-exec-finish", timeout)

    # -- control points (commands from the one table) ---------------------

    async def break_before_line(
        self,
        line: int,
        filename: Optional[str] = None,
        maxdepth: Optional[int] = None,
    ) -> int:
        return await self._install(LineBreakpoint(line, filename, maxdepth))

    async def break_before_func(
        self, name: str, maxdepth: Optional[int] = None
    ) -> int:
        return await self._install(FunctionBreakpoint(name, maxdepth))

    async def watch(
        self, name: str, maxdepth: Optional[int] = None
    ) -> int:
        return await self._install(Watchpoint(name, maxdepth))

    async def track_function(
        self, name: str, maxdepth: Optional[int] = None
    ) -> int:
        return await self._install(TrackedFunction(name, maxdepth))

    async def _install(self, point: Any) -> int:
        payload = await self.execute(*protocol.point_command(point))
        return payload["number"]

    async def delete_breakpoint(self, number: int) -> None:
        await self.execute("-break-delete", [str(number)])

    # -- inspection: one -state-snapshot per pause ------------------------

    async def snapshot(self) -> StateSnapshot:
        """The paused state, one ``-state-snapshot`` tree, held until the
        next command on this session or a resurrection."""
        state = self._state
        if state is None:
            sent = self._sent + 1
            state = StateSnapshot.from_dict(
                await self.execute("-state-snapshot")
            )
            state.stdout = self.get_output()
            if self._sent == sent:  # no other command went out meanwhile
                self._state = state
        return state

    async def get_position(self) -> Tuple[str, Optional[int]]:
        return (await self.snapshot()).position()

    async def get_current_frame(self) -> Frame:
        return (await self.snapshot()).frame

    async def get_global_variables(self) -> Dict[str, Variable]:
        return dict((await self.snapshot()).globals)

    def get_output(self) -> str:
        """Everything the inferior printed so far (already received)."""
        return "".join(self.console)

    def get_exit_code(self) -> Optional[int]:
        """The inferior's exit code, once a stop reported it."""
        return self._exit_code

    @property
    def last_stop(self) -> Optional[Dict[str, Any]]:
        """The most recent ``*stopped`` payload."""
        return self._last_stop

    # -- teardown --------------------------------------------------------

    async def close(self) -> None:
        """End the session (idempotent); its child may be pool-reused."""
        if self._closed:
            return
        self._closed = True
        self.client._trackers.pop(self.session_id, None)
        try:
            await self.execute("-session-close")
        except (TrackerError, ServerCrashError, ControlTimeout):
            pass
        finally:
            self.client._queues.pop(self.session_id, None)

    async def __aenter__(self) -> "AsyncTracker":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
