"""The tracker service front-end: session-id MI over TCP or stdio.

One listening socket (or one stdin/stdout pair), many debugging sessions.
The wire protocol is the MI dialect everything else in this repo speaks,
plus the session-id framing of :mod:`repro.mi.protocol`: a command
prefixed ``s1-exec-run`` belongs to session ``s1`` and every record it
provokes comes back prefixed ``s1``. Service-level commands manage the
sessions themselves:

- ``-session-open <prog> [args...]`` (options ``--as``/``--cpu``/
  ``--fsize`` for resource limits) binds a pooled child to a new session
  and answers ``^done,{"session": "s3", "epoch": 1, ...}``. A client that
  prefixes the open (``c7-session-open ...``) chooses its own id — that
  is how concurrent opens on one connection stay unambiguous.
- ``-session-attach <sid>`` adopts a *detached* session onto this
  connection — the reconnect path. A session whose connection dropped is
  not closed; it detaches and buffers its records for ``detach_grace``
  seconds, and a client that reconnects re-attaches and receives the
  backlog (including the answer of a command that was in flight when the
  TCP connection died). The reply carries the session's current *epoch*
  (bumped on every resurrection) and ``degraded`` flag.
- ``<sid>-session-close`` ends a session; its child goes back to the warm
  pool when it is clean enough to reuse.
- ``-service-stats`` reports manager and pool counters.
- ``-service-auth <token>`` authenticates the connection when the
  service was started with a shared secret (``--token-file``); until it
  succeeds every other command answers a typed error. Loopback services
  without a token skip the handshake entirely.

**Legacy clients need none of this.** An id-less connection gets an
implicit session: the ordinary ``-file-exec-and-symbols prog.py`` a
:class:`~repro.mi.client.MIClient` sends on startup opens it, every
id-less command routes to it, and every reply stays id-less — a blocking
single-session client cannot tell this service from a dedicated
``python -m repro.subproc.server`` child.

Commands run as per-session tasks: a connection driving eight sessions
has eight dialogues in flight, interleaved on one event loop, each
serialized only against its own session. Replies are written atomically
(record batch per command) under a per-connection writer lock, and
routed to the session's *current* owner — a command that outlives its
connection delivers into the session backlog instead of the void.

SIGTERM drains the service: admission starts answering a typed
retry-after error, in-flight commands get ``drain_deadline`` seconds to
finish, recording sessions snapshot their timelines (``snapshot_dir``),
every session closes, and the pool winds down.
"""

from __future__ import annotations

import asyncio
import hmac
import signal
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.errors import ProtocolError, TrackerError
from repro.mi import protocol
from repro.mi.transport import _ASYNC_LINE_LIMIT
from repro.service.manager import Session, SessionManager
from repro.service.pool import WarmPool
from repro.subproc.limits import ResourceLimits


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`TrackerService` instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port
    pool_size: int = 4
    max_sessions: int = 16
    #: at capacity: queue new opens (True) or reject them (False)
    queue: bool = True
    #: seconds of inactivity before a session is reaped; None = never
    idle_timeout: Optional[float] = None
    #: child command line override (tests inject crashing stubs)
    spawn_argv: Optional[Tuple[str, ...]] = None
    #: seconds a detached session awaits ``-session-attach`` before the
    #: reaper closes it; None = drop-closes sessions immediately (the
    #: pre-reconnect behavior)
    detach_grace: Optional[float] = 30.0
    #: shared secret; when set, every connection must ``-service-auth``
    token: Optional[str] = None
    #: bound on queued commands per session (0 = unbounded)
    session_queue_limit: int = 8
    #: consecutive child deaths before a program is quarantined
    poison_threshold: int = 3
    #: seconds in-flight commands get to finish during a drain
    drain_deadline: float = 5.0
    #: where draining sessions dump their timelines (None = don't)
    snapshot_dir: Optional[str] = None
    #: child transport factory override (chaos harness injection point)
    transport_spawner: Optional[Callable] = None
    #: PEM certificate chain + private key: when both are set the listener
    #: speaks TLS (required for non-loopback binds unless a token is set)
    tls_cert: Optional[str] = None
    tls_key: Optional[str] = None


class TrackerService:
    """The multiplexing server: warm pool + session manager + framing."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.pool = WarmPool(
            size=self.config.pool_size,
            spawn_argv=(
                list(self.config.spawn_argv)
                if self.config.spawn_argv
                else None
            ),
            transport_spawner=self.config.transport_spawner,
        )
        self.manager = SessionManager(
            self.pool,
            max_sessions=self.config.max_sessions,
            queue=self.config.queue,
            idle_timeout=self.config.idle_timeout,
            detach_grace=self.config.detach_grace,
            session_queue_limit=self.config.session_queue_limit,
            poison_threshold=self.config.poison_threshold,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._drain_task: Optional["asyncio.Task[None]"] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _ssl_context(self):
        """The server-side SSL context, or ``None`` when TLS is off."""
        cert, key = self.config.tls_cert, self.config.tls_key
        if not cert and not key:
            return None
        if not (cert and key):
            raise TrackerError(
                "TLS needs both a certificate and a key "
                "(--tls-cert/--tls-key)"
            )
        import ssl

        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        try:
            context.load_cert_chain(certfile=cert, keyfile=key)
        except (OSError, ssl.SSLError) as error:
            raise TrackerError(
                f"cannot load TLS certificate {cert!r} / key {key!r}: {error}"
            ) from error
        return context

    async def start(self) -> None:
        """Warm the pool and start listening (TCP mode)."""
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.config.host,
            self.config.port,
            limit=_ASYNC_LINE_LIMIT,
            ssl=self._ssl_context(),
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — useful with ``port=0``."""
        sockets = self._server.sockets if self._server else None
        if not sockets:
            raise TrackerError("service is not listening")
        return sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        loop = asyncio.get_event_loop()
        self._stopped = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, self.begin_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread / platform without signal support
        serving = asyncio.ensure_future(self._server.serve_forever())
        stopped = asyncio.ensure_future(self._stopped.wait())
        try:
            await asyncio.wait(
                {serving, stopped}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            serving.cancel()
            stopped.cancel()
            await asyncio.gather(serving, stopped, return_exceptions=True)
            try:
                loop.remove_signal_handler(signal.SIGTERM)
            except (NotImplementedError, RuntimeError, ValueError):
                pass

    def begin_drain(self) -> None:
        """Kick off a graceful drain (the SIGTERM handler); idempotent."""
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.ensure_future(self.drain())

    async def drain(self) -> None:
        """Drain the manager, then stop accepting connections."""
        await self.manager.drain(
            deadline=self.config.drain_deadline,
            snapshot_dir=self.config.snapshot_dir,
        )
        if self._server is not None:
            self._server.close()
        if self._stopped is not None:
            self._stopped.set()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._stopped is not None:
            self._stopped.set()
        await self.manager.close()

    async def run_stdio(self) -> int:
        """Serve one connection over this process's stdin/stdout.

        This is what makes the service a drop-in for a dedicated child
        server: a blocking client spawns ``python -m repro serve
        --stdio`` and speaks plain MI at it. SIGINT (the blocking
        client's interrupt) is forwarded to every open session instead
        of killing the service; SIGTERM drains it.
        """
        await self.manager.start()
        loop = asyncio.get_event_loop()
        self._stopped = asyncio.Event()
        reader = asyncio.StreamReader(limit=_ASYNC_LINE_LIMIT)
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        transport, proto = await loop.connect_write_pipe(
            asyncio.streams.FlowControlMixin, sys.stdout
        )
        writer = asyncio.StreamWriter(transport, proto, reader, loop)
        handlers = []
        for signum, handler in (
            (signal.SIGINT, self._interrupt_all),
            (signal.SIGTERM, self.begin_drain),
        ):
            try:
                loop.add_signal_handler(signum, handler)
                handlers.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # pragma: no cover
        connection = asyncio.ensure_future(
            self._serve_connection(reader, writer)
        )
        stopped = asyncio.ensure_future(self._stopped.wait())
        try:
            await asyncio.wait(
                {connection, stopped},
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            connection.cancel()
            stopped.cancel()
            await asyncio.gather(
                connection, stopped, return_exceptions=True
            )
            for signum in handlers:
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # pragma: no cover
            await self.manager.close()
        return 0

    def _interrupt_all(self) -> None:
        for session in list(self.manager.sessions.values()):
            asyncio.ensure_future(session.interrupt())

    # ------------------------------------------------------------------
    # One connection
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(self, reader, writer)
        try:
            await conn.run()
        finally:
            await conn.cleanup()


class _Connection:
    """Per-connection state: owned sessions, writer lock, command tasks."""

    def __init__(
        self,
        service: TrackerService,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        self.service = service
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        #: sessions opened over this connection, by wire id
        self.sessions: Dict[str, Session] = {}
        #: the id-less legacy session, if one was opened
        self.implicit: Optional[Session] = None
        #: housekeeping tasks — cancelled when the connection drops
        self.tasks: Set["asyncio.Task"] = set()
        #: in-flight session dialogues — these *outlive* a dropped
        #: connection (their replies land in the session backlog, for
        #: delivery after a re-attach)
        self.command_tasks: Set["asyncio.Task"] = set()
        self.finished = False
        #: no token configured = every connection is born authenticated
        self.authed = service.config.token is None

    # -- plumbing --------------------------------------------------------

    async def write_records(self, records: List[str]) -> bool:
        """Write a record batch atomically; whether it was delivered."""
        if not records:
            return True
        if self.finished:
            return False
        async with self.write_lock:
            try:
                for record in records:
                    self.writer.write((record + "\n").encode("utf-8"))
                await self.writer.drain()
            except (
                ConnectionResetError,
                BrokenPipeError,
                OSError,
                RuntimeError,
            ):
                self.finished = True
                return False
        return True

    def spawn(self, coroutine, command: bool = False) -> None:
        task = asyncio.ensure_future(coroutine)
        bucket = self.command_tasks if command else self.tasks
        bucket.add(task)
        task.add_done_callback(bucket.discard)

    # -- the read loop ---------------------------------------------------

    async def run(self) -> None:
        await self.write_records(
            [
                protocol.format_done(
                    {
                        "service": "repro-tracker",
                        "version": 2,
                        "auth": self.service.config.token is not None,
                    }
                )
            ]
        )
        while not self.finished:
            try:
                raw = await self.reader.readline()
            except (ConnectionResetError, BrokenPipeError, ValueError):
                break
            if not raw:
                break
            line = raw.decode("utf-8", "replace").strip()
            if not line:
                continue
            await self.dispatch(line)

    async def dispatch(self, line: str) -> None:
        session_id, body = protocol.split_session(line)
        name = body.split(None, 1)[0] if body else ""
        if name == "-service-auth":
            self.spawn(self.auth_connection(line))
            return
        if not self.authed:
            self.spawn(
                self.write_records(
                    [
                        self.tag(
                            protocol.format_error(
                                "authentication required; send "
                                "-service-auth <token>"
                            ),
                            session_id,
                        )
                    ]
                )
            )
            return
        if name == "-session-open":
            self.spawn(self.open_session(line))
        elif name == "-session-attach":
            self.spawn(self.attach_session(line))
        elif name == "-session-close":
            self.spawn(self.close_session(session_id))
        elif name == "-service-stats":
            stats = self.service.manager.stats_dict()
            self.spawn(
                self.write_records([self.tag(protocol.format_done(stats),
                                             session_id)])
            )
        elif name == "-gdb-exit" and session_id is None:
            await self.write_records([protocol.format_done()])
            self.finished = True
        elif session_id is not None:
            # Touch + count *synchronously*, before the command task is
            # even scheduled: the idle reaper must never see the gap
            # between dispatch and the task's first await.
            session = self.sessions.get(session_id)
            counted = False
            if session is not None:
                session.touch()
                if body.strip() != "-exec-interrupt":
                    session.pending += 1
                    counted = True
            self.spawn(
                self.run_in_session(session_id, line, body, counted),
                command=True,
            )
        else:
            implicit = self.implicit
            counted = False
            if implicit is not None and name != "-exec-interrupt":
                implicit.touch()
                implicit.pending += 1
                counted = True
            self.spawn(self.run_legacy(line, name, counted), command=True)

    @staticmethod
    def tag(record: str, session_id: Optional[str]) -> str:
        return (
            record
            if session_id is None
            else protocol.tag_record(record, session_id)
        )

    # -- auth ------------------------------------------------------------

    async def auth_connection(self, line: str) -> None:
        session_id, _ = protocol.split_session(line)
        token = self.service.config.token
        try:
            command = protocol.parse_command(line)
        except ProtocolError as error:
            await self.write_records(
                [self.tag(protocol.format_error(str(error)), session_id)]
            )
            return
        if token is None:
            self.authed = True
            await self.write_records(
                [self.tag(protocol.format_done(
                    {"authenticated": True, "required": False}),
                    session_id)]
            )
            return
        supplied = command.args[0] if command.args else ""
        if hmac.compare_digest(supplied.encode(), token.encode()):
            self.authed = True
            await self.write_records(
                [self.tag(protocol.format_done({"authenticated": True}),
                          session_id)]
            )
        else:
            await self.write_records(
                [self.tag(protocol.format_error("invalid service token"),
                          session_id)]
            )

    # -- session commands ------------------------------------------------

    async def open_session(self, line: str) -> None:
        session_id, _ = protocol.split_session(line)
        try:
            command = protocol.parse_command(line)
        except ProtocolError as error:
            await self.write_records(
                [self.tag(protocol.format_error(str(error)), session_id)]
            )
            return
        if not command.args:
            await self.write_records(
                [self.tag(protocol.format_error(
                    "session-open needs a program path"), session_id)]
            )
            return
        limits = ResourceLimits(
            address_space=command.option_int("as"),
            cpu_seconds=command.option_int("cpu"),
            file_size=command.option_int("fsize"),
        )
        try:
            session = await self.service.manager.open(
                command.args[0],
                list(command.args[1:]),
                limits=limits,
                session_id=session_id,
            )
        except TrackerError as error:
            await self.write_records(
                [self.tag(protocol.format_error(str(error)), session_id)]
            )
            return
        session.owner = self
        self.sessions[session.session_id] = session
        await self.write_records(
            [
                self.tag(
                    protocol.format_done(
                        {
                            "session": session.session_id,
                            "pid": session.child.pid,
                            "warm": session.child.warm,
                            "epoch": session.epoch,
                        }
                    ),
                    session_id,
                )
            ]
        )

    async def attach_session(self, line: str) -> None:
        session_id, _ = protocol.split_session(line)
        try:
            command = protocol.parse_command(line)
        except ProtocolError as error:
            await self.write_records(
                [self.tag(protocol.format_error(str(error)), session_id)]
            )
            return
        sid = command.args[0] if command.args else session_id
        manager = self.service.manager
        error_message: Optional[str] = None
        session = manager.sessions.get(sid) if sid else None
        if not sid:
            error_message = "session-attach needs a session id"
        elif manager.draining:
            error_message = protocol.retryable_message(
                "service is draining; sessions cannot be re-attached", 5
            )
        elif session is None or session.closed:
            error_message = f"no session {sid!r}"
        elif session.wire_id is None:
            error_message = "a legacy session cannot be re-attached"
        elif (
            session.owner is not None
            and session.owner is not self
            and not session.owner.finished
        ):
            error_message = (
                f"session {sid!r} is attached to another connection"
            )
        if error_message is not None:
            await self.write_records(
                [self.tag(protocol.format_error(error_message), session_id)]
            )
            return
        previous = session.owner
        if previous is not None and previous is not self:
            previous.sessions.pop(sid, None)
        backlog = session.attach(self)
        self.sessions[sid] = session
        manager.stats.attached += 1
        await self.write_records(
            [
                self.tag(
                    protocol.format_done(
                        {
                            "session": sid,
                            "epoch": session.epoch,
                            "degraded": session.degraded,
                            "program": session.program,
                            "started": session.started,
                            "exited": session.exited,
                            "pid": session.child.pid,
                            "backlog": len(backlog),
                        }
                    ),
                    session_id,
                )
            ]
        )
        await self.write_records(backlog)

    async def close_session(self, session_id: Optional[str]) -> None:
        session = (
            self.implicit if session_id is None
            else self.sessions.get(session_id)
        )
        if session is None:
            await self.write_records(
                [self.tag(protocol.format_error(
                    f"no session {session_id!r}"), session_id)]
            )
            return
        await self.service.manager.close_session(session)
        self.sessions.pop(session.session_id, None)
        if session is self.implicit:
            self.implicit = None
        await self.write_records(
            [self.tag(protocol.format_done(
                {"closed": session.session_id}), session_id)]
        )

    async def run_in_session(
        self,
        session_id: str,
        line: str,
        body: str,
        counted: bool = False,
    ) -> None:
        session = self.sessions.get(session_id)
        if session is None:
            await self.write_records(
                [self.tag(protocol.format_error(
                    f"no session {session_id!r}"), session_id)]
            )
            return
        if body.strip() == "-exec-interrupt":
            await session.interrupt()
            return
        records = await session.run_command(line, _counted=counted)
        await self.deliver(session, records)

    async def deliver(self, session: Session, records: List[str]) -> None:
        """Route a command's records to the session's *current* owner.

        The owner may be a different connection than the one the command
        arrived on (the client reconnected mid-command), or gone entirely
        (detached) — then the records buffer for the next attach.
        """
        owner = session.owner
        if owner is None or owner.finished:
            session.buffer_undelivered(records)
            return
        if not await owner.write_records(records):
            session.buffer_undelivered(records)

    # -- the implicit legacy session -------------------------------------

    async def run_legacy(
        self, line: str, name: str, counted: bool = False
    ) -> None:
        """An id-less command: route to (or open) the implicit session."""
        if name == "-exec-interrupt" and self.implicit is not None:
            await self.implicit.interrupt()
            return
        if self.implicit is None:
            if name != "-file-exec-and-symbols":
                await self.write_records(
                    [protocol.format_error(
                        "no session; send -session-open (or "
                        "-file-exec-and-symbols for a legacy session)")]
                )
                return
            await self.open_implicit(line)
            return
        session = self.implicit
        records = await session.run_command(line, _counted=counted)
        await self.deliver(session, records)

    async def open_implicit(self, line: str) -> None:
        try:
            command = protocol.parse_command(line)
        except ProtocolError as error:
            await self.write_records([protocol.format_error(str(error))])
            return
        if not command.args:
            await self.write_records(
                [protocol.format_error("file-exec-and-symbols needs a path")]
            )
            return
        try:
            session = await self.service.manager.open(
                command.args[0], list(command.args[1:])
            )
        except TrackerError as error:
            await self.write_records([protocol.format_error(str(error))])
            return
        session.wire_id = None  # its client speaks id-less MI
        session.owner = self
        self.implicit = session
        self.sessions[session.session_id] = session
        await self.write_records(
            [protocol.format_done({"file": session.program})]
        )

    # -- teardown --------------------------------------------------------

    async def cleanup(self) -> None:
        self.finished = True
        manager = self.service.manager
        # A connection serving a legacy client (or a service with no
        # detach grace) keeps the old semantics: drop = close. Otherwise
        # sessions detach and in-flight dialogues run to completion,
        # delivering into the backlog for a future -session-attach.
        detach_mode = (
            self.service.config.detach_grace is not None
            and self.implicit is None
            and not manager.draining
        )
        doomed = list(self.tasks)
        if not detach_mode:
            doomed += list(self.command_tasks)
        for task in doomed:
            task.cancel()
        if doomed:
            await asyncio.gather(*doomed, return_exceptions=True)
        for session in list(self.sessions.values()):
            if session.closed:
                continue
            if detach_mode and session.wire_id is not None:
                if session.owner is self:
                    session.detach()
                    manager.stats.detached += 1
            else:
                await manager.close_session(session)
        self.sessions.clear()
        self.implicit = None
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
