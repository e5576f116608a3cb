"""Session multiplexing: N debugging sessions over one event loop.

A :class:`Session` is one program bound to one pooled child server. The
:class:`SessionManager` owns all of them: it admits new sessions against
a concurrency bound (waiting or rejecting, per configuration), binds each
to a child from the :class:`~repro.service.pool.WarmPool`, applies the
session's resource limits inside the child, reaps sessions that go idle,
and decides at close time whether the child is clean enough to go back on
the shelf.

Command execution is *per-session serialized, cross-session concurrent*:
each session has an ``asyncio.Lock``, so two commands to the same session
queue up (the MI dialogue is strictly request/reply), while commands to
different sessions interleave freely on the event loop — thirty inferiors
can be mid-``-exec-continue`` at once and the service thread count stays
at one. The per-session queue is *bounded*: once ``session_queue_limit``
commands are waiting, further commands are rejected with a typed
overload error instead of piling up without limit.

**Crash-only sessions.** Every session keeps a :class:`RecoveryManifest`
— its program binding, resource limits, and the ordered log of completed
commands whose effects live in the child (control-point installs,
timeline recording, and — while execution stays deterministic — the
run-control history itself). When a child dies mid-session the manager
*resurrects* the session instead of tombstoning it: a replacement child
is drawn from the pool under :class:`~repro.core.supervision.BackoffPolicy`
retries, limits are re-applied, the program is re-loaded, the manifest is
replayed (breakpoints/watchpoints come back under their original numbers;
a recording session re-records to the same snapshot index), and the
in-flight command is retried once against the new child. The reply is
prefixed with a ``=session-resurrected`` notification carrying the new
session *epoch* and a ``degraded`` flag — ``degraded=True`` means the
execution position could not be replayed (the history contained a
non-deterministic ``interrupted`` stop) and the inferior must be
restarted with ``-exec-run``.

A *poison pill* — a program that kills every child it touches — is kept
from draining the pool by a per-program circuit breaker: after
``poison_threshold`` consecutive child deaths (any completed dialogue
resets the count) the program is quarantined, new opens for it are
rejected with :class:`ProgramQuarantined`, and only then does the dying
session get the classic tombstone: run-control answers with a
synthesized ``*stopped,reason="exited"`` (exit code ``128+signal`` for
signal deaths, shell convention), inspection answers with ``^error``,
and the session survives until closed so the client can read the verdict.
"""

from __future__ import annotations

import asyncio
import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.errors import ServerCrashError, TrackerError
from repro.core.supervision import BackoffPolicy, SupervisionEvent
from repro.mi import protocol
from repro.service.pool import ChildHandle, WarmPool
from repro.subproc.limits import ResourceLimits

#: Synchronous commands whose effect lives in the child and must be
#: replayed, in original order, to rebuild a dead child's state.
SETUP_COMMANDS = frozenset(
    [
        "-break-insert",
        "-break-watch",
        "-track-function",
        "-break-delete",
        "-timeline-start",
        "-timeline-stop",
        "-timeline-drop-last",
    ]
)

#: Supervision-event kind emitted when a session is resurrected.
SESSION_RESURRECTED = "session-resurrected"


class ServiceBusy(TrackerError):
    """Admission control rejected the session (service at capacity)."""


class ServiceDraining(TrackerError):
    """The service is shutting down gracefully; retry against another.

    ``retry_after`` is the server's hint (seconds) for when a retry might
    be worthwhile — carried on the wire inside the error message (see
    :func:`repro.mi.protocol.retryable_message`).
    """

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class SessionOverloaded(TrackerError):
    """The per-session command queue is full; shed load, retry later."""

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class ProgramQuarantined(TrackerError):
    """The program killed too many children in a row; opens are refused."""


class ServiceAuthError(TrackerError):
    """The connection has not completed the ``-service-auth`` handshake."""


@dataclass
class SessionStats:
    """Manager-level counters, surfaced via ``-service-stats``."""

    total_opened: int = 0
    closed: int = 0
    rejected: int = 0
    queued: int = 0
    reaped: int = 0
    crashed: int = 0
    #: children that died under a session (whether or not resurrected)
    child_deaths: int = 0
    #: sessions brought back on a replacement child
    resurrected: int = 0
    #: resurrections that lost the execution position (replay impossible)
    degraded: int = 0
    #: programs quarantined by the poison-pill circuit breaker
    quarantined: int = 0
    #: commands rejected by the bounded per-session queue
    overloaded: int = 0
    #: sessions orphaned by a connection drop, awaiting re-attach
    detached: int = 0
    #: successful ``-session-attach`` adoptions
    attached: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "total_opened": self.total_opened,
            "closed": self.closed,
            "rejected": self.rejected,
            "queued": self.queued,
            "reaped": self.reaped,
            "crashed": self.crashed,
            "child_deaths": self.child_deaths,
            "resurrected": self.resurrected,
            "degraded": self.degraded,
            "quarantined": self.quarantined,
            "overloaded": self.overloaded,
            "detached": self.detached,
            "attached": self.attached,
        }


@dataclass
class RecoveryManifest:
    """Everything needed to rebuild a session's child from scratch.

    ``log`` is the *ordered* interleaving of completed setup commands and
    deterministic run-control commands (verbatim id-less body lines), so
    a replay reproduces server-side breakpoint numbers and timeline
    snapshot indices exactly. An ``interrupted`` stop poisons the exec
    history (the same instruction cannot be re-interrupted), flipping
    ``replay_valid`` — setup still replays, the execution position is
    lost, and the resurrection is *degraded*.
    """

    program: str
    args: List[str] = field(default_factory=list)
    limits: Optional[ResourceLimits] = None
    #: ordered (kind, body) entries; kind is ``"setup"`` or ``"exec"``
    log: List[Tuple[str, str]] = field(default_factory=list)
    #: a ``-timeline-start`` is in effect (server-side recording)
    recording: bool = False
    #: the exec history is deterministic and may be re-executed
    replay_valid: bool = True
    #: completed run-control stops (the "last recorded pause" index)
    pause_index: int = 0

    def reset_binding(self, program: str, args: List[str]) -> None:
        """A mid-session rebind: prior state died with the old program."""
        self.program = program
        self.args = list(args)
        self.log.clear()
        self.recording = False
        self.replay_valid = True
        self.pause_index = 0


@dataclass
class Session:
    """One bound debugging session: a program inside a pooled child."""

    session_id: str
    child: ChildHandle
    program: str
    #: the id used on the wire; ``None`` for an implicit legacy session
    #: (its client speaks id-less MI, so synthesized records stay id-less)
    wire_id: Optional[str] = None
    #: ``-exec-run`` has been issued (reuse gate: a started-but-unfinished
    #: inferior may leave threads behind in the child)
    started: bool = False
    #: the inferior ran to completion (makes a started child reusable)
    exited: bool = False
    #: resource limits were applied or the child crashed — never reuse
    tainted: bool = False
    closed: bool = False
    #: the child died; commands answer from the tombstone
    dead: bool = False
    #: a dialogue was started and never completed (cancelled task,
    #: connection torn down mid-command) — the child's pipe may hold a
    #: half-read reply, so it must not be reused
    dialogue_pending: bool = False
    exit_code: Optional[int] = None
    last_activity: float = 0.0
    lock: "asyncio.Lock" = field(default_factory=asyncio.Lock)
    #: back-reference for resurrection/quarantine (None in unit harnesses)
    manager: Optional["SessionManager"] = None
    manifest: Optional[RecoveryManifest] = None
    #: bumped on every resurrection; clients see it in open/attach/notify
    epoch: int = 1
    #: the last resurrection lost the execution position
    degraded: bool = False
    #: commands dispatched and not yet answered (bounded; 0 = unbounded)
    pending: int = 0
    max_pending: int = 0
    #: the connection currently receiving this session's records (owner
    #: identity is opaque to the manager; ``None`` while detached)
    owner: Any = None
    #: event-loop time of the detach; ``None`` while attached
    detached_at: Optional[float] = None
    #: records produced while detached, flushed on re-attach
    undelivered: Deque[str] = field(
        default_factory=lambda: deque(maxlen=1024)
    )
    backlog_dropped: int = 0

    @property
    def busy(self) -> bool:
        """A command is in flight (idle reaping must leave it alone)."""
        return self.lock.locked()

    def touch(self) -> None:
        self.last_activity = asyncio.get_event_loop().time()

    # ------------------------------------------------------------------
    # Attach / detach (reconnectable sessions)
    # ------------------------------------------------------------------

    def detach(self) -> None:
        """The owning connection dropped; records buffer until re-attach."""
        self.owner = None
        self.detached_at = asyncio.get_event_loop().time()

    def attach(self, owner: Any) -> List[str]:
        """Adopt the session onto ``owner``; return the buffered backlog."""
        self.owner = owner
        self.detached_at = None
        self.touch()
        backlog = list(self.undelivered)
        self.undelivered.clear()
        return backlog

    def buffer_undelivered(self, records: List[str]) -> None:
        for record in records:
            if len(self.undelivered) == self.undelivered.maxlen:
                self.backlog_dropped += 1
            self.undelivered.append(record)

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------

    async def run_command(
        self, line: str, _counted: bool = False
    ) -> List[str]:
        """Forward one command line; return the reply record lines.

        ``line`` carries this session's id prefix (or none, for an
        implicit legacy session) — the child echoes whatever framing it
        receives, so the records come back correctly tagged without the
        service rewriting them.

        ``_counted`` means the dispatcher already bumped ``pending``
        *synchronously* (before this coroutine was even scheduled), which
        is what keeps the idle reaper from firing between dispatch and
        the first ``await``.

        ``-exec-interrupt`` never takes this path (it would deadlock
        behind the very command it is meant to interrupt); see
        :meth:`interrupt`.
        """
        _, body = protocol.split_session(line.strip())
        command_name = body.split(None, 1)[0] if body else ""
        if not _counted:
            self.pending += 1
        try:
            if self.max_pending and self.pending > self.max_pending:
                if self.manager is not None:
                    self.manager.stats.overloaded += 1
                return [
                    self._tag(
                        protocol.format_error(
                            protocol.retryable_message(
                                f"session {self.session_id} is overloaded "
                                f"({self.pending - 1} commands already "
                                "queued)",
                                0.5,
                            )
                        )
                    )
                ]
            async with self.lock:
                self.touch()
                if self.closed:
                    return [
                        self._tag(protocol.format_error("session is closed"))
                    ]
                if self.dead:
                    return self._tombstone_reply(command_name)
                try:
                    return await self._dialogue(line, body, command_name)
                except ServerCrashError as error:
                    return await self._child_died(
                        line, body, command_name, error
                    )
        finally:
            self.pending -= 1
            self.touch()

    async def _dialogue(
        self, line: str, body: str, command_name: str
    ) -> List[str]:
        self.dialogue_pending = True
        await self.child.transport.send_line(line)
        if command_name == "-exec-run":
            self.started = True
        records: List[str] = []
        reader = protocol.ReplyReader(command_name)
        while True:
            raw = (await self.child.transport.recv_line()).rstrip("\n")
            self.touch()
            records.append(raw)
            if reader.feed(protocol.parse_record(raw)):
                break
        self.dialogue_pending = False
        self._note_healthy()  # even an ^error proves liveness
        end = reader.end
        if end.kind == "error":
            return records
        if reader.exec:
            payload = end.payload or {}
            if payload.get("reason") == "exited":
                self.exited = True
                self.exit_code = payload.get("exitcode")
            else:
                self._note_pause(payload.get("reason"), body)
        else:
            self._note_completed(command_name, body)
        return records

    async def interrupt(self) -> None:
        """Fire-and-forget: pause whatever this session is running.

        Goes straight to the transport (bypassing the session lock): the
        ``*stopped`` it provokes is delivered as the answer of the
        run-control command already in flight, exactly like the blocking
        client's deadline path.
        """
        if self.closed or self.dead:
            return
        try:
            await self.child.transport.interrupt()
        except ServerCrashError:
            pass  # the in-flight command will report the death

    # ------------------------------------------------------------------
    # Manifest bookkeeping
    # ------------------------------------------------------------------

    def _note_pause(self, reason: Optional[str], body: str) -> None:
        manifest = self.manifest
        if manifest is None:
            return
        manifest.pause_index += 1
        if body.split(None, 1)[0] == "-exec-run":
            # A fresh run supersedes the previous run's exec history —
            # control-point installs persist, replay validity recovers.
            manifest.log = [
                entry for entry in manifest.log if entry[0] == "setup"
            ]
            manifest.replay_valid = True
        if reason == "interrupted":
            # An interrupt lands at a wall-clock-dependent instruction;
            # re-executing the history cannot reproduce it.
            manifest.replay_valid = False
        elif manifest.replay_valid:
            manifest.log.append(("exec", body))

    def _note_completed(self, command_name: str, body: str) -> None:
        manifest = self.manifest
        if manifest is None:
            return
        if command_name in SETUP_COMMANDS:
            manifest.log.append(("setup", body))
            if command_name == "-timeline-start":
                manifest.recording = True
            elif command_name == "-timeline-stop":
                manifest.recording = False
        elif command_name == "-file-exec-and-symbols":
            try:
                command = protocol.parse_command(body)
            except TrackerError:  # pragma: no cover - child accepted it
                return
            if command.args:
                self.program = command.args[0]
                self.started = False
                self.exited = False
                self.exit_code = None
                manifest.reset_binding(
                    command.args[0], list(command.args[1:])
                )

    def _note_healthy(self) -> None:
        if self.manager is not None:
            self.manager.note_child_healthy(self.program)

    # ------------------------------------------------------------------
    # Death: resurrection, then tombstones
    # ------------------------------------------------------------------

    async def _child_died(
        self,
        line: str,
        body: str,
        command_name: str,
        error: ServerCrashError,
    ) -> List[str]:
        self.dialogue_pending = False
        self.tainted = True  # whatever happens, this child is done for
        exit_code = self.child.transport.exit_code()
        outcome = None
        if (
            self.manager is not None
            and not self.closed
            and not self.exited
        ):
            outcome = await self.manager.resurrect(self, error)
        if outcome is None:
            return self._entomb(command_name, error, exit_code)
        notify = self._tag(
            protocol.format_notify(SESSION_RESURRECTED, outcome)
        )
        try:
            records = await self._dialogue(line, body, command_name)
        except ServerCrashError as again:
            # The replacement died on the very same command; recurse —
            # bounded by the poison-pill counter, which only resets on a
            # *completed* dialogue.
            return [notify] + await self._child_died(
                line, body, command_name, again
            )
        return [notify] + records

    def _entomb(
        self,
        command_name: str,
        error: ServerCrashError,
        exit_code: Optional[int],
    ) -> List[str]:
        self.dead = True
        code = exit_code
        if code is None:
            code = self.child.transport.exit_code()
        if code is not None and code < 0:
            code = 128 - code  # signal death, shell convention
        if not self.exited:
            self.exited = True
            self.exit_code = code
        if command_name in protocol.EXEC_COMMANDS:
            return self._tombstone_reply(command_name)
        return [self._tag(protocol.format_error(str(error)))]

    def _tombstone_reply(self, command_name: str) -> List[str]:
        """What a dead session answers, mirroring a dead inferior."""
        if command_name in protocol.EXEC_COMMANDS:
            payload: Dict[str, Any] = {
                "reason": "exited",
                "exitcode": self.exit_code,
                "error": "the session's child server died",
            }
            return [
                self._tag(protocol.format_running()),
                self._tag(protocol.format_stopped(payload)),
            ]
        return [
            self._tag(
                protocol.format_error("the session's child server died")
            )
        ]

    def _tag(self, record: str) -> str:
        return protocol.tag_record(record, self.wire_id)


class SessionManager:
    """Admission, binding, resurrection, and reuse policy for sessions.

    Args:
        pool: the warm child pool sessions draw from.
        max_sessions: concurrent-session bound (admission control).
        queue: when the bound is hit, ``True`` parks new opens until a
            slot frees (bounded hospitality), ``False`` rejects them
            immediately with :class:`ServiceBusy` (fail fast).
        idle_timeout: seconds of inactivity after which a session with no
            command in flight is force-closed; ``None`` disables reaping.
        detach_grace: seconds a detached session (its connection dropped)
            survives awaiting ``-session-attach``; ``None`` means
            detached sessions are never reaped by the grace clock.
        session_queue_limit: bound on per-session queued commands
            (overflow answers a typed overload error); 0 = unbounded.
        poison_threshold: consecutive child deaths, per program, before
            the program is quarantined and the session tombstoned.
        resurrect_policy: backoff schedule for replacement-child
            acquisition during resurrection.
        replay_timeout: per-entry deadline while replaying a recovery
            manifest (a wedged replay must not hang the resurrection).
    """

    def __init__(
        self,
        pool: WarmPool,
        max_sessions: int = 16,
        queue: bool = True,
        idle_timeout: Optional[float] = None,
        *,
        detach_grace: Optional[float] = None,
        session_queue_limit: int = 0,
        poison_threshold: int = 3,
        resurrect_policy: Optional[BackoffPolicy] = None,
        replay_timeout: float = 30.0,
    ):
        self.pool = pool
        self.max_sessions = max_sessions
        self.queue = queue
        self.idle_timeout = idle_timeout
        self.detach_grace = detach_grace
        self.session_queue_limit = session_queue_limit
        self.poison_threshold = poison_threshold
        self.resurrect_policy = resurrect_policy or BackoffPolicy(
            max_restarts=2, initial_delay=0.05, max_delay=1.0
        )
        self.replay_timeout = replay_timeout
        self.sessions: Dict[str, Session] = {}
        self.stats = SessionStats()
        self.draining = False
        #: programs tripped by the poison-pill circuit breaker
        self.quarantined: set = set()
        #: supervision events (resurrections), drained by callers
        self.events: List[SupervisionEvent] = []
        self._deaths: Dict[str, int] = {}
        self._slots = asyncio.Semaphore(max_sessions)
        self._next_id = 0
        self._reaper_task: Optional["asyncio.Task[None]"] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        await self.pool.start()
        if self._reaper_task is None and (
            self.idle_timeout is not None or self.detach_grace is not None
        ):
            self._reaper_task = asyncio.ensure_future(self._reap_idle())

    async def close(self) -> None:
        self._closed = True
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            try:
                await self._reaper_task
            except asyncio.CancelledError:
                pass
            self._reaper_task = None
        for session in list(self.sessions.values()):
            await self.close_session(session)
        await self.pool.close()

    async def drain(
        self,
        deadline: float = 5.0,
        snapshot_dir: Optional[str] = None,
    ) -> None:
        """Graceful shutdown: stop admitting, finish, snapshot, wind down.

        Flips the manager into draining (new opens answer a typed
        retry-after error), waits up to ``deadline`` seconds for in-flight
        commands to finish, snapshots every recording session's timeline
        into ``snapshot_dir`` (best effort), closes all sessions, and
        winds the pool down. Idempotent.
        """
        if self.draining:
            return
        self.draining = True
        loop = asyncio.get_event_loop()
        cutoff = loop.time() + deadline
        while loop.time() < cutoff and any(
            session.busy or session.pending
            for session in self.sessions.values()
        ):
            await asyncio.sleep(0.02)
        for session in list(self.sessions.values()):
            if (
                snapshot_dir is not None
                and session.manifest is not None
                and session.manifest.recording
                and not session.dead
                and not session.busy
                and session.child.alive()
            ):
                try:
                    dump = await session.child.request(
                        "-timeline-dump", timeout=5.0
                    )
                    os.makedirs(snapshot_dir, exist_ok=True)
                    path = os.path.join(
                        snapshot_dir,
                        f"{session.session_id}.timeline.json",
                    )
                    with open(path, "w", encoding="utf-8") as handle:
                        json.dump(dump, handle)
                except (TrackerError, asyncio.TimeoutError, OSError):
                    pass  # drain must finish even if a snapshot cannot
            await self.close_session(session)
        await self.pool.close()

    # ------------------------------------------------------------------
    # Opening and closing sessions
    # ------------------------------------------------------------------

    def _assign_id(self, requested: Optional[str]) -> str:
        if requested is not None:
            if not protocol.valid_session_id(requested):
                raise TrackerError(f"invalid session id {requested!r}")
            if requested in self.sessions:
                raise TrackerError(f"session {requested!r} already exists")
            return requested
        while True:
            self._next_id += 1
            candidate = f"s{self._next_id}"
            if candidate not in self.sessions:
                return candidate

    async def _admit(self) -> None:
        if self._slots.locked():  # no free slot right now
            if not self.queue:
                self.stats.rejected += 1
                raise ServiceBusy(
                    f"service at capacity ({self.max_sessions} sessions)"
                )
            self.stats.queued += 1
        await self._slots.acquire()

    async def open(
        self,
        program: str,
        args: Optional[List[str]] = None,
        *,
        limits: Optional[ResourceLimits] = None,
        session_id: Optional[str] = None,
    ) -> Session:
        """Admit, bind, and register one session (the service open path).

        The child is drawn warm when the pool has one; the program load
        is the only per-open round trip. A failed load releases the child
        back to the pool (a failed ``-file-exec-and-symbols`` leaves the
        child idle, so it stays reusable) and re-raises as
        :class:`TrackerError`.
        """
        if self.draining:
            self.stats.rejected += 1
            raise ServiceDraining(
                protocol.retryable_message(
                    "service is draining; not accepting new sessions", 5
                ),
                retry_after=5.0,
            )
        if program in self.quarantined:
            self.stats.rejected += 1
            raise ProgramQuarantined(
                f"program {program!r} is quarantined: it killed "
                f"{self.poison_threshold} consecutive child servers"
            )
        await self._admit()
        try:
            sid = self._assign_id(session_id)
            child = await self.pool.acquire()
        except BaseException:
            self._slots.release()
            raise
        effective_limits = (
            limits
            if limits is not None and limits != ResourceLimits()
            else None
        )
        tainted = effective_limits is not None
        try:
            await _bind(child, program, list(args or []), effective_limits)
        except BaseException as error:
            await self.pool.release(
                child,
                reusable=not tainted
                and not isinstance(error, ServerCrashError),
            )
            self._slots.release()
            raise
        session = Session(
            session_id=sid,
            child=child,
            program=program,
            wire_id=sid,
            tainted=tainted,
            manager=self,
            manifest=RecoveryManifest(
                program=program,
                args=list(args or []),
                limits=effective_limits,
            ),
            max_pending=self.session_queue_limit,
        )
        session.touch()
        self.sessions[sid] = session
        self.stats.total_opened += 1
        return session

    async def close_session(self, session: Session) -> None:
        """Unregister the session and park or retire its child.

        Reuse verdict: the child goes back on the shelf only when it is
        alive, untainted, and its inferior either never started or ran to
        completion — anything mid-run may leave inferior threads behind
        in the child interpreter, which must not haunt the next session.
        """
        if session.closed:
            return
        session.closed = True
        self.sessions.pop(session.session_id, None)
        if session.dead:
            self.stats.crashed += 1
        reusable = (
            session.child.alive()
            and not session.tainted
            and not session.dead
            and not session.dialogue_pending
            and (not session.started or session.exited)
        )
        await self.pool.release(session.child, reusable=reusable)
        self.stats.closed += 1
        self._slots.release()

    # ------------------------------------------------------------------
    # Resurrection
    # ------------------------------------------------------------------

    def note_child_healthy(self, program: str) -> None:
        """A completed dialogue resets the poison-pill death streak."""
        self._deaths.pop(program, None)

    async def resurrect(
        self, session: Session, error: ServerCrashError
    ) -> Optional[Dict[str, Any]]:
        """Provision a replacement child and rebuild ``session`` onto it.

        Returns the ``=session-resurrected`` payload on success, ``None``
        when the session must tombstone instead — the program is
        quarantined, the manager is draining/closed, or every backoff
        attempt failed.
        """
        self.stats.child_deaths += 1
        program = session.program
        deaths = self._deaths.get(program, 0) + 1
        self._deaths[program] = deaths
        if self._closed or self.draining or session.manifest is None:
            return None
        if deaths >= self.poison_threshold:
            if program not in self.quarantined:
                self.quarantined.add(program)
                self.stats.quarantined += 1
            return None
        attempts = 0
        for delay in [0.0] + list(self.resurrect_policy.delays()):
            if delay:
                await asyncio.sleep(delay)
            if self._closed or self.draining:
                return None
            attempts += 1
            child = None
            try:
                child = await self.pool.acquire()
                degraded, launched = await self._rebuild(session, child)
            except (TrackerError, asyncio.TimeoutError, OSError):
                if child is not None:
                    await self.pool.release(child, reusable=False)
                continue
            old_child = session.child
            session.child = child
            session.epoch += 1
            session.degraded = degraded
            session.tainted = session.manifest.limits is not None
            session.dialogue_pending = False
            session.started = launched
            await self.pool.release(old_child, reusable=False)
            self.stats.resurrected += 1
            if degraded:
                self.stats.degraded += 1
            payload = {
                "session": session.session_id,
                "epoch": session.epoch,
                "degraded": degraded,
                "pid": child.pid,
                "attempts": attempts,
                "pause_index": session.manifest.pause_index,
            }
            self.events.append(
                SupervisionEvent(
                    kind=SESSION_RESURRECTED,
                    message=(
                        f"session {session.session_id} resurrected on "
                        f"pid {child.pid} (epoch {session.epoch}, "
                        f"degraded={degraded})"
                    ),
                    details=dict(payload, cause=str(error)),
                )
            )
            return payload
        return None

    async def _rebuild(
        self, session: Session, child: ChildHandle
    ) -> Tuple[bool, bool]:
        """Replay the manifest into ``child``.

        Re-applies resource limits, re-loads the program, then replays
        the command log in original order. Exec entries re-execute only
        while the history is deterministic; the first divergence (or a
        pre-poisoned history) abandons the execution position.

        Returns ``(degraded, launched)``: whether the execution position
        was lost, and whether the replay left an inferior running (the
        new child's ``started`` state).
        """
        manifest = session.manifest
        assert manifest is not None
        await _bind(child, manifest.program, manifest.args, manifest.limits)
        replay_exec = manifest.replay_valid
        degraded = False
        launched = False
        for kind, body in manifest.log:
            if kind == "setup":
                await child.request_line(body, timeout=self.replay_timeout)
                continue
            if not replay_exec:
                degraded = True
                continue
            payload = await child.run_line(
                body, timeout=self.replay_timeout
            )
            reason = payload.get("reason")
            if reason in ("exited", "interrupted"):
                # The re-execution diverged from the recorded history
                # (e.g. the program reads wall clock or randomness).
                replay_exec = False
                manifest.replay_valid = False
                degraded = True
                launched = False
            else:
                launched = True
        if session.started and not launched:
            degraded = True  # the old child was mid-run; position lost
        return degraded, launched

    def drain_supervision_events(self) -> List[SupervisionEvent]:
        events, self.events = self.events, []
        return events

    # ------------------------------------------------------------------
    # Idle reaping
    # ------------------------------------------------------------------

    async def _reap_idle(self) -> None:
        horizons = [
            t
            for t in (self.idle_timeout, self.detach_grace)
            if t is not None
        ]
        interval = max(min(min(horizons) / 4, 1.0), 0.05)
        while not self._closed:
            await asyncio.sleep(interval)
            for session in list(self.sessions.values()):
                if session.busy or session.pending:
                    continue  # a command is in flight or queued: not idle
                now = asyncio.get_event_loop().time()
                if session.detached_at is not None:
                    if (
                        self.detach_grace is not None
                        and now - session.detached_at > self.detach_grace
                    ):
                        self.stats.reaped += 1
                        await self.close_session(session)
                    continue
                if (
                    self.idle_timeout is not None
                    and now - session.last_activity > self.idle_timeout
                ):
                    self.stats.reaped += 1
                    await self.close_session(session)

    def stats_dict(self) -> Dict[str, Any]:
        return {
            "sessions": sorted(self.sessions),
            "open_sessions": len(self.sessions),
            "max_sessions": self.max_sessions,
            "draining": self.draining,
            "quarantined_programs": sorted(self.quarantined),
            **self.stats.to_dict(),
            "pool": dict(self.pool.stats),
        }


async def _bind(
    child: ChildHandle,
    program: str,
    args: List[str],
    limits: Optional[ResourceLimits],
) -> None:
    """Apply ``limits`` (if any) inside ``child``, then load ``program``."""
    if limits is not None:
        await child.request(
            "-apply-limits", options=protocol.limit_options(limits)
        )
    await child.request("-file-exec-and-symbols", [program] + list(args))
