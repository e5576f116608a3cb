"""The shared client half of every out-of-process tracker.

Two trackers drive a debug-server subprocess over the MI pipe: the GDB
tracker (mini-C / RISC-V inferiors) and the subprocess-isolated Python
tracker. Their client logic is identical — supervised command execution
with deadlines and crash recovery, incremental control-point sync,
``*stopped`` payload decoding (:func:`repro.mi.protocol.decode_stop`, the
inverse of the one stop encoder both servers use), paused-state
inspection, and the server-side ``-timeline-*`` recording family — so it
lives here once, in :class:`MIRemoteTracker`. Subclasses override small
hooks where the substrates genuinely differ (how a tracked function is
installed, how a breakpoint number maps back to a pause reason).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.engine import TrackerStats
from repro.core.errors import (
    ControlTimeout,
    NotStartedError,
    ProtocolError,
    TrackerError,
)
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.supervision import (
    BACKEND_RESTARTED,
    BACKEND_UNAVAILABLE,
    INFERIOR_INTERRUPTED,
    BackoffPolicy,
    Deadline,
    SupervisionEvent,
    run_with_recovery,
)
from repro.core.timeline import StateSnapshot, Timeline, event_for_reason
from repro.core.tracker import TrackedFunction, Tracker
from repro.mi import protocol
from repro.mi.client import MIClient


class MIRemoteTracker(Tracker):
    """Base of trackers that drive a debug-server subprocess over MI.

    Args:
        restart_policy: backoff schedule for debug-server crash recovery
            (:class:`repro.core.supervision.BackoffPolicy`). On a server
            crash or garbled pipe, the client restarts the backend,
            re-installs the full control-point registry from the
            client-side engine index, re-runs the inferior to its first
            pause, and retries the failed command; exhausted retries put
            the tracker in the terminal ``"unavailable"`` health state.
            ``BackoffPolicy(max_restarts=0)`` disables recovery.
        transport_factory: forwarded to :class:`MIClient` (fault
            injection hook, see :mod:`repro.testing.faults`).
    """

    def __init__(
        self,
        restart_policy: Optional[BackoffPolicy] = None,
        transport_factory: Optional[Callable[[], Any]] = None,
    ) -> None:
        super().__init__()
        self._client: Optional[MIClient] = None
        self._restart_policy = restart_policy or BackoffPolicy()
        self._transport_factory = transport_factory
        #: whether -exec-run has completed once (vs. still in flight);
        #: decides if a backend restart must re-launch the inferior
        self._inferior_launched = False
        #: timeline recording lives server-side (-timeline-* family):
        #: _remote_recording = a server timeline exists; _remote_enabled =
        #: it is currently capturing; the client caches the last dump.
        self._remote_recording = False
        self._remote_enabled = False
        self._timeline_cache: Optional[Timeline] = None
        self._timeline_dirty = False

    # ------------------------------------------------------------------
    # Substrate hooks
    # ------------------------------------------------------------------

    def _make_transport_factory(
        self, path: str, args: List[str]
    ) -> Optional[Callable[[], Any]]:
        """The transport factory for this substrate's server.

        ``None`` (the default) lets :class:`MIClient` spawn the standard
        ``python -m repro.mi.server`` subprocess.
        """
        return self._transport_factory

    def _install_tracked(self, point: TrackedFunction) -> None:
        """Install one tracked function on the server."""
        self._client.execute(*protocol.point_command(point))

    def _map_breakpoint_pause(
        self, payload: Dict[str, Any], line: Optional[int]
    ) -> Optional[PauseReason]:
        """Substrate-specific mapping of a ``breakpoint-hit`` payload.

        Return ``None`` to fall through to the generic BREAKPOINT reason.
        """
        return None

    def _reset_backend_state(self) -> None:
        """Clear substrate bookkeeping invalidated by a restart/clear."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _load_program(self, path: str, args: List[str]) -> None:
        self._client = MIClient(
            path,
            args,
            transport_factory=self._make_transport_factory(path, args),
        )
        self._execute("-file-exec-and-symbols", [path])

    def _start(self) -> None:
        self._sync_control_points()
        payload = self._run_control("-exec-run")
        self._inferior_launched = True
        self._ingest(payload)

    def _terminate(self) -> None:
        if self._client is not None:
            self._client.close()

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------

    def _resume(self) -> None:
        self._ingest(self._run_control("-exec-continue"))

    def _next(self) -> None:
        self._ingest(self._run_control("-exec-next"))

    def _step(self) -> None:
        self._ingest(self._run_control("-exec-step"))

    def _finish(self) -> None:
        self._ingest(self._run_control("-exec-finish"))

    # ------------------------------------------------------------------
    # Supervised server calls: deadlines + crash recovery
    # ------------------------------------------------------------------

    def _attempt_deadline(self) -> Optional[Deadline]:
        """A fresh deadline per attempt, from the active control call.

        Each recovery retry restarts the clock: the budget bounds one
        server interaction, not the whole backoff schedule (which is
        itself bounded by the policy).
        """
        if self._control_deadline is not None:
            return Deadline(self._control_deadline.timeout)
        if self.default_timeout is not None:
            return Deadline(self.default_timeout)
        return None

    def _execute(
        self,
        name: str,
        args: Optional[List[str]] = None,
        options: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """A synchronous server command, with crash recovery."""
        return self._supervised_call(
            lambda: self._client.execute(
                name, args, options, deadline=self._attempt_deadline()
            )
        )

    def _run_control(self, name: str) -> Dict[str, Any]:
        """An exec command, with deadline interrupt and crash recovery."""
        payload = self._dispatch_run_control(name)
        if payload.get("reason") == "interrupted":
            # The hosted tracker counted the interrupt; -tracker-stats
            # merges its counters in.
            self._emit_supervision_event(
                SupervisionEvent(
                    INFERIOR_INTERRUPTED,
                    f"{name} exceeded its deadline; the inferior was "
                    "interrupted and is paused",
                    {"line": payload.get("line")},
                )
            )
        return payload

    def _dispatch_run_control(self, name: str) -> Dict[str, Any]:
        """Run one exec command on the server and return its stop payload.

        A hook because crash semantics differ per substrate: for the GDB
        server a crash is the *tool stack's* failure (the interpreter died
        under a healthy inferior) and is recovered by restart; a subclass
        whose server process hosts the inferior itself (the subprocess
        Python tracker) overrides this to translate a crash into the
        inferior's own death.
        """
        return self._supervised_call(
            lambda: self._client.run_control(
                name, deadline=self._attempt_deadline()
            )
        )

    def _supervised_call(self, operation: Callable[[], Any]) -> Any:
        try:
            return run_with_recovery(
                operation,
                restart=self._restart_backend,
                policy=self._restart_policy,
                recoverable=(ProtocolError,),
                on_restarted=self._note_restarted,
                on_unavailable=self._note_unavailable,
            )
        except ControlTimeout:
            self.engine.stats.control_timeouts += 1
            raise

    def _restart_backend(self, error: BaseException) -> None:
        """Respawn the server and rebuild the whole session on it.

        The client-side engine registry is the source of truth: every
        control point is re-installed on the fresh server
        (:meth:`ControlPointEngine.resync_points` under
        ``_sync_control_points``), and an already-started inferior is
        re-run to a clean first-line pause so a retried control command
        finds the server in a valid ``STOPPED`` state.
        """
        self._client.restart()
        self._client.execute(
            "-file-exec-and-symbols",
            [self._program],
            deadline=self._attempt_deadline(),
        )
        self._reset_backend_state()
        self.engine.reset_sync()
        self._sync_control_points()
        # Re-launch only an inferior that had fully launched; a crash
        # during -exec-run itself leaves the relaunch to the retry.
        if self._inferior_launched and self._exit_code is None:
            self._client.run_control(
                "-exec-run", deadline=self._attempt_deadline()
            )

    def _note_restarted(self, error: BaseException, attempt: int) -> None:
        self.engine.stats.backend_restarts += 1
        self._emit_supervision_event(
            SupervisionEvent(
                BACKEND_RESTARTED,
                f"debug server restarted (attempt {attempt}) after: {error}",
                {"attempt": attempt, "error": str(error)},
            )
        )

    def _note_unavailable(self, error: BaseException) -> None:
        self.health = "unavailable"
        self._emit_supervision_event(
            SupervisionEvent(
                BACKEND_UNAVAILABLE,
                "debug server crash recovery exhausted; the tracker is "
                f"unavailable (last error: {error})",
                {"error": str(error)},
            )
        )

    def _control_points_changed(self) -> None:
        super()._control_points_changed()
        if self._client is not None:
            self._sync_control_points()

    def clear_control_points(self) -> None:
        """Remove every control point, server side included."""
        super().clear_control_points()
        self._reset_backend_state()
        if self._client is not None:
            self._execute("-break-delete", ["all"])

    def _sync_control_points(self) -> None:
        """Send any not-yet-registered control points to the server.

        The engine tracks which points have already crossed the pipe
        (:meth:`ControlPointEngine.take_unsynced`), so re-syncs after new
        installs are incremental.
        """
        if self._client is None:
            return
        for point in self.engine.take_unsynced():
            if isinstance(point, TrackedFunction):
                self._install_tracked(point)
            else:
                self._client.execute(*protocol.point_command(point))

    # ------------------------------------------------------------------
    # Stopped-payload ingestion
    # ------------------------------------------------------------------

    def _ingest(self, payload: Dict[str, Any]) -> None:
        self._timeline_dirty = True
        line = payload.get("line")
        if line is not None:
            self.last_lineno = self.next_lineno
            self.next_lineno = line
        reason = protocol.decode_stop(payload)
        if reason.type is PauseReasonType.EXIT:
            self._exit_code = payload.get("exitcode", 0)
            self.exit_error = payload.get("error")
        elif reason.type is PauseReasonType.BREAKPOINT:
            mapped = self._map_breakpoint_pause(payload, line)
            if mapped is not None:
                mapped.thread = reason.thread
                mapped.thread_name = reason.thread_name
                reason = mapped
        self._pause_reason = reason

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def _capture(self) -> StateSnapshot:
        """The server's paused state, one tree (``-state-snapshot``), with
        the client's own output and pause reason; an exit snapshot is
        built here, with no round trip."""
        if self._exit_code is not None:
            return super()._capture()
        served = StateSnapshot.from_dict(self._execute("-state-snapshot"))
        reason = self._pause_reason
        return replace(served, stdout=self._get_output(), reason=reason,
                       event=event_for_reason(reason))

    def _get_position(self) -> Tuple[str, Optional[int]]:
        payload = self._execute("-inferior-position")
        return payload["file"], payload["line"]

    def get_threads(self):
        """The server-side inferior's threads (``-thread-info``)."""
        from repro.core.threads import thread_from_dict

        if self._client is None:
            return super().get_threads()
        payload = self._execute("-thread-info")
        return [thread_from_dict(data) for data in payload.get("threads", [])]

    def get_stats(self) -> TrackerStats:
        """Client-side counters merged with the server's ``-tracker-stats``.

        The pause decisions happen server-side (the server runs the same
        :class:`ControlPointEngine` over the raw event stream), so the
        event/pause counters come across the pipe; the local engine only
        contributes client-side bookkeeping.
        """
        local = self.engine.stats
        if self._client is not None:
            local.transport_lines_dropped = (
                self._client.transport_lines_dropped()
            )
        if self._client is None or not self._client.alive():
            return local
        try:
            payload = self._client.execute("-tracker-stats")
        except TrackerError:
            return local
        return local.merged(TrackerStats.from_dict(payload))

    def _get_output(self) -> str:
        return "".join(self._client.console)

    def list_functions(self) -> List[str]:
        """Names of the inferior's functions."""
        return self._execute("-list-functions")

    # ------------------------------------------------------------------
    # Timeline recording: delegated to the server (-timeline-* family)
    # ------------------------------------------------------------------

    def enable_recording(
        self,
        keyframe_interval: int = 16,
        max_snapshots: Optional[int] = None,
        tracedir: Optional[str] = None,
        index: bool = True,
    ):
        """Start recording — in the *server* process.

        The server captures a snapshot at every ``*stopped`` record, so
        recording does not serialize state across the pipe per pause; the
        whole timeline crosses once, when :attr:`timeline` is first read.
        Queries are better sent with :meth:`timeline_query`, which runs
        server-side and ships only the matches. Returns ``None``: the
        recorder object lives server-side.

        ``tracedir`` is not supported on remote backends (the server owns
        the timeline; a client-side spill directory would record nothing)
        and raises :class:`TraceStoreError`. ``index`` is accepted for
        signature compatibility; the server maintains its query index on
        demand.
        """
        if tracedir is not None:
            from repro.core.errors import TraceStoreError

            raise TraceStoreError(
                "tracedir recording is not supported on remote backends; "
                "record locally or save the dumped timeline instead"
            )
        if self._client is None:
            raise NotStartedError(
                "load the program before enabling recording"
            )
        options: Dict[str, Any] = {"keyframe-interval": keyframe_interval}
        if max_snapshots is not None:
            options["max-snapshots"] = max_snapshots
        self._execute("-timeline-start", options=options)
        self._remote_recording = True
        self._remote_enabled = True
        self._timeline_cache = None
        self._timeline_dirty = True
        return None

    def disable_recording(self) -> None:
        """Stop recording; the server keeps the timeline navigable."""
        if self._remote_enabled and self._client is not None:
            self._execute("-timeline-stop")
        self._remote_enabled = False

    @property
    def timeline(self) -> Optional[Timeline]:
        if not self._remote_recording:
            return super().timeline
        if (
            self._timeline_dirty or self._timeline_cache is None
        ) and self._client is not None:
            self._timeline_cache = Timeline.from_dict(
                self._execute("-timeline-dump")
            )
            self._timeline_dirty = False
        return self._timeline_cache

    def timeline_query(self, text: str) -> Dict[str, Any]:
        """Run a trace query server-side (``-timeline-query``).

        The query grammar is :func:`repro.core.tracestore.parse_query`
        (``x changed``, ``f() == INVALID``, ``len(heap) > 100``). Only
        the structured result crosses the pipe — the recording itself
        stays in the server process.
        """
        if not self._remote_recording:
            return super().timeline_query(text)
        return self._execute("-timeline-query", [text])

    def _after_control(self, record: Optional[bool]) -> None:
        if self._remote_recording:
            # The server already recorded this pause; record=False means
            # the caller wants it off the record.
            if (
                record is False
                and self._remote_enabled
                and self._client is not None
            ):
                self._execute("-timeline-drop-last")
            self._timeline_dirty = True
            return
        super()._after_control(record)
