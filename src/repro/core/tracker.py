"""The abstract tracker: EasyTracker's control and inspection interfaces.

A *tracker* runs an inferior program, pauses it at control points, and
exposes its paused state through the language-agnostic model of
:mod:`repro.core.state`. Two complete implementations ship with the library
(:class:`repro.pytracker.PythonTracker` and
:class:`repro.gdbtracker.GDBTracker`) plus a trace-replay tracker
(:class:`repro.pytutor.PTTracker`).

Every function of the control interface **returns only when the inferior is
paused or terminated** — this synchronous contract is what makes tool
scripts simple imperative loops.

**Canonical control-call signature.** Every control call of every backend
shares one signature, defined here once (backends implement only the
``_``-prefixed hooks and never re-declare it)::

    start(*, timeout=None, record=None)
    resume(*, timeout=None, record=None)
    next(*, timeout=None, record=None)
    step(*, timeout=None, record=None)
    finish(*, timeout=None, record=None)

``timeout`` is the supervision deadline in seconds (defaulting to
:attr:`Tracker.default_timeout`); ``record`` overrides the timeline
recorder for this one pause (``True`` forces a snapshot, ``False``
suppresses one, ``None`` defers to :meth:`enable_recording`). Both are
keyword-only.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import (
    AlreadyTerminatedError,
    BackendUnavailableError,
    NotPausedError,
    NotStartedError,
    TrackerError,
)
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.state import Frame, Variable
from repro.core.supervision import Deadline, SupervisionEvent
from repro.core.timeline import (
    StateSnapshot,
    Timeline,
    TimelineRecorder,
    scan_backward,
    scan_forward,
)


@dataclass
class LineBreakpoint:
    """A pause request before executing a given source line.

    ``thread`` restricts the breakpoint to one inferior thread index
    (0 = the main inferior thread); ``None`` matches any thread.
    """

    line: int
    filename: Optional[str] = None
    maxdepth: Optional[int] = None
    enabled: bool = True
    thread: Optional[int] = None


@dataclass
class FunctionBreakpoint:
    """A pause request just before entering a given function.

    Pausing "before entering" still guarantees that the callee's arguments
    are initialized and inspectable, per the paper's contract for
    ``break_before_func``.
    """

    function: str
    maxdepth: Optional[int] = None
    enabled: bool = True
    thread: Optional[int] = None


@dataclass
class TrackedFunction:
    """A request to pause at both entry and exit of every call of a function."""

    function: str
    maxdepth: Optional[int] = None
    enabled: bool = True
    thread: Optional[int] = None


@dataclass
class Watchpoint:
    """A pause request triggered by modification of a variable.

    ``variable_id`` uses the syntax ``name`` for a global or current-frame
    variable, or ``function:name`` to watch ``name`` within ``function``.
    A thread-scoped watch (``thread`` set) is sampled only on events from
    that thread.
    """

    variable_id: str
    maxdepth: Optional[int] = None
    enabled: bool = True
    thread: Optional[int] = None

    def split(self) -> Tuple[Optional[str], str]:
        """Return ``(function_or_None, variable_name)``.

        Tolerates an empty function part (``":x"``), extra colons in the
        variable name (``"f:x:y"``), and colons inside brackets or quotes
        (``'d[":k"]'``); see :func:`repro.core.engine.split_variable_id`.
        """
        from repro.core.engine import split_variable_id

        return split_variable_id(self.variable_id)


class Tracker:
    """Abstract base of all trackers.

    Subclasses implement the ``_``-prefixed hooks; this base class owns the
    control-point registries, lifecycle state checks, and the pause-reason
    bookkeeping, so the three implementations expose identical behaviour at
    the edges of the API.
    """

    #: Human-readable backend name ("python", "GDB", "pt").
    backend = "abstract"

    def __init__(self) -> None:
        from repro.core.engine import ControlPointEngine

        self._program: Optional[str] = None
        self._program_args: List[str] = []
        self._started = False
        self._terminated = False
        self._exit_code: Optional[int] = None
        self._pause_reason: Optional[PauseReason] = None
        #: Default deadline (seconds) applied to every control call that
        #: does not pass an explicit ``timeout=``; ``None`` = wait forever.
        self.default_timeout: Optional[float] = None
        #: Supervision health: "ok", "invalid" (wedged inferior abandoned)
        #: or "unavailable" (backend crash-recovery exhausted).
        self.health: str = "ok"
        #: The deadline of the control call currently in flight (set by
        #: the public control methods, read by deadline-aware backends).
        self._control_deadline: Optional[Deadline] = None
        self._supervision_events: List[SupervisionEvent] = []
        self._supervision_listeners: List[
            Callable[[SupervisionEvent], None]
        ] = []
        #: The shared indexed decision core; owns the registries below.
        self.engine = ControlPointEngine(self)
        self.line_breakpoints: List[LineBreakpoint] = self.engine.line_breakpoints
        self.function_breakpoints: List[FunctionBreakpoint] = (
            self.engine.function_breakpoints
        )
        self.tracked_functions: List[TrackedFunction] = (
            self.engine.tracked_functions
        )
        self.watchpoints: List[Watchpoint] = self.engine.watchpoints
        #: Line about to be executed when paused (used by the bundled tools).
        self.next_lineno: Optional[int] = None
        #: Line that was last executed before the pause.
        self.last_lineno: Optional[int] = None
        #: Timeline recorder installed by :meth:`enable_recording`.
        self._recorder: Optional[TimelineRecorder] = None
        #: Record-time inverted index (:class:`repro.core.tracestore
        #: .TraceIndex`), maintained from the codec's own diff patches.
        self._trace_index: Optional[Any] = None
        #: Disk-backed store (:class:`repro.core.tracestore.TraceStore`)
        #: when recording to a ``.tracedir/``; sealed on :meth:`terminate`.
        self._trace_store: Optional[Any] = None
        #: Global timeline index while rewound into history; ``None`` when
        #: the tracker is live at the newest state (the normal case).
        self._replay_cursor: Optional[int] = None

    # ------------------------------------------------------------------
    # Program lifecycle
    # ------------------------------------------------------------------

    def load_program(self, path: str, args: Optional[List[str]] = None) -> None:
        """Load the inferior program from ``path`` without running it.

        Args:
            path: source file of the inferior (``.py``, ``.c``, ``.s`` ...).
            args: command-line arguments passed to the inferior.
        """
        self._program = path
        self._program_args = list(args or [])
        self._load_program(path, self._program_args)

    def start(self, *, timeout: Optional[float] = None,
              record: Optional[bool] = None) -> None:
        """Begin executing the inferior and pause before its first line.

        Like every control call, returns once the inferior is paused (at its
        first executable line) or has terminated (empty program). See the
        module docstring for the canonical signature shared by all control
        calls: ``timeout`` is the supervision deadline (on expiry the
        supervisor interrupts the inferior so the call still returns
        paused; :class:`ControlTimeout` is raised only if the interrupt
        fails), ``record`` overrides timeline recording for this pause.
        """
        if self._program is None:
            raise NotStartedError("load_program must be called before start")
        if self._started:
            raise NotStartedError("the inferior has already been started")
        self._started = True
        with self._supervised(timeout):
            self._start()
        self._after_control(record)

    def resume(self, *, timeout: Optional[float] = None,
               record: Optional[bool] = None) -> None:
        """Resume until the next control point or termination."""
        self._control("resume", self._resume, timeout, record)

    def next(self, *, timeout: Optional[float] = None,
             record: Optional[bool] = None) -> None:
        """Execute the current line, stepping *over* function calls."""
        self._control("next", self._next, timeout, record)

    def step(self, *, timeout: Optional[float] = None,
             record: Optional[bool] = None) -> None:
        """Execute the current line, stepping *into* function calls."""
        self._control("step", self._step, timeout, record)

    def finish(self, *, timeout: Optional[float] = None,
               record: Optional[bool] = None) -> None:
        """Run until the current function returns (pause at the return)."""
        self._control("finish", self._finish, timeout, record)

    def _control(
        self,
        name: str,
        hook: Callable[[], None],
        timeout: Optional[float],
        record: Optional[bool],
    ) -> None:
        """One forward control call: rewind routing, hook, record."""
        if self._replay_cursor is not None:
            # Rewound into history: the call moves through *recorded*
            # pauses until it reaches the newest snapshot, then goes live.
            self._seek_timeline(
                scan_forward(self._require_timeline(), self._timeline_position(), name)
            )
            return
        self._require_running()
        with self._supervised(timeout):
            hook()
        self._after_control(record)

    def _after_control(self, record: Optional[bool]) -> None:
        """Snapshot the pause a control call just returned from."""
        recorder = self._recorder
        if recorder is None:
            return
        if record is None:
            record = recorder.enabled
        if record:
            recorder.record()

    @contextlib.contextmanager
    def _supervised(self, timeout: Optional[float]):
        """Install the control-call deadline for the duration of a hook.

        Deadline-aware backends read :attr:`_control_deadline` inside
        their blocking waits; backends that never block (trace replay)
        simply ignore it, which is correct — they cannot hang.
        """
        effective = timeout if timeout is not None else self.default_timeout
        self._control_deadline = (
            Deadline(effective) if effective is not None else None
        )
        try:
            yield
        finally:
            self._control_deadline = None

    def terminate(self) -> None:
        """Kill the inferior and release all tracker resources.

        Safe to call at any point, including after normal termination.
        A ``tracedir=`` recording is sealed here (manifest + index written),
        so the directory is openable with ``TimelineView.open`` afterwards.
        """
        if not self._terminated:
            if self._trace_store is not None:
                self._trace_store.close()
            self._terminate()
            self._terminated = True

    def get_exit_code(self) -> Optional[int]:
        """Exit code of the inferior, or ``None`` while it is still alive.

        The typical tool control loop is
        ``while tracker.get_exit_code() is None: ...``.
        """
        return self._exit_code

    # ------------------------------------------------------------------
    # Control points
    # ------------------------------------------------------------------

    def break_before_line(
        self,
        line: int,
        filename: Optional[str] = None,
        maxdepth: Optional[int] = None,
        thread: Optional[int] = None,
    ) -> LineBreakpoint:
        """Pause the inferior just before executing ``line``.

        Args:
            line: 1-based source line number.
            filename: restrict to a file; defaults to the main program file.
            maxdepth: only pause if the current frame depth is at most this
                value (frame depth 0 is the program entry frame).
            thread: only pause when the line executes on this inferior
                thread index (0 = main); ``None`` matches any thread.
        """
        breakpoint_ = LineBreakpoint(
            line=line, filename=filename, maxdepth=maxdepth, thread=thread
        )
        self.line_breakpoints.append(breakpoint_)
        self._control_points_changed()
        return breakpoint_

    def break_before_func(
        self,
        function: str,
        maxdepth: Optional[int] = None,
        thread: Optional[int] = None,
    ) -> FunctionBreakpoint:
        """Pause just before entering ``function`` (arguments initialized)."""
        breakpoint_ = FunctionBreakpoint(
            function=function, maxdepth=maxdepth, thread=thread
        )
        self.function_breakpoints.append(breakpoint_)
        self._control_points_changed()
        return breakpoint_

    def track_function(
        self,
        function: str,
        maxdepth: Optional[int] = None,
        thread: Optional[int] = None,
    ) -> TrackedFunction:
        """Pause at the beginning and end of every execution of ``function``.

        The entry pause happens just *after* entering (locals exist), the
        exit pause just *before* returning (the return value is available in
        :attr:`pause_reason`).
        """
        tracked = TrackedFunction(
            function=function, maxdepth=maxdepth, thread=thread
        )
        self.tracked_functions.append(tracked)
        self._control_points_changed()
        return tracked

    def watch(
        self,
        variable_id: str,
        maxdepth: Optional[int] = None,
        thread: Optional[int] = None,
    ) -> Watchpoint:
        """Pause every time the variable ``variable_id`` is modified.

        ``variable_id`` is either a plain name (global or any frame) or
        ``"function:name"`` to scope the watch to one function's local.
        The baseline a modification is detected against is the value at
        the start pause, or, for a watch installed while the inferior is
        paused, the current value.
        """
        watchpoint = Watchpoint(
            variable_id=variable_id, maxdepth=maxdepth, thread=thread
        )
        self.watchpoints.append(watchpoint)
        self._control_points_changed()
        self.engine.watch_installed(watchpoint, self._pause_subject())
        return watchpoint

    def clear_control_points(self) -> None:
        """Remove every breakpoint, tracked function and watchpoint."""
        self.engine.clear()
        self._control_points_changed()

    # ------------------------------------------------------------------
    # Timeline recording & reverse control (time travel)
    # ------------------------------------------------------------------

    def enable_recording(
        self,
        keyframe_interval: int = 16,
        max_snapshots: Optional[int] = None,
        tracedir: Optional[str] = None,
        index: bool = True,
    ) -> TimelineRecorder:
        """Record a :class:`StateSnapshot` at every pause from now on.

        Args:
            keyframe_interval: store a full keyframe every this many
                snapshots; in between, structural deltas.
            max_snapshots: ring-buffer bound on *in-memory* snapshots
                (``None`` = unbounded). With ``tracedir`` set, eviction
                spills segments to disk instead of dropping them, so
                every snapshot stays reachable.
            tracedir: record into a disk-backed ``.tracedir/`` at this
                path (created if needed). Sealed on :meth:`terminate`;
                reopen later with ``TimelineView.open(tracedir)``.
            index: maintain the inverted trace index incrementally at
                record time (variable changes, call/return ranges, pause
                reasons), fed by the same diff patches the delta codec
                computes. Turn off to shave recording overhead when the
                recording will never be queried.

        Returns the recorder; its :attr:`TimelineRecorder.timeline` is also
        reachable as :attr:`timeline`. If the inferior is already paused,
        the current state becomes the first snapshot immediately.
        """
        self._recorder = TimelineRecorder(
            self, keyframe_interval=keyframe_interval,
            max_snapshots=max_snapshots,
        )
        timeline = self._recorder.timeline
        self._trace_index = None
        self._trace_store = None
        if index:
            from repro.core.tracestore import TraceIndex

            self._trace_index = TraceIndex()
            timeline.add_append_listener(self._trace_index.observe)
            timeline.add_drop_listener(self._trace_index.forget)
        if tracedir is not None:
            from repro.core.tracestore import TraceStore

            self._trace_store = TraceStore(
                tracedir, timeline, index=self._trace_index
            )
        if self._started:
            self._recorder.record()
        return self._recorder

    def timeline_view(self) -> "Any":
        """The unified query/navigation view over this tracker's recording.

        Returns a :class:`repro.core.tracestore.TimelineView` bound to
        this tracker: its queries (``history``, ``calls``, ``where``,
        ``changes_between``) read the recording — using the record-time
        index when one is maintained — and its navigation calls
        (``goto``, ``backward_*``) move this tracker's time-travel
        cursor. This is the one object that owns a recording.

        Raises:
            TrackerError: recording was never enabled.
        """
        from repro.core.tracestore import TimelineView

        return TimelineView(
            self._require_timeline(), index=self._trace_index, tracker=self
        )

    def timeline_query(self, text: str) -> Dict[str, Any]:
        """Run one trace-query expression against the recording.

        Convenience over ``timeline_view().query(text)`` returning the
        structured dict form; remote backends override this to evaluate
        the query server-side (``-timeline-query``) so the recording
        never crosses the pipe.
        """
        return self.timeline_view().query(text).to_dict()

    def disable_recording(self) -> None:
        """Stop recording; the timeline so far stays navigable."""
        if self._recorder is not None:
            self._recorder.enabled = False

    @property
    def timeline(self) -> Optional[Timeline]:
        """The recorded timeline, or ``None`` if recording was never on."""
        return self._recorder.timeline if self._recorder is not None else None

    def _goto(self, index: int) -> StateSnapshot:
        """Navigation core behind :meth:`TimelineView.goto`.

        Negative indexes count from the newest snapshot (``goto(-1)`` is
        the newest, i.e. back to live). Returns the snapshot landed on.
        The reachable window floor is :attr:`Timeline.first_index`, so a
        spilled (``tracedir``) recording can jump to evicted snapshots —
        they load back lazily from disk.
        """
        timeline = self._require_timeline()
        if index < 0:
            index += len(timeline)
        if not timeline.first_index <= index < len(timeline):
            raise TrackerError(
                f"goto({index}): outside the retained window "
                f"[{timeline.first_index}, {len(timeline)})"
            )
        self._seek_timeline(index)
        return timeline.snapshot(index)

    def _backward(self, mode: str) -> None:
        """Navigation core behind the ``TimelineView.backward_*`` calls.

        Reverse control calls are backend-agnostic: they never touch the
        (forward-only) inferior but replay the recorded timeline. While
        rewound, inspection serves the recorded snapshot and forward
        control calls move through recorded pauses until they reach the
        newest snapshot — where the live inferior still sits — and
        control goes live again.

        Raises:
            NotPausedError: already at the oldest retained snapshot.
            TrackerError: recording was never enabled.
        """
        timeline = self._require_timeline()
        current = self._timeline_position()
        if current <= timeline.first_index:
            raise NotPausedError("already at the oldest recorded snapshot")
        self._seek_timeline(scan_backward(timeline, current, mode))

    def _require_timeline(self) -> Timeline:
        timeline = self.timeline
        if timeline is None or timeline.retained == 0:
            raise TrackerError(
                "no timeline recorded; call enable_recording() before "
                "running the inferior"
            )
        return timeline

    def _timeline_position(self) -> int:
        """Global index of the snapshot describing the current state."""
        if self._replay_cursor is not None:
            return self._replay_cursor
        return len(self._require_timeline()) - 1

    def _seek_timeline(self, index: int) -> None:
        """Move the time-travel cursor; at the newest snapshot, go live."""
        timeline = self._require_timeline()
        snapshot = timeline.snapshot(index)
        self._replay_cursor = None if index >= len(timeline) - 1 else index
        self._apply_snapshot_pause(snapshot)

    def _apply_snapshot_pause(self, snapshot: StateSnapshot) -> None:
        """Make the lifecycle state reflect a (re)played snapshot."""
        self._exit_code = snapshot.exit_code
        self._pause_reason = snapshot.reason or PauseReason(
            type=PauseReasonType.STEP, line=snapshot.line
        )
        self.last_lineno = self.next_lineno
        self.next_lineno = snapshot.line

    def _replay_snapshot(self) -> Optional[StateSnapshot]:
        """The snapshot inspection should serve, or ``None`` when live."""
        if self._replay_cursor is None:
            return None
        return self._require_timeline().snapshot(self._replay_cursor)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def pause_reason(self) -> Optional[PauseReason]:
        """Why the last control call paused, or ``None`` before ``start``."""
        return self._pause_reason

    def get_stats(self):
        """Observability counters for this tracker (a ``TrackerStats``).

        Available at any point in the lifecycle; counters accumulate from
        ``start`` until termination. Remote backends may override this to
        merge in server-side counters.
        """
        return self.engine.stats

    # ------------------------------------------------------------------
    # Supervision events
    # ------------------------------------------------------------------

    def drain_supervision_events(self) -> List[SupervisionEvent]:
        """Supervision events since the last drain (restarts, wedges...)."""
        events = self._supervision_events
        self._supervision_events = []
        return events

    def add_supervision_listener(
        self, listener: Callable[[SupervisionEvent], None]
    ) -> None:
        """Also deliver every supervision event to ``listener``."""
        self._supervision_listeners.append(listener)

    def _emit_supervision_event(self, event: SupervisionEvent) -> None:
        self._supervision_events.append(event)
        for listener in self._supervision_listeners:
            listener(event)

    def snapshot(self) -> StateSnapshot:
        """The unified inspection call: everything about the paused state.

        One :class:`StateSnapshot` bundles what previously took the
        ``get_frames`` / ``get_global_variables`` / ``get_position`` /
        ``get_source_lines`` quartet (which remain as thin views over the
        same data). The snapshot is immutable and serializable — the same
        type the timeline recorder stores — so it can be kept, diffed and
        shipped across processes. While rewound into history, this returns
        the recorded snapshot at the cursor.
        """
        replayed = self._replay_snapshot()
        if replayed is not None:
            return replayed
        if not self._started:
            raise NotStartedError("call start() first")
        return StateSnapshot.capture(self)

    def get_current_frame(self) -> Frame:
        """The innermost frame of the paused inferior (parents linked)."""
        replayed = self._replay_snapshot()
        if replayed is not None:
            if replayed.frame is None:
                raise NotPausedError("this snapshot recorded no frames")
            return replayed.frame
        self._require_paused()
        return self._get_current_frame()

    def get_frames(self) -> List[Frame]:
        """All frames, innermost first (a convenience over the parent chain)."""
        return self.get_current_frame().stack()

    def get_global_variables(self) -> Dict[str, Variable]:
        """The inferior's global variables."""
        replayed = self._replay_snapshot()
        if replayed is not None:
            return dict(replayed.globals)
        self._require_paused()
        return self._get_global_variables()

    def get_variable(
        self, name: str, function: Optional[str] = None
    ) -> Optional[Variable]:
        """Look up one variable by name.

        Args:
            name: variable name.
            function: if given, search the innermost frame executing that
                function; otherwise search the current frame then globals.

        Returns:
            The variable, or ``None`` if no such name is visible.
        """
        if self._replay_cursor is None:
            self._require_paused()
        if function is not None:
            for frame in self.get_frames():
                if frame.name == function:
                    return frame.lookup(name)
            return None
        found = self.get_current_frame().lookup(name)
        if found is not None:
            return found
        return self.get_global_variables().get(name)

    def get_position(self) -> Tuple[str, Optional[int]]:
        """``(filename, next line to execute)`` of the paused inferior."""
        replayed = self._replay_snapshot()
        if replayed is not None:
            return replayed.position()
        self._require_paused()
        return self._get_position()

    # ------------------------------------------------------------------
    # Thread & asyncio inspection
    # ------------------------------------------------------------------

    def get_threads(self) -> List[Any]:
        """All inferior threads as :class:`repro.core.threads.ThreadInfo`.

        Single-threaded backends report exactly one entry — thread 0,
        the main inferior thread — so tools can iterate unconditionally.
        Multi-thread backends override this with the live registry.
        """
        from repro.core.threads import THREAD_FINISHED, THREAD_PAUSED, ThreadInfo

        state = THREAD_PAUSED if self._exit_code is None else THREAD_FINISHED
        function = line = filename = None
        if self._started and self._exit_code is None:
            try:
                frame = self.get_current_frame()
            except TrackerError:
                frame = None
            if frame is not None:
                function, line = frame.name, frame.line
                filename = frame.filename
        return [
            ThreadInfo(
                id=0,
                name="main",
                state=state,
                function=function,
                line=line,
                filename=filename,
            )
        ]

    def get_thread_frames(self, thread: int) -> List[Frame]:
        """Frames of one inferior thread, innermost first.

        ``thread`` is the stable index reported by :meth:`get_threads`.
        The base implementation serves only thread 0 (the main thread's
        frames are the ordinary ``get_frames`` result).
        """
        if thread != 0:
            raise TrackerError(
                f"no inferior thread {thread} (this backend tracks only "
                "the main thread)"
            )
        return self.get_frames()

    def get_tasks(self) -> List[Any]:
        """The inferior's asyncio tasks with await chains.

        Returns a list of :class:`repro.core.threads.TaskInfo`; empty when
        the inferior runs no event loop or the backend cannot see one
        (in-process Python backends override this with live enumeration).
        """
        return []

    def get_source_lines(self) -> List[str]:
        """The source text of the main program file, one string per line."""
        if self._program is None:
            raise NotStartedError("no program loaded")
        with open(self._program, "r", encoding="utf-8") as source:
            return source.read().splitlines()

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------

    def _load_program(self, path: str, args: List[str]) -> None:
        raise NotImplementedError

    def _start(self) -> None:
        raise NotImplementedError

    def _resume(self) -> None:
        raise NotImplementedError

    def _next(self) -> None:
        raise NotImplementedError

    def _step(self) -> None:
        raise NotImplementedError

    def _finish(self) -> None:
        raise NotImplementedError

    def _terminate(self) -> None:
        raise NotImplementedError

    def _get_current_frame(self) -> Frame:
        raise NotImplementedError

    def _get_global_variables(self) -> Dict[str, Variable]:
        raise NotImplementedError

    def _get_position(self) -> Tuple[str, Optional[int]]:
        raise NotImplementedError

    def _control_points_changed(self) -> None:
        """Notify the backend that control points were added or removed.

        The base implementation invalidates the engine's compiled indexes;
        overrides must call ``super()._control_points_changed()``.
        """
        self.engine.mark_dirty()

    # The engine's probe: what ControlPointEngine.decide asks about the
    # event (``subject``) it is deciding, and only when a check needs it.

    def _event_depth(self, subject: Any) -> int:
        """Frame depth of the event (0 = the program's entry frame)."""
        return 0

    def _event_thread(self, subject: Any) -> int:
        """Inferior thread index of the event (0 = the main thread)."""
        return 0

    def _watched_value(
        self, subject: Any, function: Optional[str], name: str
    ) -> Optional[str]:
        """Rendered value of a watched variable at the event (``None``:
        not visible there)."""
        return None

    def _event_pc(self, subject: Any) -> Optional[int]:
        """Program counter at the event, for address breakpoints."""
        return None

    def _pause_subject(self) -> Any:
        """The event the inferior is paused at, or ``None`` (not paused,
        or a tracker whose pauses are decided elsewhere)."""
        return None

    # ------------------------------------------------------------------
    # State checks
    # ------------------------------------------------------------------

    def _require_running(self) -> None:
        if not self._started:
            raise NotStartedError("call start() first")
        if self.health != "ok":
            raise BackendUnavailableError(
                f"the tracker is {self.health}; no further control is "
                "possible (terminate() and create a fresh tracker)"
            )
        if self._exit_code is not None or self._terminated:
            raise AlreadyTerminatedError("the inferior has terminated")

    def _require_paused(self) -> None:
        if not self._started:
            raise NotStartedError("call start() first")
        if self._exit_code is not None and not self._allows_post_exit_inspection():
            raise NotPausedError("the inferior has terminated")

    def _allows_post_exit_inspection(self) -> bool:
        """Whether inspection after exit is supported (trace replay is)."""
        return False

    # Depth filtering shared by all backends ----------------------------

    @staticmethod
    def _depth_allows(maxdepth: Optional[int], depth: int) -> bool:
        """The paper's maxdepth semantics: pause only at depth <= maxdepth."""
        return maxdepth is None or depth <= maxdepth
