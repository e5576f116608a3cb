"""The Python tracker: ``sys.settrace``-based control of Python inferiors.

Implementation notes (Section II-C2 of the paper):

- The inferior runs **in a dedicated thread of the tool's interpreter** so
  that control calls can block the tool thread until the inferior pauses
  (Fig. 5 of the paper). The handshake is a condition variable plus a pause
  generation counter.
- The tracker registers a trace function with ``sys.settrace`` in the
  inferior thread. The interpreter calls it before every source line and at
  function call/return boundaries; all pause decisions are delegated to the
  shared :class:`repro.core.engine.ControlPointEngine`, whose compiled
  indexes make the common no-hit case one ``frozenset`` lookup instead of a
  scan over every installed breakpoint.
- Watchpoints are implemented by checking, before the execution of every
  line, whether the value of any watched variable has changed. This is why
  ``resume`` still single-steps internally — the paper notes that this slows
  execution down a lot but is acceptable in the pedagogical context
  (quantified in ``benchmarks/test_overhead.py``). When no control point
  can possibly fire in a frame, the engine lets the trace function return
  ``None`` on the frame's call event, disabling per-line tracing for the
  whole frame.
- **The line gate.** ``_trace`` is the global hook and the full decision
  path. Inferior frames get a small local *line hook* instead: on a line
  event whose number is not in ``_gate`` it only notes the line and
  returns. ``_gate`` is the engine's compiled set of breakpoint lines
  while a plain ``resume`` runs with no watchpoint, address breakpoint or
  pending interrupt, and an always-true set otherwise, so a free-running
  line costs one set lookup. The tracker rewrites the gate wherever those
  conditions change (a control call, an interrupt, ``terminate``, a
  thread taking the pause handshake, the inferior's exit); the hook reads
  it on every line, so no hook has to be swapped under a running frame.
- **Threads.** ``threading.settrace`` installs the same trace function in
  every thread the inferior spawns; a thread is registered (stable index,
  0 = the thread executing module code) on its first traced call event in
  an inferior frame. Pause semantics are *all-stop*: one thread delivers a
  pause and owns the handshake, the others park at their next trace event
  until the tool resumes; threads that hit control points while parked
  deliver their pauses one control call at a time (GDB-style pending
  stops). Interrupts are flag-based and thread-agnostic, so a ``timeout=``
  deadline is serviced by whichever thread next executes a traced event.
  When *no* thread can — every one of them is blocked on a lock — the
  :class:`repro.core.supervision.StallDetector` classifies the hang and
  the control call returns a ``DEADLOCK_SUSPECTED`` pause carrying the
  lock-wait graph instead of timing out.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import warnings
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import (
    ControlTimeout,
    InferiorCrashError,
    ProgramLoadError,
)
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.ringbuffer import DEFAULT_OUTPUT_LIMIT, RingTextBuffer
from repro.core.state import Frame, Variable
from repro.core.supervision import (
    INFERIOR_DEADLOCK_SUSPECTED,
    INFERIOR_INTERRUPTED,
    INFERIOR_WEDGED,
    StallDetector,
    SupervisionEvent,
    format_thread_stack,
)
from repro.core.threads import (
    THREAD_BLOCKED,
    THREAD_FINISHED,
    THREAD_PARKED,
    THREAD_PAUSED,
    THREAD_RUNNING,
    TaskInfo,
    ThreadInfo,
)
from repro.core.tracker import Tracker
from repro.pytracker.introspect import (
    CaptureLimits,
    Snapshotter,
    build_frame_chain,
    build_globals,
)

_MISSING = object()


class _AllLines:
    """The closed line gate: every line goes to the full trace hook."""

    __slots__ = ()

    def __contains__(self, line: object) -> bool:
        return True


_ALL_LINES = _AllLines()


def _compile_program(path: str, source: str):
    """Compile an inferior as its own module: ``dont_inherit`` keeps this
    file's ``__future__`` flags out of the program."""
    return compile(source, path, "exec", dont_inherit=True)


#: Code objects are immutable, so settrace trackers running one file share
#: its compiled code; the key includes the source, so an edit recompiles.
_compile_program_cached = functools.lru_cache(maxsize=16)(_compile_program)


class _SharedHook:
    """One process-wide hook slot that overlapping trackers share.

    ``threading.settrace`` and ``threading.excepthook`` are global, but
    trackers start and stop in any order (``TrackerGroup``, the service's
    in-process sessions). The slot holds the newest live holder's hook; a
    holder that leaves puts back the next older one, or the hook that was
    there before the first holder, and only if the slot still holds its
    own hook.
    """

    def __init__(self, read: Callable[[], Any], write: Callable[[Any], None]):
        self._read = read
        self._write = write
        self._lock = threading.Lock()
        self._holders: List[Any] = []
        self._original: Any = None

    def push(self, hook: Any) -> None:
        with self._lock:
            if not self._holders:
                self._original = self._read()
            self._holders.append(hook)
            self._write(hook)

    def remove(self, hook: Any) -> None:
        # ``==``, not ``is``: a hook is a bound method, and each attribute
        # access builds a new one.
        with self._lock:
            if hook not in self._holders:
                return
            self._holders.remove(hook)
            if self._read() == hook:
                self._write(self._holders[-1] if self._holders else self._original)

    def below(self, hook: Any) -> Any:
        """The hook that handles what ``hook`` does not: the next older
        holder's, else the original."""
        with self._lock:
            for position, held in enumerate(self._holders):
                if held == hook:
                    return self._holders[position - 1] if position else self._original
            return self._original


_THREADING_TRACE = _SharedHook(threading.gettrace, threading.settrace)
_EXCEPTHOOK = _SharedHook(
    lambda: threading.excepthook,
    lambda hook: setattr(threading, "excepthook", hook),
)


def _split_watch_path(name: str):
    """Split ``"obj.attr[0].x"`` into ``("obj", [".attr", "[0]", ".x"])``.

    Watch identifiers may address *inside* an object: attribute steps with
    ``.name`` and element steps with ``[index]`` (int or quoted-string
    keys). A plain name has an empty path.
    """
    import re

    match = re.match(r"^[A-Za-z_][A-Za-z0-9_]*", name)
    if match is None:
        return name, []
    base = match.group(0)
    rest = name[len(base):]
    steps = re.findall(r"\.[A-Za-z_][A-Za-z0-9_]*|\[[^]]*\]", rest)
    return base, steps


def _follow_watch_path(holder, steps):
    """Walk attribute/element steps; any failure means 'not watchable now'."""
    value = holder
    for step in steps:
        if value is _MISSING:
            return _MISSING
        try:
            if step.startswith("."):
                value = getattr(value, step[1:])
            else:
                key_text = step[1:-1].strip()
                if (
                    len(key_text) >= 2
                    and key_text[0] in "'\""
                    and key_text[-1] == key_text[0]
                ):
                    key = key_text[1:-1]
                else:
                    key = int(key_text)
                value = value[key]
        except (AttributeError, LookupError, ValueError, TypeError):
            return _MISSING
    return value


class _KillInferior(BaseException):
    """Raised inside the inferior thread to unwind it on ``terminate``.

    Derives from ``BaseException`` so inferior ``except Exception`` handlers
    cannot swallow it.
    """


class _InferiorThreadRecord:
    """One registered inferior thread: stable index plus live handles."""

    __slots__ = ("index", "ident", "name", "thread", "exception")

    def __init__(
        self, index: int, ident: int, name: str, thread: threading.Thread
    ):
        self.index = index
        self.ident = ident
        self.name = name
        self.thread = thread
        #: The unhandled exception that killed this thread, if any.
        self.exception: Optional[BaseException] = None


class PythonTracker(Tracker):
    """Tracker for Python inferiors, built directly on ``sys.settrace``.

    Args:
        capture_output: when true, everything the inferior prints is
            collected (readable via :meth:`get_output`) instead of going to
            the tool's stdout. The swap is only in effect while the inferior
            thread is actually executing, so tool prints are unaffected.
        snapshot_depth: optional cap on the depth of object-graph snapshots
            taken during inspection (``None`` = unlimited, cycle-safe).
        terminate_grace: seconds :meth:`terminate` waits for the inferior
            thread to unwind before abandoning it (tracker goes
            ``"invalid"``, the wedge is warned about and counted).
        capture_limits: hard bounds on how much of the inferior's object
            graph a single pause captures
            (:class:`repro.pytracker.introspect.CaptureLimits`; defaults
            to the module defaults). Everything a bound cuts is marked
            ``Value.truncated``.
        output_limit: maximum characters of inferior output retained by
            :meth:`get_output` (``None`` = unbounded). Evicted characters
            are counted in ``TrackerStats.output_chars_dropped``.
    """

    backend = "python"

    #: Turns ``(absolute path, source)`` into the program's code object.
    _compile = staticmethod(_compile_program_cached)

    def __init__(
        self,
        capture_output: bool = False,
        snapshot_depth: Optional[int] = None,
        terminate_grace: float = 5.0,
        capture_limits: Optional[CaptureLimits] = None,
        output_limit: Optional[int] = DEFAULT_OUTPUT_LIMIT,
    ):
        super().__init__()
        self._capture_output = capture_output
        self._snapshot_depth = snapshot_depth
        self._capture_limits = capture_limits
        self._terminate_grace = terminate_grace
        self._output = RingTextBuffer(output_limit)
        self._guard_active = False
        self._source_code = None
        self._code = None
        self._globals: Dict[str, Any] = {}
        self._thread: Optional[threading.Thread] = None
        self._condition = threading.Condition()
        self._pause_count = 0
        self._finished = False
        self._command: Optional[str] = None
        self._killed = False
        self._paused_py_frame = None
        self._paused_event: Optional[str] = None
        #: The snapshotter of the current pause, made when it is decided:
        #: the RETURN value, frames and globals share its Values.
        self._capture_values: Optional[Snapshotter] = None
        self._inferior_exception: Optional[BaseException] = None
        self._saved_stdout = None
        # -- thread dimension ------------------------------------------
        #: OS ident -> stable inferior thread index (0 = main).
        self._thread_ids: Dict[int, int] = {}
        #: index -> registration record.
        self._thread_records: Dict[int, _InferiorThreadRecord] = {}
        self._next_thread_index = 0
        #: All-stop state: True while one thread owns the pause handshake;
        #: the others park at their next trace event until it clears.
        self._pause_active = False
        #: Idents currently parked by the all-stop barrier (inspection).
        self._parked_idents: set = set()
        #: Index of the thread that delivered the current pause.
        self._paused_thread_index = 0
        #: OS ident of the thread owning the live pause handshake.
        self._paused_owner_ident: Optional[int] = None
        self._stall_detector = StallDetector()
        #: Thread indexes the last stall verdict found blocked on locks;
        #: cleared when a real (handshake) pause lands.
        self._stall_blocked: set = set()
        #: Lines the line hook hands to ``_trace`` (see the module notes).
        self._gate: Any = _ALL_LINES
        #: Line events the line hook took alone, and how many of them are
        #: already in ``engine.stats`` (see :meth:`_fold_line_count`).
        self._fast_lines = 0
        self._folded_lines = 0
        self._line_hook = self._make_line_hook()

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------

    def _load_program(self, path: str, args: List[str]) -> None:
        if not os.path.exists(path):
            raise ProgramLoadError(f"no such program: {path}")
        with open(path, "r", encoding="utf-8") as source:
            self._source_code = source.read()
        self._program_abspath = os.path.abspath(path)
        try:
            self._code = self._compile(self._program_abspath, self._source_code)
        except SyntaxError as error:
            raise ProgramLoadError(f"syntax error in {path}: {error}") from error

    def _start(self) -> None:
        self.engine.arm("step")  # pause before the first executable line
        self._globals = {
            "__name__": "__main__",
            "__file__": self._program_abspath,
            "__builtins__": __builtins__,
        }
        self._stall_detector = StallDetector(
            is_inferior_file=lambda filename: (
                filename == self._program_abspath
            ),
            machinery_files=[__file__],
        )
        self._install_excepthook()
        self._thread = threading.Thread(
            target=self._run_inferior, name="repro-inferior", daemon=True
        )
        self._thread.start()
        self._wait_for_pause()

    def _terminate(self) -> None:
        try:
            if self._thread is None or not self._thread.is_alive():
                return
            with self._condition:
                self._killed = True
                self._gate = _ALL_LINES
                self._command = "kill"
                self._condition.notify_all()
                # A free-running inferior whose frames were untraced (the
                # engine's frame-skip fast path) would never see the kill via
                # line events; force per-line tracing back on so it does.
                self._retrace_live_frames()
            self._thread.join(timeout=self._terminate_grace)
            stuck = []
            if self._thread.is_alive():
                stuck.append(self._thread)
            for record in list(self._thread_records.values()):
                if record.index != 0 and record.thread.is_alive():
                    record.thread.join(timeout=0.1)
                    if record.thread.is_alive():
                        stuck.append(record.thread)
            for thread in stuck:
                # The inferior is stuck somewhere the tracer cannot reach
                # (typically blocking native code). Abandon the thread, but
                # loudly: mark the tracker invalid, count the wedge, and
                # report where the inferior is stuck.
                self.health = "invalid"
                self.engine.stats.wedged_inferiors += 1
                stack = format_thread_stack(thread)
                message = (
                    f"inferior thread {thread.name!r} did not exit within "
                    f"{self._terminate_grace:.1f}s; abandoning it and "
                    "marking the tracker invalid"
                )
                self._emit_supervision_event(
                    SupervisionEvent(INFERIOR_WEDGED, message, {"stack": stack})
                )
                warnings.warn(
                    f"{message}; the inferior is currently at:\n{stack}",
                    RuntimeWarning,
                    stacklevel=4,
                )
        finally:
            self._capture_values = None
            self._remove_excepthook()

    # ------------------------------------------------------------------
    # Worker-thread crash handling
    # ------------------------------------------------------------------

    def _install_excepthook(self) -> None:
        """Route unhandled exceptions of inferior worker threads here.

        ``threading.excepthook`` is process-global; the hook below this
        one keeps handling threads that are not this tracker's (including
        other live trackers' — each installed hook delegates unknown
        threads onward).
        """
        _EXCEPTHOOK.push(self._thread_excepthook)

    def _remove_excepthook(self) -> None:
        _EXCEPTHOOK.remove(self._thread_excepthook)

    def _thread_excepthook(self, hook_args) -> None:
        ident = hook_args.thread.ident if hook_args.thread is not None else None
        index = self._thread_ids.get(ident) if ident is not None else None
        if index is None:
            below = _EXCEPTHOOK.below(self._thread_excepthook)
            if below is not None:
                below(hook_args)
            return
        if hook_args.exc_type is _KillInferior:
            return  # terminate unwound the worker; silence is correct
        record = self._thread_records.get(index)
        if record is not None:
            record.exception = hook_args.exc_value
        self._emit_supervision_event(
            SupervisionEvent(
                "inferior-thread-crashed",
                f"inferior thread {index} raised "
                f"{hook_args.exc_type.__name__}: {hook_args.exc_value}",
                {"thread": index},
            )
        )

    def get_thread_exceptions(self) -> Dict[int, BaseException]:
        """Unhandled exceptions that killed worker threads, by thread index.

        The main inferior thread's crash is reported through
        :meth:`get_inferior_exception` / :meth:`raise_if_crashed` as
        before; worker crashes do not terminate the inferior (Python
        semantics), so they are collected here instead.
        """
        return {
            record.index: record.exception
            for record in self._thread_records.values()
            if record.exception is not None
        }

    # ------------------------------------------------------------------
    # Control hooks: set the step mode, wake the inferior, wait for a pause
    # ------------------------------------------------------------------

    def _resume(self) -> None:
        self._issue("resume")

    def _next(self) -> None:
        self._issue("next", self._current_depth())

    def _step(self) -> None:
        self._issue("step")

    def _finish(self) -> None:
        self._issue("finish", self._current_depth())

    def _issue(self, mode: str, depth: int = 0) -> None:
        with self._condition:
            if self._finished:
                return
            # Arm the engine's step machine while the inferior is parked in
            # the pause handshake, so the write is race-free. Step modes
            # are scoped to the thread that owns the current pause, so a
            # sibling thread's next line cannot complete this thread's
            # step; resume is thread-agnostic.
            thread = self._paused_thread_index if mode != "resume" else None
            self.engine.arm(mode, depth, thread=thread)
            self.engine.refresh()
            self._open_gate()
            before = self._pause_count
            stalled = self._paused_event == "stall"
            self._command = "go"
            self._condition.notify_all()
            if stalled and self._classify_stall(before):
                # The previous pause was a synthesized deadlock verdict and
                # the inferior is still wedged: re-report immediately
                # instead of burning another control deadline (crash-only —
                # control calls return paused, they never hang).
                return
            self._await_pause(before)

    def _wait_for_pause(self) -> None:
        with self._condition:
            self._await_pause(0)

    def _await_pause(self, before: int) -> None:
        """Wait (holding the condition) until a pause or termination.

        Honors the active control-call deadline: on expiry the inferior is
        interrupted (it then pauses with ``PauseReasonType.INTERRUPT``);
        if even the interrupt cannot land within the grace period —
        the inferior is blocked in native code the tracer never
        re-enters — the call gives up with :class:`ControlTimeout`.
        """
        deadline = self._control_deadline
        while self._pause_count == before and not self._finished:
            if deadline is None:
                # No supervision deadline of our own — but a remote
                # supervisor (the subprocess server's client) can still
                # request an interrupt asynchronously, which never notifies
                # this condition. Poll for the flag, and when it goes
                # unanswered because every inferior thread is blocked on
                # locks, classify the stall exactly like a local deadline
                # expiry would.
                self._condition.wait(timeout=0.25)
                if (
                    self.engine.interrupt_requested
                    and self._pause_count == before
                    and not self._finished
                    and self._classify_stall(before)
                ):
                    return
                continue
            if not deadline.interrupt_requested:
                remaining = deadline.remaining()
                if remaining > 0:
                    self._condition.wait(timeout=remaining)
                    continue
                deadline.interrupt_requested = True
                self._request_interrupt()
                # An interrupt lands at the next trace event — but a
                # deadlocked inferior never executes one. Classify the
                # stall now so a lock-cycle returns DEADLOCK_SUSPECTED
                # within ~1x the deadline instead of burning the grace.
                if self._classify_stall(before):
                    return
            remaining = deadline.grace_remaining()
            if remaining <= 0:
                if self._classify_stall(before):
                    return
                self.engine.stats.control_timeouts += 1
                raise ControlTimeout(
                    f"the inferior did not pause within {deadline.timeout}s "
                    "and could not be interrupted within the grace period "
                    "(it is probably blocked in native code); call "
                    "terminate() to release it"
                )
            self._condition.wait(timeout=remaining)
        if (
            deadline is not None
            and deadline.interrupt_requested
            and not self._finished
        ):
            self._emit_supervision_event(
                SupervisionEvent(
                    INFERIOR_INTERRUPTED,
                    f"control call exceeded its {deadline.timeout}s "
                    "deadline; the inferior was interrupted and is paused",
                    {"line": self.next_lineno},
                )
            )

    def _request_interrupt(self) -> None:
        """Ask the inferior to pause at its next trace event (async-safe).

        The flag is thread-agnostic: whichever inferior thread next
        executes a traced event delivers the interrupt pause, so deadlines
        work even when the hot thread is a worker.
        """
        # The flag goes up before the gate closes: _open_gate re-reads it
        # after its own write, so a request racing a control call from
        # another thread (or a signal handler) is never overwritten.
        self.engine.interrupt_requested = True
        self._gate = _ALL_LINES
        self._retrace_live_frames()

    def _open_gate(self) -> None:
        """Set the line gate for the run mode the engine was just armed in.

        Open (the compiled breakpoint lines) only for a plain ``resume``
        with no watchpoint, no address breakpoint and no pending
        interrupt, on a live inferior; every other line event needs the
        full decision.
        """
        engine = self.engine
        if engine.mode == "resume" and not (
            engine.has_watchpoints
            or engine.has_address_breakpoints
            or self._killed
            or self._finished
        ):
            self._gate = engine.breakpoint_lines
            if not engine.interrupt_requested:
                return
        self._gate = _ALL_LINES

    def _fold_line_count(self) -> None:
        """Add the line hook's events to ``events_seen["line"]``.

        Runs at every pause and at exit, the only times the stats are
        read. The hook's counter only grows, so a sibling thread still
        counting while this runs loses nothing.
        """
        counted = self._fast_lines
        fresh = counted - self._folded_lines
        if fresh:
            self._folded_lines = counted
            seen = self.engine.stats.events_seen
            seen["line"] = seen.get("line", 0) + fresh

    def _retrace_live_frames(self) -> None:
        """Re-enable per-line tracing on every live inferior frame.

        Frames the engine's fast path left untraced (local trace function
        dropped) would otherwise never deliver the interrupt or kill flag;
        installing ``f_trace`` from the tool thread re-arms them. All
        registered inferior threads are covered (``sys._current_frames``),
        so an async pause lands even when a worker thread is the only one
        still running.
        """
        idents = set(self._thread_ids)
        thread = self._thread
        if thread is not None and thread.ident is not None:
            idents.add(thread.ident)
        if not idents:
            return
        live = sys._current_frames()
        for ident in idents:
            frame = live.get(ident)
            while frame is not None:
                if self._is_inferior_frame(frame):
                    frame.f_trace = self._trace
                    frame.f_trace_lines = True
                frame = frame.f_back

    # ------------------------------------------------------------------
    # Stall classification (deadline expired, interrupt cannot land)
    # ------------------------------------------------------------------

    def _sampling_targets(self):
        """``(index, name, ident)`` triples for the stall detector."""
        targets = []
        for record in self._thread_records.values():
            if record.thread.is_alive():
                targets.append((record.index, record.name, record.ident))
        return targets

    def _classify_stall(self, before: int) -> bool:
        """Sample all inferior threads; deliver a DEADLOCK_SUSPECTED pause
        if every one of them is blocked on synchronization primitives.

        Runs in the tool thread, holding ``self._condition``; the
        detector's confirmation delay is served by ``condition.wait`` so a
        late-landing interrupt can still deliver its pause — in which case
        the verdict is abandoned (``pause_count`` moved on).
        """
        targets = self._sampling_targets()
        if not targets:
            return False
        verdict = self._stall_detector.confirmed_deadlock(
            targets,
            sleep=lambda seconds: self._condition.wait(timeout=seconds),
        )
        if verdict is None:
            return False
        if self._pause_count != before or self._finished:
            return False  # a real pause won the race during sampling
        self._synthesize_deadlock_pause(verdict)
        return True

    def _synthesize_deadlock_pause(self, verdict) -> None:
        """Deliver a tool-side pause for a deadlocked inferior.

        The blocked threads cannot run the handshake (they are stuck in
        C-level lock waits), so the pause is synthesized from the sampled
        frames: inspection serves the chosen thread's stack, and the
        lock-wait graph rides in ``pause_reason.details``. The inferior
        stays deadlocked — every further control call re-reports it —
        which is the crash-only contract: paused or terminated, never
        hung.
        """
        chosen = verdict.cycle[0] if verdict.cycle else verdict.samples[0].thread
        sample = next(
            (s for s in verdict.samples if s.thread == chosen),
            verdict.samples[0],
        )
        record = self._thread_records.get(sample.thread)
        frame = None
        if record is not None:
            frame = sys._current_frames().get(record.ident)
        while frame is not None and not self._is_inferior_frame(frame):
            frame = frame.f_back
        details = verdict.to_details()
        reason = PauseReason(
            type=PauseReasonType.DEADLOCK_SUSPECTED,
            line=sample.line,
            thread=sample.thread,
            thread_name=sample.name,
            details=details,
        )
        self._fold_line_count()
        self.engine.note_event("stall")
        self.engine.record_pause(PauseReasonType.DEADLOCK_SUSPECTED)
        self.last_lineno = self.next_lineno
        self.next_lineno = sample.line
        self._pause_reason = reason
        self._capture_values = self._snapshotter()
        if frame is not None:
            self._paused_py_frame = frame
        self._paused_event = "stall"
        self._paused_thread_index = sample.thread
        self._stall_blocked = {s.thread for s in verdict.samples}
        # The inferior cannot run the handshake, so the tool performs the
        # pause's side of the stdout swap itself (idempotent; the blocked
        # threads are not printing).
        self._swap_stdout_out()
        self._pause_count += 1
        self._emit_supervision_event(
            SupervisionEvent(
                INFERIOR_DEADLOCK_SUSPECTED,
                f"all {len(verdict.samples)} inferior thread(s) are blocked "
                "on locks; reporting a suspected deadlock",
                {"graph": details},
            )
        )

    # ------------------------------------------------------------------
    # Inferior thread
    # ------------------------------------------------------------------

    def _run_inferior(self) -> None:
        saved_argv = sys.argv
        sys.argv = [self._program_abspath] + self._program_args
        self._register_thread(threading.get_ident(), name="main")
        self._swap_stdout_in()
        exit_code = 0
        try:
            self._arm_instrumentation()
            try:
                exec(self._code, self._globals)
                # The module returned; like a real process, the "program"
                # is over only when its non-daemon threads are. Workers
                # can still hit control points and pause during the join.
                self._join_workers()
            finally:
                self._disarm_instrumentation()
        except _KillInferior:
            exit_code = -9
        except SystemExit as error:
            code = error.code
            if code is None:
                exit_code = 0
            elif isinstance(code, int):
                exit_code = code
            else:
                exit_code = 1
        except BaseException as error:  # inferior bug: report, do not crash tool
            exit_code = 1
            self._inferior_exception = error
        finally:
            self._swap_stdout_out()
            sys.argv = saved_argv
            with self._condition:
                self.engine.stats.output_chars_dropped = self._output.dropped
                self._exit_code = exit_code
                self._finished = True
                self._gate = _ALL_LINES
                self._fold_line_count()
                self._pause_reason = PauseReason(type=PauseReasonType.EXIT)
                self.engine.note_event("exit")
                self.engine.record_pause(PauseReasonType.EXIT)
                self._paused_py_frame = None
                self._capture_values = None
                self._condition.notify_all()

    def _arm_instrumentation(self) -> None:
        """Install the tracing substrate (runs in the inferior thread).

        The settrace backend registers the per-thread trace function plus
        the profile-hook tamper guard (settrace is per-thread state only
        this thread can read; see :meth:`_profile`). ``threading.settrace``
        additionally seeds the same trace function into every thread the
        inferior spawns, which is how worker threads come under control.
        The ``python-mon`` subclass replaces this with per-code-object
        ``sys.monitoring`` event sets, which are interpreter-global and
        armed before the inferior thread even starts.
        """
        _THREADING_TRACE.push(self._trace)
        sys.settrace(self._trace)
        sys.setprofile(self._profile)
        self._guard_active = True

    def _disarm_instrumentation(self) -> None:
        """Remove the tracing substrate (inferior thread, on its way out)."""
        self._guard_active = False
        sys.setprofile(None)
        sys.settrace(None)
        _THREADING_TRACE.remove(self._trace)

    # ------------------------------------------------------------------
    # Thread registry
    # ------------------------------------------------------------------

    def _register_thread(self, ident: int, name: Optional[str] = None) -> int:
        """Register the calling thread as an inferior thread (idempotent).

        Returns the thread's stable index; 0 is always the thread that
        executes the program's module code.
        """
        with self._condition:
            existing = self._thread_ids.get(ident)
            if existing is not None:
                record = self._thread_records.get(existing)
                if (
                    record is None
                    or record.thread is threading.current_thread()
                ):
                    return existing
                # The OS reused a finished worker's ident for this new
                # thread. Fall through: the new thread gets a fresh
                # stable index and takes over the ident mapping; the dead
                # record keeps its index and reports as finished.
            index = self._next_thread_index
            self._next_thread_index += 1
            thread = threading.current_thread()
            record = _InferiorThreadRecord(
                index=index,
                ident=ident,
                name=name if name is not None else thread.name,
                thread=thread,
            )
            self._thread_ids[ident] = index
            self._thread_records[index] = record
            return index

    def _event_thread(self, frame) -> int:
        """Stable index of the calling inferior thread (0 if unknown): the
        thread of the event being decided."""
        index = self._thread_ids.get(threading.get_ident())
        return 0 if index is None else index

    def _ensure_thread_registered(self) -> None:
        """Register the calling thread, robust to OS ident reuse.

        Idents are recycled as soon as a thread exits, so a fresh worker
        can come up wearing the ident of a finished one; a plain
        ident-in-dict test would silently alias it onto the dead thread's
        stable index (and a ``thread=``-scoped control point for the new
        index would never fire). Once any worker has registered, verify
        the mapped record still belongs to the calling thread object.
        """
        ident = threading.get_ident()
        index = self._thread_ids.get(ident)
        if index is None:
            self._register_thread(ident)
            return
        if self._next_thread_index > 1:
            record = self._thread_records.get(index)
            if (
                record is not None
                and record.thread is not threading.current_thread()
            ):
                self._register_thread(ident)

    def _join_workers(self) -> None:
        """Wait for the inferior's non-daemon worker threads to finish.

        Runs in the main inferior thread after the module code returned,
        mirroring process semantics. The short join slices keep the kill
        flag responsive — ``terminate`` must not wait behind a stuck
        worker here.
        """
        while not self._killed:
            pending = [
                record.thread
                for record in list(self._thread_records.values())
                if record.index != 0
                and not record.thread.daemon
                and record.thread.is_alive()
            ]
            if not pending:
                return
            pending[0].join(timeout=0.05)

    def _swap_stdout_in(self) -> None:
        if self._capture_output:
            self._saved_stdout = sys.stdout
            sys.stdout = self._output

    def _swap_stdout_out(self) -> None:
        if self._capture_output and self._saved_stdout is not None:
            sys.stdout = self._saved_stdout
            self._saved_stdout = None

    # ------------------------------------------------------------------
    # The trace functions: a gated line hook in front of the full one
    # ------------------------------------------------------------------

    def _make_line_hook(self) -> Callable[[Any, str, Any], Any]:
        """The local trace function of inferior frames (one per tracker).

        A line not in the gate is only noted; every other event goes to
        :meth:`_trace`. Only ``_trace`` and ``_retrace_live_frames``
        install local hooks, both on inferior frames only, so the hook
        needs no filename check.
        """
        trace = self._trace

        def line_hook(frame, event: str, arg: Any):
            if event == "line":
                line = frame.f_lineno
                if line not in self._gate:
                    self.next_lineno = line
                    self._fast_lines += 1
                    return line_hook
            return trace(frame, event, arg)

        return line_hook

    def _trace(self, frame, event: str, arg: Any):
        if self._killed or self._finished:
            # Kill every registered inferior thread; after the program
            # "process" exited (module done, non-daemon workers joined),
            # straggling daemon workers die the same way. Other threads
            # that inherited the trace via threading.settrace are simply
            # untraced, including a new thread that reuses the OS ident of
            # a finished inferior thread.
            index = self._thread_ids.get(threading.get_ident())
            if (
                index is not None
                and self._thread_records[index].thread.is_alive()
            ):
                raise _KillInferior()
            return None
        if not self._is_inferior_frame(frame):
            return None  # do not trace library code called by the inferior
        if self._pause_active:
            # All-stop: another thread owns the pause; park here until it
            # is released (the owner thread itself is inside _pause, never
            # here).
            self._park(frame)
        if event == "call":
            self._ensure_thread_registered()
            self._decide(frame, event, arg)
            # The engine's per-file map knows whether anything could pause
            # inside this frame; if not, drop its local trace function and
            # skip every line/return event of the whole frame.
            if self.engine.can_skip_frame(
                frame.f_code.co_filename, frame.f_code.co_name
            ):
                return None
        elif event == "line" or event == "return":
            self._decide(frame, event, arg)
        # A closed gate sends every line here anyway: hold this hook
        # directly rather than pay the line hook's extra call.
        if self._gate is _ALL_LINES:
            return self._trace
        return self._line_hook

    def _park(self, frame) -> None:
        """Block the calling thread while another thread's pause is live."""
        ident = threading.get_ident()
        with self._condition:
            while self._pause_active and not self._killed:
                if ident == self._paused_owner_ident:
                    break  # defensive: the owner never parks on itself
                self._parked_idents.add(ident)
                try:
                    self._condition.wait()
                finally:
                    self._parked_idents.discard(ident)
            if self._killed:
                raise _KillInferior()

    def _profile(self, frame, event: str, arg: Any) -> None:
        """Detect and undo ``sys.settrace`` tampering by the inferior.

        ``sys.settrace`` is per-thread state: only the inferior thread can
        read it back, so the guard must run *in* that thread. The profile
        hook fires on every call/return (including C calls such as
        ``sys.settrace(None)`` itself), which makes it the earliest
        in-thread point after a tampering where we can re-arm. A hostile
        inferior can still clear the profile hook too — in-process
        hardening is best-effort; the ``python-subproc`` backend is the
        real containment boundary.
        """
        if not self._guard_active or self._killed:
            return
        # ``!=``, not ``is not``: every ``self._trace`` is a new bound
        # method object, so an identity test would "detect" a tampering on
        # every call and re-run settrace from inside the profile hook.
        if sys.gettrace() != self._trace:
            self.engine.stats.settrace_tamperings += 1
            sys.settrace(self._trace)
            # Frames that lost their local trace function while the global
            # hook was off must be re-armed explicitly.
            self._retrace_live_frames()

    def _is_inferior_frame(self, frame) -> bool:
        return frame.f_code.co_filename == self._program_abspath

    def _event_depth(self, frame) -> int:
        """Depth of ``frame`` among the inferior's frames (0 = module)."""
        depth = -1
        current = frame
        while current is not None:
            if self._is_inferior_frame(current):
                depth += 1
            current = current.f_back
        return depth

    def _current_depth(self) -> int:
        if self._paused_py_frame is None:
            return 0
        return self._event_depth(self._paused_py_frame)

    def _decide(self, frame, event: str, arg: Any) -> None:
        """Feed one trace event to the engine; pause here if it says so."""
        code = frame.f_code
        line = frame.f_lineno
        if event == "line":
            self.last_lineno = self.next_lineno
            self.next_lineno = line
            pause = self.engine.decide(
                event, line, None, code.co_filename, frame
            )
        else:
            # Module frames are not functions: no function control point
            # matches them.
            function = code.co_name
            pause = self.engine.decide(
                event,
                line,
                None if function == "<module>" else function,
                None,
                frame,
            )
        if pause is None:
            return
        reason = pause[0]
        values = self._snapshotter()
        if reason.type is PauseReasonType.RETURN:
            reason.return_value = values.snapshot(arg)
        self._pause(frame, event, reason, values)

    # ------------------------------------------------------------------
    # Watched values and the paused frame, for the engine's probe
    # ------------------------------------------------------------------

    def _pause_subject(self):
        return self._paused_py_frame

    def _watched_value(
        self, frame, function: Optional[str], name: str
    ) -> Optional[str]:
        """Current rendered value of a watched variable, ``None`` = missing."""
        current = self._find_watched(frame, function, name)
        return None if current is _MISSING else repr(current)

    def _find_watched(self, frame, function: Optional[str], name: str) -> Any:
        base_name, path = _split_watch_path(name)
        if function is not None:
            holder = _MISSING
            current = frame
            while current is not None:
                if (
                    self._is_inferior_frame(current)
                    and current.f_code.co_name == function
                ):
                    holder = current.f_locals.get(base_name, _MISSING)
                    break
                current = current.f_back
        elif base_name in frame.f_locals:
            holder = frame.f_locals[base_name]
        else:
            holder = self._globals.get(base_name, _MISSING)
        return _follow_watch_path(holder, path)

    # ------------------------------------------------------------------
    # Pause handshake (runs in the inferior thread)
    # ------------------------------------------------------------------

    def _pause(
        self, frame, event: str, reason: PauseReason, values: Snapshotter
    ) -> None:
        ident = threading.get_ident()
        index = self._thread_ids.get(ident, 0)
        record = self._thread_records.get(index)
        if reason.thread is None:
            reason.thread = index
            reason.thread_name = record.name if record is not None else None
        self.engine.stats.output_chars_dropped = self._output.dropped
        with self._condition:
            # All-stop, serialized delivery: if another thread's pause is
            # live, queue behind it — when the tool resumes that pause,
            # the first queued thread takes over the handshake and its
            # control point becomes the *next* control call's pause
            # (GDB-style pending stops).
            while self._pause_active and not self._killed and not self._finished:
                self._parked_idents.add(ident)
                try:
                    self._condition.wait()
                finally:
                    self._parked_idents.discard(ident)
            if self._killed or self._finished:
                raise _KillInferior()
            self._pause_active = True
            self._paused_owner_ident = ident
            self._gate = _ALL_LINES
            self._fold_line_count()
            # The tool owns the console while a pause is live, so the
            # capture ring is swapped out here — strictly after winning the
            # handshake (a queued thread toggling would unbalance the swap)
            # and swapped back in before release, whichever thread pauses.
            # Sibling prints in the short window before they park go to the
            # real stdout; tool-side prints never land in the capture.
            self._swap_stdout_out()
            self._pause_reason = reason
            self._capture_values = values
            self._paused_py_frame = frame
            self._paused_event = event
            self._paused_thread_index = index
            self._stall_blocked.clear()
            if len(self._thread_ids) > 1:
                # Make sibling threads park promptly: frames the fast path
                # left untraced only reach _trace at call events, so re-arm
                # per-line tracing everywhere while this pause is live.
                self._retrace_live_frames()
            self._pause_count += 1
            self._condition.notify_all()
            try:
                while self._command is None:
                    self._condition.wait()
                command = self._command
                self._command = None
            finally:
                self._swap_stdout_in()
                self._pause_active = False
                self._paused_owner_ident = None
                self._condition.notify_all()
        if command == "kill" or self._killed:
            raise _KillInferior()

    # ------------------------------------------------------------------
    # Inspection hooks
    # ------------------------------------------------------------------

    def _snapshotter(self) -> Snapshotter:
        """A fresh snapshotter honoring this tracker's capture bounds."""
        return Snapshotter(
            max_depth=self._snapshot_depth, limits=self._capture_limits
        )

    def _get_current_frame(self) -> Frame:
        chain = build_frame_chain(
            self._paused_py_frame, self._is_inferior_frame, self._capture_values
        )
        self._tag_thread(chain, self._paused_thread_index)
        return chain

    @staticmethod
    def _tag_thread(chain: Optional[Frame], index: int) -> None:
        """Stamp a model frame chain with its inferior thread index."""
        while chain is not None:
            chain.thread = index
            chain = chain.parent

    def _get_global_variables(self) -> Dict[str, Variable]:
        return build_globals(self._globals, self._capture_values)

    def _get_position(self) -> Tuple[str, Optional[int]]:
        frame = self._paused_py_frame
        return frame.f_code.co_filename, frame.f_lineno

    # ------------------------------------------------------------------
    # Python-specific extras
    # ------------------------------------------------------------------

    def get_threads(self) -> List[ThreadInfo]:
        """All registered inferior threads (live registry, stable indexes).

        States: the thread owning the current pause is ``"paused"``;
        threads stopped by the all-stop barrier are ``"parked"``; threads
        whose ``threading.Thread`` has exited are ``"finished"``; the rest
        are ``"running"``. Position fields are best-effort samples of each
        thread's innermost inferior frame.
        """
        with self._condition:
            records = sorted(self._thread_records.values(), key=lambda r: r.index)
            parked = set(self._parked_idents)
            paused_index = (
                self._paused_thread_index if self._pause_count else None
            )
            finished = self._finished
        if not records:
            return super().get_threads()
        live = sys._current_frames()
        infos: List[ThreadInfo] = []
        for record in records:
            alive = record.thread.is_alive() and not (
                finished and record.index == 0
            )
            if not alive:
                state = THREAD_FINISHED
            elif record.index == paused_index and self._exit_code is None:
                state = THREAD_PAUSED
            elif record.ident in parked:
                state = THREAD_PARKED
            elif record.index in self._stall_blocked:
                state = THREAD_BLOCKED
            else:
                state = THREAD_RUNNING
            function = line = filename = None
            if record.index == paused_index:
                frame = self._paused_py_frame
            elif alive:
                # Dead records are never sampled: their ident may have
                # been recycled to a newer thread, whose frame this is.
                frame = live.get(record.ident)
            else:
                frame = None
            while frame is not None:
                if self._is_inferior_frame(frame):
                    function = frame.f_code.co_name
                    line = frame.f_lineno
                    filename = frame.f_code.co_filename
                    break
                frame = frame.f_back
            infos.append(
                ThreadInfo(
                    id=record.index,
                    name=record.name,
                    state=state,
                    function=function,
                    line=line,
                    filename=filename,
                    daemon=record.thread.daemon,
                )
            )
        return infos

    def get_thread_frames(self, thread: int) -> List[Frame]:
        """Frames of one inferior thread, innermost first.

        For the thread owning the pause this is exactly ``get_frames``;
        for the others the stack is sampled via ``sys._current_frames``
        (stable under all-stop, best-effort for a running thread).
        """
        self._require_paused()
        if thread == self._paused_thread_index:
            return self.get_frames()
        record = self._thread_records.get(thread)
        if record is None:
            from repro.core.errors import TrackerError

            raise TrackerError(f"no inferior thread {thread}")
        if not record.thread.is_alive():
            return []  # the ident may be recycled; never sample it
        py_frame = sys._current_frames().get(record.ident)
        if py_frame is None:
            return []
        chain = build_frame_chain(
            py_frame, self._is_inferior_frame, self._snapshotter()
        )
        self._tag_thread(chain, thread)
        return chain.stack() if chain is not None else []

    def get_tasks(self) -> List[TaskInfo]:
        """The inferior's asyncio tasks, with await chains.

        Enumerates every task of the process's event loops and keeps those
        whose coroutine stack touches the inferior program (the tool's own
        loops, if any, are filtered out). The await chain is the coroutine
        qualnames from the task's outermost coroutine down to its
        suspension point.
        """
        import asyncio

        try:
            all_tasks = list(asyncio.tasks._all_tasks)
        except AttributeError:  # pragma: no cover - interpreter variance
            return []
        infos: List[TaskInfo] = []
        for task in all_tasks:
            try:
                coro = task.get_coro()
            except Exception:
                continue
            chain: List[str] = []
            line: Optional[int] = None
            inferior = False
            node = coro
            while node is not None:
                code = getattr(node, "cr_code", None) or getattr(
                    node, "gi_code", None
                )
                if code is None:
                    break
                chain.append(code.co_qualname if hasattr(code, "co_qualname")
                             else code.co_name)
                if code.co_filename == self._program_abspath:
                    inferior = True
                frame = getattr(node, "cr_frame", None) or getattr(
                    node, "gi_frame", None
                )
                if frame is not None:
                    line = frame.f_lineno
                node = getattr(node, "cr_await", None) or getattr(
                    node, "gi_yieldfrom", None
                )
            if not inferior:
                continue
            if task.cancelled():
                state = "cancelled"
            elif task.done():
                state = "done"
            else:
                state = "pending"
            infos.append(
                TaskInfo(
                    name=task.get_name(),
                    state=state,
                    coroutine=chain[0] if chain else "",
                    awaiting=chain,
                    line=line,
                )
            )
        infos.sort(key=lambda info: info.name)
        return infos

    def _get_output(self) -> str:
        return self._output.getvalue()

    def get_inferior_exception(self) -> Optional[BaseException]:
        """The unhandled exception that killed the inferior, if any."""
        return self._inferior_exception

    def raise_if_crashed(self) -> None:
        """Raise :class:`InferiorCrashError` if the inferior died on a bug."""
        if self._inferior_exception is not None:
            raise InferiorCrashError(
                f"inferior raised {self._inferior_exception!r}",
                self._inferior_exception,
            )
