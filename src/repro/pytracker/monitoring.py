"""The ``sys.monitoring`` (PEP 669) fast backend: factory name ``"python-mon"``.

CPython 3.12 replaced the one-size-fits-all ``sys.settrace`` callback with
per-event, per-code-object instrumentation. That model maps one-to-one
onto the :class:`repro.core.engine.ControlPointEngine`'s compiled indexes:

- ``LINE`` events are enabled only where a line control point could match
  (``engine.lines_may_fire_in``), or while stepping / watching;
- a line callback at a location where nothing can pause returns
  :data:`sys.monitoring.DISABLE`, so the interpreter stops reporting that
  location entirely — steady-state ``resume`` with no matching breakpoints
  runs **uninstrumented**, at close to native speed;
- when the engine recompiles its indexes (a breakpoint was added, a mode
  changed), the backend re-arms via ``sys.monitoring.restart_events()``
  and re-derives the per-code-object event masks, so previously-disabled
  locations fire again exactly when they become interesting.

Everything above the instrumentation layer is inherited unchanged from
:class:`repro.pytracker.tracker.PythonTracker`: the inferior thread and
pause handshake, the engine's step/next/finish state machine, supervision
deadlines and the async-interrupt flag (honored from monitoring
callbacks), timeline recording, and bounded value capture. The parity
suites assert identical pause sequences against the settrace backend.

Availability and trade-offs:

- Requires Python >= 3.12; constructing the tracker on an older
  interpreter raises :class:`repro.core.errors.BackendUnavailableError`.
- Instruments the code objects reachable from the compiled program
  (functions, classes, lambdas, comprehensions) at load, plus anything
  the inferior compiles dynamically under the program's filename: a
  global ``PY_START`` net adopts unseen code objects on first call
  (foreign code silences itself location-by-location with ``DISABLE``).
- Instrumentation is interpreter-global, so worker threads are covered
  for free; callbacks register each thread on its first event and honor
  the all-stop parking protocol exactly like the settrace backend.
- ``sys.monitoring`` state is interpreter-global (one of six tool ids),
  not per-thread; the backend claims ``DEBUGGER_ID`` and falls back to
  any free id, releasing it when the inferior exits.
"""

from __future__ import annotations

import sys
import threading
import types
from typing import Any, Iterator, List, Optional

from repro.core.errors import BackendUnavailableError
from repro.pytracker.tracker import (
    PythonTracker,
    _compile_program,
    _KillInferior,
)

_monitoring = getattr(sys, "monitoring", None)

#: Whether this interpreter has PEP 669 monitoring (CPython >= 3.12).
HAVE_MONITORING = _monitoring is not None

#: The canonical skip/availability message. Tests skip with exactly this
#: text and CI greps for it to prove the python-mon suites were *skipped,
#: not silently absent* on older interpreters.
SKIP_REASON = "python-mon requires Python 3.12+ (sys.monitoring)"


def _candidate_tool_ids() -> List[int]:
    """Tool ids to try, preferred first (DEBUGGER_ID, then any other)."""
    preferred = _monitoring.DEBUGGER_ID
    return [preferred] + [i for i in range(6) if i != preferred]


def _walk_code_objects(root: types.CodeType) -> Iterator[types.CodeType]:
    """Every code object reachable from ``root`` through ``co_consts``."""
    seen = set()
    stack = [root]
    while stack:
        code = stack.pop()
        if id(code) in seen:
            continue
        seen.add(id(code))
        yield code
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)


class MonitoringTracker(PythonTracker):
    """In-process Python tracker on ``sys.monitoring`` instead of settrace.

    Drop-in for :class:`PythonTracker` (same constructor arguments, same
    pause sequences); the difference is the cost model — see the module
    docstring. Raises :class:`BackendUnavailableError` at construction on
    interpreters without ``sys.monitoring``.
    """

    backend = "python-mon"

    #: Fresh code objects per tracker: ``sys.monitoring`` local events are
    #: set per code object, so a shared one would share its event masks.
    _compile = staticmethod(_compile_program)

    def __init__(self, **kwargs: Any):
        if _monitoring is None:
            raise BackendUnavailableError(
                f"{SKIP_REASON}; this is Python "
                f"{sys.version_info.major}.{sys.version_info.minor} — use "
                'the "python" (settrace) backend here'
            )
        self._tool_id: Optional[int] = None
        self._tool_name = f"repro-python-mon-{id(self):x}"
        self._mon_code_objects: List[types.CodeType] = []
        #: ``id()`` index over ``_mon_code_objects`` for the O(1) adoption
        #: check the global ``PY_START`` net performs on every first call.
        self._mon_code_ids: set = set()
        self._events_armed = False
        #: Cached per-code-object event mask (avoids re-issuing identical
        #: ``set_local_events`` calls on every control call).
        self._local_mask: Optional[int] = None
        #: Whether DISABLEd locations must be restarted before the next
        #: resume: set when control points change (a location disabled as
        #: uninteresting may have become a breakpoint).
        self._needs_restart = True
        self._in_event_sync = False
        super().__init__(**kwargs)

    # ------------------------------------------------------------------
    # Tool-id lifecycle
    # ------------------------------------------------------------------

    def _acquire_tool_id(self) -> int:
        """Claim a free monitoring tool id, preferring ``DEBUGGER_ID``.

        Six ids exist per interpreter and other tools (coverage,
        profilers, another tracker) may hold some; any free one works
        because all registrations are per-tool-id.
        """
        for candidate in _candidate_tool_ids():
            try:
                _monitoring.use_tool_id(candidate, self._tool_name)
            except ValueError:
                continue  # taken by another tool; try the next id
            return candidate
        raise BackendUnavailableError(
            "all six sys.monitoring tool ids are in use; free one "
            "(sys.monitoring.free_tool_id) or use the \"python\" backend"
        )

    def _setup_monitoring(self) -> None:
        """Claim a tool id, register callbacks, compile the event masks."""
        self._tool_id = self._acquire_tool_id()
        events = _monitoring.events
        _monitoring.register_callback(self._tool_id, events.LINE, self._on_line)
        _monitoring.register_callback(
            self._tool_id, events.PY_START, self._on_py_start
        )
        _monitoring.register_callback(
            self._tool_id, events.PY_RETURN, self._on_py_return
        )
        _monitoring.register_callback(
            self._tool_id, events.RAISE, self._on_raise
        )
        # RAISE is a global-only event (it cannot be enabled per code
        # object, nor DISABLEd); the callback filters on the program
        # filename first so foreign raises cost one comparison. PY_START
        # is *also* enabled globally: it is the net that catches code the
        # inferior compiles dynamically under the program's filename —
        # unseen program code objects are adopted on first call, and
        # foreign locations silence themselves with DISABLE.
        _monitoring.set_events(self._tool_id, events.RAISE | events.PY_START)
        self._mon_code_objects = list(_walk_code_objects(self._code))
        self._mon_code_ids = {id(code) for code in self._mon_code_objects}
        self._events_armed = True
        self.engine.add_recompile_listener(self._on_engine_recompile)
        self._sync_local_events()

    def _teardown_monitoring(self) -> None:
        """Clear every event set and callback, release the tool id.

        Idempotent; runs in the inferior thread when the program exits and
        again (as a no-op, or for real if the inferior wedged) from
        ``terminate`` in the tool thread.
        """
        tool_id, self._tool_id = self._tool_id, None
        if tool_id is None:
            return
        self._events_armed = False
        events = _monitoring.events
        try:
            _monitoring.set_events(tool_id, 0)
            for code in self._mon_code_objects:
                _monitoring.set_local_events(tool_id, code, 0)
            for event in (
                events.LINE, events.PY_START, events.PY_RETURN, events.RAISE
            ):
                _monitoring.register_callback(tool_id, event, None)
            _monitoring.free_tool_id(tool_id)
        except ValueError:  # pragma: no cover - tool freed under our feet
            pass

    # ------------------------------------------------------------------
    # Lifecycle hooks (instrumentation is global, not per-thread)
    # ------------------------------------------------------------------

    def _start(self) -> None:
        # Arm the step machine *before* compiling the event masks so the
        # entry pause (a step pause on the first line) has LINE events on.
        self.engine.arm("step")
        self._setup_monitoring()
        try:
            super()._start()
        except BaseException:
            self._teardown_monitoring()
            raise

    def _arm_instrumentation(self) -> None:
        """Nothing to do in the inferior thread: ``sys.monitoring`` event
        sets are interpreter-global and were installed by ``_start``. The
        settrace tamper guard does not apply (there is no per-thread trace
        function to tamper with)."""

    def _disarm_instrumentation(self) -> None:
        self._teardown_monitoring()

    def _terminate(self) -> None:
        super()._terminate()
        # Normal exits tore monitoring down in the inferior thread; this
        # covers a wedged-and-abandoned inferior, which keeps running but
        # must stop owning a global tool id.
        self._teardown_monitoring()

    # ------------------------------------------------------------------
    # Engine index -> event-set compilation
    # ------------------------------------------------------------------

    def _local_event_mask(self, mode: str) -> int:
        """The per-code-object event set the current engine state needs."""
        events = _monitoring.events
        engine = self.engine
        mask = events.PY_START
        if engine.has_tracked_functions:
            mask |= events.PY_RETURN
        if (
            mode != "resume"
            or engine.has_watchpoints
            or engine.interrupt_requested
            or self._killed
            or engine.lines_may_fire_in(self._program_abspath)
        ):
            mask |= events.LINE
        return mask

    def _sync_local_events(self, mode: Optional[str] = None) -> None:
        """Re-derive and apply the event masks from the engine indexes."""
        if not self._events_armed:
            return
        self._in_event_sync = True
        try:
            self.engine.refresh()
            mask = self._local_event_mask(
                self.engine.mode if mode is None else mode
            )
            self._apply_local_events(mask)
        finally:
            self._in_event_sync = False

    def _apply_local_events(self, mask: int) -> None:
        if mask == self._local_mask:
            return
        tool_id = self._tool_id
        if tool_id is None:
            return
        for code in self._mon_code_objects:
            _monitoring.set_local_events(tool_id, code, mask)
        self._local_mask = mask

    def _adopt_code(self, code: types.CodeType) -> None:
        """Instrument a dynamically compiled program code object.

        Fires from the global ``PY_START`` net the first time the inferior
        calls into code it built itself (``exec(compile(...))`` under the
        program's filename). The whole nested tree is adopted at once so
        inner functions are armed before their own first call.
        """
        tool_id = self._tool_id
        if tool_id is None:
            return
        mask = self._local_mask
        if mask is None:
            mask = self._local_event_mask(self.engine.mode)
        for nested in _walk_code_objects(code):
            if id(nested) in self._mon_code_ids:
                continue
            self._mon_code_objects.append(nested)
            self._mon_code_ids.add(id(nested))
            _monitoring.set_local_events(tool_id, nested, mask)

    def _on_engine_recompile(self) -> None:
        """Dirty-flag hook: the indexes changed underneath the event sets.

        Wherever the triggering ``refresh`` ran (a callback in the
        inferior thread, a control call in the tool thread), the masks are
        re-derived and every ``DISABLE``d location is restarted — a
        location disabled as boring may just have become a breakpoint.
        """
        if not self._events_armed or self._in_event_sync:
            return
        self._sync_local_events()
        self._needs_restart = True
        _monitoring.restart_events()

    def _control_points_changed(self) -> None:
        super()._control_points_changed()
        self._needs_restart = True

    def _issue(self, mode: str, depth: int = 0) -> None:
        if self._events_armed:
            self._sync_local_events(mode)
            # DISABLEd locations stay disabled across plain resumes (their
            # disposition cannot have changed), which is what keeps the
            # steady state uninstrumented; anything else re-arms them.
            if mode != "resume" or self._needs_restart:
                self._needs_restart = False
                _monitoring.restart_events()
        super()._issue(mode, depth)

    def _retrace_live_frames(self) -> None:
        """Interrupt/kill delivery: force events back on everywhere.

        The settrace backend re-installs per-frame trace functions; here
        the equivalent is forcing the full event mask onto every code
        object and restarting ``DISABLE``d locations so the very next
        line/call/return/raise anywhere in the inferior reaches a
        callback, which then sees the flag.
        """
        if not self._events_armed:
            return
        events = _monitoring.events
        self._apply_local_events(
            events.LINE | events.PY_START | events.PY_RETURN
        )
        self._needs_restart = True
        _monitoring.restart_events()

    # ------------------------------------------------------------------
    # Monitoring callbacks (run in the inferior thread)
    # ------------------------------------------------------------------

    def _callback_frame(self, code: types.CodeType):
        """The frame executing ``code`` (callbacks run on its stack)."""
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        return frame

    def _mon_sync(self) -> None:
        """Kill / thread-registration / all-stop parking prologue.

        Mirrors the settrace backend's ``_trace`` preamble: callbacks fire
        in whichever thread executes inferior code, so each thread is
        registered on its first event, and while another thread's pause is
        live this one parks until release.
        """
        if self._killed or self._finished:
            raise _KillInferior()
        self._ensure_thread_registered()
        if self._pause_active:
            self._park(None)

    def _on_line(self, code: types.CodeType, line_number: int):
        self._mon_sync()
        frame = self._callback_frame(code)
        if frame is None:  # pragma: no cover - defensive
            return None
        self._decide(frame, "line", None)
        # Decided *after* any pause, against the engine state the control
        # call that woke us re-armed: if nothing can ever pause at this
        # location under the current indexes, stop reporting it. This is
        # the fast path — the next visit costs nothing at all.
        engine = self.engine
        if (
            engine.mode == "resume"
            and not engine.has_watchpoints
            and not engine.interrupt_requested
            and not self._killed
            and not engine.may_match_line(line_number)
        ):
            return _monitoring.DISABLE
        return None

    def _on_py_start(self, code: types.CodeType, instruction_offset: int):
        if code.co_filename != self._program_abspath:
            # The global PY_START net sees every call in the interpreter;
            # foreign locations silence themselves so the steady-state
            # cost is one callback per location per restart_events().
            return _monitoring.DISABLE
        if id(code) not in self._mon_code_ids:
            self._adopt_code(code)
        self._mon_sync()
        frame = self._callback_frame(code)
        if frame is None:  # pragma: no cover - defensive
            return None
        self._decide(frame, "call", None)
        engine = self.engine
        if (
            engine.mode == "resume"
            and not engine.interrupt_requested
            and not self._killed
            and not engine.may_match_function(code.co_name)
        ):
            return _monitoring.DISABLE
        return None

    def _on_py_return(
        self, code: types.CodeType, instruction_offset: int, retval: Any
    ):
        self._mon_sync()
        frame = self._callback_frame(code)
        if frame is None:  # pragma: no cover - defensive
            return None
        self._decide(frame, "return", retval)
        engine = self.engine
        if (
            engine.mode == "resume"
            and not engine.interrupt_requested
            and not self._killed
            and not engine.may_match_function(code.co_name)
        ):
            return _monitoring.DISABLE
        return None

    def _on_raise(
        self, code: types.CodeType, instruction_offset: int, exc: BaseException
    ) -> None:
        # Global event: filter foreign code first, and never return
        # DISABLE (exception events cannot be disabled).
        if code.co_filename != self._program_abspath:
            return
        self._mon_sync()
        frame = self._callback_frame(code)
        if frame is not None:
            # Counted, and a pending interrupt pauses here.
            self._decide(frame, "raise", exc)
