"""The replay tracker: the full tracker API over a recorded timeline.

Section III-E of the paper argues that a pre-generated trace can sit
behind the tracker API; :class:`ReplayTracker` is the general form of that
idea. It navigates a :class:`repro.core.timeline.Timeline` — recorded by
any backend via :meth:`Tracker.enable_recording`, loaded from a
``.timeline.json`` file, or converted from a foreign trace format through
a registered timeline codec (Python Tutor traces are one such codec; the
PT tracker is now a thin subclass of this one).

Recorded snapshots are fed to the same pause decision the live backends
use (:meth:`ControlPointEngine.decide`), so every control call over a
replay pauses where the live run would, with the same reason — to the
resolution of what was recorded. Because the history is immutable, the
reverse control calls (``timeline_view().backward_step()``, ``goto`` ...)
are native motions here rather than a rewind overlay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.errors import NotPausedError, ProgramLoadError, TrackerError
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.state import AbstractType, Frame, Variable
from repro.core.timeline import (
    EVENT_CALL,
    EVENT_EXIT,
    EVENT_RETURN,
    StateSnapshot,
    Timeline,
    load_timeline,
)
from repro.core.tracker import Tracker


class ReplayTracker(Tracker):
    """Tracker backend replaying a recorded :class:`Timeline`.

    Args:
        timeline: navigate this in-memory timeline directly; alternatively
            call :meth:`load_program` with a path to a ``.timeline.json``
            file or any format a registered codec understands.
    """

    backend = "replay"

    def __init__(self, timeline: Optional[Timeline] = None) -> None:
        super().__init__()
        self._timeline: Optional[Timeline] = timeline
        self._index = -1
        if timeline is not None:
            self._program = timeline.program or "<timeline>"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _load_program(self, path: str, args: List[str]) -> None:
        self._timeline = load_timeline(path)
        if self._timeline.retained == 0:
            raise ProgramLoadError(f"timeline {path!r} contains no snapshots")

    def _start(self) -> None:
        self.engine.arm("step")
        self._index = self._timeline.first_index - 1
        self._advance()

    def _terminate(self) -> None:
        # A timeline is immutable history; there is nothing to kill and
        # the final state stays inspectable.
        pass

    def _allows_post_exit_inspection(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Forward control: walk the recorded snapshots through the engine
    # ------------------------------------------------------------------

    def _resume(self) -> None:
        self.engine.arm("resume")
        self._advance()

    def _step(self) -> None:
        self.engine.arm("step")
        self._advance()

    def _next(self) -> None:
        self.engine.arm("next", self._snap().depth)
        self._advance()

    def _finish(self) -> None:
        self.engine.arm("finish", self._snap().depth)
        self._advance()

    def _snap(self) -> StateSnapshot:
        return self._timeline.snapshot(self._index)

    def _advance(self) -> None:
        timeline = self._timeline
        last = len(timeline) - 1
        decide = self.engine.decide
        while True:
            if self._index >= last:
                self._mark_exit(None)  # recording exhausted
                return
            self._index += 1
            snapshot = self._snap()
            if snapshot.event == EVENT_EXIT and snapshot.frame is None:
                self._mark_exit(snapshot)
                return
            name, line = snapshot.func_name, snapshot.line
            pause = None
            if snapshot.event in (EVENT_CALL, EVENT_RETURN):
                pause = decide(snapshot.event, line, name, None, snapshot)
            if pause is None:
                # Every recorded snapshot is a line position too, so a step
                # lands on each one.
                pause = decide("line", line, name, None, snapshot)
            if pause is not None:
                self._mark_pause(pause[0])
                return

    # -- the engine's probe: a recorded snapshot is the event ---------------

    def _event_depth(self, snapshot: StateSnapshot) -> int:
        return snapshot.depth

    def _event_thread(self, snapshot: StateSnapshot) -> int:
        return snapshot.thread or 0

    def _pause_subject(self) -> Optional[StateSnapshot]:
        return self._snap() if self._index >= 0 else None

    def _watched_value(
        self, snapshot: StateSnapshot, function: Optional[str], name: str
    ) -> Optional[str]:
        """Rendered value of a watched variable in a recorded snapshot.

        References are chased before rendering so a watch fires on value
        changes, not on heap-address churn between pauses.
        """
        variable = snapshot.lookup(name, function)
        if variable is None:
            return None
        value = variable.value
        while value.abstract_type is AbstractType.REF:
            value = value.content
        return value.render()

    def _mark_pause(self, reason: PauseReason) -> None:
        self._pause_reason = reason
        self.last_lineno = self.next_lineno
        self.next_lineno = self._snap().line

    def _mark_exit(self, snapshot: Optional[StateSnapshot]) -> None:
        exit_code = snapshot.exit_code if snapshot is not None else None
        if snapshot is not None:
            self._index = min(self._index, len(self._timeline) - 1)
        self._exit_code = exit_code if exit_code is not None else 0
        self._pause_reason = PauseReason(type=PauseReasonType.EXIT)
        self.engine.note_event("exit")
        self.engine.record_pause(PauseReasonType.EXIT)

    # ------------------------------------------------------------------
    # Reverse control: native motions over the timeline
    # ------------------------------------------------------------------

    @property
    def timeline(self) -> Optional[Timeline]:
        return self._timeline

    def _require_timeline(self) -> Timeline:
        if self._timeline is None or self._timeline.retained == 0:
            raise TrackerError("no timeline loaded")
        return self._timeline

    def _timeline_position(self) -> int:
        if self._index < 0:
            raise NotPausedError("call start() first")
        return self._index

    def _seek_timeline(self, index: int) -> None:
        snapshot = self._timeline.snapshot(index)
        self._index = index
        self.engine.record_pause(PauseReasonType.STEP)
        self._apply_snapshot_pause(snapshot)

    @property
    def step_index(self) -> int:
        """Position in the timeline (useful for tools showing a scrubber)."""
        return self._index

    @property
    def step_count(self) -> int:
        """Total number of recorded snapshots."""
        return len(self._timeline) if self._timeline is not None else 0

    # ------------------------------------------------------------------
    # Inspection, served from the recorded snapshots
    # ------------------------------------------------------------------

    def _get_current_frame(self) -> Frame:
        frame = self._snap().frame
        if frame is None:
            raise NotPausedError("this snapshot recorded no frames")
        return frame

    def _get_global_variables(self) -> Dict[str, Variable]:
        return dict(self._snap().globals)

    def _get_position(self) -> Tuple[str, Optional[int]]:
        snapshot = self._snap()
        return (
            snapshot.filename or self._program or "<timeline>",
            snapshot.line,
        )

    def get_source_lines(self) -> List[str]:
        """The recorded program source, embedded in the timeline."""
        if self._timeline is not None and self._timeline.source:
            return self._timeline.source.splitlines()
        return super().get_source_lines()

    def get_output(self) -> str:
        """Inferior stdout recorded up to the current snapshot."""
        return self._snap().stdout
