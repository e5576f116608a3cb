"""The PT tracker: the full tracker API replayed over a recorded trace.

Section III-E of the paper: "one can also use an existing trace format and
navigate the trace with the EasyTracker API by implementing a dedicated
tracker... This enables the full power of control through the API on a
pre-generated trace." This tracker loads a Python Tutor JSON trace and
implements every control and inspection call over it — plus, because the
execution is recorded, *reverse* stepping (:meth:`step_back`), which stands
in for the paper's preliminary RR-based tracker.

The heavy lifting lives in :class:`repro.core.replay.ReplayTracker`: the
PT trace is converted into a delta-compressed timeline by the codec in
:mod:`repro.pytutor.timeline_codec`, and this subclass only pins the
PT-specific surfaces — inspection decoded straight from the recorded
steps (preserving heap identity sharing that a snapshot round-trip would
lose) and watch rendering over the raw PT encoding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.errors import ProgramLoadError
from repro.core.replay import ReplayTracker
from repro.core.state import Frame, Variable
from repro.core.timeline import StateSnapshot
from repro.pytutor.timeline_codec import timeline_from_pt_trace
from repro.pytutor.trace import (
    PTStep,
    PTTrace,
    step_globals,
    step_to_frame_chain,
)


class PTTracker(ReplayTracker):
    """Tracker backend replaying a recorded Python Tutor trace."""

    backend = "pt"

    def __init__(self) -> None:
        super().__init__()
        self.trace: Optional[PTTrace] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _load_program(self, path: str, args: List[str]) -> None:
        self.trace = PTTrace.load(path)
        if not self.trace.steps:
            raise ProgramLoadError(f"trace {path!r} contains no steps")
        self._timeline = timeline_from_pt_trace(self.trace)

    def step_back(self) -> None:
        """Reverse-step one recorded execution point (the RR stand-in)."""
        self._backward("step")

    def _current_step(self) -> PTStep:
        return self.trace.steps[self._index]

    # ------------------------------------------------------------------
    # Watch rendering over the raw PT encoding (pinned behavior: values
    # render as the repr of their encoded form, e.g. "1" or "['REF', 3]")
    # ------------------------------------------------------------------

    def _watched_value(
        self, snapshot: StateSnapshot, function: Optional[str], name: str
    ) -> Optional[str]:
        step = self._current_step()
        frames = step.stack_to_render
        if function is not None:
            for pt_frame in reversed(frames):
                if pt_frame.func_name == function:
                    if name in pt_frame.encoded_locals:
                        return repr(pt_frame.encoded_locals[name])
                    return None
            return None
        if frames and name in frames[-1].encoded_locals:
            return repr(frames[-1].encoded_locals[name])
        if name in step.globals:
            return repr(step.globals[name])
        return None

    # ------------------------------------------------------------------
    # Inspection decoded directly from the recorded steps
    # ------------------------------------------------------------------

    def _get_current_frame(self) -> Frame:
        return step_to_frame_chain(self._current_step())

    def _get_global_variables(self) -> Dict[str, Variable]:
        return step_globals(self._current_step())

    def _get_position(self) -> Tuple[str, Optional[int]]:
        return self._program or "<trace>", self._current_step().line

    def get_source_lines(self) -> List[str]:
        """The traced program's source, embedded in the trace itself."""
        return self.trace.code.splitlines()

    def get_output(self) -> str:
        """Inferior stdout recorded up to the current step."""
        return self._current_step().stdout
