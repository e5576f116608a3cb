"""Python Tutor traces as a timeline codec.

Section III-E shows a recorded trace sitting behind the tracker API; this
module closes the loop by making the PT JSON format *one codec* for the
general :class:`repro.core.timeline.Timeline`: ``load_timeline()`` (and
therefore ``ReplayTracker.load_program``) accepts a PT trace file exactly
like a native ``.timeline.json``.

Each PT step becomes one :class:`StateSnapshot`; the snapshot ``depth``
is the PT stack depth (``len(stack_to_render)``), which intentionally
counts only function frames — the module frame is synthesized by
:func:`step_to_frame_chain` but contributes no depth, matching how the
live trackers number maxdepth.
"""

from __future__ import annotations

from typing import Any

from repro.core.timeline import (
    EVENT_LINE,
    StateSnapshot,
    Timeline,
    register_timeline_codec,
)
from repro.pytutor.trace import (
    PTDecoder,
    PTStep,
    PTTrace,
    step_globals,
    step_to_frame_chain,
)


def snapshot_from_pt_step(step: PTStep) -> StateSnapshot:
    """Convert one recorded PT step into a :class:`StateSnapshot`.

    One decoder serves the frames and the globals, so a heap object that
    a local and a global both reference is one :class:`Value`.
    """
    decoder = PTDecoder(step.heap)
    frame = step_to_frame_chain(step, decoder)
    return StateSnapshot(
        frame=frame,
        globals=step_globals(step, decoder),
        # No file of its own: a replay reports the trace it loaded.
        filename="",
        line=step.line,
        depth=len(step.stack_to_render),
        stdout=step.stdout,
        event=step.event or EVENT_LINE,
        func_name=step.func_name or frame.name,
    )


def timeline_from_pt_trace(trace: PTTrace) -> Timeline:
    """Re-encode a whole PT trace as a delta-compressed timeline."""
    timeline = Timeline(program="<trace>", source=trace.code, backend="pt")
    for step in trace.steps:
        timeline.append(snapshot_from_pt_step(step))
    return timeline


def _sniff(data: Any) -> bool:
    return (
        isinstance(data, dict)
        and isinstance(data.get("trace"), list)
        and data.get("format") != Timeline.FORMAT
    )


def _build(data: Any) -> Timeline:
    return timeline_from_pt_trace(PTTrace.from_dict(data))


register_timeline_codec("pt", _sniff, _build)
