"""Scope visualization (the paper's language-teaching scenario).

The introduction's second scenario: "the teaching of languages where one
wants to show important notions such as scopes, pointers and stack
frames". This tool renders, for a paused inferior, which binding of each
name is *visible* and which are *shadowed*: every frame's variables plus
the globals, with shadowed bindings struck through and annotated by the
frame that wins.

Language-agnostic: works identically for Python closures-free teaching
programs and mini-C block scoping (both resolve innermost-frame-first,
then globals — exactly what :meth:`Tracker.get_variable` implements).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.state import Frame, Value, Variable
from repro.core.timeline import StateSnapshot
from repro.core.tracker import Tracker
from repro.viz.svg import SVGCanvas, text_width

ROW_HEIGHT = 24
VISIBLE_FILL = "#eaf6ea"
SHADOWED_FILL = "#f5e3e3"
GLOBAL_FILL = "#fdf3e3"


@dataclass
class Binding:
    """One (scope, name, value) binding and its visibility."""

    scope: str  # frame name or "<globals>"
    depth: Optional[int]  # None for globals
    name: str
    rendered: str
    visible: bool
    shadowed_by: Optional[str] = None


def collect_bindings(tracker: Union[Tracker, StateSnapshot]) -> List[Binding]:
    """All bindings of the paused inferior, innermost scopes first.

    Accepts a live (paused) :class:`Tracker` or a recorded
    :class:`StateSnapshot` — e.g. one pulled from a timeline — since both
    expose the same frames-plus-globals view of a paused state.

    Visibility follows the inspection rule: the innermost frame holding a
    name wins; a global is visible only when no frame binds the name.
    (Only the *current* frame and globals are actually in scope in both
    Python and C, but showing the whole stack is the point of the lesson:
    students see why a caller's `x` is untouchable.)
    """
    if isinstance(tracker, StateSnapshot):
        frames = tracker.frames()
        globals_map = dict(tracker.globals)
    else:
        frames = tracker.get_frames()
        globals_map = tracker.get_global_variables()
    bindings: List[Binding] = []
    current = frames[0] if frames else None
    for frame in frames:
        for name, variable in frame.variables.items():
            visible = frame is current
            shadowed_by = None
            if not visible:
                shadowed_by = current.name if name in current.variables else None
                if shadowed_by is None and name not in globals_map:
                    # Not shadowed, merely out of scope in the callee.
                    shadowed_by = f"(not in scope in {current.name})"
            bindings.append(
                Binding(
                    scope=frame.name,
                    depth=frame.depth,
                    name=name,
                    rendered=_render(variable),
                    visible=visible,
                    shadowed_by=shadowed_by,
                )
            )
    frame_names = {
        name for frame in frames[:1] for name in frame.variables
    }
    for name, variable in globals_map.items():
        shadowing = name in frame_names
        bindings.append(
            Binding(
                scope="<globals>",
                depth=None,
                name=name,
                rendered=_render(variable),
                visible=not shadowing,
                shadowed_by=(current.name if shadowing and current else None),
            )
        )
    return bindings


def _render(variable: Variable) -> str:
    return variable.value.chase().render()


def render_scopes_text(bindings: List[Binding]) -> str:
    """A terminal table of the bindings; shadowed ones marked."""
    lines = [f"{'scope':<16} {'name':<12} {'value':<24} visibility"]
    lines.append("-" * len(lines[0]))
    for binding in bindings:
        scope = binding.scope
        if binding.depth is not None:
            scope = f"{scope} (d{binding.depth})"
        status = "visible"
        if not binding.visible:
            status = (
                f"shadowed by {binding.shadowed_by}"
                if binding.shadowed_by
                else "out of scope"
            )
        lines.append(
            f"{scope:<16} {binding.name:<12} {binding.rendered:<24} {status}"
        )
    return "\n".join(lines)


def render_scopes_svg(bindings: List[Binding], title: str = "scopes") -> SVGCanvas:
    """The scope table as SVG: visible rows green, shadowed rows red."""
    canvas = SVGCanvas()
    canvas.text(14, 22, title, size=15, bold=True)
    top = 34
    width = max(
        [
            text_width(
                f"{b.scope}  {b.name} = {b.rendered}  {b.shadowed_by or ''}", 13
            )
            + 40
            for b in bindings
        ]
        + [280.0]
    )
    for index, binding in enumerate(bindings):
        y = top + index * ROW_HEIGHT
        if binding.scope == "<globals>":
            fill = GLOBAL_FILL if binding.visible else SHADOWED_FILL
        else:
            fill = VISIBLE_FILL if binding.visible else SHADOWED_FILL
        canvas.rect(14, y, width, ROW_HEIGHT, fill=fill, stroke="#bbbbbb")
        label = f"{binding.scope:<14} {binding.name} = {binding.rendered}"
        canvas.text(20, y + ROW_HEIGHT - 7, label, size=13)
        if not binding.visible:
            # Strike through the shadowed binding, annotate the winner.
            text_span = text_width(label, 13)
            canvas.line(20, y + ROW_HEIGHT / 2, 20 + text_span,
                        y + ROW_HEIGHT / 2, stroke="#c0392b")
            if binding.shadowed_by:
                canvas.text(
                    26 + text_span, y + ROW_HEIGHT - 7,
                    f"<- {binding.shadowed_by}", size=12, fill="#c0392b",
                )
    return canvas


class ScopeViewTool:
    """Step a program and emit one scope table per pause at a function."""

    def __init__(self, program: str, function: str):
        self.program = program
        self.function = function

    def run(self, output_dir: str, max_pauses: int = 50) -> List[str]:
        """Pause at every entry/exit of the function; render the scopes."""
        import os

        from repro.core.factory import init_tracker

        os.makedirs(output_dir, exist_ok=True)
        tracker = init_tracker(
            "python" if self.program.endswith(".py") else "GDB"
        )
        tracker.load_program(self.program)
        tracker.track_function(self.function)
        tracker.start()
        written: List[str] = []
        try:
            pause = 1
            while tracker.get_exit_code() is None and pause <= max_pauses:
                tracker.resume()
                if tracker.get_exit_code() is not None:
                    break
                bindings = collect_bindings(tracker)
                path = os.path.join(output_dir, f"scopes_{pause:03d}.svg")
                render_scopes_svg(
                    bindings, title=f"pause {pause}: {self.function}"
                ).save(path)
                written.append(path)
                pause += 1
        finally:
            tracker.terminate()
        return written
