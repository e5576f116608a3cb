"""The recursive-call tree visualizer (paper Section III-C, Fig. 8).

Tracks one function with ``track_function`` and builds the dynamic call
tree: a node appears at each recursive call (displaying the chosen argument
values *at the time of the call*, even for shared references whose content
changes later — hence the snapshot), live calls are drawn red, exited calls
gray, and each return adds the returned value on a back edge.

This is the paper's Listing 6, packaged: ``record_call_tree`` is the
control part, ``draw_call_tree`` the visualization part.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.factory import init_tracker
from repro.core.pause import PauseReasonType
from repro.core.tracker import Tracker
from repro.viz.layout import TreeNode, layout_tree
from repro.viz.source import render_source
from repro.viz.svg import SVGCanvas, text_width

LIVE_COLOR = "#c0392b"
DONE_FILL = "#e0e0e0"
LIVE_FILL = "#fdecea"


@dataclass
class CallNode:
    """One dynamic call of the tracked function."""

    uid: int
    args: Dict[str, str] = field(default_factory=dict)
    children: List["CallNode"] = field(default_factory=list)
    parent: Optional["CallNode"] = None
    active: bool = True
    retval: Optional[str] = None

    def label(self, function: str) -> str:
        rendered = ", ".join(self.args.values())
        return f"{function}({rendered})"


@dataclass
class CallTreeRecording:
    """The result of a recorded run: roots plus any images written."""

    roots: List[CallNode] = field(default_factory=list)
    images: List[str] = field(default_factory=list)
    events: int = 0


def record_call_tree(
    program: str,
    function: str,
    arg_names: List[str],
    output_dir: Optional[str] = None,
    skip: int = 0,
    max_events: int = 500,
) -> CallTreeRecording:
    """Run ``program`` and record the call tree of ``function``.

    Args:
        program: inferior path (Python or mini-C).
        function: name of the recursive function to track.
        arg_names: the subset of its arguments to display in each node.
        output_dir: if given, one ``rec-NNN.svg`` per call/return event is
            written there (plus matching ``rec-NNN_src.svg`` listings).
        skip: ignore this many top-level call trees before recording —
            the paper's interactive "skip" query, made scriptable.
        max_events: safety bound on recorded events.

    Returns:
        The recorded tree(s) and image paths.
    """
    tracker: Tracker = init_tracker(
        "python" if program.endswith(".py") else "GDB"
    )
    tracker.load_program(program)
    tracker.track_function(function)
    recording = CallTreeRecording()
    current: Optional[CallNode] = None
    uid = 0
    skipped = 0
    tracker.start()
    source_lines = tracker.get_source_lines()
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
    try:
        while tracker.get_exit_code() is None and recording.events < max_events:
            tracker.resume()
            reason = tracker.pause_reason
            if reason is None or tracker.get_exit_code() is not None:
                break
            if reason.type is PauseReasonType.CALL:
                node = CallNode(uid=uid, parent=current)
                uid += 1
                node.args = _gather_args(tracker, function, arg_names)
                if current is not None:
                    current.children.append(node)
                current = node
                if node.parent is None:
                    if skipped < skip:
                        skipped += 1
                    else:
                        recording.roots.append(node)
            elif reason.type is PauseReasonType.RETURN:
                if current is None:
                    continue
                current.active = False
                current.retval = _render_retval(reason.return_value)
                current = current.parent
            else:
                continue
            recording.events += 1
            if output_dir is not None and recording.roots:
                name = f"rec-{recording.events:03d}"
                draw_call_tree(recording.roots[-1], function).save(
                    os.path.join(output_dir, f"{name}.svg")
                )
                render_source(
                    source_lines, tracker.next_lineno, tracker.last_lineno
                ).save(os.path.join(output_dir, f"{name}_src.svg"))
                recording.images.append(os.path.join(output_dir, f"{name}.svg"))
    finally:
        tracker.terminate()
    return recording


def _gather_args(
    tracker: Tracker, function: str, arg_names: List[str]
) -> Dict[str, str]:
    """Snapshot the displayed arguments at call time (deep-copy semantics)."""
    frame = tracker.get_current_frame()
    args: Dict[str, str] = {}
    for name in arg_names:
        variable = frame.lookup(name)
        if variable is None:
            args[name] = "?"
            continue
        args[name] = variable.value.chase().render()
    return args


def _render_retval(return_value) -> str:
    if return_value is None:
        return "None"
    if isinstance(return_value, str):
        return return_value
    if hasattr(return_value, "render"):
        return return_value.render()
    return repr(return_value)


def draw_call_tree(root: CallNode, function: str) -> SVGCanvas:
    """Draw one call tree: red live nodes, gray exited, return back edges."""
    layout_root = _to_layout(root, function)
    layout_tree(
        layout_root,
        node_height=34,
        measure=lambda node: max(text_width(node.label, 13) + 18, 60),
    )
    canvas = SVGCanvas()
    offset_x, offset_y = 20, 20
    for node in layout_root.walk():
        call: CallNode = node.payload
        x, y = node.x + offset_x, node.y + offset_y
        fill = LIVE_FILL if call.active else DONE_FILL
        stroke = LIVE_COLOR if call.active else "#666666"
        canvas.rect(x, y, node.width, node.height, fill=fill, stroke=stroke,
                    stroke_width=2 if call.active else 1, rx=6)
        canvas.text(
            x + node.width / 2, y + 22, node.label, size=13, anchor="middle"
        )
        for child in node.children:
            child_x = child.x + offset_x
            child_y = child.y + offset_y
            canvas.line(
                x + node.width / 2, y + node.height,
                child_x + child.width / 2, child_y,
                stroke="#555555",
            )
            child_call: CallNode = child.payload
            if child_call.retval is not None:
                # Back edge carrying the return value.
                canvas.curve(
                    child_x + child.width / 2 + 10, child_y,
                    x + node.width / 2 + 10, y + node.height,
                    bend=26, stroke="#2980b9",
                )
                canvas.text(
                    (x + child_x + node.width) / 2 + 26,
                    (y + node.height + child_y) / 2 + 4,
                    child_call.retval,
                    size=12,
                    fill="#2980b9",
                )
    if root.retval is not None:
        # The root's own return value, annotated beside it.
        canvas.text(
            layout_root.x + offset_x + layout_root.width + 10,
            layout_root.y + offset_y + 20,
            f"=> {root.retval}",
            size=13,
            fill="#2980b9",
            bold=True,
        )
    return canvas


def _to_layout(call: CallNode, function: str) -> TreeNode:
    node = TreeNode(label=call.label(function), payload=call)
    for child in call.children:
        node.children.append(_to_layout(child, function))
    return node
