"""The loop-invariant array visualizer of the paper's Fig. 1.

Shows the source code of a sorting program next to the state of the array
as it is sorted: index variables (``i``, ``j``) are drawn as markers under
their cells and an already-sorted prefix is highlighted with a darker
background — making the loop invariant *visible* while the student steps
line by line.

The tool is generic over the variable names: any program with an array and
any set of index variables works.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.core.factory import init_tracker
from repro.core.state import AbstractType, Value
from repro.core.tracker import Tracker
from repro.viz.source import render_source
from repro.viz.svg import SVGCanvas, text_width

CELL_SIZE = 42
SORTED_FILL = "#9fc5e8"
PLAIN_FILL = "#f5f5f5"
MARKER_COLORS = ["#c0392b", "#27ae60", "#8e44ad", "#d35400"]


def extract_array(value: Value) -> Optional[List[object]]:
    """Pull a flat Python list out of a model value (REF/LIST chase)."""
    value = value.chase()
    if value.abstract_type is not AbstractType.LIST:
        return None
    items: List[object] = []
    for element in value.content:
        inner = element.chase()
        if inner.abstract_type is AbstractType.PRIMITIVE:
            items.append(inner.content)
        elif inner.abstract_type is AbstractType.NONE:
            items.append(None)
        else:
            items.append(inner.render())
    return items


def draw_array_state(
    array: List[object],
    indices: Dict[str, Optional[int]],
    sorted_prefix: int = 0,
    title: str = "",
) -> SVGCanvas:
    """Draw the array as cells with index markers and a sorted prefix.

    Args:
        array: current element values.
        indices: marker name -> position (``None`` markers are skipped).
        sorted_prefix: number of leading cells drawn as "already sorted".
        title: optional heading.
    """
    canvas = SVGCanvas()
    top = 14
    if title:
        canvas.text(14, top + 6, title, size=15, bold=True)
        top += 26
    x0 = 20
    for position, element in enumerate(array):
        x = x0 + position * CELL_SIZE
        fill = SORTED_FILL if position < sorted_prefix else PLAIN_FILL
        canvas.rect(x, top, CELL_SIZE, CELL_SIZE, fill=fill)
        canvas.text(
            x + CELL_SIZE / 2,
            top + CELL_SIZE / 2 + 5,
            str(element),
            anchor="middle",
        )
        canvas.text(
            x + CELL_SIZE / 2,
            top + CELL_SIZE + 14,
            str(position),
            size=11,
            fill="#999999",
            anchor="middle",
        )
    marker_y = top + CELL_SIZE + 30
    for slot, (name, position) in enumerate(indices.items()):
        if position is None or not (0 <= position < max(len(array), 1)):
            continue
        color = MARKER_COLORS[slot % len(MARKER_COLORS)]
        x = x0 + position * CELL_SIZE + CELL_SIZE / 2
        canvas.arrow(x, marker_y + 18, x, top + CELL_SIZE + 22, stroke=color)
        canvas.text(
            x, marker_y + 34, name, fill=color, bold=True, anchor="middle"
        )
    return canvas


class ArrayInvariantTool:
    """Step a sorting program and emit (source, array) image pairs.

    Args:
        program: the inferior (Python or mini-C).
        array_name: the array variable to display.
        index_names: index variables drawn as markers (e.g. ``["i", "j"]``).
        sorted_upto: name of the variable giving the sorted-prefix length
            (typically the outer loop index of an insertion sort).
        function: the function whose locals hold those variables.
    """

    def __init__(
        self,
        program: str,
        array_name: str,
        index_names: List[str],
        sorted_upto: Optional[str] = None,
        function: Optional[str] = None,
    ):
        self.program = program
        self.array_name = array_name
        self.index_names = index_names
        self.sorted_upto = sorted_upto
        self.function = function

    def run(self, output_dir: str, max_steps: int = 300) -> List[str]:
        """Execute the program, saving one array image per line executed.

        Returns the list of array-image paths (source images are written
        next to them as ``sourceNN.svg``).
        """
        os.makedirs(output_dir, exist_ok=True)
        tracker: Tracker = init_tracker(
            "python" if self.program.endswith(".py") else "GDB"
        )
        tracker.load_program(self.program)
        tracker.start()
        source_lines = tracker.get_source_lines()
        written: List[str] = []
        try:
            step = 1
            while tracker.get_exit_code() is None and step <= max_steps:
                state = self.snapshot(tracker)
                if state is not None:
                    array, indices, prefix = state
                    array_canvas = draw_array_state(
                        array, indices, prefix, title=self.array_name
                    )
                    array_path = os.path.join(output_dir, f"array{step:02d}.svg")
                    array_canvas.save(array_path)
                    source_canvas = render_source(
                        source_lines, tracker.next_lineno, tracker.last_lineno
                    )
                    source_canvas.save(
                        os.path.join(output_dir, f"source{step:02d}.svg")
                    )
                    written.append(array_path)
                tracker.step()
                step += 1
        finally:
            tracker.terminate()
        return written

    def snapshot(self, tracker: Tracker):
        """Read (array, indices, sorted prefix) from the paused inferior."""
        variable = tracker.get_variable(self.array_name, self.function)
        if variable is None:
            return None
        array = extract_array(variable.value)
        if array is None:
            return None
        indices: Dict[str, Optional[int]] = {}
        for name in self.index_names:
            index_variable = tracker.get_variable(name, self.function)
            indices[name] = _as_int(index_variable)
        prefix = 0
        if self.sorted_upto is not None:
            upto = _as_int(tracker.get_variable(self.sorted_upto, self.function))
            prefix = upto if upto is not None else 0
        return array, indices, prefix


def _as_int(variable) -> Optional[int]:
    if variable is None:
        return None
    value = variable.value.chase()
    if value.abstract_type is AbstractType.PRIMITIVE and isinstance(
        value.content, int
    ):
        return value.content
    return None
