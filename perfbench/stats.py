"""Small statistics helpers shared by the workloads and the result printer."""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tail_percentile(samples: int) -> Optional[float]:
    """The highest percentile that has at least ten samples beyond it.

    With ``n`` samples, percentile ``p`` leaves ``n * (1 - p/100)`` above
    it; a tail estimate resting on fewer than ten is one outlier away from
    a different number. ``None`` when even the median lacks ten.
    """
    for p in TAIL_CANDIDATES:
        if samples * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0-100] of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def require_percentile(values: Sequence[float], p: float) -> float:
    """``percentile(values, p)``, refusing a tail the samples cannot carry."""
    supported = tail_percentile(len(values))
    if supported is None or supported < p:
        needed = math.ceil(10 * 100 / (100 - p))
        raise ValueError(
            f"p{p:g} needs at least {needed} samples; have {len(values)}"
        )
    return percentile(values, p)


def block_percentile(values: Sequence[float], p: float, block: int) -> float:
    """Median over consecutive blocks of ``block`` samples of each block's
    percentile ``p`` (the remainder joins the last block).

    Every block must carry the tail on its own (see
    :func:`require_percentile`), so a burst of outside interference that
    inflates one block's tail moves the result by one rank, not all of it.
    """
    count = max(1, len(values) // block)
    blocks = [values[i * block:(i + 1) * block] for i in range(count - 1)]
    blocks.append(values[(count - 1) * block:])
    return median(require_percentile(b, p) for b in blocks)


def window_rate(
    segments: Sequence[Tuple[float, Sequence[float]]], window: int
) -> float:
    """Median events per second over windows of ``window`` events.

    Each segment is ``(speed, [start, t1, t2, ...])``: the machine speed
    it ran at (rates are divided by it), when the stretch of work began
    and when each event in it completed. Windows never straddle segments,
    so time spent between stretches (set-up, calibration) is not counted.
    """
    rates = []
    for speed, times in segments:
        for first in range(0, len(times) - window, window):
            span = times[first + window] - times[first]
            if span > 0:
                rates.append(window / span / speed)
    if not rates:
        raise ValueError(f"no stretch completed {window} events")
    return median(rates)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def valid_name(name: str) -> bool:
    """Metric and workload names: ``[A-Za-z0-9_.-]``, letter or digit first."""
    return bool(_NAME.fullmatch(name))


def valid_unit(unit: str) -> bool:
    return bool(_UNIT.fullmatch(unit))


def self_times(
    spans: List[Tuple[int, Optional[int], int, int]]
) -> Dict[int, int]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` holds ``(id, parent_id, start, end)``. Children of one parent
    may overlap each other (concurrent tasks), so the covered part is the
    union of their intervals, clipped to the parent's own interval.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, int] = {}
    for span_id, _, start, end in spans:
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result
