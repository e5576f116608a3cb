"""Trace-store guards: index speedup, maintenance overhead, CLI acceptance.

Three promises from the queryable-trace-store issue, measured honestly on
a ~10k-pause recording of a loop workload:

- ``history("x")`` answered from the record-time inverted index must beat
  a naive full-scan (reconstruct every snapshot, render, compare) by at
  least 10x — the whole point of maintaining the index while recording.
- Maintaining that index *during* recording must cost at most 1.3x a
  plain recording (min-of-2 runs per side): observation rides on the
  delta patches the codec already computes, so it prices one dict merge
  per pause, not a second diff.
- The CLI must answer the issue's three acceptance queries ("when did x
  last change?", "which calls of f returned INVALID?", ``len(...) > N``)
  against a recording that spilled to a ``.tracedir/`` on disk.

CI runs these as guarded steps emitting ``--benchmark-json`` artifacts
per matrix version.
"""

import os
import time

import pytest

from repro.pytracker import PythonTracker

# ~8 pauses per iteration (loop body + tracked call/return of f), so
# 1250 iterations give a recording comfortably past 10k pauses.
BIG_ITERATIONS = 1250
MEDIUM_ITERATIONS = 300

WORKLOAD = """\
def f(n):
    y = n % 9
    return y

x = 0
probe = 0
heap = []
for i in range({iterations}):
    probe = f(i)
    heap.append(probe)
    if len(heap) >= 12:
        heap.clear()
        x = i
done = True
"""


def _record(path, **kwargs):
    """Step a workload to completion with recording; returns the tracker."""
    tracker = PythonTracker()
    tracker.load_program(path)
    tracker.enable_recording(keyframe_interval=16, **kwargs)
    tracker.start()
    tracker.track_function("f")
    while tracker.get_exit_code() is None:
        tracker.step()
    return tracker


@pytest.fixture(scope="module")
def big_recording(tmp_path_factory):
    """One shared ~10k-pause in-memory recording with a record-time index."""
    path = tmp_path_factory.mktemp("tracestore") / "big.py"
    path.write_text(WORKLOAD.format(iterations=BIG_ITERATIONS))
    tracker = _record(str(path))
    yield tracker
    tracker.terminate()


def _naive_history(view, name):
    """The full scan the index replaces: reconstruct every snapshot,
    render the variable, record each change."""
    changes = []
    previous = object()
    for position in range(view.first_index, view.last_index + 1):
        variable = view.at(position).lookup(name)
        rendered = (
            variable.value.chase().render() if variable is not None else None
        )
        if rendered != previous:
            changes.append((position, rendered))
            previous = rendered
    return changes


def test_indexed_history_10x_faster_than_scan(benchmark, big_recording):
    """ISSUE guard: indexed ``history("x")`` on a 10k-pause recording must
    be at least 10x faster than the naive full scan."""
    view = big_recording.timeline_view()
    assert len(view) >= 10_000
    assert view.index is not None  # built at record time, not on demand

    def measure():
        start = time.perf_counter()
        indexed = view.history("x")
        indexed_seconds = time.perf_counter() - start
        start = time.perf_counter()
        naive = _naive_history(view, "x")
        naive_seconds = time.perf_counter() - start
        return indexed, naive, indexed_seconds, naive_seconds

    indexed, naive, indexed_seconds, naive_seconds = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    # Same answer first: the speedup would be meaningless otherwise.
    # (The naive scan counts the pre-assignment None as a "change"; the
    # index counts a variable from its first visible snapshot.)
    assert [
        (event.index, event.value) for event in indexed
    ] == [(position, value) for position, value in naive if value is not None]
    factor = naive_seconds / indexed_seconds
    print(
        f"\nhistory('x') over {len(view):,} pauses: indexed "
        f"{indexed_seconds * 1e3:.1f} ms vs naive scan "
        f"{naive_seconds * 1e3:.1f} ms -> {factor:.0f}x (must be >= 10x)"
    )
    assert factor >= 10.0


def test_index_maintenance_within_1p3x(benchmark, write_program):
    """ISSUE guard: record-time index maintenance must cost at most 1.3x
    a plain recording (min of 2 runs per side)."""
    path = write_program(
        "medium.py", WORKLOAD.format(iterations=MEDIUM_ITERATIONS)
    )

    def timed(index):
        start = time.perf_counter()
        tracker = _record(path, index=index)
        elapsed = time.perf_counter() - start
        tracker.terminate()
        return elapsed

    timed(False)  # warm-up: imports, code objects, caches

    def measure():
        plain = min(timed(False) for _ in range(2))
        indexed = min(timed(True) for _ in range(2))
        return plain, indexed

    plain, indexed = benchmark.pedantic(measure, rounds=1, iterations=1)
    factor = indexed / plain
    print(
        f"\nrecording plain {plain * 1e3:.0f} ms vs with index maintenance "
        f"{indexed * 1e3:.0f} ms -> {factor:.2f}x (must stay within 1.3x)"
    )
    assert factor <= 1.3


def test_cli_queries_answer_on_spilled_recording(
    benchmark, tmp_path, capsys
):
    """ISSUE acceptance: ``python -m repro timeline query`` answers the
    three acceptance queries on a 10k-pause recording that spilled to
    disk (tiny in-memory window, everything else in ``.tracedir/``)."""
    from repro.cli import main

    program = tmp_path / "big.py"
    program.write_text(WORKLOAD.format(iterations=BIG_ITERATIONS))
    tracedir = str(tmp_path / "big.tracedir")
    tracker = _record(
        str(program), max_snapshots=256, tracedir=tracedir
    )
    total = len(tracker.timeline)
    assert total >= 10_000
    assert tracker.timeline.start_index > 0  # the window really spilled
    tracker.terminate()  # seals the store
    segments = [
        name for name in os.listdir(tracedir) if name.startswith("segment-")
    ]
    assert len(segments) > 1
    capsys.readouterr()

    queries = ["x changed", "f() == INVALID", "len(heap) > 5"]

    def run_queries():
        outputs = {}
        for text in queries:
            assert main(
                ["timeline", "query", "--tracedir", tracedir, text]
            ) == 0
            outputs[text] = capsys.readouterr().out
        return outputs

    outputs = benchmark.pedantic(run_queries, rounds=1, iterations=1)
    # "when did x last change?" — the history answer ends at its last hit.
    history = outputs["x changed"]
    assert "matches for: x changed" in history
    assert "x =" in history
    # "which calls of f returned INVALID?" — answered (none on a Python
    # recording, where no value renders <invalid>), not an error.
    assert "0 matches for: f() == INVALID" in outputs["f() == INVALID"]
    # The len() predicate stream-scans the spilled segments.
    length = outputs["len(heap) > 5"]
    assert "matches for: len(heap) > 5" in length
    assert not length.startswith("0 matches")
    with capsys.disabled():
        print(
            f"\nCLI answered {len(queries)} acceptance queries on a "
            f"{total:,}-pause spilled recording ({len(segments)} segments)"
        )
