"""Seeded inferior programs and the oracles that check what a tracker saw.

Every generator takes a ``random.Random`` and returns a :class:`Program`:
the source text to write into the workload's scratch directory, the line
numbers a tool needs (breakpoints, probes), and the expected results,
computed here in plain Python without any tracker. The seed only varies
data and constants; the *shape* of each program (loop trip counts, array
lengths, recursion pattern) is fixed, so two seeds cost the same work and
the benchmark's bounds hold across seeds.

Line counts are closed forms of CPython 3.11's line-event rules for the
generated shapes (one event per executed line; a ``for``/``while`` header
fires once more when the loop exits; a call site does not fire again when
the callee returns).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class Program:
    """One generated inferior plus everything the oracle expects of it."""

    source: str
    suffix: str
    #: named line numbers (breakpoint targets, probe lines)
    lines: Dict[str, Any] = field(default_factory=dict)
    #: expected observable results, keyed by what the workload checks
    expect: Dict[str, Any] = field(default_factory=dict)


def _line_of(source: str, marker: str) -> int:
    """1-based line of the unique source line containing ``marker``."""
    hits = [n for n, text in enumerate(source.splitlines(), 1) if marker in text]
    if len(hits) != 1:
        raise ValueError(f"marker {marker!r} found {len(hits)} times")
    return hits[0]


def collapse(sequence: List[Any]) -> List[Any]:
    """Drop consecutive repeats: the change sequence of a sampled value."""
    out: List[Any] = []
    for item in sequence:
        if not out or out[-1] != item:
            out.append(item)
    return out


# ---------------------------------------------------------------------------
# hot_loop: a long loop, ~50 never-hit breakpoints, one sparse hit
# ---------------------------------------------------------------------------

HOT_ITERATIONS = 110_000
HOT_PERIOD = 256
HOT_DEAD_BREAKPOINTS = 50


def hot_loop_program(rng: random.Random) -> Program:
    """``for i in range(N)`` with an arithmetic body and a sparse branch.

    The never-hit breakpoints sit in bodies of functions that are defined
    but never called, so the engine indexes them without ever matching.
    """
    mul = rng.randrange(3, 1000)
    mod = rng.randrange(97, 10_007)
    phase = rng.randrange(HOT_PERIOD)
    dead_functions = 5
    per_function = HOT_DEAD_BREAKPOINTS // dead_functions
    parts = ["total = 0", "hits = 0", ""]
    for f in range(dead_functions):
        parts.append(f"def dead_{f}(v):")
        for k in range(per_function):
            parts.append(f"    v = v * {rng.randrange(2, 50)} + {k}  # dead")
        parts.append("    return v")
        parts.append("")
    parts += [
        f"for i in range({HOT_ITERATIONS}):",
        f"    total += (i * {mul}) % {mod}",
        f"    if i % {HOT_PERIOD} == {phase}:",
        "        hits += 1  # sparse",
        "done = total  # probe",
        "",
    ]
    source = "\n".join(parts)
    dead_lines = [
        n for n, text in enumerate(source.splitlines(), 1) if "# dead" in text
    ]
    hits = sum(1 for i in range(HOT_ITERATIONS) if i % HOT_PERIOD == phase)
    total = sum((i * mul) % mod for i in range(HOT_ITERATIONS))
    lines = (
        2  # total, hits
        + dead_functions  # def lines
        + HOT_ITERATIONS + 1  # for header, once more on exit
        + 2 * HOT_ITERATIONS  # body: total, if
        + hits
        + 1  # done
    )
    return Program(
        source=source,
        suffix=".py",
        lines={"sparse": _line_of(source, "# sparse"),
               "probe": _line_of(source, "# probe"),
               "dead": dead_lines},
        expect={"total": total, "hits": hits, "line_events": lines},
    )


# ---------------------------------------------------------------------------
# step_inspect / record_query: insertion sort + recursive binary search
# ---------------------------------------------------------------------------

SORT_TEMPLATE = """\
data = {data!r}
targets = {targets!r}

def insertion_sort(a):
    for i in range(1, len(a)):
        key = a[i]
        j = i - 1
        while j >= 0 and a[j] > key:
            a[j + 1] = a[j]
            j -= 1
        a[j + 1] = key

def search(a, lo, hi, x):
    if lo > hi:
        return -1
    mid = (lo + hi) // 2
    if a[mid] == x:
        return mid
    if a[mid] < x:
        return search(a, mid + 1, hi, x)
    return search(a, lo, mid - 1, x)

insertion_sort(data)
found = []
for t in targets:
    found.append(search(data, 0, len(data) - 1, t))
"""


def _search_lines(a: List[int], lo: int, hi: int, x: int) -> tuple:
    """(line events, calls, result) of the generated recursive search."""
    lines = calls = 0
    while True:
        calls += 1
        if lo > hi:
            return lines + 2, calls, -1
        mid = (lo + hi) // 2
        if a[mid] == x:
            return lines + 4, calls, mid
        lines += 5
        if a[mid] < x:
            lo = mid + 1
        else:
            hi = mid - 1


def sort_search_program(
    rng: random.Random, length: int, searches: int, inversions: int
) -> Program:
    """Sort ``length`` distinct values, then search ``searches`` targets.

    The array is a seeded permutation with exactly ``inversions``
    inversions, so every seed costs the same number of line events; the
    targets are half present, half absent (fixed count of each).
    """
    values = rng.sample(range(10, 10 * length * 4), length)
    values.sort()
    data = _permutation_with_inversions(rng, values, inversions)
    present = rng.sample(values, searches // 2)
    absent_pool = sorted(set(range(10, 10 * length * 4)) - set(values))
    absent = rng.sample(absent_pool, searches - len(present))
    targets = present + absent
    rng.shuffle(targets)
    source = SORT_TEMPLATE.format(data=data, targets=targets)
    n = length
    sort_lines = n + 4 * (n - 1) + 3 * inversions
    search_lines = search_calls = 0
    found = []
    for t in targets:
        lines, calls, result = _search_lines(values, 0, n - 1, t)
        search_lines += lines
        search_calls += calls
        found.append(result)
    if found != [
        bisect.bisect_left(values, t) if t in values else -1 for t in targets
    ]:
        raise AssertionError("search line model disagrees with bisect")
    module_lines = 6 + (searches + 1) + searches
    return Program(
        source=source,
        suffix=".py",
        lines={},
        expect={
            "sorted": values,
            "found": found,
            "keys": collapse(data[1:]),
            "search_calls": search_calls,
            "line_events": module_lines + sort_lines + search_lines,
        },
    )


def _permutation_with_inversions(
    rng: random.Random, ordered: List[int], inversions: int
) -> List[int]:
    """A seeded permutation of ``ordered`` with exactly ``inversions``.

    Builds a Lehmer code whose digits sum to ``inversions``: each element
    is inserted so that ``c[i]`` larger elements precede it.
    """
    n = len(ordered)
    limit = n * (n - 1) // 2
    if not 0 <= inversions <= limit:
        raise ValueError(f"inversions must be in [0, {limit}]")
    # code[k]: how many larger elements precede the k-th smallest one
    code = [0] * n
    open_slots = list(range(n - 1))
    for _ in range(inversions):
        k = rng.choice(open_slots)
        code[k] += 1
        if code[k] == n - 1 - k:
            open_slots.remove(k)
    result: List[int] = []
    for k in range(n - 1, -1, -1):
        result.insert(code[k], ordered[k])
    return _check_inversions(result, inversions)


def _check_inversions(values: List[int], expected: int) -> List[int]:
    count = sum(
        1
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if values[i] > values[j]
    )
    if count != expected:
        raise AssertionError(f"generated {count} inversions, wanted {expected}")
    return values


# ---------------------------------------------------------------------------
# gdb_inspect: mini-C with malloc/free and one tracked function
# ---------------------------------------------------------------------------

C_ROUNDS = 12
C_BASE_SIZE = 4
C_VALUES = 8

C_TEMPLATE = """\
int vals[{nvals}] = {{{vals}}};
int total = 0;
int calls = 0;

int accumulate(int *b, int k) {{
    int s = 0;
    for (int i = 0; i < k; i++) {{
        s = s + b[i] * {weight};
    }}
    calls = calls + 1;
    return s;
}}

int main(void) {{
    int *keep = malloc({keep_bytes});
    for (int r = 0; r < {rounds}; r++) {{
        int k = {base} + r;
        int *b = malloc(k * sizeof(int));
        for (int i = 0; i < k; i++) {{
            b[i] = vals[(r + i) % {nvals}] * (i + 1);
        }}
        total = total + accumulate(b, k);
        if (r % {leak_every} != {leak_phase}) {{
            free(b);
        }}
    }}
    keep[0] = total;
    return 0;  // probe
}}
"""


def minic_program(rng: random.Random) -> Program:
    """A mini-C heap workload: per round malloc, fill, sum, (maybe) free.

    Some rounds leak their block on purpose so the heap-block oracle has
    live blocks of known sizes at the final probe.
    """
    vals = [rng.randrange(1, 100) for _ in range(C_VALUES)]
    weight = rng.randrange(2, 9)
    keep_words = rng.randrange(2, 6)
    leak_every = 4
    leak_phase = rng.randrange(leak_every)
    source = C_TEMPLATE.format(
        nvals=C_VALUES,
        vals=", ".join(map(str, vals)),
        weight=weight,
        keep_bytes=4 * keep_words,
        rounds=C_ROUNDS,
        base=C_BASE_SIZE,
        leak_every=leak_every,
        leak_phase=leak_phase,
    )
    returns = []
    blocks = [4 * keep_words]
    for r in range(C_ROUNDS):
        k = C_BASE_SIZE + r
        b = [vals[(r + i) % C_VALUES] * (i + 1) for i in range(k)]
        returns.append(sum(x * weight for x in b))
        if r % leak_every == leak_phase:
            blocks.append(4 * k)
    return Program(
        source=source,
        suffix=".c",
        lines={"probe": _line_of(source, "// probe")},
        expect={
            "returns": returns,
            "total": sum(returns),
            "calls": C_ROUNDS,
            "vals": vals,
            "heap_sizes": sorted(blocks),
        },
    )


# ---------------------------------------------------------------------------
# service_sessions: an endless loop a session resumes through M times
# ---------------------------------------------------------------------------

SERVICE_TEMPLATE = """\
acc = {seed_acc}
for i in range({stops}):
    acc = (acc * {mul} + i) % {mod}
    last = i  # stop
"""


def service_program(rng: random.Random, stops: int) -> Program:
    """A loop a session stops in ``stops`` times, then runs to exit.

    At the m-th stop (m from 0), ``i == m`` and ``acc`` equals
    :func:`service_acc_after`; every resume runs three lines, the final
    one (to exit) two. Running to completion lets the service hand the
    child back to its warm pool.
    """
    seed_acc = rng.randrange(1, 1000)
    mul = rng.randrange(3, 100)
    mod = rng.randrange(1009, 100_003)
    source = SERVICE_TEMPLATE.format(
        seed_acc=seed_acc, stops=stops, mul=mul, mod=mod)
    return Program(
        source=source,
        suffix=".py",
        lines={"stop": _line_of(source, "# stop")},
        expect={"seed_acc": seed_acc, "mul": mul, "mod": mod,
                "lines_per_resume": 3, "lines_to_exit": 2},
    )


def service_acc_after(expect: Dict[str, Any], stops: int) -> List[int]:
    """``acc`` at each of the first ``stops`` stops (closed form)."""
    acc = expect["seed_acc"]
    out = []
    for i in range(stops):
        acc = (acc * expect["mul"] + i) % expect["mod"]
        out.append(acc)
    return out
