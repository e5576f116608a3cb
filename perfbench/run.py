"""Pause-path benchmark: one workload, one run, one JSON result line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload step_inspect --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics listed in ``BENCHMARK.json``; ``--trace 1`` repeats the run with
spans around each layer's entry points and reports the per-layer metrics
plus the tracing overhead (traced minus untraced). Earlier stdout lines
hold the environment record and a human-readable table; the last line is
``{"correct", "attempted", "failed", "metrics"}``.

The process and its children are pinned to one CPU, and the in-process
workloads' times and rates are scaled to a reference CPU by a calibration
loop timed between pauses (``workloads.REFERENCE_S``); the raw figures are
printed too. The run reaps its orphans: any process it started, at any
depth, that is still there when it ends is killed and waited for.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")


#: prctl option: orphaned descendants are re-parented to this process
PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Become the reaper of every process this run starts, at any depth.

    A child server whose parent has gone (a pool child whose spawn was
    cancelled mid-handshake, say) then stays a descendant that
    :func:`_stop_descendants` can find, instead of escaping to init.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        _fatal(f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(ctypes.get_errno())}")


def _descendants(pid: int) -> list:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children = [int(c) for c in handle.read().split()]
        except OSError:
            continue
        for child in children:
            found.append(child)
            found.extend(_descendants(child))
    return found


def _stop_descendants(deadline_s: float = 20.0) -> int:
    """Kill every process still below this one and wait until each is reaped.

    Returns how many were still running when the run ended.
    """
    leftover = _descendants(os.getpid())
    cutoff = time.monotonic() + deadline_s
    while time.monotonic() < cutoff:
        for pid in _descendants(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break  # no children left, zombie or alive
        if pid == 0:
            time.sleep(0.01)
    return len(leftover)


def _fatal(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _environment() -> dict:
    from repro.core.errors import TrackerError
    from repro.core.factory import available_trackers, init_tracker

    backends = []
    for name in available_trackers():
        try:
            init_tracker(name)
        except TrackerError:
            continue
        backends.append(name)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = 0
    for folder, _, names in os.walk(os.path.join(SOURCE, "repro")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    src_lines += handle.read().count(b"\n")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backends": backends,
        "commit": commit,
        "src_lines": src_lines,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload: str, seed: int, seconds: float, traced: bool):
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Run

    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = Run(seconds=seconds, workdir=workdir, rng=random.Random(seed),
              tracer=Tracer() if traced else None)
    try:
        WORKLOADS[workload](run)
    finally:
        if run.tracer is not None:
            run.tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    if not run.pause_ms or not run.setup_s or not run.lines_pauses:
        _fatal(f"{workload} produced no complete measurement: "
               f"errors={run.errors[:3]} wrong={run.wrong[:3]}")
    run.smooth_speeds()
    return run


#: Pauses per p99/p95 block: ten beyond the p99.
TAIL_BLOCK = 1000


def end_to_end(run) -> dict:
    """The gated metrics, scaled to the reference CPU (see REFERENCE_S)."""
    from perfbench.stats import block_percentile, median, percentile, window_rate
    from perfbench.workloads import RATE_WINDOW

    pauses = run.normalized_ms()
    pauses_per_s = window_rate(
        [(s.speed, s.times) for s in run.segments], RATE_WINDOW)
    return {
        "setup_s": median(run.setup_s),
        "pause_p50_ms": percentile(pauses, 50),
        "pause_p95_ms": block_percentile(pauses, 95, TAIL_BLOCK),
        "pause_p99_ms": block_percentile(pauses, 99, TAIL_BLOCK),
        "pauses_per_s": pauses_per_s,
        "lines_per_s": pauses_per_s * run.lines / run.lines_pauses,
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer(run, untraced) -> dict:
    from perfbench.stats import percentile

    engine = run.engine
    layer = dict(run.layer)
    layer["engine.events_seen"] = engine["events"]
    layer["engine.pause_ratio"] = (
        engine["pauses"] / engine["events"] if engine["events"] else 0.0)
    layer["engine.decision_us_mean"] = (
        engine["decision_ns"] / engine["pauses"] / 1e3 if engine["pauses"] else 0.0)
    layer["engine.watch_evaluations"] = engine["watch_evaluations"]
    layer["capture.values_per_pause"] = (
        sum(run.values) / len(run.values) if run.values else 0.0)
    base = percentile(untraced.normalized_ms(), 50)
    traced = percentile(run.normalized_ms(), 50)
    layer["trace.overhead_ms_p50"] = traced - base
    layer["trace.overhead_pct"] = 100.0 * (traced - base) / base
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _adopt_orphans()
    try:
        return _main(args)
    finally:
        leftover = _stop_descendants()
        if leftover:
            print(f"perfbench: stopped {leftover} leftover process(es)",
                  file=sys.stderr)


def _main(args) -> int:
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        _fatal(f"no source tree at {SOURCE}; run from a repository checkout")
    sys.path[:0] = [ROOT, SOURCE]
    # child servers (MI, subproc pool) import the same source tree
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE, os.environ.get("PYTHONPATH")]))
    from perfbench.stats import (
        median, percentile, valid_name, valid_unit, window_rate)
    from perfbench.workloads import RATE_WINDOW
    from perfbench.workloads import WORKLOADS

    spec = _load_spec()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names or args.workload not in WORKLOADS:
        _fatal(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    for metric in declared:
        if not valid_name(metric["name"]) or not valid_unit(metric["unit"]):
            _fatal(f"invalid metric name or unit: {metric}")

    # Tool, inferior and server processes share one CPU (children inherit
    # the affinity). On a small VM a wake-up across vCPUs costs
    # milliseconds and varies from run to run; it would swamp the pause
    # handshake being measured.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("# env " + json.dumps(_environment(), sort_keys=True), flush=True)
    begin = time.perf_counter()
    # a traced run splits its time: untraced baseline, then traced
    phase = args.seconds / 2 if args.trace else args.seconds
    run = _measure(args.workload, args.seed, phase, traced=False)
    values = untraced = end_to_end(run)
    if args.trace:
        traced = _measure(args.workload, args.seed, phase, traced=True)
        values = per_layer(traced, run)
        run.attempted += traced.attempted
        run.failed += traced.failed
        run.wrong += traced.wrong
        run.errors += traced.errors
    elapsed = time.perf_counter() - begin

    info = {
        "failed_ratio": run.failed / max(run.attempted, 1),
        # printed, not gated: on a shared VM the host sets the tail
        "pause_p95_ms": untraced["pause_p95_ms"],
        "pause_p99_ms": untraced["pause_p99_ms"],
        "pauses": len(run.pause_ms),
        "raw_pause_p50_ms": percentile(run.pause_ms, 50),
        "raw_pauses_per_s": window_rate(
            [(1.0, s.times) for s in run.segments], RATE_WINDOW),
        "machine_speed": median(run.speeds),
        "setups": len(run.setup_s),
        "wall_s": elapsed,
        **run.extra,
    }
    if args.trace:
        info.update({f"untraced.{k}": v for k, v in untraced.items()})
    for key, value in info.items():
        print(f"# {key:<32} {value}")
    if run.errors:
        print("# errors: " + "; ".join(run.errors))
    if run.wrong:
        print("# WRONG: " + "; ".join(run.wrong))
    metrics = {}
    for metric in declared:
        value = values.get(metric["name"], 0.0)
        print(f"# {metric['name']:<32} {value:14.6f} {metric['unit']}")
        metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    correct = not run.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
