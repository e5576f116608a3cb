"""The five pause-path workloads.

Each workload is a function ``(run) -> None`` that drives one backend
through generated inferiors until ``run.seconds`` have passed, appending
samples to ``run`` and checking every result against its oracle in
:mod:`perfbench.programs`. A pause is one tool iteration: the control
call until it returns paused, plus the inspection the workload does at
that pause. When ``run.tracer`` is set, the workload also reduces the
tracer's spans into per-layer metrics in ``run.layer``.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import shutil
import signal
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from perfbench import programs
from perfbench.stats import median, percentile
from perfbench.tracing import Tracer

from repro.core.errors import TrackerError
from repro.core.factory import init_tracker
from repro.core.pause import PauseReasonType
from repro.core.state import value_to_python

#: Deadline of every control call, inspection, session open and query: a
#: hang becomes a counted failure instead of a wedged run.
CALL_DEADLINE = 10.0
#: Measured set-ups before the run phase, after one discarded warm-up
#: (lazy imports, caches); the run phase adds one per inferior.
SETUP_REPEATS = 50
#: A run keeps going past ``seconds`` until it has this many pauses, so
#: the p99 always has at least ten samples beyond it.
MIN_PAUSES = 1100
#: Pauses per calibrated segment: each segment of a synchronous workload
#: starts with a calibration sample, so it carries its own machine speed.
SEGMENT_PAUSES = 200
#: Pauses per throughput window; a run's rate is the median over windows,
#: so a burst of host interference moves it by a few windows' ranks.
RATE_WINDOW = 50
#: Seconds the calibration loop takes on the reference CPU. Shared VMs
#: change speed by up to 2x within minutes (host contention); the times
#: and rates of the synchronous workloads are scaled to what the reference
#: CPU would have measured. Calibration runs only between pauses, while
#: nothing else runs.
REFERENCE_S = 0.010
CALIBRATION_ITERATIONS = 15_000
#: Pause reasons that mean a control call missed its deadline.
_DEADLINE_REASONS = (PauseReasonType.INTERRUPT, PauseReasonType.DEADLOCK_SUSPECTED)


class QueryDeadline(TrackerError):
    """An in-process call outran :data:`CALL_DEADLINE`."""


def calibration_sample() -> float:
    """Seconds a fixed, interpreter-bound loop takes right now."""
    begin = time.perf_counter()
    table: Dict[int, int] = {}
    items: List[tuple] = []
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        key = i & 255
        table[key] = table.get(key, 0) + i
        items.append((key, str(i)))
        acc += len(items[-1][1]) + i % 7
        if len(items) > 64:
            items.clear()
    return time.perf_counter() - begin


def machine_speed(samples: int = 1) -> float:
    """Speed relative to the reference CPU (2.0 = twice as fast)."""
    return REFERENCE_S / median([calibration_sample() for _ in range(samples)])


@dataclass
class Segment:
    """A stretch of pauses timed at one machine speed.

    ``times`` starts with the stretch's start, then one completion time
    per pause. A rolling segment ends after :data:`SEGMENT_PAUSES` pauses
    and the next one is calibrated afresh.
    """

    speed: float
    times: List[float]
    #: start (and calibrate) the next segment by itself once full; off
    #: where clients run concurrently, so no pause is in flight meanwhile
    rolls: bool = True


@dataclass
class Run:
    """Samples, counts and oracle verdicts of one workload run."""

    seconds: float
    workdir: str
    rng: random.Random
    tracer: Optional[Tracer] = None
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    wrong: List[str] = field(default_factory=list)
    pause_ms: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    #: stretches of pauses (set-up excluded) with their machine speed
    segments: List[Segment] = field(default_factory=list)
    #: index into ``segments`` of each pause, parallel to ``pause_ms``
    pause_segment: List[int] = field(default_factory=list)
    #: every calibration taken in the run, in order
    speeds: List[float] = field(default_factory=list)
    #: inferior line executions, from the programs' closed forms, and the
    #: pauses of the inferiors they were counted over
    lines: int = 0
    lines_pauses: int = 0
    #: Value nodes returned by the inspections of each pause (traced run)
    values: List[int] = field(default_factory=list)
    #: get_stats() totals over every tracker the run used
    engine: Counter = field(default_factory=Counter)
    #: extra end-to-end figures a workload reports (printed, not gated)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: per-layer metrics (traced run)
    layer: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)

    def calibrate(self, samples: int = 1) -> float:
        speed = machine_speed(samples)
        self.speeds.append(speed)
        return speed

    def set_up(self, seconds: float) -> None:
        """One set-up took ``seconds``; scale it like the pauses after it."""
        speed = self.segments[-1].speed if self.segments else self.speeds[-1]
        self.setup_s.append(seconds * speed)

    def segment(self, rolls: bool = True, speed: Optional[float] = None) -> None:
        """Start timing a stretch of pauses (after set-up), at ``speed`` or,
        by default, at the speed a fresh calibration measures."""
        if speed is None:
            speed = self.calibrate()
        self.segments.append(Segment(speed, [time.perf_counter()], rolls))

    def paused(self, start: float) -> None:
        """One pause completed; it began (control call issued) at ``start``."""
        now = time.perf_counter()
        segment = self.segments[-1]
        self.pause_ms.append((now - start) * 1e3)
        self.pause_segment.append(len(self.segments) - 1)
        segment.times.append(now)
        if segment.rolls and len(segment.times) > SEGMENT_PAUSES:
            self.segment()

    def smooth_speeds(self) -> None:
        """Give each segment the median speed of it and its two neighbours
        on each side, so one calibration hit by a hiccup of the host
        does not rescale a whole window."""
        raw = [segment.speed for segment in self.segments]
        for i, segment in enumerate(self.segments):
            segment.speed = median(raw[max(0, i - 2):i + 3])

    def normalized_ms(self) -> List[float]:
        """Pause times scaled to the reference CPU."""
        return [
            ms * self.segments[index].speed
            for ms, index in zip(self.pause_ms, self.pause_segment)
        ]

    def completed(self, lines: int, pauses: int) -> None:
        """An inferior ran to exit: credit its closed-form line count."""
        self.lines += lines
        self.lines_pauses += pauses

    def done(self, end: float) -> bool:
        return time.perf_counter() >= end and len(self.pause_ms) >= MIN_PAUSES

    def fail(self, error: Any) -> None:
        self.failed += 1
        self.errors.append(repr(error))

    def attempt(self, call: Callable[[], Any]) -> Any:
        """One operation against the system; ``None`` if it failed."""
        self.attempted += 1
        try:
            return call()
        except (TrackerError, OSError) as error:
            self.fail(error)
            return None

    def write(self, name: str, program: programs.Program) -> str:
        path = os.path.join(self.workdir, name + program.suffix)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(program.source)
        return path

    def add_engine_stats(self, stats: Any) -> None:
        self.engine["events"] += sum(stats.events_seen.values())
        self.engine["pauses"] += stats.pause_count
        self.engine["decision_ns"] += stats.total_pause_latency_ns
        self.engine["watch_evaluations"] += stats.watch_evaluations

    def count_values(self, *collections: Any) -> None:
        if self.tracer is None:
            return
        count = 0
        for variables in collections:
            for variable in variables:
                count += sum(1 for _ in variable.value.walk())
        self.values.append(count)


def _py(variables: Dict[str, Any], name: str) -> Any:
    variable = variables.get(name)
    return None if variable is None else value_to_python(variable.value)


def _control(run: Run, tracker: Any, call: Callable[..., None]) -> bool:
    """A supervised control call; False (and a counted failure) unless it
    returned paused at a real pause or at exit."""
    run.attempted += 1
    try:
        call(timeout=CALL_DEADLINE)
    except TrackerError as error:
        run.fail(error)
        return False
    reason = tracker.pause_reason
    if reason is not None and reason.type in _DEADLINE_REASONS:
        run.fail(f"{reason.type.value} after {CALL_DEADLINE}s deadline")
        return False
    return True


def _terminate(tracker: Any) -> None:
    try:
        tracker.terminate()
    except TrackerError:
        pass


def _setup(run: Run, backend: str, path: str,
           install: Callable[[Any], None]) -> Optional[Any]:
    """init_tracker .. first pause; the sample is appended to setup_s."""
    begin = time.perf_counter()
    try:
        tracker = init_tracker(backend)
        tracker.default_timeout = CALL_DEADLINE
        tracker.load_program(path)
        install(tracker)
    except TrackerError as error:
        run.attempted += 1
        run.fail(error)
        return None
    if not _control(run, tracker, tracker.start) or tracker.get_exit_code() is not None:
        run.check(False, "start did not pause before the first line")
        _terminate(tracker)
        return None
    run.set_up(time.perf_counter() - begin)
    return tracker


def _repeat_setups(run: Run, backend: str, path: str,
                   install: Callable[[Any], None], count: int) -> None:
    """One warm-up set-up (discarded), then ``count`` measured ones."""
    run.calibrate(samples=3)
    tracker = _setup(run, backend, path, install)
    if tracker is not None:
        _terminate(tracker)
        run.setup_s.pop()
    for _ in range(count):
        tracker = _setup(run, backend, path, install)
        if tracker is not None:
            _terminate(tracker)


# ---------------------------------------------------------------------------
# hot_loop
# ---------------------------------------------------------------------------


def hot_loop(run: Run) -> None:
    """Resume through ~3x10^5 line events per inferior (several inferiors
    a run); inspect nothing except the final totals at the probe line."""
    program = programs.hot_loop_program(run.rng)
    path = run.write("hot_loop", program)
    sparse, probe = program.lines["sparse"], program.lines["probe"]
    expect = program.expect

    def install(tracker: Any) -> None:
        for line in program.lines["dead"]:
            tracker.break_before_line(line)
        tracker.break_before_line(sparse)
        tracker.break_before_line(probe)

    _repeat_setups(run, "python", path, install, SETUP_REPEATS)
    _traced_control(run)
    end = time.perf_counter() + run.seconds
    while True:
        tracker = _setup(run, "python", path, install)
        if tracker is None:
            break
        hits, pauses, complete = 0, 0, False
        run.segment()
        while True:
            start = time.perf_counter()
            if not _control(run, tracker, tracker.resume):
                break
            if tracker.get_exit_code() is not None:
                complete = True
                break
            reason = tracker.pause_reason
            if reason.line == sparse:
                hits += 1
            elif reason.line == probe:
                found = run.attempt(tracker.get_global_variables)
                if found is None:
                    break
                run.check(_py(found, "total") == expect["total"], "loop total")
                run.check(_py(found, "hits") == expect["hits"], "hits global")
            else:
                run.check(False, f"unexpected pause at line {reason.line}")
            run.paused(start)
            pauses += 1
        if complete:
            run.check(tracker.get_exit_code() == 0, "exit code")
            run.check(hits == expect["hits"], f"{hits} breakpoint hits, "
                      f"expected {expect['hits']}")
            run.completed(expect["line_events"], pauses)
        run.add_engine_stats(tracker.get_stats())
        _terminate(tracker)
        if run.done(end):
            break
    _reduce_control(run)


# ---------------------------------------------------------------------------
# step_inspect
# ---------------------------------------------------------------------------

SORT_LENGTH, SORT_SEARCHES, SORT_INVERSIONS = 40, 10, 380


def step_inspect(run: Run) -> None:
    """Fig 1/8-style tool: step every line, read frames and globals."""
    program = programs.sort_search_program(
        run.rng, SORT_LENGTH, SORT_SEARCHES, SORT_INVERSIONS
    )
    path = run.write("step_inspect", program)
    expect = program.expect
    _repeat_setups(run, "python", path, lambda t: None, SETUP_REPEATS)
    _traced_control(run)
    _traced_capture(run)
    end = time.perf_counter() + run.seconds
    while True:
        tracker = _setup(run, "python", path, lambda t: None)
        if tracker is None:
            break
        keys: List[Any] = []
        last_globals: Dict[str, Any] = {}
        pauses, complete = 1, False
        run.segment()
        while True:
            start = time.perf_counter()
            if not _control(run, tracker, tracker.step):
                break
            if tracker.get_exit_code() is not None:
                complete = True
                break
            frames = run.attempt(tracker.get_frames)
            found = run.attempt(tracker.get_global_variables)
            if frames is None or found is None:
                break
            run.paused(start)
            pauses += 1
            if frames[0].name == "insertion_sort":
                key = frames[0].lookup("key")
                if key is not None:
                    keys.append(value_to_python(key.value))
            last_globals = found
            run.count_values(found.values(), *(f.variables.values() for f in frames))
        if complete:
            run.check(pauses == expect["line_events"],
                      f"{pauses} step pauses, expected {expect['line_events']}")
            run.check(programs.collapse(keys) == expect["keys"], "key sequence")
            run.check(_py(last_globals, "data") == expect["sorted"], "sorted array")
            run.check(_py(last_globals, "found") == expect["found"], "search results")
            run.completed(expect["line_events"], pauses - 1)
        run.add_engine_stats(tracker.get_stats())
        _terminate(tracker)
        if run.done(end):
            break
    _reduce_control(run)
    _reduce_capture(run)


# ---------------------------------------------------------------------------
# record_query
# ---------------------------------------------------------------------------

RECORD_LENGTH, RECORD_SEARCHES, RECORD_INVERSIONS = 30, 8, 240
#: share of ``seconds`` spent recording (at least two recordings)
RECORD_WRITE_SHARE = 0.6
#: in-memory snapshot bound: far below the pause count, so most spills
RECORD_IN_MEMORY = 64
QUERY_NAMES = ("key", "j", "i", "mid", "lo", "hi", "found")


def _query_mix(rng: random.Random, last: int) -> List[tuple]:
    """The seeded, fixed query mix (kind, argument) run each round."""
    mix: List[tuple] = [
        ("history", "key"),
        ("history", rng.choice(QUERY_NAMES)),
        ("last_change", rng.choice(QUERY_NAMES)),
        ("calls", None),
        ("where", f"{rng.choice(QUERY_NAMES)} changed"),
        ("query_changed", f"{rng.choice(QUERY_NAMES)} changed"),
        ("query_value", f"j >= {rng.randrange(5, RECORD_LENGTH - 5)}"),
    ]
    for _ in range(3):
        a, b = sorted(rng.sample(range(last), 2))
        mix.append(("changes_between", (a, b)))
    for _ in range(5):
        mix.append(("at", rng.randrange(last)))
    return mix


def _run_query(view: Any, kind: str, argument: Any) -> Any:
    if kind == "history":
        return view.history(argument)
    if kind == "last_change":
        return view.last_change(argument)
    if kind == "calls":
        return view.calls("search")
    if kind == "where":
        return view.where(argument)
    if kind == "changes_between":
        return view.changes_between(*argument)
    if kind == "at":
        return view.at(argument)
    return view.query(argument)


def _alarm(signum: int, frame: Any) -> None:
    raise QueryDeadline(f"query outran its {CALL_DEADLINE}s deadline")


def _with_deadline(call: Callable[[], Any]) -> Callable[[], Any]:
    """Run an in-process call under a SIGALRM deadline (main thread)."""
    def bounded() -> Any:
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, CALL_DEADLINE)
        try:
            return call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return bounded


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def _record_into(tracker: Any, tracedir: str) -> None:
    tracker.track_function("search")
    tracker.enable_recording(
        index=True, tracedir=tracedir, max_snapshots=RECORD_IN_MEMORY
    )


def record_query(run: Run) -> None:
    """Record the inferior into spilled .tracedir/ stores, one after the
    other, then reopen the last sealed store and run the seeded query mix
    until time is up."""
    from repro.core.tracestore import TimelineView

    program = programs.sort_search_program(
        run.rng, RECORD_LENGTH, RECORD_SEARCHES, RECORD_INVERSIONS
    )
    path = run.write("record_query", program)
    expect = program.expect
    expected_pauses = expect["line_events"] + 2 * expect["search_calls"]
    stores = iter(
        os.path.join(run.workdir, f"store-{n}.tracedir") for n in itertools.count()
    )
    _repeat_setups(run, "python", path,
                   lambda t: _record_into(t, next(stores)), SETUP_REPEATS)
    _traced_control(run)
    _traced_recording(run)
    end = time.perf_counter() + run.seconds

    # -- write phase: record until its share of the time is used -----------
    write_end = time.perf_counter() + run.seconds * RECORD_WRITE_SHARE
    recordings = 0
    while True:
        tracedir = next(stores)
        tracker = _setup(run, "python", path, lambda t: _record_into(t, tracedir))
        if tracker is None:
            return
        complete, pauses = False, 1
        run.segment()
        while True:
            start = time.perf_counter()
            if not _control(run, tracker, tracker.step):
                break
            if tracker.get_exit_code() is not None:
                complete = True
                break
            run.paused(start)
            pauses += 1
        timeline_stats = tracker.timeline.stats() if run.tracer else None
        run.add_engine_stats(tracker.get_stats())
        _terminate(tracker)  # seals the store
        run.check(complete, "recorded inferior did not run to exit")
        run.check(pauses == expected_pauses,
                  f"{pauses} pauses recorded, expected {expected_pauses}")
        if not complete:
            return
        run.completed(expect["line_events"], pauses - 1)
        recordings += 1
        if recordings >= 2 and run.done(write_end):
            break
    recorded = pauses + 1  # every pause plus the exit snapshot
    run.extra["trace_bytes_per_pause"] = _dir_bytes(tracedir) / recorded
    run.extra["recordings"] = recordings

    # -- read phase: reopen the last sealed store, run the mix -------------
    view = run.attempt(_with_deadline(lambda: TimelineView.open(tracedir)))
    if view is None:
        return
    run.check(len(view) == recorded, f"{len(view)} snapshots, expected {recorded}")
    mix = _query_mix(run.rng, len(view) - 1)
    rounds: List[float] = []
    reference: Optional[List[Any]] = None
    oracle_loads = 0
    mix_loads = _segment_loads(run)
    while True:
        round_begin = time.perf_counter()
        results: List[Any] = []
        for kind, argument in mix:
            call = _with_deadline(lambda: _run_query(view, kind, argument))
            if run.tracer is not None:
                with run.tracer.span(f"query.{kind}"):
                    results.append(run.attempt(call))
            else:
                results.append(run.attempt(call))
        rounds.append(time.perf_counter() - round_begin)
        shape = [_result_size(result) for result in results]
        if reference is None:
            reference = shape
            loads = _segment_loads(run)
            run.attempt(lambda: _check_queries(run, view, expect))
            oracle_loads += _segment_loads(run) - loads
        else:
            run.check(shape == reference, "query results changed between rounds")
        if len(rounds) >= 2 and time.perf_counter() >= end:
            break
    run.extra["queries_per_s"] = len(mix) * len(rounds) / sum(rounds)
    run.extra["query_rounds"] = len(rounds)
    if run.tracer is not None:
        mix_loads = _segment_loads(run) - mix_loads - oracle_loads
        _reduce_recording(run, timeline_stats, mix_loads / (len(mix) * len(rounds)))
    _reduce_control(run)


def _segment_loads(run: Run) -> int:
    return run.tracer.counters["segment_loads"] if run.tracer else 0


def _result_size(result: Any) -> Any:
    if result is None:
        return None
    if hasattr(result, "matches"):
        return len(result.matches)
    if isinstance(result, (list, dict)):
        return len(result)
    return 1


def _check_queries(run: Run, view: Any, expect: Dict[str, Any]) -> None:
    """The oracle on the read path: histories, calls, final state."""
    # key appears with each assignment and vanishes when the sort returns
    keys = [event.value for event in view.history("insertion_sort:key")]
    run.check(keys == [str(k) for k in expect["keys"]] + [None],
              "history of key")
    run.check(len(view.calls("search")) == expect["search_calls"],
              "number of calls()")
    final = view.at(view.last_index - 1).globals
    run.check(_py(final, "data") == expect["sorted"], "recorded sorted array")
    run.check(_py(final, "found") == expect["found"], "recorded search results")


# ---------------------------------------------------------------------------
# gdb_inspect
# ---------------------------------------------------------------------------


def _minic_line_events(source: str) -> int:
    """Line events of a plain interpreter run: no tracker, no engine."""
    from repro.minic.events import LineEvent
    from repro.minic.interpreter import Interpreter
    from repro.minic.parser import parse

    return sum(
        1 for event in Interpreter(parse(source)).run()
        if isinstance(event, LineEvent)
    )


def gdb_inspect(run: Run) -> None:
    """Step a seeded mini-C heap program over MI; inspect every pause."""
    program = programs.minic_program(run.rng)
    path = run.write("gdb_inspect", program)
    expect = program.expect
    line_events = _minic_line_events(program.source)
    probe = program.lines["probe"]

    def install(tracker: Any) -> None:
        tracker.track_function("accumulate")
        tracker.break_before_line(probe)

    _repeat_setups(run, "GDB", path, install, 2)
    _traced_capture(run)
    _traced_mi(run)
    end = time.perf_counter() + run.seconds
    while True:
        tracker = _setup(run, "GDB", path, install)
        if tracker is None:
            break
        returns: List[Any] = []
        steps, pauses, complete, probed = 1, 0, False, False
        run.segment()
        while True:
            start = time.perf_counter()
            if not _control(run, tracker, tracker.step):
                break
            if tracker.get_exit_code() is not None:
                complete = True
                break
            frames = run.attempt(tracker.get_frames)
            found = run.attempt(tracker.get_global_variables)
            if frames is None or found is None:
                break
            run.paused(start)
            pauses += 1
            reason = tracker.pause_reason
            if reason.type in (PauseReasonType.STEP, PauseReasonType.BREAKPOINT):
                steps += 1  # one per line event; the probe line is a breakpoint
            elif reason.type is PauseReasonType.RETURN:
                returns.append(int(reason.return_value))
            if reason.line == probe and not probed:
                probed = True
                blocks = run.attempt(tracker.get_heap_blocks)
                run.check(blocks is not None and sorted(blocks.values())
                          == expect["heap_sizes"], "heap block sizes")
                run.check(_py(found, "total") == expect["total"], "total global")
                run.check(_py(found, "calls") == expect["calls"], "calls global")
                run.check(_py(found, "vals") == expect["vals"], "vals global")
            run.count_values(found.values(), *(f.variables.values() for f in frames))
        if complete:
            run.check(probed, "probe line never reached")
            run.check(returns == expect["returns"], "accumulate return values")
            run.check(steps == line_events,
                      f"{steps} step pauses, expected {line_events}")
            run.completed(line_events, pauses)
        run.add_engine_stats(tracker.get_stats())
        _terminate(tracker)
        if run.done(end):
            break
    _reduce_capture(run)
    _reduce_mi(run)


# ---------------------------------------------------------------------------
# service_sessions
# ---------------------------------------------------------------------------

SERVICE_CLIENTS = 2
SERVICE_POOL = 4
SERVICE_RESUMES = 110


def service_sessions(run: Run) -> None:
    """Closed loop, in rounds: in each round every client opens a session,
    resumes to a breakpoint M times inspecting globals and the current
    frame, runs the inferior to exit and closes."""
    program = programs.service_program(run.rng, SERVICE_RESUMES)
    path = run.write("service", program)
    asyncio.run(_service_main(run, path, program))


async def _service_main(run: Run, path: str, program: programs.Program) -> None:
    from repro.service import ServiceConfig, TrackerService
    from repro.service.client import ServiceClient

    _traced_service(run)
    service = TrackerService(ServiceConfig(
        pool_size=SERVICE_POOL, max_sessions=SERVICE_CLIENTS * 2, queue=False
    ))
    await service.start()
    clients: List[Any] = []
    try:
        host, port = service.address
        for _ in range(SERVICE_CLIENTS):
            clients.append(await asyncio.wait_for(
                ServiceClient.connect(host, port), CALL_DEADLINE))
        # warm-up: one session per client, discarded
        await asyncio.gather(*(
            _service_session(run, c, path, program, warmup=True) for c in clients
        ))
        if run.tracer is not None:
            run.tracer.spans.clear()
        end = time.perf_counter() + run.seconds
        # Reported as measured: this path is IPC-bound, and its speed does
        # not follow the interpreter-bound calibration loop.
        run.segment(rolls=False, speed=1.0)

        # In rounds: both clients open their sessions together, so every
        # round starts from the same phase. Free-running clients settle
        # into an interleaving on the shared CPU that differs from run to
        # run, and moved pauses_per_s by up to 40% between runs.
        while not run.done(end):
            await asyncio.gather(*(
                _service_session(run, client, path, program)
                for client in clients))
        stats = service.manager.stats_dict()
    finally:
        for client in clients:
            await client.close()
        await service.close()
    if run.tracer is not None:
        _reduce_service(run, stats)


async def _attempt(run: Run, awaitable: Any) -> Any:
    run.attempted += 1
    try:
        return await asyncio.wait_for(awaitable, CALL_DEADLINE * 2)
    except (TrackerError, OSError, asyncio.TimeoutError) as error:
        run.fail(error)
        return None


async def _service_session(
    run: Run, client: Any, path: str, program: programs.Program,
    warmup: bool = False,
) -> None:
    stop_line = program.lines["stop"]
    expect = program.expect
    accs = programs.service_acc_after(expect, SERVICE_RESUMES)
    begin = time.perf_counter()
    tracker = await _attempt(
        run, client.open_tracker(path, timeout=CALL_DEADLINE))
    if tracker is None:
        return
    try:
        if await _attempt(run, tracker.break_before_line(stop_line)) is None:
            return
        stop = await _attempt(run, tracker.start(timeout=CALL_DEADLINE))
        if stop is None:
            return
        run.check(stop.get("reason") == "end-stepping-range"
                  and stop.get("line") == 1, f"start stopped with {stop}")
        if not warmup:
            run.set_up(time.perf_counter() - begin)
        for m in range(1, SERVICE_RESUMES + 1):
            start = time.perf_counter()
            stop = await _attempt(run, tracker.resume(timeout=CALL_DEADLINE))
            if stop is None or not _service_stop_ok(run, stop, stop_line):
                return
            found = await _attempt(run, tracker.get_global_variables())
            frame = await _attempt(run, tracker.get_current_frame())
            if found is None or frame is None:
                return
            if warmup:
                continue
            run.paused(start)
            run.check(_py(found, "i") == m - 1, f"i at stop {m}")
            run.check(_py(found, "acc") == accs[m - 1], f"acc at stop {m}")
            run.check(frame.line == stop_line, "frame line")
            run.count_values(found.values(), frame.variables.values())
        stop = await _attempt(run, tracker.resume(timeout=CALL_DEADLINE))
        if stop is None:
            return
        run.check(stop.get("reason") == "exited" and tracker.get_exit_code() == 0,
                  f"final resume stopped with {stop}")
        if not warmup:
            run.completed(SERVICE_RESUMES * expect["lines_per_resume"]
                          + expect["lines_to_exit"], SERVICE_RESUMES)
        if run.tracer is not None and not warmup:
            stats = await _attempt(run, tracker.execute("-tracker-stats"))
            if stats is not None:
                run.engine["events"] += sum(stats["events_seen"].values())
                run.engine["pauses"] += stats["pause_count"]
                run.engine["decision_ns"] += stats["total_pause_latency_ns"]
                run.engine["watch_evaluations"] += stats["watch_evaluations"]
    finally:
        await tracker.close()


def _service_stop_ok(run: Run, stop: Dict[str, Any], line: int) -> bool:
    ok = stop.get("reason") == "breakpoint-hit" and stop.get("line") == line
    run.check(ok, f"stopped {stop.get('reason')} at line {stop.get('line')}")
    return ok


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "hot_loop": hot_loop,
    "step_inspect": step_inspect,
    "record_query": record_query,
    "gdb_inspect": gdb_inspect,
    "service_sessions": service_sessions,
}

# ---------------------------------------------------------------------------
# Traced-run wiring: which entry points each layer is timed at
# ---------------------------------------------------------------------------


def _traced_control(run: Run) -> None:
    if run.tracer is None:
        return
    from repro.pytracker.tracker import PythonTracker

    for name in ("start", "step", "resume"):
        run.tracer.wrap(PythonTracker, name, "pytracker.control")


def _traced_capture(run: Run) -> None:
    if run.tracer is None:
        return
    from repro.core.tracker import Tracker

    run.tracer.wrap(Tracker, "get_frames", "capture.frames")
    run.tracer.wrap(Tracker, "get_global_variables", "capture.globals")


def _traced_recording(run: Run) -> None:
    if run.tracer is None:
        return
    from repro.core.timeline import StateSnapshot, TimelineRecorder
    from repro.core.tracestore import SegmentSpool, TimelineView, TraceIndex

    tracer = run.tracer
    tracer.wrap(TimelineRecorder, "record", "timeline.record")
    tracer.wrap(StateSnapshot, "capture", "timeline.capture")
    tracer.wrap(TraceIndex, "observe", "tracestore.observe")
    tracer.wrap(SegmentSpool, "spill", "tracestore.spill")
    tracer.wrap(TimelineView, "open", "tracestore.open")
    tracer.observe(SegmentSpool, "_read_segment", _count_segment_load)


def _count_segment_load(tracer: Tracer, segment: Any) -> None:
    tracer.counters["segment_loads"] += 1


def _count_reply(tracer: Tracer, line: Optional[str]) -> None:
    span = tracer.current
    if line is None or span is None:
        return
    span.attrs["bytes"] = span.attrs.get("bytes", 0) + len(line)
    span.attrs["lines"] = span.attrs.get("lines", 0) + 1


def _traced_mi(run: Run) -> None:
    if run.tracer is None:
        return
    from repro.gdbtracker.tracker import GDBTracker
    from repro.mi.client import MIClient
    from repro.mi.transport import PipeTransport

    tracer = run.tracer
    tracer.wrap(MIClient, "run_control", "mi.run_control")
    tracer.wrap(MIClient, "execute", "mi.execute")
    tracer.observe(PipeTransport, "recv_line", _count_reply)
    tracer.wrap(GDBTracker, "track_function", "gdbtracker.track_function")


def _session_tag(session: Any, line: str, *args: Any, **kwargs: Any) -> Dict[str, Any]:
    from repro.mi import protocol

    _, body = protocol.split_session(line.strip())
    return {"session": session.session_id, "command": body.split(None, 1)[0]}


_CLIENT_COMMANDS = {
    "get_global_variables": "-data-list-globals",
    "get_current_frame": "-stack-list-frames",
    "resume": "-exec-continue",
}


def _traced_service(run: Run) -> None:
    if run.tracer is None:
        return
    from repro.service.client import AsyncTracker
    from repro.service.manager import Session, SessionManager
    from repro.service.pool import WarmPool

    tracer = run.tracer
    tracer.wrap(SessionManager, "open", "service.open")
    tracer.wrap(WarmPool, "acquire", "pool.acquire")
    tracer.wrap(Session, "run_command", "service.run_command", tag=_session_tag)
    for method, command in _CLIENT_COMMANDS.items():
        tracer.wrap(
            AsyncTracker, method, "service.client_call",
            tag=lambda tracker, *a, _c=command, **k: {
                "session": tracker.session_id, "command": _c},
        )
    tracer.wrap(AsyncTracker, "get_current_frame", "capture.frames")
    tracer.wrap(AsyncTracker, "get_global_variables", "capture.globals")


# ---------------------------------------------------------------------------
# Reductions: spans and counts -> per-layer metrics
# ---------------------------------------------------------------------------


def _reduce_control(run: Run) -> None:
    if run.tracer is None:
        return
    control = run.tracer.durations_ms("pytracker.control")
    run.layer["pytracker.control_ms_p50"] = median(control)
    run.layer["pytracker.control_ms_p99"] = (
        percentile(control, 99) if control else 0.0)


def _reduce_capture(run: Run) -> None:
    if run.tracer is None:
        return
    run.layer["capture.frames_ms_p50"] = median(
        run.tracer.durations_ms("capture.frames"))
    run.layer["capture.globals_ms_p50"] = median(
        run.tracer.durations_ms("capture.globals"))


def _reduce_recording(run: Run, timeline_stats: Optional[Dict[str, Any]],
                      loads_per_query: float) -> None:
    tracer = run.tracer
    run.layer["timeline.record_self_ms_p50"] = median(tracer.self_ms("timeline.record"))
    run.layer["timeline.capture_ms_p50"] = median(tracer.durations_ms("timeline.capture"))
    if timeline_stats is not None:
        for key in ("keyframes", "deltas", "json_bytes"):
            run.layer[f"timeline.{key}"] = timeline_stats[key]
    run.layer["tracestore.observe_ms_p50"] = median(
        tracer.durations_ms("tracestore.observe"))
    run.layer["tracestore.spill_ms_total"] = sum(
        tracer.durations_ms("tracestore.spill"))
    run.layer["tracestore.open_ms"] = median(tracer.durations_ms("tracestore.open"))
    run.layer["tracestore.segment_loads_per_query"] = loads_per_query
    for kind in QUERY_KINDS:
        run.layer[f"tracestore.{kind}_ms_p50"] = median(
            tracer.durations_ms(f"query.{kind}"))
    run.layer["tracestore.queries_per_s"] = run.extra["queries_per_s"]
    run.layer["timeline.bytes_per_pause"] = run.extra["trace_bytes_per_pause"]


QUERY_KINDS = ("history", "last_change", "calls", "where", "changes_between",
               "at", "query_changed", "query_value")


def _reduce_mi(run: Run) -> None:
    tracer = run.tracer
    if tracer is None:
        return
    run.layer["mi.run_control_ms_p50"] = median(tracer.durations_ms("mi.run_control"))
    run.layer["mi.execute_ms_p50"] = median(tracer.durations_ms("mi.execute"))
    replies = tracer.named("mi.run_control") + tracer.named("mi.execute")
    run.layer["mi.reply_bytes_p50"] = median(
        [span.attrs.get("bytes", 0) for span in replies])
    pauses = len(tracer.named("mi.run_control"))
    run.layer["mi.lines_per_pause"] = (
        sum(span.attrs.get("lines", 0) for span in replies) / pauses
        if pauses else 0.0)
    run.layer["gdbtracker.track_function_ms"] = median(
        tracer.durations_ms("gdbtracker.track_function"))


def _reduce_service(run: Run, stats: Dict[str, Any]) -> None:
    tracer = run.tracer
    run.layer["service.open_ms_p50"] = median(tracer.durations_ms("service.open"))
    run.layer["pool.acquire_ms_p50"] = median(tracer.durations_ms("pool.acquire"))
    run.layer["service.run_command_ms_p50"] = median(
        tracer.durations_ms("service.run_command"))
    run.layer["service.client_overhead_ms_p50"] = median(_client_overhead(tracer))
    pool = stats["pool"]
    handed = pool["warm_hits"] + pool["cold_spawns"]
    run.layer["pool.warm_hit_ratio"] = pool["warm_hits"] / handed if handed else 0.0
    _reduce_capture(run)
    run.layer["service.rejected"] = stats["rejected"]
    run.layer["service.overloaded"] = stats["overloaded"]


def _client_overhead(tracer: Tracer) -> List[float]:
    """Client-observed call minus the server-side ``run_command`` it
    caused, matched per session and command in issue order."""
    server: Dict[tuple, List[float]] = {}
    for span in sorted(tracer.named("service.run_command"), key=lambda s: s.start):
        key = (span.attrs["session"], span.attrs["command"])
        server.setdefault(key, []).append(span.ms)
    taken: Counter = Counter()
    overheads: List[float] = []
    for span in sorted(tracer.named("service.client_call"), key=lambda s: s.start):
        key = (span.attrs["session"], span.attrs["command"])
        matches = server.get(key, [])
        if taken[key] < len(matches):
            overheads.append(span.ms - matches[taken[key]])
            taken[key] += 1
    return overheads
