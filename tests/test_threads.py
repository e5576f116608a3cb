"""The thread dimension of the in-process Python backends.

The paper's tracker model is single-threaded; this suite covers the
multithread semantics the backends now implement: per-thread
instrumentation (workers inherit the trace function and pause at control
points), stable thread indexes on pause reasons and frames, thread-scoped
control points (``thread=``), the all-stop barrier (siblings park while a
pause is live), cross-thread inspection (:meth:`Tracker.get_threads`,
:meth:`Tracker.get_thread_frames`) and output-capture cleanliness when
pauses land on worker threads. Deadlock detection has its own suite
(``tests/test_deadlock.py``), as does the seeded interleaving stress run
(``tests/test_concurrency_stress.py``).
"""

import sys
import threading
import time

import pytest

from repro.core.errors import TrackerError
from repro.core.pause import PauseReasonType
from repro.core.threads import (
    THREAD_BLOCKED,
    THREAD_FINISHED,
    THREAD_PARKED,
    THREAD_PAUSED,
    THREAD_RUNNING,
)
from repro.pytracker.monitoring import (
    HAVE_MONITORING,
    SKIP_REASON,
    MonitoringTracker,
)
from repro.pytracker.tracker import PythonTracker

VALID_STATES = {
    THREAD_RUNNING,
    THREAD_PAUSED,
    THREAD_PARKED,
    THREAD_BLOCKED,
    THREAD_FINISHED,
}

TWO_WORKERS = """\
import threading

counter = 0
lock = threading.Lock()

def worker(n):
    global counter
    for _ in range(n):
        with lock:
            counter += 1

threads = [
    threading.Thread(name="w%d" % i, target=worker, args=(5,))
    for i in range(2)
]
for t in threads:
    t.start()
for t in threads:
    t.join()
print("total", counter)
"""


#: Strictly serial workers: s0 is dead before s1 starts, so the OS is
#: free to (and on Linux reliably does) hand s1 the same thread ident.
SERIAL_WORKERS = """\
import threading

hits = []

def job(tag):
    hits.append(tag)

for i in range(2):
    t = threading.Thread(name="s%d" % i, target=job, args=(i,))
    t.start()
    t.join()
print("jobs", len(hits))
"""


BACKENDS = [
    "python",
    pytest.param(
        "python-mon",
        marks=pytest.mark.skipif(not HAVE_MONITORING, reason=SKIP_REASON),
    ),
]


def make_tracker(backend, **kwargs):
    if backend == "python-mon":
        return MonitoringTracker(**kwargs)
    return PythonTracker(**kwargs)


def run_to_exit(tracker, limit=100):
    reasons = []
    while tracker.get_exit_code() is None and len(reasons) < limit:
        tracker.resume(timeout=30.0)
        if tracker.get_exit_code() is None:
            reasons.append(tracker.pause_reason)
    return reasons


#: A worker spinning in a call-free loop (on the settrace backend it runs
#: on the gated line hook) while the main thread reaches a breakpoint.
SPINNER = """\
import threading
import time

stop = False
spins = 0

def spin():
    global spins
    while not stop:
        spins += 1

worker = threading.Thread(target=spin, name="spinner")
worker.start()
time.sleep(0.2)
stop = True
worker.join()
"""


@pytest.mark.parametrize("backend", BACKENDS)
class TestWorkerPauses:
    def test_breakpoint_fires_once_per_worker_thread(
        self, backend, write_program
    ):
        """Workers inherit the instrumentation: a function breakpoint on
        the worker body pauses once per spawned thread, and each pause
        reason names the thread that hit it."""
        tracker = make_tracker(backend)
        tracker.load_program(write_program("mt.py", TWO_WORKERS))
        tracker.break_before_func("worker")
        tracker.start()
        reasons = run_to_exit(tracker)
        hits = [r for r in reasons if r.type is PauseReasonType.BREAKPOINT]
        assert len(hits) == 2
        assert {r.thread for r in hits} == {1, 2}
        assert all(r.thread_name in ("w0", "w1") for r in hits)
        assert tracker.get_exit_code() == 0
        tracker.terminate()

    def test_thread_scoped_breakpoint_only_fires_on_that_thread(
        self, backend, write_program
    ):
        tracker = make_tracker(backend)
        tracker.load_program(write_program("mt.py", TWO_WORKERS))
        tracker.break_before_func("worker", thread=2)
        tracker.start()
        reasons = run_to_exit(tracker)
        hits = [r for r in reasons if r.type is PauseReasonType.BREAKPOINT]
        assert len(hits) == 1
        assert hits[0].thread == 2
        assert tracker.get_exit_code() == 0
        tracker.terminate()

    def test_output_capture_stays_clean_across_worker_pauses(
        self, backend, write_program
    ):
        """The stdout swap must balance even when pauses land on worker
        threads and siblings queue behind the all-stop barrier: the
        captured output is exactly the program's."""
        tracker = make_tracker(backend, capture_output=True)
        tracker.load_program(write_program("mt.py", TWO_WORKERS))
        tracker.break_before_func("worker")
        tracker.start()
        run_to_exit(tracker)
        assert tracker.get_output() == "total 10\n"
        tracker.terminate()

    def test_recycled_ident_gets_a_fresh_thread_index(
        self, backend, write_program
    ):
        """Serial workers often reuse the OS thread ident of a finished
        sibling; each must still get its own stable index (a recycled
        ident silently aliasing onto a dead thread's index is exactly
        how ``thread=``-scoped points used to misfire)."""
        tracker = make_tracker(backend)
        tracker.load_program(write_program("serial.py", SERIAL_WORKERS))
        tracker.break_before_func("job", thread=2)
        tracker.start()
        reasons = run_to_exit(tracker)
        hits = [r for r in reasons if r.type is PauseReasonType.BREAKPOINT]
        assert [r.thread for r in hits] == [2]
        assert hits[0].thread_name == "s1"
        assert tracker.get_exit_code() == 0
        infos = {info.id: info for info in tracker.get_threads()}
        assert {0, 1, 2} <= set(infos)
        assert infos[1].name == "s0"
        assert infos[2].name == "s1"
        tracker.terminate()


@pytest.mark.parametrize("backend", BACKENDS)
class TestCrossThreadInspection:
    def pause_on_worker(self, backend, write_program):
        tracker = make_tracker(backend)
        tracker.load_program(write_program("mt.py", TWO_WORKERS))
        tracker.break_before_func("worker")
        tracker.start()
        tracker.resume(timeout=30.0)
        reason = tracker.pause_reason
        assert reason.type is PauseReasonType.BREAKPOINT
        assert reason.thread in (1, 2)
        return tracker, reason

    def test_get_threads_reports_one_paused_thread(
        self, backend, write_program
    ):
        tracker, reason = self.pause_on_worker(backend, write_program)
        try:
            infos = tracker.get_threads()
            assert [info.id for info in infos] == sorted(
                info.id for info in infos
            )
            assert 0 in {info.id for info in infos}
            assert all(info.state in VALID_STATES for info in infos)
            paused = [i for i in infos if i.state == THREAD_PAUSED]
            assert [i.id for i in paused] == [reason.thread]
            # The paused worker's sampled position is inside worker().
            assert paused[0].function == "worker"
        finally:
            tracker.terminate()

    def test_frames_carry_the_thread_index(self, backend, write_program):
        tracker, reason = self.pause_on_worker(backend, write_program)
        try:
            frames = tracker.get_frames()
            assert frames
            assert frames[0].thread == reason.thread
            assert frames[0].name == "worker"
        finally:
            tracker.terminate()

    def test_get_thread_frames_serves_other_threads(
        self, backend, write_program
    ):
        """While a worker owns the pause, the main thread's stack is
        still inspectable — it is sitting in module code joining the
        workers."""
        tracker, reason = self.pause_on_worker(backend, write_program)
        try:
            own = tracker.get_thread_frames(reason.thread)
            assert [f.name for f in own] == [f.name for f in
                                             tracker.get_frames()]
            main = tracker.get_thread_frames(0)
            if main:  # the main thread may transiently show no frame
                assert main[-1].name == "<module>"
                assert all(f.thread == 0 for f in main)
        finally:
            tracker.terminate()

    def test_unknown_thread_raises(self, backend, write_program):
        tracker, _ = self.pause_on_worker(backend, write_program)
        try:
            with pytest.raises(TrackerError):
                tracker.get_thread_frames(97)
        finally:
            tracker.terminate()


class TestSingleThreadedCompat:
    def test_get_threads_on_single_threaded_program(self, write_program):
        """A plain single-threaded inferior reports exactly one thread,
        index 0, paused."""
        tracker = PythonTracker()
        tracker.load_program(write_program("p.py", "a = 1\nb = 2\n"))
        tracker.start()
        infos = tracker.get_threads()
        assert len(infos) == 1
        assert infos[0].id == 0
        assert infos[0].state == THREAD_PAUSED
        tracker.terminate()

    def test_pause_reason_thread_zero_on_main(self, write_program):
        tracker = PythonTracker()
        tracker.load_program(write_program("p.py", "a = 1\nb = 2\n"))
        tracker.start()
        tracker.step()
        assert tracker.pause_reason.thread == 0
        tracker.terminate()


class TestFinishedTrackerSparesUnrelatedThreads:
    def test_thread_reusing_a_finished_inferior_ident_is_not_killed(
        self, write_program
    ):
        """``threading.settrace`` hands a finished tracker's trace function
        to threads started later (concurrent trackers restore each other's
        hooks out of order). A new thread that reuses the OS ident of the
        tracker's dead inferior thread is not that thread: it must run,
        not be unwound as a killed inferior."""
        tracker = PythonTracker()
        tracker.load_program(write_program("p.py", "a = 1\nb = 2\n"))
        tracker.start()
        tracker.terminate()
        ran = []

        def work():
            ran.append(True)

        def reuse_ident_then_work():
            # Stand in for the OS recycling the dead inferior's ident.
            tracker._thread_ids[threading.get_ident()] = 0
            sys.settrace(tracker._trace)
            try:
                work()
            finally:
                sys.settrace(None)

        thread = threading.Thread(target=reuse_ident_then_work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert ran == [True]


@pytest.mark.parametrize("backend", BACKENDS)
def test_free_running_sibling_parks_during_an_all_stop_pause(
    backend, write_program
):
    """While the main thread owns a pause, a worker spinning without calls
    parks at its next line and stops counting."""
    tracker = make_tracker(backend)
    tracker.load_program(write_program("spin.py", SPINNER))
    tracker.break_before_line(15)  # stop = True
    tracker.start()
    try:
        tracker.resume(timeout=30.0)
        assert tracker.pause_reason.type is PauseReasonType.BREAKPOINT
        assert tracker.pause_reason.thread == 0
        deadline = time.monotonic() + 5.0
        states = {}
        while time.monotonic() < deadline:
            states = {info.name: info.state for info in tracker.get_threads()}
            if states.get("spinner") == THREAD_PARKED:
                break
            time.sleep(0.01)
        assert states.get("spinner") == THREAD_PARKED
        spins = tracker._globals["spins"]
        assert spins > 0
        time.sleep(0.1)
        assert tracker._globals["spins"] == spins
        tracker.resume(timeout=30.0)
        assert tracker.get_exit_code() == 0
    finally:
        tracker.terminate()


class TestProcessWideHooks:
    """``threading.excepthook`` and ``threading.settrace`` are global; a
    tracker must hand them back however trackers overlap."""

    def test_terminate_restores_excepthook_and_frees_the_tracker(
        self, write_program
    ):
        import gc
        import weakref

        original = threading.excepthook
        tracker = PythonTracker()
        tracker.load_program(write_program("p.py", "a = 1\nb = 2\n"))
        tracker.start()
        tracker.terminate()
        assert threading.excepthook is original
        ref = weakref.ref(tracker)
        del tracker
        gc.collect()
        assert ref() is None

    def test_overlapping_trackers_restore_hooks_in_any_order(
        self, write_program
    ):
        original_trace = threading.gettrace()
        original_hook = threading.excepthook
        path = write_program("p.py", "a = 1\nb = 2\n")
        first, second = PythonTracker(), PythonTracker()
        for tracker in (first, second):
            tracker.load_program(path)
            tracker.start()
        first.terminate()
        assert threading.gettrace() == second._trace
        second.terminate()
        assert threading.gettrace() == original_trace
        assert threading.excepthook is original_hook
