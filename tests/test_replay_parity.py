"""Live-versus-replay pause parity, and watch baselines on every backend.

Every backend feeds its events to the one pause decision
(:meth:`repro.core.engine.ControlPointEngine.decide`), so replaying a
recording must pause where the live run paused. Each case records a live
run under ``step`` (every line position, plus the ``CALL``/``RETURN``
pauses of tracked functions, becomes a snapshot), then drives a fresh live
tracker and a :class:`repro.core.replay.ReplayTracker` over the recording
with the same control points and the same motions, and compares the
``(reason type, line)`` sequences -- plus the function of ``CALL`` and
``RETURN`` pauses.

The second group pins the watch-baseline rule: a watch installed while the
inferior is paused takes the current value as its baseline, so a variable
that never changes again never fires.
"""

import itertools

import pytest

from repro.core.factory import init_tracker
from repro.core.pause import PauseReasonType
from repro.core.replay import ReplayTracker

PY_PROGRAM = """\
counter = 0
unchanged = 7


def bump(n):
    global counter
    counter = counter + n
    return counter


def main():
    total = 0
    for i in range(3):
        total = total + bump(i)
    return total + unchanged


result = main()
"""

# ``counter`` and ``unchanged`` are initialized before the first line
# runs: replaying a watch on them must not fire on the initial value.
C_PROGRAM = """\
int counter = 5;
int unchanged = 7;

int bump(int n) {
    counter = counter + n;
    return counter;
}

int main(void) {
    int total = 0;
    int i;
    for (i = 0; i < 3; i = i + 1) {
        total = total + bump(i);
    }
    return total + unchanged;
}
"""

#: language -> (program, file suffix, line of the ``counter`` update,
#: line of the loop body calling ``bump``)
PROGRAMS = {
    "python": (PY_PROGRAM, ".py", 7, 14),
    "minic": (C_PROGRAM, ".c", 5, 13),
}


def _lines(tracker, language):
    _, _, update, body = PROGRAMS[language]
    tracker.break_before_line(update)
    tracker.break_before_line(body)


def _watch(tracker, language):
    tracker.watch("counter")


def _watch_unchanged(tracker, language):
    tracker.watch("unchanged")


def _tracked(tracker, language):
    tracker.track_function("bump")


def _everything(tracker, language):
    _lines(tracker, language)
    _watch(tracker, language)
    _watch_unchanged(tracker, language)
    _tracked(tracker, language)


CONTROL_POINTS = {
    "lines": _lines,
    "watch": _watch,
    "watch-unchanged": _watch_unchanged,
    "tracked": _tracked,
    "everything": _everything,
}

MOTIONS = {
    "step": ["step"],
    "next": ["next"],
    "resume": ["resume"],
    "mixed": ["step", "next", "finish", "resume"],
}

_MAX_MOTIONS = 300


def _live_tracker(language):
    return init_tracker("python" if language == "python" else "GDB")


def _load(tracker, language, tmp_path):
    source, suffix, _, _ = PROGRAMS[language]
    path = tmp_path / f"prog{suffix}"
    path.write_text(source)
    tracker.load_program(str(path))


def _projection(tracker):
    reason = tracker.pause_reason
    if tracker.get_exit_code() is not None:
        return ("exit", None, None)
    function = (
        reason.function
        if reason.type in (PauseReasonType.CALL, PauseReasonType.RETURN)
        else None
    )
    return (reason.type.value, reason.line, function)


def _drive(tracker, motions):
    """Start, then apply ``motions`` cyclically until the exit."""
    tracker.start()
    seen = [_projection(tracker)]
    for motion in itertools.islice(itertools.cycle(motions), _MAX_MOTIONS):
        if tracker.get_exit_code() is not None:
            return seen
        getattr(tracker, motion)()
        seen.append(_projection(tracker))
    pytest.fail("the inferior did not exit")


def _record(language, install, tmp_path):
    """A live run under ``step`` with ``install``'s control points."""
    tracker = _live_tracker(language)
    try:
        _load(tracker, language, tmp_path)
        install(tracker, language)
        tracker.enable_recording()
        _drive(tracker, ["step"])
        return tracker.timeline
    finally:
        tracker.terminate()


@pytest.mark.parametrize("motions", sorted(MOTIONS))
@pytest.mark.parametrize("points", sorted(CONTROL_POINTS))
@pytest.mark.parametrize("language", sorted(PROGRAMS))
def test_replay_pauses_where_the_live_run_paused(
    language, points, motions, tmp_path
):
    install = CONTROL_POINTS[points]
    timeline = _record(language, install, tmp_path)

    live = _live_tracker(language)
    try:
        _load(live, language, tmp_path)
        install(live, language)
        expected = _drive(live, MOTIONS[motions])
    finally:
        live.terminate()

    replay = ReplayTracker(timeline)
    install(replay, language)
    assert _drive(replay, MOTIONS[motions]) == expected
    assert expected[-1] == ("exit", None, None)


# ---------------------------------------------------------------------------
# A watch installed mid-run is seeded from the current value
# ---------------------------------------------------------------------------

PY_MID_RUN = """\
x = 1
y = 2
total = 0
for i in range(3):
    total = total + i + 1
print(total)
"""

C_MID_RUN = """\
int y;
int total;
int main(void) {
    int i;
    y = 2;
    total = 10;
    for (i = 0; i < 3; i = i + 1) {
        total = total + i + 1;
    }
    return 0;
}
"""

#: backend -> (program, file suffix, line where both variables are set)
MID_RUN = {
    "python": (PY_MID_RUN, ".py", 4),
    "python-subproc": (PY_MID_RUN, ".py", 4),
    "GDB": (C_MID_RUN, ".c", 7),
    "replay": (PY_MID_RUN, ".py", 4),
}


def _mid_run_tracker(backend, path):
    if backend != "replay":
        tracker = init_tracker(backend)
        tracker.load_program(path)
        return tracker
    recorder = init_tracker("python")
    try:
        recorder.load_program(path)
        recorder.enable_recording()
        _drive(recorder, ["step"])
        return ReplayTracker(recorder.timeline)
    finally:
        recorder.terminate()


@pytest.mark.parametrize("backend", sorted(MID_RUN))
def test_watch_added_mid_run_fires_only_on_a_later_change(backend, tmp_path):
    source, suffix, line = MID_RUN[backend]
    path = tmp_path / f"prog{suffix}"
    path.write_text(source)
    tracker = _mid_run_tracker(backend, str(path))
    try:
        tracker.start()
        for _ in range(20):
            if tracker.get_position()[1] == line:
                break
            tracker.step()
        assert tracker.get_position()[1] == line
        tracker.watch("y")  # never changes again
        tracker.watch("total")  # changes in the loop
        watched = []
        for _ in range(50):
            tracker.resume()
            if tracker.get_exit_code() is not None:
                break
            reason = tracker.pause_reason
            assert reason.type is PauseReasonType.WATCH
            watched.append(reason)
        assert tracker.get_exit_code() is not None
        assert [reason.variable for reason in watched] == ["total"] * 3
        # The first change is reported against the value at install time.
        assert watched[0].old_value is not None
    finally:
        tracker.terminate()
