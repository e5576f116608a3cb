"""One capture per pause: the paused state every inspection call reads.

:class:`repro.core.tracker.Tracker` captures the paused state once, on the
first inspection call of a pause, and every other call of that pause —
``snapshot()``, ``get_frames()``, ``get_global_variables()``,
``get_variable()`` and the timeline recorder — reads the same object. A
control call, a timeline seek and ``terminate`` drop it; while rewound,
the recorded snapshot is the paused state.

The cases below count the capture hook (or, over MI, the wire commands)
with a wrapper, check that a global is one ``Value`` whether it is read
from the module frame or from the globals map, and check, as a property
over generated programs, that the shared capture encodes exactly what a
fresh capture with a new :class:`Snapshotter` encodes.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import BackendUnavailableError
from repro.core.factory import init_tracker
from repro.core.pause import PauseReasonType
from repro.core.replay import ReplayTracker
from repro.core.state import AbstractType, value_to_dict
from repro.pytracker.introspect import build_frame_chain, build_globals
from repro.pytracker.tracker import PythonTracker

PROGRAM = """\
data = [1, 2, 3]
label = "top"


def grow(n):
    label = n
    data.append(n)
    return len(data)


size = grow(4)
done = size + 1
"""

#: line of ``data.append(n)`` inside ``grow``
APPEND_LINE = 7


def _counting(tracker, hook):
    """Wrap ``tracker.<hook>`` on the instance; the returned list grows by
    one entry per call."""
    calls = []
    inner = getattr(tracker, hook)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    setattr(tracker, hook, wrapper)
    return calls


def _inspect_everything(tracker):
    """Every inspection call of the API, twice over."""
    for _ in range(2):
        tracker.get_frames()
        tracker.get_current_frame()
        tracker.get_global_variables()
        tracker.get_variable("data")
        tracker.get_variable("label", function="grow")
        tracker.get_position()
        tracker.get_output()
        tracker.snapshot()


def _live(name, path):
    try:
        tracker = init_tracker(name)
    except BackendUnavailableError as error:
        pytest.skip(str(error))
    tracker.load_program(path)
    return tracker


def _replay(path):
    recorder = PythonTracker()
    recorder.load_program(path)
    recorder.enable_recording()
    recorder.start()
    while recorder.get_exit_code() is None:
        recorder.step()
    recorder.terminate()
    return ReplayTracker(recorder.timeline)


def _pt(path, tmp_path):
    from repro.pytutor.export import record_trace

    trace_path = str(tmp_path / "trace.json")
    record_trace(path).save(trace_path)
    tracker = init_tracker("pt")
    tracker.load_program(trace_path)
    return tracker


def _make(backend, path, tmp_path):
    if backend == "replay":
        return _replay(path)
    if backend == "pt":
        return _pt(path, tmp_path)
    return _live(backend, path)


@pytest.mark.parametrize("backend", ["python", "python-mon", "replay", "pt"])
def test_one_capture_per_pause(backend, write_program, tmp_path):
    tracker = _make(backend, write_program("prog.py", PROGRAM), tmp_path)
    captures = _counting(tracker, "_capture")
    tracker.break_before_line(APPEND_LINE)
    try:
        tracker.start()
        tracker.resume()
        assert tracker.get_position()[1] == APPEND_LINE
        _inspect_everything(tracker)
        assert len(captures) == 1
        shared = tracker.snapshot()
        assert tracker.get_current_frame() is shared.frame
        assert tracker.get_frames()[0] is shared.frame
        assert tracker.get_variable("data") is shared.globals["data"]
        tracker.step()
        _inspect_everything(tracker)
        assert len(captures) == 2
        assert tracker.snapshot() is not shared
    finally:
        tracker.terminate()


@pytest.mark.parametrize(
    "backend", ["python", "python-mon", "python-subproc", "GDB"]
)
def test_position_and_output_never_force_a_capture(backend, write_program):
    if backend == "GDB":
        path = write_program("prog.c", MINIC_PROGRAM)
    else:
        path = write_program("prog.py", PROGRAM)
    tracker = _live(backend, path)
    captures = _counting(tracker, "_capture")
    client = getattr(tracker, "_client", None)
    sent = [] if client is None else _counting(client, "execute")
    try:
        tracker.start()
        position = tracker.get_position()
        tracker.get_output()
        tracker.get_exit_code()
        assert captures == []
        assert "-state-snapshot" not in [call[0] for call in sent]
        # The capture takes its position from the innermost frame.
        assert tracker.snapshot().position() == position
    finally:
        tracker.terminate()


@pytest.mark.parametrize("backend", ["python", "python-mon", "replay"])
def test_module_frame_and_globals_share_values(
    backend, write_program, tmp_path
):
    tracker = _make(backend, write_program("prog.py", PROGRAM), tmp_path)
    tracker.break_before_line(APPEND_LINE)
    try:
        tracker.start()
        tracker.resume()
        module = tracker.get_frames()[-1]
        globals_ = tracker.get_global_variables()
        for name in ("data", "label"):
            assert module.variables[name].value.content is (
                globals_[name].value.content
            )
        # ``grow``'s local ``label`` shadows the global: a different object.
        local = tracker.get_current_frame().variables["label"]
        assert local.value.content is not globals_["label"].value.content
    finally:
        tracker.terminate()


ALIASING_PROGRAM = """\
data = [1, 2, 3]


def peek(items):
    first = items[0]
    return first


value = peek(data)
"""


@pytest.mark.parametrize(
    "backend",
    ["python", "python-mon", "python-subproc", "replay", "pt",
     "python-rewound"],
)
def test_local_and_global_share_one_heap_value(
    backend, write_program, tmp_path
):
    """``peek``'s local ``items`` and the global ``data`` are one list, so
    they reference one heap ``Value`` (the paper's Fig 6b heap model),
    live, over MI, replayed and rewound."""
    path = write_program("alias.py", ALIASING_PROGRAM)
    rewound = backend == "python-rewound"
    tracker = _make("python" if rewound else backend, path, tmp_path)
    tracker.break_before_line(5)
    try:
        if rewound:
            tracker.enable_recording()
        tracker.start()
        tracker.resume()
        if rewound:
            # Two steps on and two back: the paused state is decoded from
            # the recording.
            tracker.step()
            tracker.step()
            view = tracker.timeline_view()
            view.backward_step()
            view.backward_step()
        assert tracker.get_position()[1] == 5
        local = tracker.get_current_frame().variables["items"].value
        global_ = tracker.get_global_variables()["data"].value
        assert local.content is global_.content
    finally:
        tracker.terminate()


#: ``chain`` nests ``leaf`` past the default capture depth (100), so the
#: capture holds ``leaf`` twice: whole, and as ``chain``'s truncated
#: summary, which ``peek``'s frame meets first.
DEEP_PROGRAM = """\
leaf = [7]
nest = leaf
for _ in range(101):
    nest = [nest]


def peek(chain, items):
    return items


value = peek(nest, leaf)
"""


@pytest.mark.parametrize(
    "backend", ["python", "python-subproc", "replay", "python-rewound"]
)
def test_a_depth_summary_never_stands_in_for_a_global(
    backend, write_program, tmp_path
):
    """The summary and the whole list share address and type; the global
    still decodes whole, and is one Value with ``peek``'s ``items``."""
    path = write_program("deep.py", DEEP_PROGRAM)
    rewound = backend == "python-rewound"
    tracker = _make("python" if rewound else backend, path, tmp_path)
    tracker.break_before_line(8)
    try:
        if rewound:
            tracker.enable_recording()
        tracker.start()
        tracker.resume()
        if rewound:
            tracker.step()
            tracker.timeline_view().backward_step()
        assert tracker.get_position()[1] == 8
        frame = tracker.get_current_frame()
        global_ = tracker.get_global_variables()["leaf"].value.content
        items = frame.variables["items"].value.content
        end = frame.variables["chain"].value.content
        for _ in range(101):
            end = end.content[0]
        assert end.truncated and end.abstract_type is AbstractType.PRIMITIVE
        assert end.address == global_.address
        for whole in (global_, items):
            assert whole.abstract_type is AbstractType.LIST
            assert (whole.render(), whole.truncated) == ("[7]", False)
        assert items is global_
    finally:
        tracker.terminate()


MINIC_PROGRAM = """\
int data = 3;

int grow(int n) {
    data = data + n;
    return data;
}

int main(void) {
    int size = grow(4);
    return size;
}
"""


@pytest.mark.parametrize(
    "backend, name, source, line",
    [
        ("GDB", "prog.c", MINIC_PROGRAM, 4),
        ("python-subproc", "prog.py", PROGRAM, APPEND_LINE),
    ],
)
def test_remote_inspection_crosses_the_pipe_once_per_pause(
    backend, name, source, line, write_program
):
    tracker = init_tracker(backend)
    tracker.load_program(write_program(name, source))
    sent = _counting(tracker._client, "execute")
    tracker.break_before_line(line)
    try:
        tracker.start()
        tracker.resume()
        for pause in (1, 2):
            for _ in range(3):
                tracker.get_frames()
                tracker.get_global_variables()
                tracker.get_variable("data")
                tracker.snapshot()
            commands = [call[0] for call in sent]
            assert commands.count("-state-snapshot") == pause
            assert "-stack-list-frames" not in commands
            assert "-data-list-globals" not in commands
            tracker.step()
    finally:
        tracker.terminate()


def _local_keys(state):
    """The "#<n>" keys of a snapshot's tree: a second Value of one
    address and type."""
    return [key for key in state.to_dict()["heap"] if "#" in key]


MINIC_ALIASING = """\
int arr[3];

int main(void) {
    int *p = arr;
    arr[0] = 5;
    return p[0];
}
"""


@pytest.mark.parametrize("rewound", [False, True], ids=["live", "rewound"])
def test_a_c_pointer_and_the_array_it_points_into_share_one_value(
    rewound, write_program
):
    """``p`` points at ``arr[0]``: one Value whether the frame or the
    globals reach it, live over MI and decoded from the server's
    recording."""
    tracker = init_tracker("GDB")
    tracker.load_program(write_program("share.c", MINIC_ALIASING))
    tracker.break_before_line(5)
    try:
        if rewound:
            tracker.enable_recording()
        tracker.start()
        tracker.resume()
        if rewound:
            tracker.step()
            tracker.timeline_view().goto(1)
        assert tracker.get_position()[1] == 5
        state = tracker.snapshot()
        assert _local_keys(state) == []
        target = state.frame.variables["p"].value.content
        assert target is state.globals["arr"].value.content[0]
    finally:
        tracker.terminate()


MINIC_POINTERS = """\
char *s;
int *q = 0;

int main(void) {
    char **pp = &s;
    int **qq = &q;
    s = "hi";
    return 0;
}
"""


@pytest.mark.parametrize("rewound", [False, True], ids=["live", "rewound"])
def test_c_strings_and_invalid_pointers_are_one_value_per_cell(
    rewound, write_program
):
    """A ``char*`` and an invalid pointer reached twice (by name and
    through a pointer to them) are one Value each."""
    tracker = init_tracker("GDB")
    tracker.load_program(write_program("pointers.c", MINIC_POINTERS))
    tracker.break_before_line(8)
    try:
        if rewound:
            tracker.enable_recording()
        tracker.start()
        tracker.resume()
        if rewound:
            tracker.step()
            tracker.timeline_view().goto(1)
        assert tracker.get_position()[1] == 8
        state = tracker.snapshot()
        assert _local_keys(state) == []
        locals_ = state.frame.variables
        s = state.globals["s"].value
        assert (s.content, s.language_type) == ("hi", "char*")
        assert locals_["pp"].value.content is s
        q = state.globals["q"].value
        assert q.abstract_type is AbstractType.INVALID
        assert locals_["qq"].value.content is q
    finally:
        tracker.terminate()


RETURN_PROGRAM = """\
def make():
    out = [1, 2]
    return out


made = make()
"""


@pytest.mark.parametrize("backend", ["python", "python-mon"])
def test_a_return_value_is_the_value_its_frame_holds(backend, write_program):
    """The RETURN value is read through the pause's one snapshotter, so it
    is the Value that ``out`` references, not a second copy."""
    tracker = _live(backend, write_program("ret.py", RETURN_PROGRAM))
    tracker.track_function("make")
    try:
        tracker.start()
        tracker.resume()  # CALL
        tracker.resume()  # RETURN
        reason = tracker.pause_reason
        assert reason.type is PauseReasonType.RETURN
        state = tracker.snapshot()
        assert _local_keys(state) == []
        out = state.frame.variables["out"].value.content
        assert reason.return_value is out
        assert state.reason.return_value is out
    finally:
        tracker.terminate()


RECURSION = """\
total = 0


def rec(n):
    global total
    total = total + n
    if n == 0:
        return 0
    return rec(n - 1)


result = rec(3)
"""


def test_each_motion_makes_a_fresh_capture(write_program):
    """A control call, ``goto``, ``backward_step`` and going live again
    each replace the paused state; rewound, it is the recording."""
    tracker = PythonTracker()
    tracker.load_program(write_program("rec.py", RECURSION))
    tracker.enable_recording()
    captures = _counting(tracker, "_capture")
    try:
        tracker.start()
        for _ in range(8):
            tracker.step()
        live = tracker.snapshot()
        assert len(captures) == 9  # the recorder captured every pause once
        view = tracker.timeline_view()
        timeline = tracker.timeline

        view.backward_step()
        rewound = tracker.snapshot()
        assert rewound is not live
        assert rewound == timeline.snapshot(len(timeline) - 2)
        assert tracker.get_current_frame() is rewound.frame
        assert tracker.get_position() == rewound.position()
        assert tracker.get_output() == rewound.stdout

        view.goto(2)
        assert tracker.snapshot() is not rewound
        assert tracker.snapshot() == timeline.snapshot(2)
        assert tracker.get_variable("n") is tracker.snapshot().lookup("n")

        assert len(captures) == 9  # the recording served every rewound pause
        view.goto(-1)  # the newest snapshot: live again
        again = tracker.snapshot()
        assert len(captures) == 10
        assert again is not live and again == live

        tracker.step()
        assert tracker.snapshot() is not again
        assert len(captures) == 11
    finally:
        tracker.terminate()


# ---------------------------------------------------------------------------
# Property: the shared capture equals a fresh one
# ---------------------------------------------------------------------------


def _generated_program(seed):
    """A small seeded program: globals, a loop, calls, recursion, and a
    local that shadows a global (and a global alias of a shared list)."""
    rng = random.Random(seed)
    values = [rng.randint(-5, 9) for _ in range(rng.randint(1, 4))]
    depth = rng.randint(0, 3)
    rounds = rng.randint(0, 3)
    lines = [
        f"items = {values!r}",
        f"shade = {rng.choice(['1', repr('g'), '[0]', 'None'])}",
        "alias = items" if rng.random() < 0.5 else "alias = list(items)",
        "",
        "def down(n):",
        "    shade = n",
        "    if n <= 0:",
        "        return shade",
        "    return down(n - 1) + shade",
        "",
        "def walk(k):",
        "    acc = {'k': k}",
        "    for i in range(k):",
        "        items.append(i)",
        "        acc[i] = items[-1]",
        "    return acc",
        "",
    ]
    calls = [f"deep = down({depth})", f"table = walk({rounds})"]
    rng.shuffle(calls)
    return "\n".join(lines + calls + ["shade = deep", ""])


def _encoded(frames, globals_):
    return (
        [
            (frame.name, frame.line, {
                name: value_to_dict(variable.value)
                for name, variable in frame.variables.items()
            })
            for frame in frames
        ],
        {name: value_to_dict(v.value) for name, v in globals_.items()},
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_shared_capture_equals_a_fresh_capture(seed, tmp_path_factory):
    path = tmp_path_factory.mktemp("gen") / "gen.py"
    path.write_text(_generated_program(seed))
    tracker = PythonTracker()
    tracker.load_program(str(path))
    try:
        tracker.start()
        for _ in range(400):
            if tracker.get_exit_code() is not None:
                break
            cached = _encoded(
                tracker.get_frames(), tracker.get_global_variables()
            )
            # Read again: the second calls are served from the cache.
            assert _encoded(
                tracker.get_frames(), tracker.get_global_variables()
            ) == cached
            fresh_frames = build_frame_chain(
                tracker._paused_py_frame,
                tracker._is_inferior_frame,
                tracker._snapshotter(),
            ).stack()
            fresh_globals = build_globals(
                tracker._globals, tracker._snapshotter()
            )
            assert cached == _encoded(fresh_frames, fresh_globals), (
                f"seed={seed} line={tracker.get_position()[1]}"
            )
            tracker.step()
        assert tracker.get_exit_code() is not None, f"seed={seed} never exited"
    finally:
        tracker.terminate()
