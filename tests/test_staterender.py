"""Tests for the server-side C state renderer (the inspection command)."""

import pytest

from repro.core.state import AbstractType, Location
from repro.minic.events import LineEvent
from repro.minic.interpreter import Interpreter
from repro.minic.parser import parse
from repro.mi.staterender import CStateRenderer, render_watch


def paused_at(source, line):
    """Run until the first LineEvent at `line`; return the live interpreter."""
    interpreter = Interpreter(parse(source, "prog.c"))
    generator = interpreter.run()
    for event in generator:
        if isinstance(event, LineEvent) and event.line == line:
            return interpreter, generator
    raise AssertionError(f"line {line} never reached")


class TestScalars:
    SOURCE = """\
int g = 7;

int main(void) {
    int i = -5;
    double d = 2.5;
    char c = 'Z';
    long l = 123456789012;
    return 0;                 /* line 9 */
}
"""

    def test_locals_and_types(self):
        interpreter, _ = paused_at(self.SOURCE, 8)
        frame = CStateRenderer(interpreter).frame_chain()
        assert frame.name == "main"
        values = {n: v.value for n, v in frame.variables.items()}
        assert values["i"].content == -5
        assert values["i"].language_type == "int"
        assert values["d"].content == 2.5
        assert values["c"].content == "Z"
        assert values["l"].content == 123456789012
        assert all(v.location is Location.STACK for v in values.values())

    def test_addresses_are_real(self):
        interpreter, _ = paused_at(self.SOURCE, 8)
        frame = CStateRenderer(interpreter).frame_chain()
        address = frame.variables["i"].value.address
        assert interpreter.memory.segment_of(address) == "stack"

    def test_globals(self):
        interpreter, _ = paused_at(self.SOURCE, 8)
        globals_map = CStateRenderer(interpreter).globals()
        assert globals_map["g"].value.content == 7
        assert globals_map["g"].value.location is Location.GLOBAL
        assert globals_map["g"].scope == "global"


class TestPointers:
    def test_pointer_to_stack_is_ref(self):
        source = (
            "int main(void) {\n"
            "    int a = 5;\n"
            "    int *p = &a;\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 4)
        frame = CStateRenderer(interpreter).frame_chain()
        pointer = frame.variables["p"].value
        assert pointer.abstract_type is AbstractType.REF
        assert pointer.content.content == 5
        assert pointer.content.location is Location.STACK

    def test_null_pointer_is_invalid(self):
        source = "int main(void) {\n    int *p = NULL;\n    return 0;\n}\n"
        interpreter, _ = paused_at(source, 3)
        frame = CStateRenderer(interpreter).frame_chain()
        assert frame.variables["p"].value.abstract_type is AbstractType.INVALID

    def test_uninitialized_pointer_is_invalid(self):
        source = "int main(void) {\n    int *p;\n    int q = 0;\n    return 0;\n}\n"
        interpreter, _ = paused_at(source, 4)
        frame = CStateRenderer(interpreter).frame_chain()
        assert frame.variables["p"].value.abstract_type is AbstractType.INVALID

    def test_dangling_pointer_is_invalid(self):
        source = (
            "int main(void) {\n"
            "    int *p = malloc(4);\n"
            "    free(p);\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 4)
        frame = CStateRenderer(interpreter).frame_chain()
        assert frame.variables["p"].value.abstract_type is AbstractType.INVALID

    def test_char_pointer_is_primitive_string(self):
        source = (
            "int main(void) {\n"
            '    char *msg = "hello";\n'
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 3)
        frame = CStateRenderer(interpreter).frame_chain()
        msg = frame.variables["msg"].value
        assert msg.abstract_type is AbstractType.PRIMITIVE
        assert msg.content == "hello"
        assert msg.language_type == "char*"

    def test_function_pointer(self):
        source = (
            "int twice(int x) { return 2 * x; }\n"
            "int main(void) {\n"
            "    int (*op)(int) = twice;\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 4)
        frame = CStateRenderer(interpreter).frame_chain()
        op = frame.variables["op"].value
        assert op.abstract_type is AbstractType.FUNCTION
        assert op.content == "twice"


class TestHeap:
    def test_malloc_block_renders_as_list(self):
        source = (
            "int main(void) {\n"
            "    int *data = malloc(3 * sizeof(int));\n"
            "    data[0] = 10; data[1] = 20; data[2] = 30;\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 4)
        frame = CStateRenderer(interpreter).frame_chain()
        pointer = frame.variables["data"].value
        assert pointer.abstract_type is AbstractType.REF
        block = pointer.content
        assert block.abstract_type is AbstractType.LIST
        assert [v.content for v in block.content] == [10, 20, 30]
        assert block.location is Location.HEAP

    def test_single_element_block_renders_scalar(self):
        source = (
            "int main(void) {\n"
            "    int *one = malloc(sizeof(int));\n"
            "    *one = 9;\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 4)
        frame = CStateRenderer(interpreter).frame_chain()
        assert frame.variables["one"].value.content.content == 9

    def test_shared_heap_target_is_same_value(self):
        source = (
            "int main(void) {\n"
            "    int *a = malloc(2 * sizeof(int));\n"
            "    int *b = a;\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 4)
        frame = CStateRenderer(interpreter).frame_chain()
        first = frame.variables["a"].value.content
        second = frame.variables["b"].value.content
        assert first is second


class TestAggregates:
    def test_array_renders_as_list(self):
        source = (
            "int main(void) {\n"
            "    int arr[3] = {1, 2, 3};\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 3)
        frame = CStateRenderer(interpreter).frame_chain()
        arr = frame.variables["arr"].value
        assert arr.abstract_type is AbstractType.LIST
        assert [v.content for v in arr.content] == [1, 2, 3]
        assert arr.language_type == "int[3]"

    def test_char_array_is_string(self):
        source = (
            "int main(void) {\n"
            '    char buf[8] = "ok";\n'
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 3)
        frame = CStateRenderer(interpreter).frame_chain()
        assert frame.variables["buf"].value.content == "ok"

    def test_struct_renders_fields(self):
        source = (
            "struct point { int x; int y; };\n"
            "int main(void) {\n"
            "    struct point p;\n"
            "    p.x = 3; p.y = 4;\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 5)
        frame = CStateRenderer(interpreter).frame_chain()
        p = frame.variables["p"].value
        assert p.abstract_type is AbstractType.STRUCT
        assert p.content["x"].content == 3
        assert p.content["y"].content == 4
        assert p.language_type == "struct point"

    def test_linked_list_cycle_terminates(self):
        source = (
            "struct node { int v; struct node *next; };\n"
            "int main(void) {\n"
            "    struct node a;\n"
            "    a.v = 1;\n"
            "    a.next = &a;\n"  # self-cycle
            "    int done = 1;\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 7)
        frame = CStateRenderer(interpreter).frame_chain()
        a = frame.variables["a"].value
        # The next pointer refers back to the same struct Value.
        assert a.content["next"].content is a

    def test_frame_chain_depths(self):
        source = (
            "int inner(int k) {\n"
            "    return k;\n"
            "}\n"
            "int main(void) {\n"
            "    return inner(1);\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 2)
        frame = CStateRenderer(interpreter).frame_chain()
        assert frame.name == "inner"
        assert frame.depth == 1
        assert frame.parent.name == "main"
        assert frame.parent.depth == 0

    def test_argument_scope_marked(self):
        source = "int f(int a) {\n    return a;\n}\nint main(void) { return f(1); }\n"
        interpreter, _ = paused_at(source, 2)
        frame = CStateRenderer(interpreter).frame_chain()
        assert frame.variables["a"].scope == "argument"


class TestOneRendererPerCapture:
    SOURCE = """\
int arr[3];
char *s;
int *q = 0;

int main(void) {
    int *p = arr;
    char **pp = &s;
    int **qq = &q;
    s = "hi";
    return 0;
}
"""

    def test_a_cell_reached_twice_is_one_value(self):
        interpreter, _ = paused_at(self.SOURCE, 10)
        renderer = CStateRenderer(interpreter)
        locals_ = renderer.frame_chain().variables
        globals_map = renderer.globals()
        assert locals_["p"].value.content is (
            globals_map["arr"].value.content[0]
        )
        assert locals_["pp"].value.content is globals_map["s"].value
        assert locals_["qq"].value.content is globals_map["q"].value
        assert globals_map["q"].value.abstract_type is AbstractType.INVALID


class TestComplexShapes:
    def test_double_pointer(self):
        source = (
            "int main(void) {\n"
            "    int a = 5;\n"
            "    int *p = &a;\n"
            "    int **pp = &p;\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 5)
        frame = CStateRenderer(interpreter).frame_chain()
        pp = frame.variables["pp"].value
        assert pp.abstract_type is AbstractType.REF
        inner = pp.content
        assert inner.abstract_type is AbstractType.REF
        assert inner.content.content == 5

    def test_array_of_structs(self):
        source = (
            "struct point { int x; int y; };\n"
            "int main(void) {\n"
            "    struct point pts[2];\n"
            "    pts[0].x = 1; pts[0].y = 2;\n"
            "    pts[1].x = 3; pts[1].y = 4;\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 6)
        frame = CStateRenderer(interpreter).frame_chain()
        pts = frame.variables["pts"].value
        assert pts.abstract_type is AbstractType.LIST
        assert pts.content[1].content["y"].content == 4

    def test_struct_with_pointer_into_heap_array(self):
        source = (
            "struct holder { int *data; int count; };\n"
            "int main(void) {\n"
            "    struct holder h;\n"
            "    h.count = 2;\n"
            "    h.data = malloc(2 * sizeof(int));\n"
            "    h.data[0] = 10; h.data[1] = 20;\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 7)
        frame = CStateRenderer(interpreter).frame_chain()
        holder = frame.variables["h"].value
        data = holder.content["data"]
        assert data.abstract_type is AbstractType.REF
        assert [v.content for v in data.content.content] == [10, 20]

    def test_pointer_into_middle_of_heap_block(self):
        source = (
            "int main(void) {\n"
            "    int *base = malloc(4 * sizeof(int));\n"
            "    base[2] = 77;\n"
            "    int *mid = base + 2;\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 5)
        frame = CStateRenderer(interpreter).frame_chain()
        mid = frame.variables["mid"].value
        # Not at the block start: renders the single pointee, not the array.
        assert mid.abstract_type is AbstractType.REF
        assert mid.content.content == 77

    def test_linked_list_chain_renders_fully(self):
        source = (
            "struct node { int v; struct node *next; };\n"
            "int main(void) {\n"
            "    struct node c; c.v = 3; c.next = NULL;\n"
            "    struct node b; b.v = 2; b.next = &c;\n"
            "    struct node a; a.v = 1; a.next = &b;\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, _ = paused_at(source, 6)
        frame = CStateRenderer(interpreter).frame_chain()
        a = frame.variables["a"].value
        b = a.content["next"].content
        c = b.content["next"].content
        assert (a.content["v"].content, b.content["v"].content,
                c.content["v"].content) == (1, 2, 3)
        assert c.content["next"].abstract_type is AbstractType.INVALID


class TestRenderWatch:
    def test_watch_tracks_bytes(self):
        source = (
            "int main(void) {\n"
            "    int x = 1;\n"
            "    x = 2;\n"
            "    return 0;\n"
            "}\n"
        )
        interpreter, generator = paused_at(source, 3)
        before = render_watch(interpreter, None, "x")
        for event in generator:
            if isinstance(event, LineEvent) and event.line == 4:
                break
        after = render_watch(interpreter, None, "x")
        assert before != after

    def test_watch_missing_variable_is_none(self):
        source = "int main(void) {\n    return 0;\n}\n"
        interpreter, _ = paused_at(source, 2)
        assert render_watch(interpreter, None, "ghost") is None
        assert render_watch(interpreter, "nowhere", "x") is None

    def test_watch_global_fallback(self):
        source = "int g = 3;\nint main(void) {\n    return 0;\n}\n"
        interpreter, _ = paused_at(source, 3)
        assert render_watch(interpreter, None, "g") is not None
