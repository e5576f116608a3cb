"""Tests for the language-agnostic state model (Section II-B2)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.state import (
    AbstractType,
    Frame,
    Location,
    Value,
    Variable,
    frame_from_dict,
    frame_to_dict,
    value_from_dict,
    value_to_dict,
    variables_from_dict,
    variables_to_dict,
)


def prim(content, language_type="int", address=None):
    return Value(
        abstract_type=AbstractType.PRIMITIVE,
        content=content,
        location=Location.HEAP,
        address=address,
        language_type=language_type,
    )


class TestValueConstruction:
    def test_primitive_accepts_python_primitives(self):
        for content in (1, 1.5, "x", True, b"raw"):
            value = prim(content)
            assert value.content == content

    def test_primitive_rejects_containers(self):
        with pytest.raises(TypeError):
            Value(AbstractType.PRIMITIVE, [1, 2])

    def test_ref_requires_value_content(self):
        target = prim(1)
        ref = Value(AbstractType.REF, target)
        assert ref.content is target
        with pytest.raises(TypeError):
            Value(AbstractType.REF, 42)

    def test_list_requires_tuple_of_values(self):
        value = Value(AbstractType.LIST, (prim(1), prim(2)))
        assert len(value.content) == 2
        with pytest.raises(TypeError):
            Value(AbstractType.LIST, [prim(1)])  # list, not tuple
        with pytest.raises(TypeError):
            Value(AbstractType.LIST, (1, 2))

    def test_dict_requires_value_keys_and_values(self):
        with pytest.raises(TypeError):
            Value(AbstractType.DICT, {"k": prim(1)})

    def test_struct_requires_str_keys(self):
        value = Value(AbstractType.STRUCT, {"x": prim(1)})
        assert "x" in value.content
        with pytest.raises(TypeError):
            Value(AbstractType.STRUCT, {1: prim(1)})

    def test_none_and_invalid_require_none_content(self):
        assert Value(AbstractType.NONE, None).content is None
        assert Value(AbstractType.INVALID, None).content is None
        with pytest.raises(TypeError):
            Value(AbstractType.NONE, 0)
        with pytest.raises(TypeError):
            Value(AbstractType.INVALID, "x")

    def test_function_content_is_name(self):
        value = Value(AbstractType.FUNCTION, "main")
        assert value.content == "main"
        with pytest.raises(TypeError):
            Value(AbstractType.FUNCTION, 123)


class TestValueAccessors:
    def test_deref_follows_ref(self):
        target = prim(7)
        assert Value(AbstractType.REF, target).deref() is target

    def test_deref_rejects_non_ref(self):
        with pytest.raises(ValueError):
            prim(7).deref()

    def test_elements_and_fields(self):
        lst = Value(AbstractType.LIST, (prim(1),))
        assert lst.elements() == lst.content
        struct = Value(AbstractType.STRUCT, {"a": prim(1)})
        assert struct.fields() == struct.content
        with pytest.raises(ValueError):
            lst.fields()
        with pytest.raises(ValueError):
            struct.elements()

    def test_is_valid(self):
        assert prim(1).is_valid()
        assert not Value(AbstractType.INVALID, None).is_valid()

    def test_walk_visits_all_nested_values(self):
        inner = prim(1)
        lst = Value(AbstractType.LIST, (inner, prim(2)))
        ref = Value(AbstractType.REF, lst)
        visited = list(ref.walk())
        assert ref in visited and lst in visited and inner in visited
        assert len(visited) == 4

    def test_walk_handles_cycles(self):
        lst = Value(AbstractType.LIST, ())
        ref = Value(AbstractType.REF, lst)
        lst.content = (ref,)  # the list contains a ref back to itself
        visited = list(lst.walk())
        assert len(visited) == 2  # no infinite loop

    def test_walk_dict_visits_keys_and_values(self):
        key, val = prim("k", "str"), prim(1)
        dct = Value(AbstractType.DICT, {key: val})
        visited = list(dct.walk())
        assert key in visited and val in visited


class TestRender:
    def test_primitive_render(self):
        assert prim(5).render() == "5"
        assert prim("hi", "str").render() == "'hi'"

    def test_list_render(self):
        value = Value(AbstractType.LIST, (prim(1), prim(2)))
        assert value.render() == "[1, 2]"

    def test_struct_render(self):
        value = Value(AbstractType.STRUCT, {"x": prim(1), "y": prim(2)})
        assert value.render() == "{.x=1, .y=2}"

    def test_invalid_and_none_render(self):
        assert Value(AbstractType.INVALID, None).render() == "<invalid>"
        assert Value(AbstractType.NONE, None).render() == "None"

    def test_ref_render_uses_target_address(self):
        target = prim(5, address=0x1000)
        assert Value(AbstractType.REF, target).render() == "&0x1000"

    def test_function_render(self):
        assert Value(AbstractType.FUNCTION, "f").render() == "<function f>"

    def test_cyclic_graph_renders_finitely(self):
        """Cyclic value graphs are legal (walk cuts the back-edge, and the
        codec writes it as a heap key); render must terminate on them too, not recurse until
        the interpreter dies. Cross-thread sampling can capture genuinely
        cyclic object graphs, which is how this used to blow up."""
        lst = Value(AbstractType.LIST, ())
        ref = Value(AbstractType.REF, lst)
        lst.content = (ref, prim(1))
        assert lst.render() == "[&(<...>), 1]"

        struct = Value(AbstractType.STRUCT, {})
        struct.content = {"self": struct, "x": prim(2)}
        assert struct.render() == "{.self=<...>, .x=2}"

    def test_shared_but_acyclic_values_render_fully(self):
        shared = prim(7)
        value = Value(AbstractType.LIST, (shared, shared))
        assert value.render() == "[7, 7]"


class TestFrame:
    def make_chain(self):
        outer = Frame(name="main", depth=0)
        inner = Frame(name="helper", depth=1, parent=outer)
        inner.variables["x"] = Variable("x", prim(1))
        return inner, outer

    def test_stack_returns_innermost_first(self):
        inner, outer = self.make_chain()
        assert inner.stack() == [inner, outer]

    def test_lookup(self):
        inner, _ = self.make_chain()
        assert inner.lookup("x").name == "x"
        assert inner.lookup("missing") is None

    def test_iteration_yields_variables(self):
        inner, _ = self.make_chain()
        assert [v.name for v in inner] == ["x"]


class TestSerialization:
    def test_primitive_round_trip(self):
        value = prim(42, "int", address=0xBEEF)
        decoded = value_from_dict(json.loads(json.dumps(value_to_dict(value))))
        assert decoded.content == 42
        assert decoded.address == 0xBEEF
        assert decoded.language_type == "int"
        assert decoded.location is Location.HEAP

    def test_bytes_round_trip(self):
        value = prim(b"\x00\xff", "bytes")
        decoded = value_from_dict(json.loads(json.dumps(value_to_dict(value))))
        assert decoded.content == b"\x00\xff"

    def test_nested_round_trip(self):
        value = Value(
            AbstractType.STRUCT,
            {
                "items": Value(AbstractType.LIST, (prim(1), prim(2))),
                "next": Value(AbstractType.REF, prim(3)),
                "nothing": Value(AbstractType.NONE, None),
            },
        )
        decoded = value_from_dict(value_to_dict(value))
        assert decoded.content["items"].content[1].content == 2
        assert decoded.content["next"].content.content == 3
        assert decoded.content["nothing"].abstract_type is AbstractType.NONE

    def test_dict_round_trip_preserves_pairs(self):
        key = prim("k", "str")
        value = Value(AbstractType.DICT, {_keyed(key): prim(9)})
        decoded = value_from_dict(value_to_dict(value))
        pairs = [(k.content, v.content) for k, v in decoded.content.items()]
        assert pairs == [("k", 9)]

    def test_variable_round_trip(self):
        variable = Variable("x", prim(1), scope="argument")
        decoded = variables_from_dict(variables_to_dict({"x": variable}))["x"]
        assert decoded.name == "x"
        assert decoded.scope == "argument"

    def test_frame_round_trip_preserves_parents(self):
        outer = Frame(name="main", depth=0, line=10, filename="f.py")
        inner = Frame(name="g", depth=1, parent=outer, line=3)
        inner.variables["v"] = Variable("v", prim(5))
        decoded = frame_from_dict(frame_to_dict(inner))
        assert decoded.name == "g"
        assert decoded.parent.name == "main"
        assert decoded.parent.line == 10
        assert decoded.variables["v"].value.content == 5

    def test_serialized_form_is_json_safe(self):
        value = Value(AbstractType.LIST, (prim(1), prim(b"\x80", "bytes")))
        text = json.dumps(value_to_dict(value))
        assert isinstance(text, str)


def _keyed(value):
    from repro.core.state import _HashableValueKey

    return _HashableValueKey.wrap(value)


class TestValueToPython:
    def test_primitives_pass_through(self):
        from repro.core.state import value_to_python

        assert value_to_python(prim(5)) == 5
        assert value_to_python(prim("x", "str")) == "x"
        assert value_to_python(Value(AbstractType.NONE, None)) is None
        assert value_to_python(Value(AbstractType.INVALID, None)) == "<invalid>"

    def test_refs_are_chased(self):
        from repro.core.state import value_to_python

        nested = Value(AbstractType.REF, Value(AbstractType.REF, prim(9)))
        assert value_to_python(nested) == 9

    def test_containers_project_to_python_data(self):
        from repro.core.state import value_to_python

        struct = Value(
            AbstractType.STRUCT,
            {
                "items": Value(AbstractType.LIST, (prim(1), prim(2))),
                "name": prim("box", "str"),
            },
        )
        assert value_to_python(struct) == {"items": [1, 2], "name": "box"}

    def test_dict_keys_projected_and_frozen(self):
        from repro.core.state import value_to_python

        key = Value(AbstractType.LIST, (prim(1),))
        table = Value(AbstractType.DICT, {key: prim(2)})
        assert value_to_python(table) == {(1,): 2}

    def test_cycles_collapse(self):
        from repro.core.state import value_to_python

        lst = Value(AbstractType.LIST, ())
        lst.content = (Value(AbstractType.REF, lst), prim(1))
        projected = value_to_python(lst)
        assert projected[1] == 1
        assert projected[0] == "..."

    def test_language_agnostic_comparison(self):
        from repro.core.state import value_to_python

        # A "C view" (REF to heap LIST) equals a "Python view" (REF to the
        # same logical list) after projection — the equivalence-tool basis.
        c_view = Value(
            AbstractType.REF,
            Value(AbstractType.LIST, (prim(1), prim(2)), address=100),
        )
        py_view = Value(
            AbstractType.REF,
            Value(AbstractType.LIST, (prim(1), prim(2)), address=999),
        )
        assert value_to_python(c_view) == value_to_python(py_view)


# ---------------------------------------------------------------------------
# Property-based: arbitrary value trees survive the JSON round trip
# ---------------------------------------------------------------------------

primitives = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.booleans(),
)


def value_strategy():
    base = st.one_of(
        primitives.map(lambda c: prim(c, type(c).__name__)),
        st.just(Value(AbstractType.NONE, None)),
        st.just(Value(AbstractType.INVALID, None)),
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=6,
        ).map(lambda n: Value(AbstractType.FUNCTION, n)),
    )
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.lists(children, max_size=4).map(
                lambda items: Value(AbstractType.LIST, tuple(items))
            ),
            st.dictionaries(
                st.text(
                    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                    min_size=1,
                    max_size=5,
                ),
                children,
                max_size=3,
            ).map(lambda fields: Value(AbstractType.STRUCT, fields)),
            children.map(lambda target: Value(AbstractType.REF, target)),
        ),
        max_leaves=12,
    )


@given(value_strategy())
@settings(max_examples=60, deadline=None)
def test_value_json_round_trip_property(value):
    encoded = json.dumps(value_to_dict(value))
    decoded = value_from_dict(json.loads(encoded))
    assert decoded.render() == value.render()
    assert decoded.abstract_type is value.abstract_type


@given(value_strategy())
@settings(max_examples=40, deadline=None)
def test_walk_terminates_and_includes_root(value):
    visited = list(value.walk())
    assert value in visited
    assert len(visited) < 10_000
