"""Properties of the timeline codec: the heap-table snapshot codec and
the strict structural diff.

Every generated case is drawn from one integer seed through
``random.Random``, and every assertion message names that seed, so a
failure replays with ``_value_graph(seed)`` or ``_json_tree(...)``.
"""

import json
import random

from hypothesis import given, settings, strategies as st

from repro.core.state import (
    AbstractType,
    Frame,
    Location,
    Value,
    Variable,
    value_to_python,
)
from repro.core.timeline import StateSnapshot, apply_patch, diff_tree, trees_equal

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# Generated Value graphs: shared heap values, a cycle reachable from two
# roots, bytes and truncated values
# ---------------------------------------------------------------------------


def _scalar(rng):
    return rng.choice([
        rng.randint(-3, 3),
        rng.random() < 0.5,
        float(rng.randint(-3, 3)),
        rng.choice(["", "a", "bc"]),
        bytes([rng.randrange(256) for _ in range(rng.randint(0, 3))]),
    ])


def _leaf(rng, address):
    content = _scalar(rng)
    return Value(
        AbstractType.PRIMITIVE,
        content,
        location=Location.HEAP,
        address=address,
        language_type=type(content).__name__,
        truncated=isinstance(content, (str, bytes)) and rng.random() < 0.3,
    )


def _value_graph(seed):
    """``(frame, globals)`` whose variables share heap values, with one
    two-node cycle (A -> B -> A) entered at A by one root and at B by
    another, and sometimes an address-less container holding a cycle of
    two REFs."""
    rng = random.Random(seed)
    heap = [_leaf(rng, 0x100 + n) for n in range(rng.randint(1, 4))]
    for n in range(rng.randint(1, 5)):
        address = 0x200 + n
        kind = rng.choice(["list", "struct", "dict", "ref"])
        picks = [rng.choice(heap) for _ in range(rng.randint(0, 3))]
        if kind == "list":
            value = Value(
                AbstractType.LIST, tuple(picks), Location.HEAP, address,
                "list", truncated=rng.random() < 0.2,
            )
        elif kind == "struct":
            value = Value(
                AbstractType.STRUCT,
                {f"f{i}": v for i, v in enumerate(picks)},
                Location.HEAP, address, "Point",
            )
        elif kind == "dict":
            value = Value(
                AbstractType.DICT,
                # Distinct keys: decoded keys hash by their rendering.
                {
                    Value(AbstractType.PRIMITIVE, f"k{i}",
                          language_type="str"): v
                    for i, v in enumerate(picks)
                },
                Location.HEAP, address, "dict",
            )
        else:
            value = Value(
                AbstractType.REF, rng.choice(heap), Location.STACK, None,
                "ref",
            )
        heap.append(value)
    node_a = Value(AbstractType.LIST, (), Location.HEAP, 0x300, "list")
    node_b = Value(AbstractType.LIST, (), Location.HEAP, 0x301, "list")
    node_a.content = (Value(AbstractType.REF, node_b, language_type="ref"),
                      rng.choice(heap))
    node_b.content = (Value(AbstractType.REF, node_a, language_type="ref"),)
    cyclic = [node_a, node_b]
    if rng.random() < 0.5:
        # Address-less: a container with a tree-local key, and a cycle of
        # REFs, which only the REF-to-REF rule writes as keys.
        ref_a = Value(AbstractType.REF, node_a, language_type="ref")
        ref_b = Value(AbstractType.REF, ref_a, language_type="ref")
        ref_a.content = ref_b
        cyclic.append(Value(AbstractType.LIST, (ref_a, rng.choice(heap)),
                            Location.HEAP, None, "tuple"))

    def variables(scope, count):
        names = [f"v{n}" for n in range(count)]
        return {
            name: Variable(name, Value(
                AbstractType.REF,
                rng.choice(heap + cyclic),
                Location.STACK if scope == "local" else Location.GLOBAL,
                None,
                "ref",
            ), scope)
            for name in names
        }

    globals_ = variables("global", rng.randint(1, 5))
    globals_["a"] = Variable("a", Value(AbstractType.REF, node_a), "global")
    module = Frame("<module>", 0, variables=dict(globals_), line=1,
                   filename="gen.py")
    inner = Frame("f", 1, variables=variables("local", rng.randint(0, 4)),
                  parent=module, line=2, filename="gen.py")
    inner.variables["b"] = Variable("b", Value(AbstractType.REF, node_b))
    return inner, globals_


def _interned(value):
    """Whether the codec writes ``value`` as a heap entry: a container, a
    value with an address, or a REF to a REF."""
    return (
        value.abstract_type in (
            AbstractType.LIST, AbstractType.DICT, AbstractType.STRUCT
        )
        or value.address is not None
        or (
            value.abstract_type is AbstractType.REF
            and value.content.abstract_type is AbstractType.REF
        )
    )


def _paired_walk(original, decoded, pairs, seed):
    """Walk two value graphs in step; ``pairs`` maps the ``id`` of each
    interned original Value to its decoded Value. A second visit of an
    interned original must meet the same decoded object, so the decoded
    graph has the original's sharing and cycles."""
    stack = [(original, decoded)]
    while stack:
        mine, theirs = stack.pop()
        where = f"seed={seed} at {mine.address!r}:{mine.language_type}"
        assert (
            mine.abstract_type, mine.location, mine.address,
            mine.language_type, mine.truncated,
        ) == (
            theirs.abstract_type, theirs.location, theirs.address,
            theirs.language_type, theirs.truncated,
        ), where
        if _interned(mine):
            seen = pairs.get(id(mine))
            if seen is not None:
                assert seen is theirs, f"{where}: one Value decoded twice"
                continue
            pairs[id(mine)] = theirs
        kind = mine.abstract_type
        if kind is AbstractType.REF:
            stack.append((mine.content, theirs.content))
        elif kind is AbstractType.LIST:
            assert len(mine.content) == len(theirs.content), where
            stack.extend(zip(mine.content, theirs.content))
        elif kind is AbstractType.STRUCT:
            assert list(mine.content) == list(theirs.content), where
            stack.extend(
                (item, theirs.content[name])
                for name, item in mine.content.items()
            )
        elif kind is AbstractType.DICT:
            assert len(mine.content) == len(theirs.content), where
            for (key, item), (their_key, their_item) in zip(
                mine.content.items(), theirs.content.items()
            ):
                assert key.render() == their_key.render(), where
                stack.append((item, their_item))
        else:
            assert type(mine.content) is type(theirs.content), where
            assert mine.content == theirs.content, where


def _variables_of(snapshot):
    for frame in snapshot.frames():
        for name, variable in frame.variables.items():
            yield f"{frame.name}:{name}", variable
    for name, variable in snapshot.globals.items():
        yield name, variable


@settings(max_examples=150, deadline=None)
@given(seed=seeds)
def test_decoding_keeps_the_sharing_graph(seed):
    frame, globals_ = _value_graph(seed)
    snapshot = StateSnapshot(frame=frame, globals=globals_, line=2)
    tree = json.loads(json.dumps(snapshot.to_dict()))
    decoded = StateSnapshot.from_dict(tree)
    pairs = {}
    originals = dict(_variables_of(snapshot))
    for name, variable in _variables_of(decoded):
        original = originals.pop(name).value
        _paired_walk(original, variable.value, pairs, seed)
        assert value_to_python(variable.value) == value_to_python(original), (
            f"seed={seed} {name}"
        )
    assert not originals, f"seed={seed} variables lost: {sorted(originals)}"
    # One decoded Value per interned Value: distinct originals stay apart.
    assert len({id(value) for value in pairs.values()}) == len(pairs), (
        f"seed={seed} two Values merged"
    )
    # Each interned Value is written once.
    assert len(tree["heap"]) == len(pairs), f"seed={seed}"
    assert trees_equal(decoded.to_dict(), tree), f"seed={seed}"


@settings(max_examples=100, deadline=None)
@given(seed=seeds)
def test_distinct_values_with_one_address_and_type_all_survive(seed):
    """A full capture and truncated summaries of one object share an
    address and a type; none of them replaces another."""
    rng = random.Random(seed)
    full = Value(AbstractType.LIST, (_leaf(rng, 0x101),), Location.HEAP,
                 0x500, "list")
    summaries = [
        Value(AbstractType.PRIMITIVE, f"[{n}, ...]", Location.HEAP, 0x500,
              "list", truncated=True)
        for n in range(rng.randint(1, 3))
    ]
    values = [full] + summaries
    rng.shuffle(values)
    globals_ = {
        f"v{n}": Variable(f"v{n}", Value(AbstractType.REF, value), "global")
        for n, value in enumerate(values)
    }
    tree = json.loads(json.dumps(StateSnapshot(frame=None,
                                               globals=globals_).to_dict()))
    # One entry per value, plus the full capture's element.
    assert len(tree["heap"]) == len(values) + 1, f"seed={seed}"
    decoded = StateSnapshot.from_dict(tree).globals
    pairs = {}
    for name, variable in globals_.items():
        _paired_walk(variable.value, decoded[name].value, pairs, seed)
    assert len({id(value) for value in pairs.values()}) == len(pairs)


def test_a_cycle_decodes_as_a_cycle_and_renders_like_live():
    frame, globals_ = _value_graph(0)
    node = Value(AbstractType.STRUCT, {}, Location.HEAP, 0x400, "Node")
    node.content = {"next": node, "x": _leaf(random.Random(0), 0x401)}
    globals_["node"] = Variable("node", Value(AbstractType.REF, node))
    snapshot = StateSnapshot(frame=frame, globals=globals_)
    decoded = StateSnapshot.from_dict(json.loads(json.dumps(
        snapshot.to_dict()
    )))
    node_a = decoded.globals["a"].value.content
    node_b = decoded.frame.variables["b"].value.content
    assert node_a.content[0].content is node_b
    assert node_b.content[0].content is node_a
    decoded_node = decoded.globals["node"].value.content
    assert decoded_node.content["next"] is decoded_node
    assert decoded_node.render() == node.render()
    assert decoded_node.render().startswith("{.next=<...>, .x=")


# ---------------------------------------------------------------------------
# Generated JSON trees: the diff round-trips and stays strict
# ---------------------------------------------------------------------------


def _flip(scalar, rng):
    """A scalar ``==`` to ``scalar`` but of another type, where one exists."""
    if isinstance(scalar, bool):
        return int(scalar)
    if isinstance(scalar, int):
        return rng.choice([float(scalar), bool(scalar) if scalar in (0, 1)
                           else float(scalar)])
    if isinstance(scalar, float) and scalar.is_integer():
        return int(scalar)
    return scalar


def _value_dict(content):
    return {
        "abstract_type": "primitive",
        "content": content,
        "location": "heap",
        "address": 7,
        "language_type": type(content).__name__,
    }


def _list_value_dict(items):
    return {
        "abstract_type": "list",
        "content": items,
        "location": "heap",
        "address": 8,
        "language_type": "list",
    }


_SCALARS = [0, 1, True, False, 1.0, 0.0, 2, "s"]


def _value_tree(rng, depth):
    """A value-dict-shaped tree that keeps the tag contract: every scalar
    sits in a value dict whose ``language_type`` names its type."""
    if depth >= 3 or rng.random() < 0.6:
        return _value_dict(rng.choice(_SCALARS))
    return _list_value_dict(
        [_value_tree(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    )


def _json_tree(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        return rng.choice(_SCALARS + [None])
    if roll < 0.6:
        return _value_tree(rng, depth)
    if roll < 0.8:
        return [_json_tree(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {
        f"k{n}": _json_tree(rng, depth + 1) for n in range(rng.randint(0, 3))
    }


def _edit_items(items, rng, make):
    if items and rng.random() < 0.2:
        items.pop()
    if rng.random() < 0.2:
        items.append(make())
    return items


def _mutate(tree, rng):
    """A copy of ``tree`` with type flips, edits, insertions and removals
    (value dicts keep their tag contract)."""
    if isinstance(tree, dict) and "language_type" in tree:
        if tree["abstract_type"] == "primitive":
            if rng.random() < 0.5:
                return _value_dict(_flip(tree["content"], rng))
            return dict(tree)
        items = [_mutate(item, rng) for item in tree["content"]]
        return _list_value_dict(
            _edit_items(items, rng, lambda: _value_tree(rng, 2))
        )
    if isinstance(tree, dict):
        out = {key: _mutate(value, rng) for key, value in tree.items()}
        if out and rng.random() < 0.2:
            out.pop(rng.choice(list(out)))
        if rng.random() < 0.2:
            out[f"n{rng.randint(0, 9)}"] = _json_tree(rng, 2)
        return out
    if isinstance(tree, list):
        items = [_mutate(item, rng) for item in tree]
        return _edit_items(items, rng, lambda: _json_tree(rng, 2))
    roll = rng.random()
    if roll < 0.5:
        return _flip(tree, rng)
    if roll < 0.6:
        return _json_tree(rng, 2)
    return tree


@settings(max_examples=300, deadline=None)
@given(seed=seeds)
def test_patch_of_diff_rebuilds_the_new_tree(seed):
    rng = random.Random(seed)
    old = _json_tree(rng)
    new = _mutate(old, rng)
    patch = diff_tree(old, new)
    assert trees_equal(apply_patch(old, patch), new), (
        f"seed={seed} old={old!r} new={new!r} patch={patch!r}"
    )
    assert (patch is None) == trees_equal(old, new), f"seed={seed}"
    # Strictness survives a JSON round trip of the old tree.
    reloaded = json.loads(json.dumps(old))
    assert (diff_tree(reloaded, new) is None) == trees_equal(old, new), (
        f"seed={seed}"
    )


def test_diff_tells_bool_from_int_and_int_from_float():
    assert diff_tree([True], [1]) is not None
    assert diff_tree({"c": 1}, {"c": 1.0}) is not None
    assert diff_tree(_value_dict(True), _value_dict(1)) is not None
    assert diff_tree(_value_dict(1), _value_dict(1.0)) is not None
    assert not trees_equal(True, 1)
    assert not trees_equal([True], [1])
    assert not trees_equal(_value_dict(1), _value_dict(1.0))
    assert diff_tree(_value_dict(1), _value_dict(1)) is None
