"""Properties of the timeline codec: the shared-subtree snapshot encoder
and the strict structural diff.

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
)
from repro.core.timeline import StateSnapshot, apply_patch, diff_tree, trees_equal

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# The reference encoder: one fresh encode per path, nothing shared
# ---------------------------------------------------------------------------


def _fresh_value(value, active):
    if id(value) in active:
        return {
            "abstract_type": "invalid",
            "content": None,
            "location": value.location.value,
            "address": value.address,
            "language_type": value.language_type,
        }
    active.add(id(value))
    kind = value.abstract_type
    if kind is AbstractType.REF:
        content = _fresh_value(value.content, active)
    elif kind is AbstractType.LIST:
        content = [_fresh_value(v, active) for v in value.content]
    elif kind is AbstractType.DICT:
        content = [
            [_fresh_value(k, active), _fresh_value(v, active)]
            for k, v in value.content.items()
        ]
    elif kind is AbstractType.STRUCT:
        content = {n: _fresh_value(v, active) for n, v in value.content.items()}
    elif isinstance(value.content, bytes):
        content = {"__bytes__": value.content.decode("latin-1")}
    else:
        content = value.content
    active.discard(id(value))
    encoded = {
        "abstract_type": kind.value,
        "content": content,
        "location": value.location.value,
        "address": value.address,
        "language_type": value.language_type,
    }
    if value.truncated:
        encoded["truncated"] = True
    return encoded


def _fresh_variables(variables):
    return {
        name: {
            "name": var.name,
            "value": _fresh_value(var.value, set()),
            "scope": var.scope,
        }
        for name, var in variables.items()
    }


def _fresh_snapshot(snapshot):
    frames = []
    for frame in reversed(snapshot.frames()):
        frames.append({
            "name": frame.name,
            "depth": frame.depth,
            "variables": _fresh_variables(frame.variables),
            "parent": frames[-1] if frames else None,
            "line": frame.line,
            "filename": frame.filename,
        })
    tree = snapshot.to_dict()
    tree["frame"] = frames[-1] if frames else None
    tree["globals"] = _fresh_variables(snapshot.globals)
    return tree


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
    another."""
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
                {_leaf(rng, None): v for v in picks},
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


@settings(max_examples=150, deadline=None)
@given(seed=seeds)
def test_memoized_encoder_equals_a_fresh_unshared_encode(seed):
    frame, globals_ = _value_graph(seed)
    snapshot = StateSnapshot(frame=frame, globals=globals_, line=2)
    tree = snapshot.to_dict()
    fresh = _fresh_snapshot(snapshot)
    assert trees_equal(tree, fresh), f"seed={seed}"
    assert json.dumps(tree) == json.dumps(fresh), f"seed={seed}"
    # The module frame holds the globals' own Variables: their encodings
    # are shared, not re-encoded, unless they reach the cycle.
    module_vars = tree["frame"]["parent"]["variables"]
    for name, encoded in tree["globals"].items():
        if "invalid" not in json.dumps(encoded):
            assert module_vars[name]["value"] is encoded["value"], (
                f"seed={seed} global {name} encoded twice"
            )


def test_a_cycle_entered_at_two_points_is_cut_per_path():
    frame, globals_ = _value_graph(0)
    tree = StateSnapshot(frame=frame, globals=globals_).to_dict()
    from_a = tree["globals"]["a"]["value"]["content"]
    from_b = tree["frame"]["variables"]["b"]["value"]["content"]
    assert from_a["address"] == 0x300 and from_b["address"] == 0x301
    # A -> B -> (cut back to A); B -> A -> (cut back to B).
    assert from_a["content"][0]["content"]["content"][0]["content"] == {
        "abstract_type": "invalid", "content": None, "location": "heap",
        "address": 0x300, "language_type": "list",
    }
    assert from_b["content"][0]["content"]["content"][0]["content"][
        "address"
    ] == 0x301


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
