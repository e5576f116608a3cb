"""Convert live Python objects and frames into the abstract state model.

The Python tracker runs in the same interpreter as the inferior, so — as the
paper notes — inspection is the easy half: we walk real objects with ``id()``
providing addresses. Conceptually every Python variable is a ``REF`` value in
the stack pointing at an object in the heap, and that is exactly how this
module builds the model: :func:`build_variable` wraps the heap snapshot of
the object in a ``REF``.

Snapshots are *deep copies into the model*: mutating the inferior afterwards
does not change an already-taken snapshot. Shared objects are memoized by
identity so aliasing is visible (two variables referencing one list yield two
``REF`` values whose targets are the same ``Value`` instance), and reference
cycles are handled by filling container contents after memoization.
"""

from __future__ import annotations

import inspect
import itertools
import reprlib
import types
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.state import (
    AbstractType,
    Frame,
    Location,
    Value,
    Variable,
    _HashableValueKey,
)

#: Global names never shown to tools (interpreter plumbing, not user state).
HIDDEN_GLOBALS = frozenset(
    {
        "__builtins__",
        "__cached__",
        "__doc__",
        "__file__",
        "__loader__",
        "__name__",
        "__package__",
        "__spec__",
        "__annotations__",
    }
)

_PRIMITIVE_TYPES = (int, float, str, bool, complex, bytes)

#: Bounded-cost repr for summaries (never walks a whole bomb container).
_SUMMARY_REPR = reprlib.Repr()
_SUMMARY_REPR.maxstring = 120
_SUMMARY_REPR.maxother = 120


@dataclass(frozen=True)
class CaptureLimits:
    """Bounds on how much of the inferior's object graph a pause captures.

    A hostile (or merely enormous) inferior state — a million-element
    list, a megabyte string, a structure nested hundreds of levels deep —
    must never wedge or exhaust the tool at a pause. Every bound marks
    what it cut with ``Value.truncated = True`` so tools can show the cut
    explicitly instead of silently lying about the state.

    Attributes:
        max_items: elements captured per container (list/tuple/set/dict
            entries, instance attributes); the rest are dropped.
        max_string: characters (or bytes) captured per string value.
        max_depth: hard cap on capture nesting depth — a safety net far
            below the interpreter recursion limit, independent of the
            presentation-level ``snapshot_depth``.
        max_values: total values captured per snapshot across the whole
            graph; beyond it everything collapses to summaries.

    ``None`` disables the corresponding bound.
    """

    max_items: Optional[int] = 1000
    max_string: Optional[int] = 4096
    max_depth: Optional[int] = 100
    max_values: Optional[int] = 100_000


#: The default bounds: generous for pedagogy, fatal for memory bombs.
DEFAULT_CAPTURE_LIMITS = CaptureLimits()

#: Opt-out: capture everything (the seed behavior, cycles still safe).
UNBOUNDED_CAPTURE = CaptureLimits(
    max_items=None, max_string=None, max_depth=None, max_values=None
)


class PyVariable(Variable):
    """A :class:`Variable` that also carries the live Python object.

    This is the "extended API" of Section II-C2: tools that only target
    Python inferiors may read :attr:`raw_object` directly instead of walking
    the abstract model.
    """

    def __init__(self, name: str, value: Value, scope: str, raw_object: Any):
        super().__init__(name=name, value=value, scope=scope)
        self.raw_object = raw_object


class Snapshotter:
    """Builds :class:`Value` graphs from live objects, with memoization.

    One snapshotter is used per pause so that sharing within a single pause
    is preserved while distinct pauses get independent snapshots.

    Args:
        max_depth: cap on container nesting depth; deeper content is
            replaced by an ``INVALID``-free primitive summary. ``None``
            means unlimited (cycles are still safe).
        limits: hard safety bounds on capture size
            (:class:`CaptureLimits`); defaults to
            :data:`DEFAULT_CAPTURE_LIMITS`. Everything a bound cuts is
            marked with ``Value.truncated``.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        limits: Optional[CaptureLimits] = None,
    ):
        self.max_depth = max_depth
        self.limits = limits if limits is not None else DEFAULT_CAPTURE_LIMITS
        self._memo: Dict[int, Value] = {}
        #: (id, truncated) -> summary: one summary Value per object too
        self._summaries: Dict[Tuple[int, bool], Value] = {}
        self._captured = 0

    def snapshot(self, obj: Any, depth: int = 0) -> Value:
        """Return the heap :class:`Value` modeling ``obj``."""
        address = id(obj)
        if address in self._memo:
            return self._memo[address]
        limits = self.limits
        self._captured += 1
        if (
            limits.max_values is not None and self._captured > limits.max_values
        ) or (limits.max_depth is not None and depth > limits.max_depth):
            return self._summary(obj, truncated=True)
        if self.max_depth is not None and depth > self.max_depth:
            return self._summary(obj)
        if obj is None:
            return self._scalar(obj, AbstractType.NONE, None)
        if isinstance(obj, bool):
            # bool before int: isinstance(True, int) holds.
            return self._primitive(obj)
        if isinstance(obj, _PRIMITIVE_TYPES):
            return self._primitive(obj)
        if isinstance(obj, (list, tuple)):
            return self._sequence(obj, depth)
        if isinstance(obj, (set, frozenset)):
            elements = obj
            if limits.max_items is not None and len(obj) > limits.max_items:
                # Slice before sorting so a giant set costs O(max_items log
                # max_items), not a full sort of the bomb.
                elements = itertools.islice(obj, limits.max_items)
            return self._sequence(obj, depth, ordered=sorted(elements, key=repr))
        if isinstance(obj, dict):
            return self._mapping(obj, depth)
        if _is_function_like(obj):
            return self._scalar(
                obj, AbstractType.FUNCTION, _function_name(obj)
            )
        return self._instance(obj, depth)

    # -- builders --------------------------------------------------------

    def _scalar(
        self, obj: Any, kind: AbstractType, content: Any,
        truncated: bool = False,
    ) -> Value:
        """One Value per object per capture, like every container."""
        value = self._memo[id(obj)] = Value(
            kind, content, Location.HEAP, id(obj), type(obj).__name__,
            truncated,
        )
        return value

    def _summary(self, obj: Any, truncated: bool = False) -> Value:
        # Not in _memo: a shallower path to ``obj`` still captures it whole.
        key = (id(obj), truncated)
        if key not in self._summaries:
            self._summaries[key] = Value(
                AbstractType.PRIMITIVE, _summarize(obj), Location.HEAP,
                id(obj), type(obj).__name__, truncated,
            )
        return self._summaries[key]

    def _primitive(self, obj: Any) -> Value:
        content = obj
        truncated = False
        limit = self.limits.max_string
        if (
            isinstance(obj, (str, bytes))
            and limit is not None
            and len(obj) > limit
        ):
            content = obj[:limit]
            truncated = True
        if isinstance(obj, complex):
            # complex is not JSON-serializable; keep its repr, still PRIMITIVE.
            content = repr(obj)
        return self._scalar(obj, AbstractType.PRIMITIVE, content, truncated)

    def _sequence(self, obj: Any, depth: int, ordered: Any = None) -> Value:
        value = Value(
            abstract_type=AbstractType.LIST,
            content=(),
            location=Location.HEAP,
            address=id(obj),
            language_type=type(obj).__name__,
        )
        # Memoize before recursing so self-referencing containers terminate.
        self._memo[id(obj)] = value
        elements = obj if ordered is None else ordered
        cap = self.limits.max_items
        if cap is not None:
            elements = itertools.islice(elements, cap)
        value.content = tuple(
            self.snapshot(element, depth + 1) for element in elements
        )
        if cap is not None and len(value.content) < len(obj):
            value.truncated = True
        return value

    def _mapping(self, obj: dict, depth: int) -> Value:
        value = Value(
            abstract_type=AbstractType.DICT,
            content={},
            location=Location.HEAP,
            address=id(obj),
            language_type=type(obj).__name__,
        )
        self._memo[id(obj)] = value
        cap = self.limits.max_items
        content: Dict[Value, Value] = {}
        items = obj.items()
        if cap is not None:
            items = itertools.islice(items, cap)
            if len(obj) > cap:
                value.truncated = True
        for key, item in items:
            key_value = _HashableValueKey.wrap(self.snapshot(key, depth + 1))
            content[key_value] = self.snapshot(item, depth + 1)
        value.content = content
        return value

    def _instance(self, obj: Any, depth: int) -> Value:
        value = Value(
            abstract_type=AbstractType.STRUCT,
            content={},
            location=Location.HEAP,
            address=id(obj),
            language_type=type(obj).__name__,
        )
        self._memo[id(obj)] = value
        cap = self.limits.max_items
        fields: Dict[str, Value] = {}
        attributes = getattr(obj, "__dict__", None)
        if attributes is not None:
            for name, attr in attributes.items():
                if cap is not None and len(fields) >= cap:
                    value.truncated = True
                    break
                fields[name] = self.snapshot(attr, depth + 1)
        elif hasattr(type(obj), "__slots__"):
            for name in type(obj).__slots__:
                if cap is not None and len(fields) >= cap:
                    value.truncated = True
                    break
                if hasattr(obj, name):
                    fields[name] = self.snapshot(getattr(obj, name), depth + 1)
        else:
            # No address: the object's own entry is the struct.
            fields["<repr>"] = Value(
                AbstractType.PRIMITIVE, _summarize(obj), Location.HEAP, None,
                type(obj).__name__,
            )
        value.content = fields
        return value


def _is_function_like(obj: Any) -> bool:
    return isinstance(
        obj,
        (
            types.FunctionType,
            types.BuiltinFunctionType,
            types.MethodType,
            types.LambdaType,
            type,
        ),
    ) or inspect.isroutine(obj)


def _function_name(obj: Any) -> str:
    return getattr(obj, "__qualname__", None) or getattr(obj, "__name__", repr(obj))


def _summarize(obj: Any) -> str:
    # reprlib bounds the cost of summarizing huge builtin containers (a
    # plain repr() of a million-element list would build the whole string
    # before we could truncate it) and survives a raising __repr__.
    try:
        text = _SUMMARY_REPR.repr(obj)
    except Exception:
        text = object.__repr__(obj)
    if len(text) > 120:
        text = text[:117] + "..."
    return text


def build_variable(
    name: str,
    obj: Any,
    scope: str,
    snapshotter: Snapshotter,
    ref_location: Location = Location.STACK,
) -> PyVariable:
    """Model one Python variable: a stack ``REF`` to the heap snapshot.

    Args:
        name: variable name.
        obj: the live object the variable is bound to.
        scope: ``"local"``, ``"argument"`` or ``"global"``.
        snapshotter: the per-pause snapshotter (preserves sharing).
        ref_location: where the reference cell itself lives.
    """
    target = snapshotter.snapshot(obj)
    reference = Value(
        abstract_type=AbstractType.REF,
        content=target,
        location=ref_location,
        address=None,
        language_type=type(obj).__name__,
    )
    return PyVariable(name=name, value=reference, scope=scope, raw_object=obj)


def build_frame_chain(
    py_frame: Any,
    is_inferior_frame,
    snapshotter: Optional[Snapshotter] = None,
    max_depth: Optional[int] = None,
    limits: Optional[CaptureLimits] = None,
) -> Frame:
    """Build the model :class:`Frame` chain from a live Python frame.

    Args:
        py_frame: the innermost inferior ``types.FrameType``.
        is_inferior_frame: predicate selecting inferior frames (the chain
            stops at, and skips, tracker/runner frames).
        snapshotter: shared snapshotter; a fresh one is created if omitted.
        max_depth: snapshot depth cap, forwarded to a fresh snapshotter.
        limits: capture bounds, forwarded to a fresh snapshotter.

    Returns:
        The innermost :class:`Frame`, with ``parent`` links to the entry
        frame and ``depth`` 0 at the entry frame.
    """
    if snapshotter is None:
        snapshotter = Snapshotter(max_depth=max_depth, limits=limits)
    raw_frames = []
    frame = py_frame
    while frame is not None:
        if is_inferior_frame(frame):
            raw_frames.append(frame)
        frame = frame.f_back
    # raw_frames is innermost-first; depth counts from the entry frame.
    total = len(raw_frames)
    model_frames = []
    for index, raw in enumerate(raw_frames):
        depth = total - 1 - index
        code = raw.f_code
        arg_names = set(
            code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
        )
        variables: Dict[str, Variable] = {}
        for var_name, obj in raw.f_locals.items():
            if var_name.startswith("__") and var_name.endswith("__"):
                continue
            if isinstance(obj, types.ModuleType):
                # Same rule as build_globals: imported modules are
                # interpreter plumbing, not program state — and walking
                # one (e.g. ``threading._active``) can pull the *tool's*
                # object graph into an inferior snapshot.
                continue
            scope = "argument" if var_name in arg_names else "local"
            variables[var_name] = build_variable(
                var_name, obj, scope, snapshotter
            )
        model_frames.append(
            Frame(
                name=code.co_name,
                depth=depth,
                variables=variables,
                parent=None,
                line=raw.f_lineno,
                filename=code.co_filename,
            )
        )
    for inner, outer in zip(model_frames, model_frames[1:]):
        inner.parent = outer
    if not model_frames:
        return Frame(name="<module>", depth=0)
    return model_frames[0]


def build_globals(
    globals_dict: Dict[str, Any],
    snapshotter: Optional[Snapshotter] = None,
    limits: Optional[CaptureLimits] = None,
) -> Dict[str, Variable]:
    """Model the inferior's global namespace (interpreter plumbing hidden)."""
    if snapshotter is None:
        snapshotter = Snapshotter(limits=limits)
    result: Dict[str, Variable] = {}
    for name, obj in globals_dict.items():
        if name in HIDDEN_GLOBALS:
            continue
        if isinstance(obj, types.ModuleType):
            continue
        result[name] = build_variable(
            name, obj, "global", snapshotter, ref_location=Location.GLOBAL
        )
    return result
