"""Language-agnostic, serializable representation of a paused program's state.

This module implements the class diagram of Section II-B2 of the paper:
``Frame`` holds ``Variable`` instances, each of which wraps a ``Value``.
A ``Value`` carries an :class:`AbstractType` describing the *nature* of its
``content``, a :class:`Location` describing where it conceptually lives
(stack, heap, global storage), an ``address`` in the inferior's memory, and a
``language_type`` string using the inferior language's own terminology
(e.g. ``"char*"`` for a C string, ``"tuple"`` for a Python tuple).

All classes in this module are plain data and round-trip through JSON via
:func:`value_to_dict` / :func:`value_from_dict` and friends, so state can
cross process boundaries (the GDB-style tracker pipes it from the debug
server) and feed web front-ends.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple


class AbstractType(enum.Enum):
    """The nature of a :class:`Value`, shared by every inferior language.

    The mapping from concrete language types follows the paper:

    - ``PRIMITIVE``: Python ``int``/``float``/``str``/``bool``; C ``int``,
      ``long``, ``double``, ``float``, ``char`` and ``char*``.
    - ``REF``: C pointers, Python variables and attributes (every Python
      variable is conceptually a reference into the heap).
    - ``LIST``: C arrays, Python lists and tuples.
    - ``DICT``: Python dictionaries.
    - ``STRUCT``: C structures and Python instances not covered above.
    - ``NONE``: the Python ``None`` instance.
    - ``INVALID``: C invalid pointers (dangling, uninitialized, freed).
    - ``FUNCTION``: C function pointers and Python functions.
    """

    PRIMITIVE = "primitive"
    REF = "ref"
    LIST = "list"
    DICT = "dict"
    STRUCT = "struct"
    NONE = "none"
    INVALID = "invalid"
    FUNCTION = "function"


class Location(enum.Enum):
    """Where a :class:`Value` lies in the *conceptual* memory of a program.

    "Conceptual" means, e.g., that every Python variable is a ``REF`` value in
    the stack pointing at an object in the heap, even though CPython does not
    literally segregate memory that way.
    """

    STACK = "stack"
    HEAP = "heap"
    GLOBAL = "global"
    REGISTER = "register"
    UNKNOWN = "unknown"


#: The most ``REF`` links :meth:`Value.chase` follows.
MAX_REF_CHAIN = 64


@dataclass(eq=False)  # identity equality/hash: Values are usable as DICT keys
class Value:
    """A single value in the inferior, in the language-agnostic model.

    Attributes:
        abstract_type: nature of the value; dictates the type of ``content``.
        content: payload, whose shape depends on ``abstract_type``:
            ``PRIMITIVE`` -> Python primitive; ``REF`` -> ``Value``;
            ``LIST`` -> tuple of ``Value`` (tuple for immutability);
            ``DICT`` -> dict mapping ``Value`` keys to ``Value``;
            ``STRUCT`` -> dict mapping field-name ``str`` to ``Value``;
            ``NONE``/``INVALID`` -> ``None``; ``FUNCTION`` -> function name.
        location: conceptual memory region holding the value.
        address: concrete address of the value in the inferior's memory, or
            ``None`` when meaningless (e.g. for ``REF`` values).
        language_type: the type name in the inferior language's terminology.
        truncated: the capture layer cut this value short (container
            elements dropped, string shortened, or nesting depth capped by
            :class:`repro.pytracker.introspect.CaptureLimits`); ``content``
            is a prefix of the real value, not all of it.
    """

    abstract_type: AbstractType
    content: Any
    location: Location = Location.UNKNOWN
    address: Optional[int] = None
    language_type: str = ""
    truncated: bool = False

    def __post_init__(self) -> None:
        _check_content(self.abstract_type, self.content)

    # -- convenience accessors -------------------------------------------

    def deref(self) -> "Value":
        """Follow a ``REF`` value to its target.

        Raises:
            ValueError: if this value is not a ``REF``.
        """
        if self.abstract_type is not AbstractType.REF:
            raise ValueError(f"cannot deref a {self.abstract_type.name} value")
        return self.content

    def chase(self) -> "Value":
        """Follow ``REF`` links to the value they end at (this value if it
        is not a ``REF``). A chain longer than :data:`MAX_REF_CHAIN` links
        stops there, so a cyclic one cannot hang."""
        value = self
        for _ in range(MAX_REF_CHAIN):
            if value.abstract_type is not AbstractType.REF:
                break
            value = value.content
        return value

    def elements(self) -> Tuple["Value", ...]:
        """Return the elements of a ``LIST`` value.

        Raises:
            ValueError: if this value is not a ``LIST``.
        """
        if self.abstract_type is not AbstractType.LIST:
            raise ValueError(
                f"cannot take elements of a {self.abstract_type.name} value"
            )
        return self.content

    def fields(self) -> Dict[str, "Value"]:
        """Return the named fields of a ``STRUCT`` value.

        Raises:
            ValueError: if this value is not a ``STRUCT``.
        """
        if self.abstract_type is not AbstractType.STRUCT:
            raise ValueError(
                f"cannot take fields of a {self.abstract_type.name} value"
            )
        return self.content

    def is_valid(self) -> bool:
        """Whether the value may safely be inspected (not ``INVALID``)."""
        return self.abstract_type is not AbstractType.INVALID

    def walk(self) -> Iterator["Value"]:
        """Yield this value and every value reachable from it, depth-first.

        Shared sub-values are yielded once per reaching path; cycles are cut
        by never revisiting an already-yielded object identity.
        """
        seen: set = set()
        stack: List[Value] = [self]
        while stack:
            value = stack.pop()
            if id(value) in seen:
                continue
            seen.add(id(value))
            yield value
            if value.abstract_type is AbstractType.REF:
                stack.append(value.content)
            elif value.abstract_type is AbstractType.LIST:
                stack.extend(value.content)
            elif value.abstract_type is AbstractType.DICT:
                for key, item in value.content.items():
                    stack.append(key)
                    stack.append(item)
            elif value.abstract_type is AbstractType.STRUCT:
                stack.extend(value.content.values())

    def render(self) -> str:
        """A compact, human-readable rendering used by the bundled tools.

        Cyclic value graphs are legal in the model (see :meth:`walk` and
        :func:`value_to_dict`, which both cut back-edges); a back-edge
        renders as ``<...>``. Sharing that is not cyclic renders fully.
        """
        return self._render(set())

    def _render(self, active: set) -> str:
        marker = id(self)
        if marker in active:
            return "<...>"
        active.add(marker)
        try:
            kind = self.abstract_type
            if kind is AbstractType.PRIMITIVE:
                if self.truncated:
                    return repr(self.content) + "..."
                return repr(self.content)
            if kind is AbstractType.REF:
                target = self.content
                if target.address is not None:
                    return f"&{target.address:#x}"
                return f"&({target._render(active)})"
            if kind is AbstractType.LIST:
                parts = [v._render(active) for v in self.content]
                if self.truncated:
                    parts.append("...")
                return "[" + ", ".join(parts) + "]"
            if kind is AbstractType.DICT:
                parts = [
                    f"{k._render(active)}: {v._render(active)}"
                    for k, v in self.content.items()
                ]
                if self.truncated:
                    parts.append("...")
                return "{" + ", ".join(parts) + "}"
            if kind is AbstractType.STRUCT:
                parts = [
                    f".{name}={v._render(active)}"
                    for name, v in self.content.items()
                ]
                if self.truncated:
                    parts.append("...")
                return "{" + ", ".join(parts) + "}"
            if kind is AbstractType.NONE:
                return "None"
            if kind is AbstractType.INVALID:
                return "<invalid>"
            return f"<function {self.content}>"
        finally:
            active.discard(marker)


def _check_content(abstract_type: AbstractType, content: Any) -> None:
    """Validate the (abstract_type, content) pairing of a :class:`Value`."""
    if abstract_type is AbstractType.REF:
        if not isinstance(content, Value):
            raise TypeError("REF content must be a Value")
    elif abstract_type is AbstractType.LIST:
        if not isinstance(content, tuple) or not all(
            isinstance(v, Value) for v in content
        ):
            raise TypeError("LIST content must be a tuple of Value")
    elif abstract_type is AbstractType.DICT:
        if not isinstance(content, dict) or not all(
            isinstance(k, Value) and isinstance(v, Value)
            for k, v in content.items()
        ):
            raise TypeError("DICT content must map Value to Value")
    elif abstract_type is AbstractType.STRUCT:
        if not isinstance(content, dict) or not all(
            isinstance(k, str) and isinstance(v, Value)
            for k, v in content.items()
        ):
            raise TypeError("STRUCT content must map str to Value")
    elif abstract_type in (AbstractType.NONE, AbstractType.INVALID):
        if content is not None:
            raise TypeError(f"{abstract_type.name} content must be None")
    elif abstract_type is AbstractType.FUNCTION:
        if not isinstance(content, str):
            raise TypeError("FUNCTION content must be the function name")
    elif abstract_type is AbstractType.PRIMITIVE:
        if not isinstance(content, (int, float, str, bool, bytes)):
            raise TypeError(
                "PRIMITIVE content must be a Python primitive, got "
                f"{type(content).__name__}"
            )


@dataclass
class Variable:
    """A named variable in some scope of the inferior.

    Attributes:
        name: the variable's name in the source program.
        value: the variable's current :class:`Value`.
        scope: ``"local"``, ``"global"``, ``"argument"`` or ``"register"``.
    """

    name: str
    value: Value
    scope: str = "local"


@dataclass
class Frame:
    """One stack frame of a paused inferior.

    Frames form a singly linked list from the innermost (current) frame to
    the outermost via ``parent``. ``depth`` is 0 for the program entry frame
    and grows with each call, matching the ``maxdepth`` semantics of the
    control interface.
    """

    name: str
    depth: int
    variables: Dict[str, Variable] = field(default_factory=dict)
    parent: Optional["Frame"] = None
    line: Optional[int] = None
    filename: str = ""
    #: Index of the inferior thread this frame belongs to (0 = the main
    #: inferior thread). ``None`` on single-threaded captures.
    thread: Optional[int] = None

    def lookup(self, variable_name: str) -> Optional[Variable]:
        """Find a variable by name in this frame only."""
        return self.variables.get(variable_name)

    def stack(self) -> List["Frame"]:
        """All frames from this one up to the entry frame, innermost first."""
        frames: List[Frame] = []
        frame: Optional[Frame] = self
        while frame is not None:
            frames.append(frame)
            frame = frame.parent
        return frames

    def __iter__(self) -> Iterator[Variable]:
        return iter(self.variables.values())


def value_to_python(value: Value, _seen: Optional[set] = None) -> Any:
    """Project a :class:`Value` onto plain Python data, chasing references.

    The projection is language-neutral: a C ``int*`` pointing at a heap
    array and a Python list both come back as a Python list, so values from
    different trackers can be compared directly (the basis of the
    equivalence-testing tool). Cycles collapse to the string ``"..."``.
    """
    if _seen is None:
        _seen = set()
    if id(value) in _seen:
        return "..."
    _seen.add(id(value))
    try:
        kind = value.abstract_type
        if kind is AbstractType.PRIMITIVE:
            return value.content
        if kind is AbstractType.NONE:
            return None
        if kind is AbstractType.INVALID:
            return "<invalid>"
        if kind is AbstractType.FUNCTION:
            return f"<function {value.content}>"
        if kind is AbstractType.REF:
            return value_to_python(value.content, _seen)
        if kind is AbstractType.LIST:
            return [value_to_python(v, _seen) for v in value.content]
        if kind is AbstractType.DICT:
            return {
                _freeze(value_to_python(k, _seen)): value_to_python(v, _seen)
                for k, v in value.content.items()
            }
        return {
            name: value_to_python(v, _seen) for name, v in value.content.items()
        }
    finally:
        _seen.discard(id(value))


def _freeze(key: Any) -> Any:
    """Make a projected dict key hashable."""
    if isinstance(key, list):
        return tuple(_freeze(item) for item in key)
    if isinstance(key, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in key.items()))
    return key


# ---------------------------------------------------------------------------
# JSON (de)serialization.
#
# DICT values may have non-string keys, so they are encoded as a list of
# [key, value] pairs. Every dict below uses plain strings and JSON scalars
# only, so ``json.dumps`` works directly on the result.
# ---------------------------------------------------------------------------


def value_to_dict(value: Value) -> Dict[str, Any]:
    """Encode a :class:`Value` (recursively) as a JSON-serializable dict.

    Cyclic value graphs (a list containing itself, via REFs) are legal in
    the model — decoded Python Tutor heaps produce them — but JSON trees
    are not: the back-edge is cut and serialized as an ``INVALID`` value
    that keeps the target's address, so a viewer can still show where the
    cycle pointed.

    A value reached twice (a heap object shared by two variables) is
    encoded once: both places hold the same dict, so the tree is
    read-only. Only a subtree whose encoding cut no back-edge is shared;
    such a subtree reaches no cycle and encodes the same on every path.
    """
    return _value_to_dict(value, {}, [])


#: Memo mark of a value whose encoding is in progress (a back-edge target).
_ACTIVE: Dict[str, Any] = {}


def _value_to_dict(
    value: Value, memo: Dict[int, Dict[str, Any]], cuts: List[int]
) -> Dict[str, Any]:
    """Encode ``value`` with ``memo`` (``id`` of a value → its encoding,
    or :data:`_ACTIVE` while it is being encoded) shared by one top-level
    call; ``cuts`` grows by one per back-edge cut."""
    marker = id(value)
    encoded = memo.get(marker)
    if encoded is not None:
        if encoded is not _ACTIVE:
            return encoded
        cuts.append(marker)
        return {
            "abstract_type": AbstractType.INVALID.value,
            "content": None,
            "location": value.location.value,
            "address": value.address,
            "language_type": value.language_type,
        }
    memo[marker] = _ACTIVE
    seen_cuts = len(cuts)
    kind = value.abstract_type
    content: Any
    if kind is AbstractType.REF:
        content = _value_to_dict(value.content, memo, cuts)
    elif kind is AbstractType.LIST:
        content = [_value_to_dict(v, memo, cuts) for v in value.content]
    elif kind is AbstractType.DICT:
        content = [
            [_value_to_dict(k, memo, cuts), _value_to_dict(v, memo, cuts)]
            for k, v in value.content.items()
        ]
    elif kind is AbstractType.STRUCT:
        content = {
            name: _value_to_dict(v, memo, cuts)
            for name, v in value.content.items()
        }
    elif kind is AbstractType.PRIMITIVE and isinstance(value.content, bytes):
        content = {"__bytes__": value.content.decode("latin-1")}
    else:
        content = value.content
    encoded = {
        # ``_value_`` is the member's plain attribute; ``.value`` is a
        # descriptor call, several times slower on every encoded node.
        "abstract_type": kind._value_,
        "content": content,
        "location": value.location._value_,
        "address": value.address,
        "language_type": value.language_type,
    }
    if value.truncated:
        # Only encoded when set: keeps timeline deltas and pre-existing
        # serialized state byte-compatible for the common full capture.
        encoded["truncated"] = True
    if len(cuts) == seen_cuts:
        memo[marker] = encoded
    else:
        del memo[marker]
    return encoded


def value_from_dict(data: Dict[str, Any]) -> Value:
    """Decode the output of :func:`value_to_dict` back into a :class:`Value`."""
    kind = AbstractType(data["abstract_type"])
    raw = data["content"]
    content: Any
    if kind is AbstractType.REF:
        content = value_from_dict(raw)
    elif kind is AbstractType.LIST:
        content = tuple(value_from_dict(v) for v in raw)
    elif kind is AbstractType.DICT:
        content = {
            _HashableValueKey.wrap(value_from_dict(k)): value_from_dict(v)
            for k, v in raw
        }
    elif kind is AbstractType.STRUCT:
        content = {name: value_from_dict(v) for name, v in raw.items()}
    elif kind is AbstractType.PRIMITIVE and isinstance(raw, dict):
        content = raw["__bytes__"].encode("latin-1")
    else:
        content = raw
    return Value(
        abstract_type=kind,
        content=content,
        location=Location(data["location"]),
        address=data["address"],
        language_type=data["language_type"],
        truncated=bool(data.get("truncated", False)),
    )


class _HashableValueKey(Value):
    """A :class:`Value` usable as a dict key after deserialization.

    In-process trackers build DICT contents keyed by the live ``Value``
    objects (identity hashing works there). After a round-trip through JSON
    the keys are fresh objects, so we give them structural hashing based on
    the rendered form, which is stable and cheap for the small dictionaries
    found in teaching programs.
    """

    @classmethod
    def wrap(cls, value: Value) -> "_HashableValueKey":
        wrapped = cls.__new__(cls)
        wrapped.abstract_type = value.abstract_type
        wrapped.content = value.content
        wrapped.location = value.location
        wrapped.address = value.address
        wrapped.language_type = value.language_type
        wrapped.truncated = value.truncated
        return wrapped

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return hash((self.abstract_type, self.render()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return (
            self.abstract_type is other.abstract_type
            and self.render() == other.render()
        )


def variable_to_dict(variable: Variable) -> Dict[str, Any]:
    """Encode a :class:`Variable` as a JSON-serializable dict."""
    return _variable_to_dict(variable, {}, [])


def _variable_to_dict(
    variable: Variable, memo: Dict[int, Dict[str, Any]], cuts: List[int]
) -> Dict[str, Any]:
    return {
        "name": variable.name,
        "value": _value_to_dict(variable.value, memo, cuts),
        "scope": variable.scope,
    }


def variable_from_dict(data: Dict[str, Any]) -> Variable:
    """Decode the output of :func:`variable_to_dict`."""
    return Variable(
        name=data["name"],
        value=value_from_dict(data["value"]),
        scope=data["scope"],
    )


def frame_to_dict(frame: Frame) -> Dict[str, Any]:
    """Encode a :class:`Frame` *and its parents* as a JSON-serializable dict.

    Values shared between frames are encoded once (see
    :func:`value_to_dict`).
    """
    return _frame_to_dict(frame, {}, [])


def _frame_to_dict(
    frame: Frame, memo: Dict[int, Dict[str, Any]], cuts: List[int]
) -> Dict[str, Any]:
    encoded = {
        "name": frame.name,
        "depth": frame.depth,
        "variables": {
            name: _variable_to_dict(var, memo, cuts)
            for name, var in frame.variables.items()
        },
        "parent": (
            _frame_to_dict(frame.parent, memo, cuts) if frame.parent else None
        ),
        "line": frame.line,
        "filename": frame.filename,
    }
    if frame.thread is not None:
        # Only encoded when set, like Value.truncated: single-threaded
        # captures and old recordings stay byte-compatible.
        encoded["thread"] = frame.thread
    return encoded


def frame_from_dict(data: Dict[str, Any]) -> Frame:
    """Decode the output of :func:`frame_to_dict`."""
    return Frame(
        name=data["name"],
        depth=data["depth"],
        variables={
            name: variable_from_dict(var)
            for name, var in data["variables"].items()
        },
        parent=frame_from_dict(data["parent"]) if data["parent"] else None,
        line=data["line"],
        filename=data["filename"],
        thread=data.get("thread"),
    )
