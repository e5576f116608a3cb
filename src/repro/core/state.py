"""Language-agnostic, serializable representation of a paused program's state.

This module implements the class diagram of Section II-B2 of the paper:
``Frame`` holds ``Variable`` instances, each of which wraps a ``Value``.
A ``Value`` carries an :class:`AbstractType` describing the *nature* of its
``content``, a :class:`Location` describing where it conceptually lives
(stack, heap, global storage), an ``address`` in the inferior's memory, and a
``language_type`` string using the inferior language's own terminology
(e.g. ``"char*"`` for a C string, ``"tuple"`` for a Python tuple).

All classes in this module are plain data and round-trip through JSON via
:class:`HeapEncoder` / :class:`HeapDecoder` (one heap table per tree, each
shared value written once), so state can cross process boundaries (the
GDB-style tracker pipes it from the debug server) and feed web front-ends.
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

        Cyclic value graphs are legal in the model (live captures and
        decoded trees both hold them); a back-edge renders as ``<...>``.
        Sharing that is not cyclic renders fully.
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


class _HashableValueKey(Value):
    """A :class:`Value` usable as a DICT content key: ``Value`` hashes by
    identity, so capture and the decoder key a DICT by wrapped copies that
    hash and compare by their rendering (cheap for the small dictionaries
    of teaching programs)."""

    @classmethod
    def wrap(cls, value: Value) -> "_HashableValueKey":
        wrapped = cls.__new__(cls)
        wrapped.__dict__.update(value.__dict__)
        return wrapped

    def __hash__(self) -> int:
        return hash((self.abstract_type, self.render()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return (
            self.abstract_type is other.abstract_type
            and self.render() == other.render()
        )


# ---------------------------------------------------------------------------
# JSON (de)serialization: one heap table per tree (a snapshot, an MI reply,
# a standalone value). Every container and every value with an address
# (every REF target a backend builds has one) is one ``heap`` entry under
# "<address>:<language_type>", held by that key everywhere else; scalars
# without an address and Python variables' address-less REFs are inline,
# except a REF to a REF, so a cycle of REFs goes through a key too. Address
# alone is not a key: a mini-C array and its first element share one. A
# key another Value holds gets "#<n>" appended (n counts per key), and an
# address-less container gets "#<n>"; such keys are local to their tree,
# the others name one object of one paused state.
# ---------------------------------------------------------------------------

#: Plain-string tags: an enum member hashes through a Python ``__hash__``.
_CONTAINERS = frozenset(("list", "dict", "struct"))
#: What the decoder builds as an empty shell and fills in afterwards.
_SHELLS = _CONTAINERS | {"ref"}
_ABSTRACT_TYPES = {member.value: member for member in AbstractType}
_LOCATIONS = {member.value: member for member in Location}


class HeapEncoder:
    """Encodes the values of one tree into one heap table, :attr:`heap`."""

    def __init__(self) -> None:
        self.heap: Dict[str, Dict[str, Any]] = {}
        self._keys: Dict[int, str] = {}  # id of an interned Value -> key
        self._suffixes: Dict[str, int] = {}  # key -> last "#<n>" given

    def value(self, value: Value) -> Any:
        """The position of ``value``: its heap key, or its inline dict."""
        marker = id(value)
        key = self._keys.get(marker)
        if key is not None:
            return key
        tag = value.abstract_type._value_
        heap = self.heap
        if value.address is not None:
            key = f"{value.address}:{value.language_type}"
            if key in heap:
                key = self._local_key(key)
        elif tag in _CONTAINERS or (
            tag == "ref" and value.content.abstract_type is AbstractType.REF
        ):
            key = self._local_key("")
        else:
            return self._encode(value)
        self._keys[marker] = key
        if tag in _SHELLS:
            heap[key] = {}  # claimed first: the contents may lead back here
        heap[key] = self._encode(value)
        return key

    def variables(self, variables: Dict[str, Variable]) -> Dict[str, Any]:
        """A name -> :class:`Variable` map, values by position."""
        return {
            name: {
                "name": variable.name,
                "value": self.value(variable.value),
                "scope": variable.scope,
            }
            for name, variable in variables.items()
        }

    def frame(self, frame: Frame) -> Dict[str, Any]:
        """A frame and its parent chain (each frame nests its parent)."""
        encoded = {
            "name": frame.name,
            "depth": frame.depth,
            "variables": self.variables(frame.variables),
            "parent": self.frame(frame.parent) if frame.parent else None,
            "line": frame.line,
            "filename": frame.filename,
        }
        if frame.thread is not None:  # only when set, like truncated
            encoded["thread"] = frame.thread
        return encoded

    def _local_key(self, base: str) -> str:
        # Numbered per key, so the suffix of one object's second Value
        # does not move when other objects' Values come or go.
        n = self._suffixes[base] = self._suffixes.get(base, 0) + 1
        return f"{base}#{n}"

    def _encode(self, value: Value) -> Dict[str, Any]:
        kind = value.abstract_type
        position = self.value
        content: Any = value.content
        if kind is AbstractType.PRIMITIVE:
            if isinstance(content, bytes):
                content = {"__bytes__": content.decode("latin-1")}
        elif kind is AbstractType.REF:
            content = position(content)
        elif kind is AbstractType.LIST:
            content = [position(item) for item in content]
        elif kind is AbstractType.DICT:
            # A key is a copy of a value that may have its own entry, so
            # only a container key is written to the heap.
            content = [
                [
                    position(key)
                    if key.abstract_type._value_ in _CONTAINERS
                    else self._encode(key),
                    position(item),
                ]
                for key, item in content.items()
            ]
        elif kind is AbstractType.STRUCT:
            content = {name: position(item) for name, item in content.items()}
        encoded = {
            # ``_value_`` is a plain attribute; ``.value`` is a descriptor.
            "abstract_type": kind._value_,
            "content": content,
            "location": value.location._value_,
            "address": value.address,
            "language_type": value.language_type,
        }
        if value.truncated:  # only when set: full captures stay small
            encoded["truncated"] = True
        return encoded


#: Content of a REF shell until the decoder fills it in.
_PENDING = Value(AbstractType.NONE, None)


class HeapDecoder:
    """Decodes the positions of one tree against its heap table: one key
    yields one :class:`Value`. Entries are built as shells and filled
    after, as capture builds them, so a cycle decodes as a cycle.
    """

    def __init__(self, heap: Dict[str, Any]) -> None:
        self._heap = heap
        self._values: Dict[str, Value] = {}  # this tree's key -> Value
        self._unfilled: List[Tuple[Value, Any]] = []

    def value(self, position: Any) -> Value:
        """The :class:`Value` at ``position`` (a key or an inline dict)."""
        value = self._resolve(position)
        while self._unfilled:
            self._fill(*self._unfilled.pop())
        return value

    def variables(self, data: Dict[str, Any]) -> Dict[str, Variable]:
        """Decode :meth:`HeapEncoder.variables` output."""
        return {
            name: Variable(var["name"], self.value(var["value"]), var["scope"])
            for name, var in data.items()
        }

    def frame(self, data: Dict[str, Any]) -> Frame:
        """Decode :meth:`HeapEncoder.frame` output (parents linked)."""
        return Frame(
            name=data["name"],
            depth=data["depth"],
            variables=self.variables(data["variables"]),
            parent=self.frame(data["parent"]) if data["parent"] else None,
            line=data["line"],
            filename=data["filename"],
            thread=data.get("thread"),
        )

    def _resolve(self, position: Any) -> Value:
        if position.__class__ is not str:
            return self._build(position)
        value = self._values.get(position)
        if value is None:
            value = self._values[position] = self._build(self._heap[position])
        return value

    def _build(self, data: Dict[str, Any]) -> Value:
        tag, raw = data["abstract_type"], data["content"]
        content: Any = raw
        if tag in _SHELLS:
            content = _PENDING if tag == "ref" else () if tag == "list" else {}
        elif raw.__class__ is dict:
            content = raw["__bytes__"].encode("latin-1")
        value = Value(
            _ABSTRACT_TYPES[tag], content, _LOCATIONS[data["location"]],
            data["address"], data["language_type"], "truncated" in data,
        )
        if tag in _SHELLS:
            self._unfilled.append((value, raw))
        return value

    def _fill(self, value: Value, raw: Any) -> None:
        kind = value.abstract_type
        resolve = self._resolve
        if kind is AbstractType.REF:
            value.content = resolve(raw)
        elif kind is AbstractType.LIST:
            value.content = tuple([resolve(item) for item in raw])
        elif kind is AbstractType.STRUCT:
            value.content = {name: resolve(item) for name, item in raw.items()}
        else:  # a key is hashed when inserted: decode it whole first
            value.content = {
                _HashableValueKey.wrap(self.value(key)): resolve(item)
                for key, item in raw
            }


def value_to_dict(value: Value) -> Dict[str, Any]:
    """Encode a :class:`Value` as ``{"value": position, "heap": {...}}``."""
    encoder = HeapEncoder()
    return {"value": encoder.value(value), "heap": encoder.heap}


def value_from_dict(data: Dict[str, Any]) -> Value:
    """Decode :func:`value_to_dict` output."""
    return HeapDecoder(data["heap"]).value(data["value"])


def variables_to_dict(variables: Dict[str, Variable]) -> Dict[str, Any]:
    """Encode a name -> :class:`Variable` map as ``{"variables", "heap"}``."""
    encoder = HeapEncoder()
    return {"variables": encoder.variables(variables), "heap": encoder.heap}


def variables_from_dict(data: Dict[str, Any]) -> Dict[str, Variable]:
    """Decode :func:`variables_to_dict` output."""
    return HeapDecoder(data["heap"]).variables(data["variables"])


def frame_to_dict(frame: Frame) -> Dict[str, Any]:
    """Encode a :class:`Frame` and its parents as ``{"frame", "heap"}``."""
    encoder = HeapEncoder()
    return {"frame": encoder.frame(frame), "heap": encoder.heap}


def frame_from_dict(data: Dict[str, Any]) -> Frame:
    """Decode :func:`frame_to_dict` output."""
    return HeapDecoder(data["heap"]).frame(data["frame"])
