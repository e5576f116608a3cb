"""Python Tutor (PT) execution-trace model and value encoding.

Python Tutor's front-end walks a JSON trace: one entry per execution point,
each carrying the event kind, position, the stack with encoded locals,
encoded globals, a heap dictionary, and accumulated stdout. This module
implements that trace format (the subset the PT front-end needs to render
frames and heap objects) plus lossless conversion between PT's value
encoding and our abstract :class:`~repro.core.state.Value` model:

- primitives encode as themselves;
- references encode as ``["REF", heap_id]``;
- heap objects encode as ``["LIST", ...]``, ``["TUPLE", ...]``,
  ``["DICT", [k, v], ...]``, ``["INSTANCE", class, [name, v], ...]`` or
  ``["FUNCTION", name, null]``, keyed by heap id in the step's heap dict.

Section III-E of the paper uses this in both directions: *generating* a PT
trace from a controlled execution (so the PT front-end can display it), and
*replaying* an existing PT trace behind the tracker API.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import ProgramLoadError
from repro.core.state import (
    AbstractType,
    Frame,
    Location,
    Value,
    Variable,
    _HashableValueKey,
)

#: PT event names for the execution points we record.
EVENT_STEP = "step_line"
EVENT_CALL = "call"
EVENT_RETURN = "return"
EVENT_EXCEPTION = "exception"


@dataclass
class PTFrame:
    """One rendered stack frame of a PT trace step."""

    func_name: str
    frame_id: int
    encoded_locals: Dict[str, Any] = field(default_factory=dict)
    ordered_varnames: List[str] = field(default_factory=list)
    is_highlighted: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "func_name": self.func_name,
            "frame_id": self.frame_id,
            "encoded_locals": self.encoded_locals,
            "ordered_varnames": self.ordered_varnames,
            "is_highlighted": self.is_highlighted,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PTFrame":
        return cls(
            func_name=data["func_name"],
            frame_id=data["frame_id"],
            encoded_locals=data.get("encoded_locals", {}),
            ordered_varnames=data.get("ordered_varnames", []),
            is_highlighted=data.get("is_highlighted", False),
        )


@dataclass
class PTStep:
    """One execution point of a PT trace."""

    event: str
    line: int
    func_name: str
    stack_to_render: List[PTFrame] = field(default_factory=list)
    globals: Dict[str, Any] = field(default_factory=dict)
    ordered_globals: List[str] = field(default_factory=list)
    heap: Dict[str, Any] = field(default_factory=dict)
    stdout: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "event": self.event,
            "line": self.line,
            "func_name": self.func_name,
            "stack_to_render": [f.to_dict() for f in self.stack_to_render],
            "globals": self.globals,
            "ordered_globals": self.ordered_globals,
            "heap": self.heap,
            "stdout": self.stdout,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PTStep":
        return cls(
            event=data["event"],
            line=data["line"],
            func_name=data.get("func_name", ""),
            stack_to_render=[
                PTFrame.from_dict(f) for f in data.get("stack_to_render", [])
            ],
            globals=data.get("globals", {}),
            ordered_globals=data.get("ordered_globals", []),
            heap=data.get("heap", {}),
            stdout=data.get("stdout", ""),
        )


@dataclass
class PTTrace:
    """A complete PT trace: the program text and its execution points."""

    code: str
    steps: List[PTStep] = field(default_factory=list)
    language: str = "py3"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "language": self.language,
            "trace": [step.to_dict() for step in self.steps],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as output:
            output.write(self.dumps())

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PTTrace":
        return cls(
            code=data.get("code", ""),
            language=data.get("language", "py3"),
            steps=[PTStep.from_dict(step) for step in data.get("trace", [])],
        )

    @classmethod
    def loads(cls, text: str) -> "PTTrace":
        try:
            return cls.from_dict(json.loads(text))
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            raise ProgramLoadError(f"not a PT trace: {error}") from error

    @classmethod
    def load(cls, path: str) -> "PTTrace":
        with open(path, "r", encoding="utf-8") as source:
            return cls.loads(source.read())


# ---------------------------------------------------------------------------
# Value model -> PT encoding
# ---------------------------------------------------------------------------


class PTEncoder:
    """Encodes :class:`Value` graphs into PT's (value, heap) representation.

    One encoder is used per step so the heap dict accumulates every object
    referenced from that step's frames, with sharing preserved through heap
    ids (we use the model's addresses).
    """

    def __init__(self) -> None:
        self.heap: Dict[str, Any] = {}
        self._next_synthetic_id = 1

    def encode(self, value: Value) -> Any:
        """Encode one value; heap objects are interned into :attr:`heap`."""
        kind = value.abstract_type
        if kind is AbstractType.PRIMITIVE:
            content = value.content
            if isinstance(content, bytes):
                return content.decode("latin-1")
            return content
        if kind is AbstractType.NONE:
            return None
        if kind is AbstractType.INVALID:
            # Heap-located invalid values (decoded from a SPECIAL_FLOAT heap
            # entry) go back to the heap, so REFs at them stay REFs.
            if value.location is Location.HEAP and value.address is not None:
                return ["REF", self._intern(value)]
            return ["SPECIAL_FLOAT", "<invalid>"]
        if kind is AbstractType.REF:
            return ["REF", self._intern(value.content)]
        # Bare aggregates (e.g. C arrays inlined in a frame) also go to the
        # heap so the front-end can draw arrows at them.
        return ["REF", self._intern(value)]

    def _heap_id(self, value: Value) -> int:
        if value.address is not None:
            return value.address
        synthetic = self._next_synthetic_id
        self._next_synthetic_id += 1
        return -synthetic

    def _intern(self, value: Value) -> int:
        heap_id = self._heap_id(value)
        key = str(heap_id)
        if key in self.heap:
            return heap_id
        kind = value.abstract_type
        if kind is AbstractType.PRIMITIVE:
            content = value.content
            if isinstance(content, bytes):
                content = content.decode("latin-1")
            self.heap[key] = ["HEAP_PRIMITIVE", value.language_type, content]
            return heap_id
        if kind is AbstractType.NONE:
            self.heap[key] = ["HEAP_PRIMITIVE", "NoneType", None]
            return heap_id
        if kind is AbstractType.FUNCTION:
            # The third slot is PT's enclosing-frame id for closures; a
            # decoded function carries it through so it round-trips.
            parent = getattr(value, "closure_parent", None)
            self.heap[key] = ["FUNCTION", value.content, parent]
            return heap_id
        if kind is AbstractType.INVALID:
            self.heap[key] = ["SPECIAL_FLOAT", "<invalid>"]
            return heap_id
        if kind is AbstractType.LIST:
            tag = "TUPLE" if value.language_type == "tuple" else "LIST"
            encoded: List[Any] = [tag]
            self.heap[key] = encoded  # intern before recursing (cycles)
            encoded.extend(self.encode(element) for element in value.content)
            return heap_id
        if kind is AbstractType.DICT:
            encoded = ["DICT"]
            self.heap[key] = encoded
            encoded.extend(
                [self.encode(k), self.encode(v)] for k, v in value.content.items()
            )
            return heap_id
        if kind is AbstractType.STRUCT:
            encoded = ["INSTANCE", value.language_type]
            self.heap[key] = encoded
            encoded.extend(
                [name, self.encode(v)] for name, v in value.content.items()
            )
            return heap_id
        if kind is AbstractType.REF:
            # A REF stored inside a container: chase to the target.
            return self._intern(value.content)
        raise TypeError(f"cannot encode {kind}")  # pragma: no cover


# ---------------------------------------------------------------------------
# PT encoding -> Value model (for trace replay)
# ---------------------------------------------------------------------------


class PTDecoder:
    """Decodes one step's (encoded value, heap) pairs back into Values."""

    def __init__(self, heap: Dict[str, Any]):
        self.heap = heap
        self._memo: Dict[str, Value] = {}

    def decode(self, encoded: Any, location: Location = Location.STACK) -> Value:
        if encoded is None:
            return Value(AbstractType.NONE, None, location=location)
        if isinstance(encoded, (int, float, str, bool)):
            return Value(
                AbstractType.PRIMITIVE,
                encoded,
                location=location,
                language_type=type(encoded).__name__,
            )
        if isinstance(encoded, list) and encoded and encoded[0] == "REF":
            target = self._decode_heap(str(encoded[1]))
            return Value(
                AbstractType.REF, target, location=location,
                language_type=target.language_type,
            )
        if isinstance(encoded, list) and encoded and encoded[0] == "SPECIAL_FLOAT":
            return Value(AbstractType.INVALID, None, location=location)
        raise ProgramLoadError(f"unknown PT encoding: {encoded!r}")

    def _decode_heap(self, key: str) -> Value:
        if key in self._memo:
            return self._memo[key]
        encoded = self.heap.get(key)
        address = int(key) if key.lstrip("-").isdigit() else None
        if encoded is None:
            return Value(
                AbstractType.INVALID, None,
                location=Location.HEAP, address=address,
            )
        tag = encoded[0]
        if tag == "HEAP_PRIMITIVE":
            content = encoded[2]
            if content is None:
                # The encoder interns a heap-referenced None this way;
                # PRIMITIVE cannot legally hold None.
                value = Value(
                    AbstractType.NONE,
                    None,
                    location=Location.HEAP,
                    address=address,
                    language_type=encoded[1],
                )
            else:
                if encoded[1] == "bytes" and isinstance(content, str):
                    content = content.encode("latin-1")
                value = Value(
                    AbstractType.PRIMITIVE,
                    content,
                    location=Location.HEAP,
                    address=address,
                    language_type=encoded[1],
                )
            self._memo[key] = value
            return value
        if tag == "FUNCTION":
            value = Value(
                AbstractType.FUNCTION,
                encoded[1],
                location=Location.HEAP,
                address=address,
                language_type="function",
            )
            if len(encoded) > 2 and encoded[2] is not None:
                value.closure_parent = encoded[2]
            self._memo[key] = value
            return value
        if tag == "SPECIAL_FLOAT":
            value = Value(
                AbstractType.INVALID, None,
                location=Location.HEAP, address=address,
            )
            self._memo[key] = value
            return value
        if tag in ("LIST", "TUPLE"):
            value = Value(
                AbstractType.LIST,
                (),
                location=Location.HEAP,
                address=address,
                language_type="tuple" if tag == "TUPLE" else "list",
            )
            self._memo[key] = value
            value.content = tuple(
                self.decode(item, Location.HEAP) for item in encoded[1:]
            )
            return value
        if tag == "DICT":
            value = Value(
                AbstractType.DICT,
                {},
                location=Location.HEAP,
                address=address,
                language_type="dict",
            )
            self._memo[key] = value
            content: Dict[Value, Value] = {}
            for pair in encoded[1:]:
                key_value = _HashableValueKey.wrap(
                    self.decode(pair[0], Location.HEAP)
                )
                content[key_value] = self.decode(pair[1], Location.HEAP)
            value.content = content
            return value
        if tag == "INSTANCE":
            value = Value(
                AbstractType.STRUCT,
                {},
                location=Location.HEAP,
                address=address,
                language_type=encoded[1],
            )
            self._memo[key] = value
            value.content = {
                pair[0]: self.decode(pair[1], Location.HEAP)
                for pair in encoded[2:]
            }
            return value
        raise ProgramLoadError(f"unknown PT heap tag: {tag!r}")


def step_to_frame_chain(step: PTStep) -> Frame:
    """Rebuild the model :class:`Frame` chain from one trace step."""
    decoder = PTDecoder(step.heap)
    frames: List[Frame] = []
    for depth, pt_frame in enumerate(step.stack_to_render):
        variables = {
            name: Variable(
                name=name,
                value=decoder.decode(pt_frame.encoded_locals[name]),
                scope="local",
            )
            for name in pt_frame.ordered_varnames
            if name in pt_frame.encoded_locals
        }
        frames.append(
            Frame(
                name=pt_frame.func_name,
                depth=depth,
                variables=variables,
                line=step.line if depth == len(step.stack_to_render) - 1 else None,
            )
        )
    for inner, outer in zip(frames[::-1], frames[-2::-1]):
        inner.parent = outer
    if not frames:
        return Frame(name="<module>", depth=0, line=step.line)
    return frames[-1]


def step_globals(step: PTStep) -> Dict[str, Variable]:
    """Rebuild the model global variables from one trace step."""
    decoder = PTDecoder(step.heap)
    return {
        name: Variable(
            name=name,
            value=decoder.decode(step.globals[name], Location.GLOBAL),
            scope="global",
        )
        for name in step.ordered_globals
        if name in step.globals
    }
