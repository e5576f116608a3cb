"""Build the language-agnostic state model from a paused mini-C inferior.

This is the reproduction of the paper's "custom inspection command": it
recursively explores stack frames and the memory locations reachable from
local variables, creating ``Frame``/``Variable``/``Value`` instances
(Section II-C1). The interesting rules, all from the paper:

- ``char*`` is a PRIMITIVE whose content is the pointed-to string;
- other valid pointers are REF values whose content is the target value;
- invalid pointers (NULL, unmapped, freed, uninitialized garbage) are
  INVALID — the tools draw them as a cross;
- a pointer into a live heap block bigger than one element renders the
  whole block as a LIST (possible only because the allocator registry
  records block sizes — the malloc-interposition payoff);
- arrays are LIST, structs are STRUCT, function pointers are FUNCTION.

Everything returned is plain model data, ready for ``frame_to_dict`` and a
trip through the server pipe.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.state import AbstractType, Frame, Location, Value, Variable
from repro.minic.ctypes import (
    ArrayType,
    CType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    VoidType,
)
from repro.minic.interpreter import CFrame, Interpreter
from repro.minic.memory import MemoryFault, NULL

_LOCATION_BY_SEGMENT = {
    "stack": Location.STACK,
    "heap": Location.HEAP,
    "global": Location.GLOBAL,
}

#: Pointer-chase depth cap: linked structures longer than this are truncated
#: with an INVALID marker rather than chased forever.
MAX_POINTER_DEPTH = 16


class CStateRenderer:
    """Renders one paused inferior's state; memoizes shared targets."""

    def __init__(self, interpreter: Interpreter):
        self.interpreter = interpreter
        self.memory = interpreter.memory
        self._memo: Dict[Tuple[int, str], Value] = {}

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def frame_chain(self) -> Frame:
        """The model frame chain for the current call stack, innermost first."""
        model_frames = []
        for cframe in self.interpreter.call_stack:
            model_frames.append(self._render_frame(cframe))
        for inner, outer in zip(model_frames[::-1], model_frames[-2::-1]):
            inner.parent = outer
        if not model_frames:
            return Frame(name="<none>", depth=0)
        return model_frames[-1]

    def globals(self) -> Dict[str, Variable]:
        result: Dict[str, Variable] = {}
        for name, (address, ctype) in self.interpreter.globals.items():
            result[name] = Variable(
                name=name,
                value=self.render_value(ctype, address, Location.GLOBAL),
                scope="global",
            )
        return result

    # ------------------------------------------------------------------
    # Frames and variables
    # ------------------------------------------------------------------

    def _render_frame(self, cframe: CFrame) -> Frame:
        variables: Dict[str, Variable] = {}
        for name, (address, ctype) in cframe.locals.items():
            scope = "argument" if name in cframe.arg_names else "local"
            variables[name] = Variable(
                name=name,
                value=self.render_value(ctype, address, Location.STACK),
                scope=scope,
            )
        return Frame(
            name=cframe.name,
            depth=cframe.depth,
            variables=variables,
            line=cframe.line,
            filename=self.interpreter.program.filename,
        )

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------

    def render_value(
        self, ctype: CType, address: int, location: Location, depth: int = 0
    ) -> Value:
        """Model the object of type ``ctype`` stored at ``address``: one
        Value per ``(address, type)`` (shells are memoized before their
        contents are rendered, so a cycle ends)."""
        key = (address, ctype.name)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self._render(
                ctype, address, location, depth
            )
        return value

    def _render(
        self, ctype: CType, address: int, location: Location, depth: int
    ) -> Value:
        if isinstance(ctype, (IntType, FloatType)):
            return self._scalar(ctype, address, location)
        if isinstance(ctype, PointerType):
            return self._pointer(ctype, address, location, depth)
        if isinstance(ctype, ArrayType):
            return self._array(ctype, address, location, depth)
        if isinstance(ctype, StructType):
            return self._struct(ctype, address, location, depth)
        return self._invalid(ctype, address, location)

    def _scalar(self, ctype: CType, address: int, location: Location) -> Value:
        try:
            raw = self.memory.read_scalar(address, ctype)
        except MemoryFault:
            return self._invalid(ctype, address, location)
        if isinstance(ctype, IntType) and ctype.name == "char":
            # A char shows as its character when printable, else its code.
            content = chr(raw) if 32 <= raw < 127 else raw
        else:
            content = raw
        return Value(
            abstract_type=AbstractType.PRIMITIVE,
            content=content,
            location=location,
            address=address,
            language_type=ctype.name,
        )

    def _pointer(
        self, ctype: PointerType, address: int, location: Location, depth: int
    ) -> Value:
        try:
            target_address = self.memory.read_scalar(address, ctype)
        except MemoryFault:
            return self._invalid(ctype, address, location)
        # Function pointers.
        if isinstance(ctype.target, FunctionType) or (
            target_address in self.interpreter.address_to_function
        ):
            name = self.interpreter.address_to_function.get(target_address)
            if name is None:
                return self._invalid(ctype, address, location)
            return Value(
                abstract_type=AbstractType.FUNCTION,
                content=name,
                location=location,
                address=address,
                language_type=ctype.name,
            )
        # char*: a PRIMITIVE string, per the paper's model.
        if (
            isinstance(ctype.target, IntType)
            and ctype.target.name == "char"
            and self.memory.is_valid(target_address, 1)
        ):
            return Value(
                abstract_type=AbstractType.PRIMITIVE,
                content=self.memory.read_cstring(target_address),
                location=location,
                address=address,
                language_type=ctype.name,
            )
        target_size = max(ctype.target.size, 1)
        if (
            target_address == NULL
            or isinstance(ctype.target, VoidType)
            or not self.memory.is_valid(target_address, target_size)
            or depth >= MAX_POINTER_DEPTH
        ):
            return self._invalid(ctype, address, location)
        value = Value(
            abstract_type=AbstractType.REF,
            content=Value(AbstractType.NONE, None),  # placeholder
            location=location,
            address=address,
            language_type=ctype.name,
        )
        self._memo[(address, ctype.name)] = value
        target_location = self._location_of(target_address)
        block = self.memory.block_containing(target_address)
        if (
            block is not None
            and not block.freed
            and target_address == block.address
            and block.size >= 2 * target_size
        ):
            # A malloc'd array: render the whole block as a LIST.
            length = block.size // target_size
            value.content = self._heap_array(
                ctype.target, target_address, length, depth + 1
            )
        else:
            value.content = self.render_value(
                ctype.target, target_address, target_location, depth + 1
            )
        return value

    def _heap_array(
        self, element: CType, address: int, length: int, depth: int
    ) -> Value:
        key = (address, f"{element.name}[{length}]")
        if key in self._memo:
            return self._memo[key]
        elements = tuple(
            self.render_value(
                element, address + index * element.size, Location.HEAP, depth
            )
            for index in range(length)
        )
        value = self._memo[key] = Value(
            abstract_type=AbstractType.LIST,
            content=elements,
            location=Location.HEAP,
            address=address,
            language_type=key[1],
        )
        return value

    def _array(
        self, ctype: ArrayType, address: int, location: Location, depth: int
    ) -> Value:
        if isinstance(ctype.element, IntType) and ctype.element.size == 1:
            # char arrays render as their string content.
            return Value(
                abstract_type=AbstractType.PRIMITIVE,
                content=self.memory.read_cstring(address),
                location=location,
                address=address,
                language_type=ctype.name,
            )
        elements = tuple(
            self.render_value(
                ctype.element,
                address + index * ctype.element.size,
                location,
                depth + 1,
            )
            for index in range(ctype.length)
        )
        return Value(
            abstract_type=AbstractType.LIST,
            content=elements,
            location=location,
            address=address,
            language_type=ctype.name,
        )

    def _struct(
        self, ctype: StructType, address: int, location: Location, depth: int
    ) -> Value:
        value = Value(
            abstract_type=AbstractType.STRUCT,
            content={},
            location=location,
            address=address,
            language_type=ctype.name,
        )
        self._memo[(address, ctype.name)] = value
        value.content = {
            field.name: self.render_value(
                field.ctype, address + field.offset, location, depth + 1
            )
            for field in ctype.fields.values()
        }
        return value

    def _invalid(self, ctype: CType, address: int, location: Location) -> Value:
        return Value(
            abstract_type=AbstractType.INVALID,
            content=None,
            location=location,
            address=address,
            language_type=ctype.name,
        )

    def _location_of(self, address: int) -> Location:
        segment = self.memory.segment_of(address)
        return _LOCATION_BY_SEGMENT.get(segment, Location.UNKNOWN)


def render_watch(
    interpreter: Interpreter, function: Optional[str], name: str
) -> Optional[str]:
    """A compact, comparison-stable rendering of a watched variable.

    Watches compare the variable's *raw bytes*, so writes through aliases
    and pointers are detected too. Returns ``None`` when the variable is not
    currently in scope.
    """
    location = _find_variable(interpreter, function, name)
    if location is None:
        return None
    address, ctype = location
    try:
        return interpreter.memory.read(address, max(ctype.size, 1)).hex()
    except MemoryFault:
        return None


def _find_variable(
    interpreter: Interpreter, function: Optional[str], name: str
) -> Optional[Tuple[int, CType]]:
    if function is not None:
        for cframe in reversed(interpreter.call_stack):
            if cframe.name == function and name in cframe.locals:
                return cframe.locals[name]
        return None
    if interpreter.call_stack and name in interpreter.call_stack[-1].locals:
        return interpreter.call_stack[-1].locals[name]
    return interpreter.globals.get(name)
