"""Adapters presenting mini-C and RISC-V inferiors to the debug server.

The server's run control works on the shared event stream of
:mod:`repro.minic.events`; these adapters add the inspection surface each
backend can provide (frames + globals + heap map for C, registers + raw
memory + disassembly for assembly).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import ProgramLoadError
from repro.core.state import (
    AbstractType,
    Frame,
    Location,
    Value,
    Variable,
)
from repro.minic.events import Event
from repro.minic.interpreter import Interpreter
from repro.minic.parser import parse
from repro.riscv.assembler import assemble
from repro.riscv.machine import Machine
from repro.mi.staterender import CStateRenderer, render_watch


class InferiorAdapter:
    """What the debug server needs from any inferior backend."""

    filename: str = ""

    def events(self) -> Iterator[Event]:
        raise NotImplementedError

    def new_capture(self) -> None:
        """Start one capture: the frames and globals rendered until the
        next call share their values."""

    def frame_chain(self) -> Frame:
        raise NotImplementedError

    def globals_map(self) -> Dict[str, Variable]:
        raise NotImplementedError

    def registers(self) -> Optional[Dict[str, int]]:
        return None

    def read_memory(self, address: int, count: int) -> bytes:
        raise NotImplementedError

    def disassemble(self, function: str) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def render_watch(self, function: Optional[str], name: str) -> Optional[str]:
        raise NotImplementedError

    def current_pc(self) -> Optional[int]:
        return None

    def function_names(self) -> List[str]:
        raise NotImplementedError

    def heap_blocks(self) -> Dict[int, int]:
        return {}

    def exit_error(self) -> Optional[str]:
        return None


class MinicInferior(InferiorAdapter):
    """A mini-C program under the interpreter substrate."""

    def __init__(self, path: str, args: Optional[List[str]] = None):
        with open(path, "r", encoding="utf-8") as source:
            text = source.read()
        self.filename = os.path.abspath(path)
        program = parse(text, self.filename)
        self.interpreter = Interpreter(program, args=args)
        self.new_capture()

    def events(self) -> Iterator[Event]:
        return self.interpreter.run()

    def new_capture(self) -> None:
        self._renderer = CStateRenderer(self.interpreter)

    def frame_chain(self) -> Frame:
        return self._renderer.frame_chain()

    def globals_map(self) -> Dict[str, Variable]:
        return self._renderer.globals()

    def read_memory(self, address: int, count: int) -> bytes:
        return self.interpreter.memory.read(address, count)

    def disassemble(self, function: str) -> List[Dict[str, Any]]:
        # C functions have no instruction stream in this substrate; report
        # the single conceptual return site (the interpreter's epilogue).
        definition = self.interpreter.functions.get(function)
        if definition is None:
            raise ProgramLoadError(f"unknown function {function!r}")
        address = self.interpreter.function_addresses[function]
        return [
            {
                "address": address,
                "mnemonic": "enter",
                "text": f"{function}: enter",
                "is_return": False,
                "line": definition.line,
            },
            {
                "address": address + 8,
                "mnemonic": "ret",
                "text": f"{function}: ret",
                "is_return": True,
                "line": definition.end_line,
            },
        ]

    def render_watch(self, function: Optional[str], name: str) -> Optional[str]:
        return render_watch(self.interpreter, function, name)

    def function_names(self) -> List[str]:
        return sorted(self.interpreter.functions)

    def heap_blocks(self) -> Dict[int, int]:
        return self.interpreter.memory.live_blocks()

    def exit_error(self) -> Optional[str]:
        return self.interpreter.error


class RiscvInferior(InferiorAdapter):
    """A RISC-V assembly program under the machine simulator."""

    def __init__(self, path: str, args: Optional[List[str]] = None):
        with open(path, "r", encoding="utf-8") as source:
            text = source.read()
        self.filename = os.path.abspath(path)
        self.program = assemble(text, self.filename)
        self.machine = Machine(self.program)

    def events(self) -> Iterator[Event]:
        return self.machine.run()

    def frame_chain(self) -> Frame:
        frames = []
        for index, rv_frame in enumerate(self.machine.call_stack):
            frames.append(
                Frame(
                    name=rv_frame.function,
                    depth=index,
                    variables={},
                    line=None,
                    filename=self.filename,
                )
            )
        instruction = self.program.instruction_at(self.machine.pc)
        if instruction is not None and frames:
            frames[-1].line = instruction.line
        # Innermost frame exposes the registers as variables so generic
        # (language-agnostic) tools see *something* useful for assembly.
        if frames:
            frames[-1].variables = {
                name: Variable(
                    name=name,
                    value=Value(
                        abstract_type=AbstractType.PRIMITIVE,
                        content=value,
                        location=Location.REGISTER,
                        address=None,
                        language_type="register",
                    ),
                    scope="register",
                )
                for name, value in self.machine.register_map().items()
            }
        for inner, outer in zip(frames[::-1], frames[-2::-1]):
            inner.parent = outer
        return frames[-1] if frames else Frame(name="<none>", depth=0)

    def globals_map(self) -> Dict[str, Variable]:
        result: Dict[str, Variable] = {}
        for symbol, address in self.program.symbols.items():
            if any(address == a for a, _ in self.program.text_labels):
                continue
            try:
                word = self.machine.read_word(address)
            except Exception:
                continue
            result[symbol] = Variable(
                name=symbol,
                value=Value(
                    abstract_type=AbstractType.PRIMITIVE,
                    content=word,
                    location=Location.GLOBAL,
                    address=address,
                    language_type="word",
                ),
                scope="global",
            )
        return result

    def registers(self) -> Optional[Dict[str, int]]:
        return self.machine.register_map()

    def read_memory(self, address: int, count: int) -> bytes:
        # Memory *viewers* ask for fixed-size windows that may extend past
        # a segment; unmapped bytes read as zero (as in a debugger's memory
        # pane) instead of faulting the whole request.
        chunk = bytearray()
        for offset in range(count):
            try:
                chunk += self.machine.read_memory(address + offset, 1)
            except Exception:
                chunk.append(0)
        return bytes(chunk)

    def disassemble(self, function: str) -> List[Dict[str, Any]]:
        return [
            {
                "address": instruction.address,
                "mnemonic": instruction.mnemonic,
                "text": instruction.text,
                "is_return": instruction.is_return(),
                "line": instruction.line,
            }
            for instruction in self.program.function_body(function)
        ]

    def render_watch(self, function: Optional[str], name: str) -> Optional[str]:
        registers = self.machine.register_map()
        if name in registers:
            return str(registers[name])
        address = self.program.symbols.get(name)
        if address is None:
            return None
        try:
            return self.machine.read_memory(address, 4).hex()
        except Exception:
            return None

    def current_pc(self) -> Optional[int]:
        return self.machine.pc

    def function_names(self) -> List[str]:
        return [label for _, label in self.program.text_labels]

    def exit_error(self) -> Optional[str]:
        return self.machine.error


def open_inferior(path: str, args: Optional[List[str]] = None) -> InferiorAdapter:
    """Create the right adapter from the program's file extension."""
    if path.endswith(".c"):
        return MinicInferior(path, args)
    if path.endswith((".s", ".S", ".asm")):
        return RiscvInferior(path, args)
    raise ProgramLoadError(
        f"cannot infer inferior language from {path!r} (expect .c or .s)"
    )
