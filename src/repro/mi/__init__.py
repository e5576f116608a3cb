"""The machine-interface layer: protocol, debug server, client.

Reproduces the paper's GDB/MI architecture (Fig. 4): the tracker process
talks to a debugger subprocess over a pipe; the debugger owns the inferior
and serializes abstract program state back across the pipe.
"""

import importlib

#: Where each re-exported name lives, imported on first read (PEP 562):
#: an MI client does not load the mini-C and RISC-V inferiors.
_SOURCES = {
    "repro.mi.client": ("MIClient",),
    "repro.mi.inferiors": (
        "InferiorAdapter",
        "MinicInferior",
        "RiscvInferior",
        "open_inferior",
    ),
    "repro.mi.protocol": (
        "Command",
        "Record",
        "format_command",
        "format_done",
        "format_error",
        "format_notify",
        "format_running",
        "format_stopped",
        "format_stream",
        "parse_command",
        "parse_record",
    ),
    "repro.mi.server": ("DebugServer",),
    "repro.mi.staterender": ("CStateRenderer", "render_watch"),
}
_ORIGIN = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.mi' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
