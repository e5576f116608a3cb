"""Reproduction of EasyTracker (CGO 2024).

A Python library for controlling and inspecting the execution of programs
written in Python, (mini-)C, or RISC-V assembly, aimed at building program
visualization tools. See ``README.md`` for a quickstart and ``DESIGN.md``
for the system inventory.

The top-level namespace re-exports the full public API so tool scripts can
write, exactly as in the paper (each name is imported on first use)::

    from repro import init_tracker, PauseReasonType, AbstractType

The *supported* surface — the subset covered by the compatibility
promise — is defined by :mod:`repro.api` and re-exported here; prefer
``from repro.api import ...`` in new code.
"""

import importlib

__version__ = "1.0.0"

#: Where each re-exported name lives. Nothing below is imported until a
#: name is first read (PEP 562), so ``from repro import init_tracker``
#: loads the core and, when a tracker is built, only that backend.
_SOURCES = {
    "repro.core": (
        "AbstractType",
        "AlreadyTerminatedError",
        "BackendUnavailableError",
        "BackoffPolicy",
        "CallRecord",
        "ChangeEvent",
        "ControlTimeout",
        "Deadline",
        "Frame",
        "FunctionBreakpoint",
        "InferiorCrashError",
        "LineBreakpoint",
        "Location",
        "NotPausedError",
        "NotStartedError",
        "PauseReason",
        "PauseReasonType",
        "ProgramLoadError",
        "ProtocolError",
        "QueryResult",
        "ReplayTracker",
        "ServerCrashError",
        "StateSnapshot",
        "SupervisionEvent",
        "Timeline",
        "TimelineRecorder",
        "TimelineView",
        "TraceIndex",
        "TraceStore",
        "TraceStoreError",
        "TrackedFunction",
        "Tracker",
        "TrackerError",
        "UnknownFunctionError",
        "UnknownVariableError",
        "Value",
        "Variable",
        "Watchpoint",
        "available_trackers",
        "frame_from_dict",
        "frame_to_dict",
        "init_tracker",
        "load_timeline",
        "parse_query",
        "register_timeline_codec",
        "register_tracker",
        "value_from_dict",
        "value_to_dict",
        "variable_from_dict",
        "variable_to_dict",
    ),
    "repro.core.threads": ("TaskInfo", "ThreadInfo"),
    "repro.tools.equivalence": (
        "DivergenceReport",
        "EquivalenceReport",
        "TrackerGroup",
        "check_equivalence",
    ),
}
_ORIGIN = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted([*_ORIGIN, "api"])


def __getattr__(name: str):
    if name == "api":
        return importlib.import_module("repro.api")
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
