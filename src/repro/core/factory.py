"""The ``init_tracker`` entry point.

Tool scripts select a backend with one line, as in the paper's Listing 1::

    tracker = init_tracker("python" if inf.endswith(".py") else "GDB")

Backends are registered lazily: building one imports that backend's
module and no other substrate.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict

from repro.core.errors import TrackerError
from repro.core.tracker import Tracker


def _builtin(module: str, cls: str) -> Callable[..., Tracker]:
    """A builder that imports ``module`` only when a tracker is built."""

    def build(**kwargs: Any) -> Tracker:
        return getattr(importlib.import_module(module), cls)(**kwargs)

    return build


_REGISTRY: Dict[str, Callable[..., Tracker]] = {
    "python": _builtin("repro.pytracker.tracker", "PythonTracker"),
    "python-mon": _builtin("repro.pytracker.monitoring", "MonitoringTracker"),
    "python-subproc": _builtin("repro.subproc.tracker", "SubprocPythonTracker"),
    "gdb": _builtin("repro.gdbtracker.tracker", "GDBTracker"),
    "pt": _builtin("repro.pytutor.pt_tracker", "PTTracker"),
    "replay": _builtin("repro.core.replay", "ReplayTracker"),
}


def register_tracker(name: str, build: Callable[..., Tracker]) -> None:
    """Register a tracker backend under ``name`` (case-insensitive).

    Third-party trackers (e.g. one reading an external trace format, as
    suggested in Section III-E) plug in through this hook.
    """
    _REGISTRY[name.lower()] = build


def available_trackers() -> list:
    """Names of all registered backends."""
    return sorted(_REGISTRY)


def init_tracker(name: str, **kwargs: Any) -> Tracker:
    """Create a tracker backend by name.

    Args:
        name: ``"python"`` for the in-process settrace tracker,
            ``"python-mon"`` for the in-process ``sys.monitoring``
            (PEP 669) tracker (Python 3.12+ only), ``"python-subproc"``
            for the settrace tracker isolated in a sandboxed child
            interpreter, ``"GDB"`` for the debug-server (mini-C /
            RISC-V) tracker, or ``"pt"`` for the Python Tutor
            trace-replay tracker.
        **kwargs: forwarded to the backend constructor (e.g.
            ``capture_output=True`` for ``"python"``, ``restart_policy=``
            for ``"GDB"``).

    Raises:
        TrackerError: if no backend with that name is registered.
    """
    try:
        build = _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(available_trackers())
        raise TrackerError(
            f"unknown tracker {name!r}; registered backends: {known}"
        ) from None
    return build(**kwargs)
