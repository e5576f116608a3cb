"""The supported public API of the library, in one importable place.

Tool scripts should import from here (or from :mod:`repro`, which
re-exports this module's surface)::

    from repro.api import init_tracker, TimelineView, TrackerError

Everything in ``__all__`` is covered by the compatibility promise: the
tracker factory and base classes, the unified inspection bundle
(:class:`StateSnapshot`), the recording/query layer (:class:`Timeline`,
:class:`TimelineView`, :func:`load_timeline`), the pause/state model, and
the typed error hierarchy. Symbols importable from submodules but not
listed here (server internals, codec helpers, the control-point engine)
are implementation surface and may change between releases.

The recording's navigation and queries live on one object,
:class:`TimelineView` (``tracker.timeline_view()``).
"""

from __future__ import annotations

from repro.core.errors import (
    AlreadyTerminatedError,
    BackendUnavailableError,
    ControlTimeout,
    InferiorCrashError,
    NotPausedError,
    NotStartedError,
    ProgramLoadError,
    ProtocolError,
    ServerCrashError,
    TraceStoreError,
    TrackerError,
    UnknownFunctionError,
    UnknownVariableError,
)
from repro.core.factory import (
    available_trackers,
    init_tracker,
    register_tracker,
)
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.replay import ReplayTracker
from repro.core.state import (
    AbstractType,
    Frame,
    Value,
    Variable,
)
from repro.core.timeline import (
    StateSnapshot,
    Timeline,
    TimelineRecorder,
    load_timeline,
)
from repro.core.threads import TaskInfo, ThreadInfo
from repro.core.tracestore import (
    CallRecord,
    ChangeEvent,
    QueryResult,
    TimelineView,
    TraceIndex,
    TraceStore,
    parse_query,
)
from repro.core.tracker import Tracker
from repro.tools.equivalence import (
    DivergenceReport,
    EquivalenceReport,
    TrackerGroup,
    check_equivalence,
)

__all__ = [
    # factory
    "init_tracker",
    "available_trackers",
    "register_tracker",
    # trackers
    "Tracker",
    "ReplayTracker",
    # state model
    "AbstractType",
    "Frame",
    "Value",
    "Variable",
    "PauseReason",
    "PauseReasonType",
    "StateSnapshot",
    # concurrency
    "ThreadInfo",
    "TaskInfo",
    # differential debugging
    "TrackerGroup",
    "DivergenceReport",
    "EquivalenceReport",
    "check_equivalence",
    # recording & querying
    "Timeline",
    "TimelineRecorder",
    "TimelineView",
    "TraceIndex",
    "TraceStore",
    "ChangeEvent",
    "CallRecord",
    "QueryResult",
    "load_timeline",
    "parse_query",
    # typed errors
    "TrackerError",
    "AlreadyTerminatedError",
    "BackendUnavailableError",
    "ControlTimeout",
    "InferiorCrashError",
    "NotPausedError",
    "NotStartedError",
    "ProgramLoadError",
    "ProtocolError",
    "ServerCrashError",
    "TraceStoreError",
    "UnknownFunctionError",
    "UnknownVariableError",
]
