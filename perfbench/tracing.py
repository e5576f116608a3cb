"""In-memory spans around the public entry points of each layer.

The traced run patches methods that are called once per pause, per query
or per session open — never per trace event — so the overhead stays a
small, measured fraction of a pause. Spans are plain lists kept in
memory; they are reduced to durations and self times when the run ends.
Parent links follow :mod:`contextvars`, so spans opened by concurrent
asyncio tasks nest under the task that opened them.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from perfbench.stats import self_times

_MISSING = object()


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent: Optional[int], name: str):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = time.perf_counter_ns()
        self.end = self.start
        self.attrs: Dict[str, Any] = {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class Tracer:
    """Patches entry points, records spans, restores everything on close."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        return self._current.get()

    def _open(self, name: str) -> tuple:
        parent = self._current.get()
        span = Span(next(self._ids), parent.id if parent else None, name)
        return span, self._current.set(span)

    def _close(self, span: Span, token: Any) -> None:
        span.end = time.perf_counter_ns()
        self._current.reset(token)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        """A span around a call site in the benchmark's own code."""
        span, token = self._open(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._close(span, token)

    # -- patching --------------------------------------------------------

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        tag: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``. ``tag(*args, **kwargs)`` may attach attributes."""
        raw = owner.__dict__.get(attr, _MISSING)
        target = getattr(owner, attr) if raw is _MISSING else raw
        is_classmethod = isinstance(target, classmethod)
        func = target.__func__ if is_classmethod else target
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                span, token = tracer._open(name)
                if tag is not None:
                    span.attrs.update(tag(*args, **kwargs))
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer._close(span, token)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                span, token = tracer._open(name)
                if tag is not None:
                    span.attrs.update(tag(*args, **kwargs))
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._close(span, token)

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def observe(
        self, owner: type, attr: str, note: Callable[["Tracer", Any], None]
    ) -> None:
        """Call ``note(tracer, result)`` after every ``owner.attr`` call:
        a counter at a boundary, without a span of its own."""
        raw = owner.__dict__.get(attr, _MISSING)
        func = getattr(owner, attr) if raw is _MISSING else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            note(tracer, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    # -- reduction -------------------------------------------------------

    def durations_ms(self, name: str) -> List[float]:
        return [span.ms for span in self.spans if span.name == name]

    def self_ms(self, name: str) -> List[float]:
        """Self times (span minus its child spans) of every ``name`` span."""
        own = self_times(
            [(s.id, s.parent, s.start, s.end) for s in self.spans]
        )
        return [own[s.id] / 1e6 for s in self.spans if s.name == name]

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]
