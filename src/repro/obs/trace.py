"""Lightweight request tracing: contextvars-propagated span trees.

A trace is a tree of :class:`Span` objects sharing one ``trace_id``.  The
root opens at HTTP ingress / ``ClusteringService.submit()`` (or at the CLI
entry point) and children open around each phase the request flows through
— coalescer dispatch, ``quantities_multi``, the engine's ρ/δ/assign
phases, parallel task waves — so one trace shows the full phase breakdown
of one request.  Timing uses ``time.perf_counter_ns`` (monotonic), so durations
are non-negative by construction.

Propagation is via a :data:`contextvars.ContextVar`, which flows through
plain calls and ``contextvars``-aware executors.  The serving dispatcher
runs on its *own* thread, so the coalescer carries the request's root span
explicitly (``ServeRequest.span``) and re-establishes it there with
:func:`use_span`.

Finished root spans land in a small ring buffer keyed by trace id
(:func:`get_trace`, served by ``GET /trace/<id>``).  With capture disabled
every entry point returns the shared :data:`NOOP_SPAN` and touches nothing.
"""

from __future__ import annotations

import threading
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter_ns
from typing import Deque, Iterator, List, Optional

from repro.obs import runtime

__all__ = [
    "NOOP_SPAN",
    "Span",
    "begin_span",
    "current_span",
    "current_trace_id",
    "get_trace",
    "recent_trace_ids",
    "reset",
    "span",
    "use_span",
]

#: How many finished traces the ring buffer retains.
TRACE_BUFFER_CAPACITY = 256

_UNSET = object()


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed node of a trace tree."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_ns", "end_ns", "attrs", "children")

    def __init__(self, name: str, trace_id: str, parent_id: Optional[str], attrs: dict) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.start_ns = perf_counter_ns()
        self.end_ns: Optional[int] = None
        self.attrs = attrs
        self.children: List[Span] = []

    def set(self, key: str, value: object) -> None:
        """Attach one attribute (JSON-serialisable values only)."""
        self.attrs[key] = value

    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None else perf_counter_ns()
        return end - self.start_ns

    def finish(self) -> None:
        """Close the span (idempotent); finished roots enter the ring buffer."""
        if self.end_ns is not None:
            return
        self.end_ns = perf_counter_ns()
        if self.parent_id is None:
            _buffer_put(self)

    def to_dict(self, root_start_ns: Optional[int] = None) -> dict:
        """JSON tree rooted here; offsets are relative to the trace root."""
        base = self.start_ns if root_start_ns is None else root_start_ns
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "offset_ns": self.start_ns - base,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
            "children": [child.to_dict(base) for child in list(self.children)],
        }


class _NoopSpan:
    """Shared inert span returned by every entry point while capture is off."""

    __slots__ = ()
    trace_id = None
    span_id = None
    parent_id = None
    name = "noop"
    attrs: dict = {}
    children = ()
    duration_ns = 0

    def set(self, key: str, value: object) -> None:
        pass

    def finish(self) -> None:
        pass

    def to_dict(self, root_start_ns: Optional[int] = None) -> dict:
        return {}


NOOP_SPAN = _NoopSpan()

_CURRENT: ContextVar[Optional[Span]] = ContextVar("repro_obs_current_span", default=None)

_BUFFER_LOCK = threading.Lock()
_BUFFER: Deque[Span] = deque(maxlen=TRACE_BUFFER_CAPACITY)


def _buffer_put(root: Span) -> None:
    with _BUFFER_LOCK:
        _BUFFER.append(root)


def get_trace(trace_id: str) -> Optional[dict]:
    """The JSON span tree of a finished trace, or ``None`` if unknown."""
    with _BUFFER_LOCK:
        for root in reversed(_BUFFER):
            if root.trace_id == trace_id:
                return root.to_dict()
    return None


def recent_trace_ids(limit: int = 20) -> List[str]:
    """Most-recent-first ids of finished traces in the ring buffer."""
    with _BUFFER_LOCK:
        roots = list(_BUFFER)
    return [root.trace_id for root in reversed(roots)][: max(0, int(limit))]


def reset() -> None:
    """Clear the ring buffer (test isolation)."""
    with _BUFFER_LOCK:
        _BUFFER.clear()


def current_span() -> Optional[Span]:
    return _CURRENT.get()


def current_trace_id() -> Optional[str]:
    sp = _CURRENT.get()
    return sp.trace_id if sp is not None else None


def begin_span(name: str, parent: object = _UNSET, **attrs: object):
    """Open a span without entering it (caller owns ``finish()``).

    ``parent`` defaults to the context's current span; pass an explicit
    span to stitch across threads, or ``None`` to force a new trace root.
    Returns :data:`NOOP_SPAN` when capture is off.
    """
    if not runtime._ENABLED:
        return NOOP_SPAN
    if parent is _UNSET:
        parent = _CURRENT.get()
    if parent is None or parent is NOOP_SPAN:
        return Span(name, _new_id(), None, dict(attrs))
    sp = Span(name, parent.trace_id, parent.span_id, dict(attrs))
    parent.children.append(sp)
    return sp


@contextmanager
def span(name: str, parent: object = _UNSET, **attrs: object) -> Iterator[object]:
    """Open a span for the block and make it the context's current span."""
    sp = begin_span(name, parent, **attrs)
    if sp is NOOP_SPAN:
        yield sp
        return
    token = _CURRENT.set(sp)
    try:
        yield sp
    except BaseException as exc:
        sp.set("error", type(exc).__name__)
        raise
    finally:
        _CURRENT.reset(token)
        sp.finish()


@contextmanager
def use_span(sp: object) -> Iterator[None]:
    """Re-establish ``sp`` as the current span (cross-thread handoff)."""
    if sp is None or sp is NOOP_SPAN or not runtime._ENABLED:
        yield
        return
    token = _CURRENT.set(sp)
    try:
        yield
    finally:
        _CURRENT.reset(token)
