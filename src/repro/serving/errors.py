"""Typed serving errors: every failure mode a client can observe.

The fail-fast contract of the serving layer is that a request either
completes bit-identical to a direct engine call or fails *promptly* with
one of these types — never a hang, never an anonymous ``RuntimeError`` the
front-end cannot translate into a status code.  The HTTP layer maps
:class:`LoadShedError` and :class:`DeadlineExceededError` to ``503`` with a
``Retry-After`` header; :class:`DispatcherCrashError` (a supervised
dispatcher restart failed the in-flight batch) maps to ``500`` and is safe
to retry.
"""

from __future__ import annotations

__all__ = [
    "DeadlineExceededError",
    "DispatcherCrashError",
    "LoadShedError",
    "ServiceDrainingError",
    "ServingError",
    "WorkerBatchError",
    "WorkerPoolUnavailableError",
]


class ServingError(RuntimeError):
    """Base of all typed serving failures."""

    #: Hint for the HTTP ``Retry-After`` header (seconds); subclasses that
    #: represent transient overload set it.
    retry_after_s: float = 1.0


class LoadShedError(ServingError):
    """Admission control refused the request: the dispatch queue is full.

    Raised at submit time, before the request ever queues — shedding at the
    door keeps queued latencies bounded for the requests already admitted.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class DeadlineExceededError(ServingError, TimeoutError):
    """The request's deadline passed before the engine could serve it.

    The dispatcher checks deadlines when it drains a batch: an expired
    request is failed immediately instead of riding (and slowing) the
    coalesced engine call its batch-mates are waiting on.
    """


class DispatcherCrashError(ServingError):
    """The dispatcher thread crashed while this request was in flight.

    The supervisor restarts the dispatcher and fails the in-flight batch
    with this error — futures are never left hanging.  The request itself
    was not the cause (engine errors propagate with their own types), so
    retrying it is safe.
    """


class ServiceDrainingError(LoadShedError):
    """The server is draining: it stopped accepting new requests.

    Raised at admission once a graceful drain (SIGTERM) began — in-flight
    requests are still flushed to completion, but new work is refused with
    a ``Retry-After`` hint so clients fail over to a healthy replica.
    A :class:`LoadShedError` subclass: the HTTP layers map it to ``503``
    exactly like overload shedding.
    """

    def __init__(
        self, message: str = "service is draining; retry elsewhere",
        retry_after_s: float = 1.0,
    ) -> None:
        super().__init__(message, retry_after_s=retry_after_s)


class WorkerPoolUnavailableError(ServingError):
    """The replicated worker pool could not take (or finish) this batch.

    Internal to the serving tier — **never client-visible**: the coalescer
    catches it and degrades to in-process dispatch (the pre-replication
    code path), so the response is still produced, bit-identical, on the
    serving process itself.  Raised when the pool is draining or closed,
    when no live worker exists, or when a batch exhausted its failover
    attempts.
    """


class WorkerBatchError(ServingError):
    """A serving worker failed a batch deterministically (an engine error).

    The pool reports a worker's engine failure as ``(type name,
    message)``, not as the original exception object.  The coalescer
    treats this like pool unavailability and recomputes the batch
    in-process, where the *real* typed exception is raised and propagated
    to the waiting clients, so error behaviour stays exactly that of a
    direct engine call.
    """
