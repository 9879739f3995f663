"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type. Model-violation errors (machine memory
overflow, malformed inputs) get dedicated subclasses because benchmarks
and tests assert on them specifically.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ValidationError(ReproError):
    """An input failed structural validation (shape, dtype, range)."""


class NotATreeError(ValidationError):
    """A candidate edge set is not a tree/forest of the expected form."""


class DisconnectedGraphError(ValidationError):
    """An operation required a connected input graph."""


class CapacityError(ReproError):
    """A simulated machine exceeded its local memory budget ``s``.

    Raised by the distributed engine when a protocol step would make a
    machine hold or transfer more than ``s`` words in one round, i.e. the
    algorithm violated the MPC model's local-space constraint.
    """

    def __init__(self, machine: int, words: int, capacity: int, what: str = "hold"):
        self.machine = machine
        self.words = words
        self.capacity = capacity
        super().__init__(
            f"machine {machine} asked to {what} {words} words "
            f"but local capacity is s={capacity}"
        )


class KeyPackingError(ReproError):
    """Composite sort keys could not be packed into a single 63-bit word."""


class ProtocolError(ReproError):
    """A runtime primitive was called with inconsistent arguments
    (e.g. a lookup against a table with duplicate keys)."""


class ExecutorError(ReproError):
    """The worker pool could not serve a request (pool closed, worker
    handshake timeout, or the task itself raised)."""


class WorkerCrashed(ExecutorError):
    """A pool worker process died while executing a task.

    The pool converts this into a failed :class:`repro.mpc.parallel.
    Outcome` (and respawns the slot) rather than raising, so one crash
    never discards sibling tasks' results; callers that *want* the
    exception re-raise from the outcome.
    """


class ServiceError(ReproError):
    """A serving-layer request could not be completed.

    Structured replacement for transport exceptions leaking out of
    service clients: ``kind`` classifies the failure so callers (the
    router tier in particular) branch on it instead of matching error
    strings.

    Kinds: ``"disconnected"`` (the peer dropped the connection
    mid-call), ``"response"`` (the peer answered with an error
    response), ``"protocol"`` (unparseable response line),
    ``"bad_request"`` (the request itself was malformed — e.g. an
    out-of-range edge id arriving from the wire; the server answers
    ``{"ok": false, "error_kind": "bad_request"}`` instead of letting
    an ``IndexError`` escape into the connection handler).
    """

    def __init__(self, message: str, kind: str = "response"):
        self.kind = kind
        super().__init__(message)
