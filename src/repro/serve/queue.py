"""Bounded admission queue of the micro-batching search service.

The queue is the service's backpressure boundary: ``offer`` either
accepts a request or rejects it *immediately* with a retry hint
(:class:`AdmissionError`), so overload never manifests as unbounded
memory or silently growing latency. Dequeue is batch-shaped:
:meth:`RequestQueue.pop_batch` pulls the oldest live request plus every
*compatible* pending request (same point-set fingerprint, mode, ``k``
and ``radius`` — the precondition for fusing them into one
:meth:`~repro.core.engine.RTNNEngine.search_fused` launch), culling
cancelled and deadline-expired requests along the way.

This module is plain synchronous bookkeeping — no asyncio, no threads —
so it is trivially testable; :mod:`repro.serve.service` owns the event
loop and the locking discipline (a single worker task).
"""

from __future__ import annotations

from dataclasses import dataclass


class ServeError(RuntimeError):
    """Base class of every service-level failure."""


class AdmissionError(ServeError):
    """The queue is full; retry after ``retry_after_s`` seconds."""

    def __init__(self, depth: int, retry_after_s: float):
        super().__init__(
            f"queue full ({depth} pending); retry in {retry_after_s:.3f}s"
        )
        self.depth = depth
        self.retry_after_s = retry_after_s


class DeadlineExpired(ServeError):
    """The request's deadline passed before it could be served."""


class ServiceStopped(ServeError):
    """The service shut down before the request completed."""


@dataclass
class SearchRequest:
    """One client request plus its service-side bookkeeping.

    ``deadline_at`` is an *absolute* monotonic timestamp (or ``None``
    for no deadline); ``future`` is resolved by the worker with a
    :class:`~repro.serve.service.ServeResult` or a
    :class:`ServeError`. ``cancelled`` requests are dropped at the next
    dequeue without being served.
    """

    rid: int
    kind: str                   # one of repro.core.engine.SEARCH_KINDS
    queries: object             # (N, d) float64 array
    k: int
    radius: float
    submitted_at: float
    deadline_at: float | None = None
    points_fp: str = ""         # engine point-set fingerprint
    future: object = None
    attempts: int = 0
    cancelled: bool = False
    budget: int | None = None   # per-request traversal step budget

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def compat_key(self) -> tuple:
        """Requests with equal keys may share one fused launch.

        The budget participates: a budgeted request must never ride in
        (or degrade) an exact request's launch, and vice versa.
        """
        return (
            self.points_fp,
            self.kind,
            int(self.k),
            float(self.radius),
            self.budget,
        )

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now >= self.deadline_at


class RequestQueue:
    """FIFO request buffer with a hard depth bound.

    Admission control is depth-based: past ``max_depth`` pending
    requests, :meth:`offer` raises :class:`AdmissionError` carrying a
    retry hint (the caller-supplied ``retry_after_s``, typically a
    small multiple of the batching window scaled by how full the queue
    is). Rejected work costs the service nothing.
    """

    def __init__(self, max_depth: int, retry_after_s: float = 0.05):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = int(max_depth)
        self.retry_after_s = float(retry_after_s)
        self._items: list[SearchRequest] = []
        self.rejected = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    # ------------------------------------------------------------------
    def offer(self, req: SearchRequest) -> None:
        """Admit ``req`` or raise :class:`AdmissionError` when full."""
        if len(self._items) >= self.max_depth:
            self.rejected += 1
            # Scale the hint with occupancy past the bound: a queue
            # rejected at exactly-full suggests one window; a deeply
            # contended one (many rejects) still gives a finite hint.
            raise AdmissionError(len(self._items), self.retry_after_s)
        self._items.append(req)

    def pop_batch(
        self,
        now: float,
        max_requests: int,
        max_queries: int,
    ) -> tuple[list[SearchRequest], list[SearchRequest]]:
        """Pull one compatible batch; cull dead requests on the way.

        Returns ``(batch, expired)``: ``batch`` is the oldest live
        request plus up to ``max_requests - 1`` compatible followers
        (bounded also by ``max_queries`` total fused queries, though
        the seed request is always taken), in arrival order; ``expired``
        are requests whose deadline passed while queued — the caller
        must fail their futures. Cancelled requests are dropped
        silently. Incompatible requests keep their queue position.
        """
        batch: list[SearchRequest] = []
        expired: list[SearchRequest] = []
        keep: list[SearchRequest] = []
        key = None
        n_queries = 0
        for req in self._items:
            if req.cancelled:
                continue
            if req.expired(now):
                expired.append(req)
                continue
            if key is None:
                key = req.compat_key()
                batch.append(req)
                n_queries += req.n_queries
                continue
            if (
                len(batch) < max_requests
                and req.compat_key() == key
                and n_queries + req.n_queries <= max_queries
            ):
                batch.append(req)
                n_queries += req.n_queries
            else:
                keep.append(req)
        self._items = keep
        return batch, expired

    def drain(self) -> list[SearchRequest]:
        """Remove and return every pending request (for shutdown)."""
        items, self._items = self._items, []
        return [r for r in items if not r.cancelled]
