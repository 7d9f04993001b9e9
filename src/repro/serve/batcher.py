"""Micro-batching: fuse compatible requests into one engine launch.

The batcher is the serving-side incarnation of the paper's core move —
turning an incoherent stream of small query sets into one coherent,
cache-friendly launch. A :class:`MicroBatch` holds requests that share
a compatibility key (point-set fingerprint, mode, ``k``, ``radius``);
:func:`execute_batch` hands their query groups to
:meth:`RTNNEngine.search_fused`, which charges the point transfer once,
schedules once over the union, resolves every GAS through the shared
cache — and still partitions/bundles *per request*, so each request's
rows come back bit-identical to a solo engine call (asserted in
``tests/test_serve_batcher.py`` and by :mod:`repro.verify`).

``batch occupancy`` (requests per launch) is the service's headline
coalescing metric: occupancy 1 means the window never caught two
compatible requests in flight; sustained occupancy > 1 is amortization
working.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.queue import SearchRequest
from repro.utils.validate import as_points


@dataclass
class MicroBatch:
    """Compatible requests fused into one engine launch."""

    requests: list[SearchRequest]

    def __post_init__(self):
        if not self.requests:
            raise ValueError("a MicroBatch needs at least one request")
        # The padding/bit-identity contract is stated over float64
        # C-contiguous queries. The service front door normalizes at
        # submit(), but a batch can also be built directly — coerce
        # here so two requests differing only in query dtype (float32
        # vs float64) can never ride one fused pass un-normalized: the
        # upcast happens explicitly, per request, exactly as a solo
        # call's own as_points would do it (float32 -> float64 is
        # value-exact, so solo bit-identity is preserved).
        for req in self.requests:
            req.queries = as_points(req.queries, "queries")
        key = self.requests[0].compat_key()
        for req in self.requests[1:]:
            if req.compat_key() != key:
                raise ValueError(
                    f"incompatible request in batch: {req.compat_key()} != {key}"
                )

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.requests[0].kind

    @property
    def k(self) -> int:
        return self.requests[0].k

    @property
    def radius(self) -> float:
        return self.requests[0].radius

    @property
    def budget(self) -> int | None:
        return self.requests[0].budget

    @property
    def occupancy(self) -> int:
        """Requests fused into this launch."""
        return len(self.requests)

    @property
    def n_queries(self) -> int:
        return sum(r.n_queries for r in self.requests)

    def query_groups(self) -> list:
        return [r.queries for r in self.requests]


def execute_batch(engine, batch: MicroBatch) -> list:
    """Run ``batch`` as one fused engine pass.

    Returns one :class:`~repro.core.results.SearchResults` per request,
    aligned with ``batch.requests``. Runs on the service's worker
    thread; everything it touches on the engine (notably the GAS
    cache) must be thread-safe against direct engine callers.
    """
    return engine.search_fused(
        batch.kind, batch.query_groups(), radius=batch.radius, k=batch.k,
        budget=batch.budget,
    )
