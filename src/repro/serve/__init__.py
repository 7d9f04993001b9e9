"""repro.serve — the micro-batching neighbor-search service tier.

Turns the one-shot :class:`~repro.core.engine.RTNNEngine` call into a
served primitive: an asyncio :class:`SearchService` with a bounded
admission queue, a batching window that fuses compatible concurrent
requests into single :meth:`~repro.core.engine.RTNNEngine.search_fused`
launches (bit-identical per-request results), per-request deadlines,
bounded retry with exponential backoff, and graceful degradation to
the exact brute baseline under sustained failure or overload.

To scale past one engine, :class:`ShardedEngine` puts N spatially
sharded engine workers (consistent-hash placement, replica failover,
scatter-gather with a canonical deterministic merge — bit-identical to
the single-engine path) behind the very same front door; see
:mod:`repro.serve.shard` and the "Sharded topology" section of
``docs/serving.md``.

Quick start::

    import asyncio
    from repro import SearchSession

    async def main(points, queries):
        async with SearchSession(points).serve() as svc:
            res = await svc.submit("knn", queries, k=8, radius=0.1)
            return res.results, res.batch_occupancy, res.degraded

See ``docs/serving.md`` for the architecture and policies.
"""

from repro.serve.batcher import MicroBatch, execute_batch
from repro.serve.faults import Fault, FaultInjector, TransientFault
from repro.serve.loadgen import LoadOutcome, LoadSpec, run_load
from repro.serve.metrics import ServiceMetrics
from repro.serve.shard import HashRing, ShardedEngine, ShardWorker
from repro.serve.queue import (
    AdmissionError,
    DeadlineExpired,
    RequestQueue,
    SearchRequest,
    ServeError,
    ServiceStopped,
)
from repro.serve.service import SearchService, ServeResult, ServiceConfig

__all__ = [
    "SearchService",
    "ServiceConfig",
    "ServeResult",
    "ServiceMetrics",
    "MicroBatch",
    "execute_batch",
    "RequestQueue",
    "SearchRequest",
    "ServeError",
    "AdmissionError",
    "DeadlineExpired",
    "ServiceStopped",
    "Fault",
    "FaultInjector",
    "TransientFault",
    "LoadSpec",
    "LoadOutcome",
    "run_load",
    "ShardedEngine",
    "ShardWorker",
    "HashRing",
]
