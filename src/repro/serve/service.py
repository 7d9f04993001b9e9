"""The asyncio micro-batching neighbor-search service.

:class:`SearchService` turns the blocking one-shot
:meth:`RTNNEngine.knn_search` / :meth:`RTNNEngine.range_search` calls
into a served primitive with production-shaped semantics:

* ``submit()`` returns an awaitable that resolves to a
  :class:`ServeResult`; admission control rejects immediately with a
  retry hint when the queue is full (:class:`AdmissionError`);
* a single worker task gathers arrivals for one *batching window*,
  fuses compatible requests into a single
  :meth:`RTNNEngine.search_fused` launch (bit-identical per-request
  results — see :mod:`repro.serve.batcher`), and runs it on a worker
  thread so the event loop stays responsive;
* transient launch failures are retried with exponential backoff up to
  ``max_attempts``; exhaustion falls back to the exact brute baseline
  with results marked ``degraded=True``, and repeated failures (or a
  queue past the overload watermark) put the whole service into a
  degraded cooldown during which batches skip the engine entirely —
  load is shed, answers keep flowing;
* per-request deadlines are enforced at dequeue and at every retry
  boundary (:class:`DeadlineExpired`); cancelling the ``submit``
  awaitable marks the request so the worker drops it.

The front door is deliberately in-process and single-loop: the engine
it holds is the serialized resource, exactly like one model replica in
an inference-serving stack. To scale past one simulated device, hand
it a :class:`~repro.serve.shard.ShardedEngine` — same ``submit()``
surface, same batching/retry/degradation machinery, but each fused
launch scatter-gathers across N spatially sharded engine workers with
bit-identical results (see :mod:`repro.serve.shard`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.baselines.brute import exact_count, exact_search
from repro.core.engine import check_kind
from repro.core.expansion import reject_step_budget
from repro.core.results import SearchResults
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serve.batcher import MicroBatch, execute_batch
from repro.serve.faults import FaultInjector
from repro.serve.metrics import ServiceMetrics
from repro.serve.queue import (
    AdmissionError,
    DeadlineExpired,
    RequestQueue,
    SearchRequest,
    ServeError,
    ServiceStopped,
)
from repro.utils.validate import as_points, check_positive, check_positive_int


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the serving tier.

    Attributes
    ----------
    max_queue_depth:
        Admission bound: pending requests past this are rejected.
    batch_window_s:
        How long the worker waits after seeing work before dequeuing,
        letting concurrent arrivals coalesce into one launch.
    max_batch_requests / max_batch_queries:
        Caps on batch occupancy and total fused queries per launch.
    max_attempts:
        Launch attempts per batch before degrading (1 = no retry).
    backoff_base_s / backoff_cap_s:
        Exponential backoff between attempts: ``base * 2**(n-1)``,
        capped.
    degrade_after:
        Consecutive retry-exhausted batches that trip the service into
        degraded mode.
    degrade_cooldown_s:
        How long degraded mode lasts once tripped; during it every
        batch goes straight to the fallback path.
    degrade_queue_depth:
        Overload watermark: a queue at/above this depth at dequeue
        sends the batch down the fallback path (load shedding).
        ``None`` disables depth-based degradation.
    retry_hint_s:
        Retry-after hint attached to admission rejects; ``None``
        derives ``2 * batch_window_s + 0.01``.
    """

    max_queue_depth: int = 64
    batch_window_s: float = 0.005
    max_batch_requests: int = 16
    max_batch_queries: int = 8192
    max_attempts: int = 3
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 0.25
    degrade_after: int = 2
    degrade_cooldown_s: float = 1.0
    degrade_queue_depth: int | None = None
    retry_hint_s: float | None = None

    @property
    def effective_retry_hint_s(self) -> float:
        if self.retry_hint_s is not None:
            return self.retry_hint_s
        return 2.0 * self.batch_window_s + 0.01


@dataclass
class ServeResult:
    """What ``submit`` resolves to: results plus serving metadata."""

    results: SearchResults
    rid: int
    degraded: bool = False
    attempts: int = 1
    batch_occupancy: int = 1
    latency_s: float = 0.0
    queue_wait_s: float = 0.0

    #: convenience pass-throughs
    @property
    def indices(self):
        return self.results.indices

    @property
    def counts(self):
        return self.results.counts

    @property
    def sq_distances(self):
        return self.results.sq_distances


class SearchService:
    """In-process async serving front end over one held engine."""

    def __init__(
        self,
        engine,
        config: ServiceConfig | None = None,
        faults: FaultInjector | None = None,
        tracer: Tracer | None = None,
    ):
        # Accept a SearchSession (has .engine) or a bare RTNNEngine.
        self.engine = getattr(engine, "engine", engine)
        self.config = config or ServiceConfig()
        self.faults = faults if faults is not None else FaultInjector()
        self.tracer = (
            tracer
            if tracer is not None
            else getattr(self.engine, "tracer", NULL_TRACER)
        )
        self.metrics = ServiceMetrics()
        self._queue = RequestQueue(
            self.config.max_queue_depth,
            retry_after_s=self.config.effective_retry_hint_s,
        )
        self._points_fp = getattr(self.engine, "_points_fp", "")
        self._clock = time.monotonic
        self._wake: asyncio.Event | None = None
        self._worker_task: asyncio.Task | None = None
        self._stopping = False
        self._running = False
        self._next_rid = 0
        self._batch_seq = 0
        self._consecutive_failures = 0
        self._degraded_until = 0.0
        self.last_error: BaseException | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SearchService":
        """Spawn the worker loop (idempotent)."""
        if self._running:
            return self
        self._stopping = False
        self._running = True
        self._wake = asyncio.Event()
        self._worker_task = asyncio.create_task(self._worker())
        return self

    async def stop(self, drain: bool = True) -> None:
        """Shut down the worker.

        ``drain=True`` serves everything already queued first;
        ``drain=False`` fails pending requests with
        :class:`ServiceStopped`.
        """
        if not self._running:
            return
        self._stopping = True
        if not drain:
            for req in self._queue.drain():
                self._resolve_error(req, ServiceStopped("service stopped"))
        self._wake.set()
        await self._worker_task
        self._running = False
        self._worker_task = None

    async def __aenter__(self) -> "SearchService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def queue_depth(self) -> int:
        return self._queue.depth

    @property
    def degraded_mode(self) -> bool:
        """Is the service currently inside a degradation cooldown?"""
        return self._clock() < self._degraded_until

    def report(self, name: str = "serve", scenario: dict | None = None):
        """The service rollup as an observability RunReport.

        When the held engine is a sharded topology, its
        ``shard_rollup()`` (placement, per-worker modeled busy time,
        fan-out) rides along under ``extras["service"]["shards"]``.
        """
        tracer = self.tracer if getattr(self.tracer, "enabled", False) else None
        shard_rollup = getattr(self.engine, "shard_rollup", None)
        return self.metrics.to_report(
            name,
            tracer=tracer,
            scenario=scenario,
            shards=shard_rollup() if callable(shard_rollup) else None,
        )

    def update_points(self, points) -> float:
        """Move the held engine's point set between requests.

        Delegates to the engine's ``update_points`` (solo engines refit
        cached GASes in place; a sharded topology re-shards), then
        refreshes the service's point-set fingerprint so subsequent
        micro-batches group under the new compat key. The caller must
        ensure no requests are in flight — the service does not fence
        the worker loop around structure updates; workload steppers
        drive it strictly between settled rounds.
        """
        refit_s = self.engine.update_points(points)
        self._points_fp = getattr(self.engine, "_points_fp", "")
        return refit_s

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    async def submit(
        self,
        kind: str,
        queries,
        *,
        k: int,
        radius: float | None = None,
        deadline_s: float | None = None,
        budget: int | None = None,
    ) -> ServeResult:
        """Enqueue one search request; resolves when it is served.

        ``kind="true_knn"`` serves exact unbounded kNN; its ``radius``
        is the round-0 radius of the expansion schedule and may be
        omitted (density-seeded). For ``knn``/``range``/``count`` the
        radius is required; ``count`` returns exact within-radius
        counts with zero-width rows (its ``k`` only keys the batch).

        ``budget`` caps traversal node pops per ray (approximate mode);
        the result's ``report.extras["budget"]`` then carries an
        explicit recall lower bound. Budgeted requests only fuse with
        equally-budgeted ones, so exact requests are never degraded.
        Rejected for ``true_knn``.

        Raises :class:`AdmissionError` immediately when the queue is
        full, :class:`DeadlineExpired` if ``deadline_s`` elapses before
        the request is launched, and :class:`ServiceStopped` if the
        service shuts down without draining. Cancelling the awaitable
        withdraws the request.
        """
        check_kind(kind)
        queries = as_points(queries, "queries")
        k = check_positive_int(k, "k")
        if radius is None:
            if kind != "true_knn":
                raise ValueError(f"radius is required for kind {kind!r}")
            # Resolve the density seed up front so the compatibility
            # key stays a concrete float: equal-k true-kNN requests
            # land on the same key and keep fusing, and the batcher
            # never has to reason about a None radius.
            radius = self.engine.seed_radius(k)
        else:
            radius = check_positive(radius, "radius")
        if kind == "true_knn":
            reject_step_budget(budget)
        if budget is not None:
            budget = check_positive_int(budget, "budget")
        if not self._running or self._stopping:
            raise ServiceStopped("service is not running")
        now = self._clock()
        req = SearchRequest(
            rid=self._next_rid,
            kind=kind,
            queries=queries,
            k=k,
            radius=radius,
            submitted_at=now,
            deadline_at=None if deadline_s is None else now + float(deadline_s),
            points_fp=self._points_fp,
            future=asyncio.get_running_loop().create_future(),
            budget=budget,
        )
        self._next_rid += 1
        try:
            self._queue.offer(req)
        except AdmissionError:
            self.metrics.rejected += 1
            raise
        self.metrics.submitted += 1
        self._wake.set()
        try:
            return await req.future
        except asyncio.CancelledError:
            req.cancelled = True
            self.metrics.cancelled += 1
            raise

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        cfg = self.config
        while True:
            if not self._queue.depth:
                if self._stopping:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            # The batching window: let concurrent arrivals coalesce.
            # Skipped while draining a shutdown — latency no longer
            # buys occupancy then.
            if cfg.batch_window_s > 0.0 and not self._stopping:
                await asyncio.sleep(cfg.batch_window_s)
            stall = self.faults.on_dequeue()
            if stall > 0.0:
                await asyncio.sleep(stall)
            batch_reqs, expired = self._queue.pop_batch(
                self._clock(), cfg.max_batch_requests, cfg.max_batch_queries
            )
            for req in expired:
                self.metrics.expired += 1
                self._resolve_error(
                    req, DeadlineExpired(f"request {req.rid}: deadline at dequeue")
                )
            if batch_reqs:
                try:
                    await self._serve_batch(MicroBatch(batch_reqs))
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # never let a bug hang clients
                    self.last_error = exc
                    for req in batch_reqs:
                        self._resolve_error(
                            req, ServeError(f"internal service error: {exc}")
                        )

    async def _serve_batch(self, batch: MicroBatch) -> None:
        cfg = self.config
        loop = asyncio.get_running_loop()
        seq = self._batch_seq
        self._batch_seq += 1
        started_at = self._clock()
        degraded = self.degraded_mode or (
            cfg.degrade_queue_depth is not None
            and self._queue.depth >= cfg.degrade_queue_depth
        )
        attempts = 0
        results = None
        with self.tracer.span(f"serve.batch[{seq}]", phase="serve") as sp:
            while not degraded:
                attempts += 1
                for req in batch.requests:
                    req.attempts = attempts
                try:
                    spike = self.faults.on_launch()
                    if spike > 0.0:
                        await asyncio.sleep(spike)
                    results = await loop.run_in_executor(
                        None, execute_batch, self.engine, batch
                    )
                    self._consecutive_failures = 0
                    break
                except Exception as exc:  # injected or real engine failure
                    self.last_error = exc
                self.metrics.retries += 1
                if attempts >= cfg.max_attempts:
                    # Retry exhaustion: degrade this batch, and trip
                    # the service-wide cooldown after enough of them.
                    self._consecutive_failures += 1
                    if self._consecutive_failures >= cfg.degrade_after:
                        self._degraded_until = (
                            self._clock() + cfg.degrade_cooldown_s
                        )
                    degraded = True
                    break
                backoff = min(
                    cfg.backoff_base_s * 2.0 ** (attempts - 1),
                    cfg.backoff_cap_s,
                )
                if backoff > 0.0:
                    await asyncio.sleep(backoff)
                batch = self._cull_expired(batch)
                if batch is None:
                    return
            if results is None:
                # Degraded path: exact answers from the brute baseline,
                # no engine involvement, flagged so clients know.
                attempts = max(attempts, 1)
                results = await loop.run_in_executor(
                    None, self._fallback, batch
                )
            # A sharded engine reports shard-level degradation (brute
            # fallback on dead shards, replica failovers) per fused
            # group — i.e. per request — in the launch report.
            shard_extra = None
            if results and results[0].report is not None:
                shard_extra = results[0].report.extras.get("shard")
            if shard_extra is not None:
                self.metrics.observe_shard_batch(shard_extra)
            group_degraded = (shard_extra or {}).get("degraded_groups") or []
            sp.add(
                occupancy=batch.occupancy,
                batch_queries=batch.n_queries,
                attempts=attempts,
                degraded=int(degraded),
                shard_failovers=(shard_extra or {}).get("failovers", 0),
            )
            self.metrics.observe_batch(
                batch.occupancy, batch.n_queries, self._queue.depth, degraded
            )
            done_at = self._clock()
            for pos, (req, res) in enumerate(zip(batch.requests, results)):
                latency = done_at - req.submitted_at
                queue_wait = started_at - req.submitted_at
                req_degraded = degraded or (
                    pos < len(group_degraded) and bool(group_degraded[pos])
                )
                with self.tracer.span("serve.request", phase="serve") as rp:
                    rp.add(
                        latency_s=latency,
                        queue_wait_s=queue_wait,
                        request_queries=req.n_queries,
                        attempts=attempts,
                        degraded=int(req_degraded),
                    )
                    rp.note(rid=req.rid, kind=req.kind)
                self._resolve(
                    req,
                    ServeResult(
                        results=res,
                        rid=req.rid,
                        degraded=req_degraded,
                        attempts=attempts,
                        batch_occupancy=batch.occupancy,
                        latency_s=latency,
                        queue_wait_s=queue_wait,
                    ),
                )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _cull_expired(self, batch: MicroBatch) -> MicroBatch | None:
        """Drop requests that died during backoff; None if all did."""
        now = self._clock()
        alive: list[SearchRequest] = []
        for req in batch.requests:
            if req.cancelled:
                continue
            if req.expired(now):
                self.metrics.expired += 1
                self._resolve_error(
                    req,
                    DeadlineExpired(f"request {req.rid}: deadline during retry"),
                )
            else:
                alive.append(req)
        return MicroBatch(alive) if alive else None

    def _fallback(self, batch: MicroBatch) -> list[SearchResults]:
        """The degraded path: exact search, one request at a time.

        :func:`~repro.baselines.brute.exact_search` (and its tally,
        :func:`~repro.baselines.brute.exact_count`) uses the shader's
        arithmetic, so degraded rows equal the healthy engine's
        canonical rows bit for bit.
        """
        return [
            exact_count(self.engine.points, req.queries, req.radius)
            if req.kind == "count"
            else exact_search(
                self.engine.points,
                req.queries,
                req.k,
                # unbounded true kNN: the request's radius is only the
                # round-0 seed, irrelevant to the exact answer
                None if req.kind == "true_knn" else req.radius,
            )
            for req in batch.requests
        ]

    def _resolve(self, req: SearchRequest, result: ServeResult) -> None:
        if req.future is not None and not req.future.done():
            req.future.set_result(result)
            self.metrics.observe_request(
                result.latency_s, result.queue_wait_s, result.degraded
            )

    def _resolve_error(self, req: SearchRequest, exc: ServeError) -> None:
        if req.future is not None and not req.future.done():
            self.metrics.failed += 1
            req.future.set_exception(exc)
