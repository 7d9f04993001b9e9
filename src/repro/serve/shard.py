"""Sharded multi-worker serving: scatter-gather over spatial shards.

The single-engine service tier funnels every request through one
:class:`~repro.core.engine.RTNNEngine` — one simulated device, one GAS
cache, one modeled clock. This module scales past that engine the way
the paper itself scales past oversized scenes: **spatial
decomposition**. The point cloud is split into spatially coherent
shards (:func:`repro.core.partition.make_spatial_shards`, a Morton-walk
reuse of the partitioning machinery), each shard is owned by an engine
worker with its own :class:`RTNNEngine` and GAS cache, and shards are
placed onto workers with bounded-load **consistent hashing** keyed on
the dataset fingerprint plus the shard AABB.

:class:`ShardedEngine` presents the same engine surface the serving
front door already consumes (``search_fused`` / ``knn_search`` /
``range_search`` / ``points`` / ``_points_fp``), so the existing
:class:`~repro.serve.service.SearchService` — admission queue,
batching window, deadlines, retries, degradation — works unchanged on
top of N workers.

**Scatter.** Each query fans out only to the shards whose tight AABB,
inflated by the search radius, can contain an ``r``-neighbor (the
point-to-box distance bound). Interior queries visit one shard;
boundary queries visit the few they overlap.

**Gather.** Per-shard rows (local indices remapped through the shard's
global ``point_ids``) are concatenated in ascending shard order and
reduced to the ``k`` best by a row-wise stable lexicographic sort on
``(sq_distance, global index)`` — the *canonical order* of
:meth:`repro.core.results.SearchResults.canonical`. The merge depends
only on candidate values, never on completion or traversal order, so
any topology (1 shard, 4 shards, degraded replicas) produces
bit-identical rows; against the raw single-engine path, KNN rows are
bit-identical outright (they are already distance-sorted) and range
rows are bit-identical after canonicalizing the single-engine answer
(range discovery order is traversal-dependent even on one engine). The
guarantee assumes generic position — no two distinct points at exactly
equal distance from a query — which seeded float64 scenes satisfy.

**Failover.** Routing walks each shard's consistent-hash preference
list past dead workers; an injected :class:`TransientFault` (from the
deterministic :class:`~repro.serve.faults.FaultInjector`, consulted
serially in shard order so scripts replay exactly) crashes the chosen
worker and the walk continues to the replica. A shard with no live
owner degrades to the exact brute baseline over the shard's own
points — answers stay bit-identical, the affected requests are flagged
``degraded`` and the event is counted in the service metrics.

**Modeled clock.** Workers are independent devices: each accumulates
the modeled seconds of the sub-launches it executed, and the
topology's *makespan* is the busiest worker's total. Throughput on the
modeled clock is queries served per makespan second — the quantity the
``shard-smoke`` row of :mod:`repro.verify` requires to scale ≥ 2.5x
from 1 to 4 shards.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.brute import exact_count, exact_search
from repro.core.cache import fingerprint_array
from repro.core.engine import RTNNConfig, RTNNEngine, check_kind
from repro.core.expansion import (
    DEFAULT_POLICY,
    ExpansionPolicy,
    cover_radius,
    reject_step_budget,
    run_expansion,
    seed_radius,
    true_knn_extras,
)
from repro.core.partition import SpatialShard, make_spatial_shards
from repro.core.results import (
    RunReport,
    SearchResults,
    budget_extras,
    canonical_sort,
    empty_results,
)
from repro.gpu.device import DeviceSpec, RTX_2080
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serve.faults import FaultInjector, TransientFault
from repro.utils.validate import as_points, check_positive, check_positive_int


def _ring_hash(key: str) -> int:
    """64-bit position on the ring (stable across processes/platforms)."""
    return int.from_bytes(hashlib.sha1(key.encode()).digest()[:8], "big")


class HashRing:
    """Consistent hashing of shard keys onto workers, load-bounded.

    Every worker contributes ``vnodes`` virtual points to a 64-bit
    ring; a key's preference order is the sequence of *distinct*
    workers encountered walking clockwise from the key's own hash.
    Plain consistent hashing balances poorly for a handful of keys
    (four shards often collide on one worker), so primary placement
    uses the bounded-loads variant: :meth:`assign` walks each shard's
    preference order but skips workers already holding
    ``ceil(n_shards / n_workers)`` primaries. The assignment stays
    deterministic, consistent (removing a worker only moves its own
    shards), and perfectly balanced.
    """

    def __init__(self, worker_ids, vnodes: int = 64):
        self.worker_ids = [int(w) for w in worker_ids]
        if not self.worker_ids:
            raise ValueError("HashRing needs at least one worker")
        self.vnodes = int(vnodes)
        pts = [
            (_ring_hash(f"worker:{wid}:{v}"), wid)
            for wid in self.worker_ids
            for v in range(self.vnodes)
        ]
        pts.sort()
        self._hashes = [h for h, _ in pts]
        self._owners = [w for _, w in pts]

    def preference(self, key: str) -> list[int]:
        """All workers, deduplicated, in clockwise order from ``key``."""
        start = bisect_left(self._hashes, _ring_hash(key))
        seen: list[int] = []
        n = len(self._owners)
        for i in range(n):
            wid = self._owners[(start + i) % n]
            if wid not in seen:
                seen.append(wid)
                if len(seen) == len(self.worker_ids):
                    break
        return seen

    def assign(self, keys: list[str]) -> list[list[int]]:
        """Bounded-load preference list per key (primary first).

        Keys are processed in the given (shard-id) order; each key's
        primary is the first worker on its clockwise walk with spare
        primary capacity, and the remaining workers follow in walk
        order as replica candidates.
        """
        cap = -(-len(keys) // len(self.worker_ids))  # ceil
        load = {wid: 0 for wid in self.worker_ids}
        out: list[list[int]] = []
        for key in keys:
            walk = self.preference(key)
            primary = next(w for w in walk if load[w] < cap)
            load[primary] += 1
            out.append([primary] + [w for w in walk if w != primary])
        return out


class ShardWorker:
    """One engine worker: a private :class:`RTNNEngine` per owned shard.

    Engines (and therefore GAS caches) are built lazily on first use.
    Every sub-launch runs on the caller's thread (see
    :meth:`ShardedEngine._execute`), so the class needs no locking.
    ``busy_s`` accumulates the modeled seconds of every sub-launch this
    worker executed: the worker's position on the modeled clock.
    """

    def __init__(
        self,
        worker_id: int,
        points: np.ndarray,
        device: DeviceSpec,
        config: RTNNConfig,
        cache_capacity: int | None = None,
    ):
        self.worker_id = int(worker_id)
        self.alive = True
        self.busy_s = 0.0
        self.launches = 0
        self._points = points
        self._device = device
        self._config = config
        self._cache_capacity = cache_capacity
        self._engines: dict[int, RTNNEngine] = {}

    def engine_for(self, shard: SpatialShard) -> RTNNEngine:
        """The (lazily built) engine over ``shard``'s points."""
        engine = self._engines.get(shard.shard_id)
        if engine is None:
            engine = RTNNEngine(
                self._points[shard.point_ids],
                device=self._device,
                config=self._config,
                tracer=NULL_TRACER,
                cache_capacity=self._cache_capacity,
            )
            self._engines[shard.shard_id] = engine
        return engine

    def reset(self, points: np.ndarray) -> None:
        """Drop every engine (topology rebuilt over a new point set)."""
        self._points = points
        self._engines = {}

    def rollup(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "alive": self.alive,
            "busy_s": self.busy_s,
            "launches": self.launches,
            "engines": sorted(self._engines),
        }


@dataclass
class _ShardCall:
    """One shard's flat sub-request for a fused batch."""

    shard_id: int
    queries: np.ndarray
    # (group index, group-local row ids, start offset in `queries`)
    segments: list[tuple[int, np.ndarray, int]] = field(default_factory=list)


class ShardedEngine:
    """N spatial shards behind the single-engine serving surface.

    Parameters
    ----------
    points:
        The full point cloud; sharded on construction.
    n_shards:
        Spatial shards to split into (clamped to ``len(points)``).
    n_workers:
        Engine workers to place shards on (default: one per shard).
    replication:
        Workers eligible to serve each shard (primary + replicas);
        clamped to ``n_workers``. Replicas build their engines lazily
        on first failover.
    device / config / cache_capacity:
        Forwarded to every per-shard engine.
    faults:
        Deterministic injector consulted once per routing attempt, in
        ascending shard order: an injected error crashes the attempted
        worker (failover), scripted latency is charged to the worker's
        modeled busy time.
    tracer:
        Span sink for the per-batch ``shard.batch`` summary span.
    """

    def __init__(
        self,
        points,
        n_shards: int,
        n_workers: int | None = None,
        replication: int = 2,
        device: DeviceSpec = RTX_2080,
        config: RTNNConfig | None = None,
        cache_capacity: int | None = None,
        faults: FaultInjector | None = None,
        tracer: Tracer | None = None,
        vnodes: int = 64,
    ):
        self.points = as_points(points, "points")
        self.device = device
        self.config = config or RTNNConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = faults if faults is not None else FaultInjector()
        self._requested_shards = check_positive_int(n_shards, "n_shards")
        self._cache_capacity = cache_capacity
        self._vnodes = int(vnodes)
        self.shards: list[SpatialShard] = make_spatial_shards(
            self.points, self._requested_shards
        )
        self.n_workers = (
            len(self.shards) if n_workers is None
            else check_positive_int(n_workers, "n_workers")
        )
        self.replication = min(max(int(replication), 1), self.n_workers)
        self._points_fp = fingerprint_array(self.points)
        self.ring = HashRing(range(self.n_workers), vnodes=self._vnodes)
        self.preference = self._assign_shards()
        self.workers = [
            ShardWorker(
                wid, self.points, device, self.config, cache_capacity
            )
            for wid in range(self.n_workers)
        ]
        # memoized true-kNN seed radii (same contract as the engine's)
        self._seed_cache: dict = {}
        # scatter-gather tallies (mutated only on the calling thread)
        self.failovers = 0
        self.brute_fallbacks = 0
        self.fanout_queries = 0
        self.fanout_visits = 0
        self.batches = 0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def _shard_key(self, shard: SpatialShard) -> str:
        """Routing key: dataset fingerprint + the shard's AABB."""
        box = shard.lo.tobytes() + shard.hi.tobytes()
        return f"{self._points_fp}:{shard.shard_id}:{box.hex()}"

    def _assign_shards(self) -> list[list[int]]:
        keys = [self._shard_key(s) for s in self.shards]
        pref = self.ring.assign(keys)
        return [p[: self.replication] for p in pref]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def modeled_makespan_s(self) -> float:
        """Busiest worker's modeled seconds — the parallel completion
        time of everything served so far (workers are independent
        devices)."""
        return max(w.busy_s for w in self.workers)

    def kill_worker(self, worker_id: int) -> None:
        """Mark a worker dead; its shards fail over on the next batch."""
        self.workers[worker_id].alive = False

    def revive_worker(self, worker_id: int) -> None:
        self.workers[worker_id].alive = True

    def update_points(self, points) -> float:
        """Replace the point set: reshard and drop every worker engine.

        Unlike the single engine there is no refit warm path across a
        reshard (a ROADMAP follow-up); returns 0.0 modeled seconds.
        """
        self.points = as_points(points, "points")
        self._points_fp = fingerprint_array(self.points)
        self._seed_cache.clear()
        self.shards = make_spatial_shards(self.points, self._requested_shards)
        self.preference = self._assign_shards()
        for worker in self.workers:
            worker.reset(self.points)
        return 0.0

    def cache_stats(self) -> dict:
        """GAS-cache counters summed over every worker engine.

        The single-engine surface exposes ``engine.gas_cache.stats``;
        a sharded topology has one cache per worker engine, so callers
        (the bench suite, dashboards) get the aggregate instead.
        """
        totals: dict[str, int] = {}
        for worker in self.workers:
            for shard_id in sorted(worker._engines):
                stats = worker._engines[shard_id].gas_cache.stats.as_dict()
                for key in sorted(stats):
                    totals[key] = totals.get(key, 0) + int(stats[key])
        return totals

    def shard_rollup(self) -> dict:
        """Per-shard/per-worker rollup for ``extras["service"]["shards"]``."""
        visits = self.fanout_visits
        queries = self.fanout_queries
        return {
            "n_shards": self.n_shards,
            "n_workers": self.n_workers,
            "replication": self.replication,
            "failovers": self.failovers,
            "brute_fallbacks": self.brute_fallbacks,
            "batches": self.batches,
            "makespan_s": self.modeled_makespan_s,
            "fanout": {
                "queries": queries,
                "shard_visits": visits,
                "mean": (visits / queries) if queries else None,
            },
            "shard_sizes": [s.n_points for s in self.shards],
            "primaries": [p[0] for p in self.preference],
            "workers": [w.rollup() for w in self.workers],
        }

    # ------------------------------------------------------------------
    # engine surface (what SearchService consumes)
    # ------------------------------------------------------------------
    def knn_search(
        self, queries, k: int, radius: float, budget: int | None = None
    ) -> SearchResults:
        """The ``k`` nearest within ``radius``, scatter-gathered."""
        return self.search_fused(
            "knn", [queries], radius=radius, k=k, budget=budget
        )[0]

    def range_search(
        self, queries, radius: float, k: int, budget: int | None = None
    ) -> SearchResults:
        """Up to ``k`` within ``radius`` (canonical order), scatter-gathered."""
        return self.search_fused(
            "range", [queries], radius=radius, k=k, budget=budget
        )[0]

    def true_knn_search(
        self,
        queries,
        k: int,
        radius: float | None = None,
        policy: ExpansionPolicy | None = None,
    ) -> SearchResults:
        """Exact unbounded kNN, scatter-gathered round by round."""
        return self._true_knn_fused([queries], radius, k, policy)[0]

    def seed_radius(
        self, k: int, policy: ExpansionPolicy | None = None
    ) -> float:
        """Round-0 radius of the true-kNN schedule for the full cloud.

        Computed over the *unsharded* point set with the same shared
        estimator the single engine uses, so the sharded topology walks
        the identical radius schedule — the basis of its bit-identity
        with one engine. Memoized; invalidated on ``update_points``.
        """
        policy = policy or DEFAULT_POLICY
        key = (self._points_fp, int(k), policy)
        r0 = self._seed_cache.get(key)
        if r0 is None:
            r0 = seed_radius(self.points, k, policy)
            self._seed_cache[key] = r0
        return r0

    def search_fused(
        self,
        kind: str,
        query_groups,
        radius: float,
        k: int,
        budget: int | None = None,
    ) -> list[SearchResults]:
        """One scatter-gather pass over several query groups.

        Returns one :class:`SearchResults` per group, rows in canonical
        ``(sq_distance, index)`` order, all sharing one fused
        :class:`RunReport` whose ``extras["shard"]`` records the
        scatter (fan-out, failovers, per-group degradation flags).

        ``kind="true_knn"`` runs the adaptive-expansion loop with one
        scatter-gather pass per round; the per-shard AABB pruning of
        every round's scatter is recomputed at that round's expanded
        radius, so boundary queries fan out to exactly the shards the
        grown ball can reach. ``radius`` is then the round-0 radius and
        may be ``None`` (density-seeded from the full cloud).

        ``kind="count"`` sums each query's per-shard counts over the
        scatter plan: the shards partition the points, and every shard
        a query skips provably holds none of its neighbors.
        """
        if check_kind(kind) == "true_knn":
            return self._true_knn_fused(
                list(query_groups), radius, k, budget=budget
            )
        groups = [as_points(g, "queries") for g in query_groups]
        radius = check_positive(radius, "radius")
        k = check_positive_int(k, "k")
        if budget is not None:
            budget = check_positive_int(budget, "budget")
        return self._fused_pass(kind, groups, radius, k, budget=budget)

    def _fused_pass(
        self,
        kind: str,
        groups: list,
        radius: float,
        k: int,
        budget: int | None = None,
    ) -> list[SearchResults]:
        """One validated bounded scatter-gather pass (not ``true_knn``)."""
        plans = self._scatter_plans(groups, radius)
        calls = self._build_calls(groups, plans)
        routes, failover_delta = self._route(calls)
        outcomes = self._execute(kind, calls, routes, radius, k, budget)

        brute_shards = sorted(
            sid for sid, wid in zip([c.shard_id for c in calls], routes)
            if wid is None
        )
        degraded_groups = [
            any(len(plans[gi][sid]) for sid in brute_shards)
            for gi in range(len(groups))
        ]
        if kind == "count":
            results = self._gather_counts(groups, calls, outcomes)
        else:
            results = self._gather(groups, calls, outcomes, k)

        # brute fallbacks carry no report: unmodeled, exact
        report = RunReport.combine(
            outcomes[call.shard_id].report for call in calls
            if outcomes[call.shard_id].report is not None
        )
        report.device = self.device.name
        step_budget = budget if budget is not None else self.config.step_budget
        if step_budget is not None:
            # A boundary query fanned out to several shards may be
            # counted exhausted once per shard; dividing by the true
            # group-query count therefore only *understates* recall —
            # the bound stays a valid lower bound (clamped at 0).
            report.extras["budget"] = budget_extras(
                step_budget,
                report.extras.get("budget", {}).get("exhausted_queries", 0),
                sum(len(g) for g in groups),
            )
        report.extras["shard"] = self._shard_extras(
            groups,
            sub_launches=len(calls) - len(brute_shards),
            brute_shards=len(brute_shards),
            failovers=failover_delta,
            degraded_groups=degraded_groups,
        )
        self.batches += 1
        with self.tracer.span("shard.batch", phase="serve") as sp:
            sp.add(
                sub_launches=len(calls) - len(brute_shards),
                brute_shards=len(brute_shards),
                failovers=failover_delta,
                fanout_visits=sum(len(c.queries) for c in calls),
                makespan_s=self.modeled_makespan_s,
            )
        for res in results:
            res.report = report
        return results

    # ------------------------------------------------------------------
    # true kNN (adaptive radius expansion over the shards)
    # ------------------------------------------------------------------
    def _true_knn_fused(
        self,
        groups: list,
        radius: float | None,
        k: int,
        policy: ExpansionPolicy | None = None,
        budget: int | None = None,
    ) -> list[SearchResults]:
        """The shared expansion loop with scatter-gather bounded rounds.

        Identical control flow to the single engine's
        (:func:`repro.core.expansion.run_expansion` drives both): the
        seed comes from the full unsharded cloud, the cover bounds from
        the same joint AABBs, and each round's bounded pass is the
        scatter-gather ``knn`` — which PR 7 pinned bit-identical to the
        single engine. The per-round scatter calls
        :meth:`overlap_mask` at that round's radius, so AABB pruning
        re-expands with the ball.
        """
        reject_step_budget(budget, self.config.step_budget)
        policy = policy or DEFAULT_POLICY
        groups = [as_points(g, "queries") for g in groups]
        k = check_positive_int(k, "k")
        if radius is None:
            r0 = self.seed_radius(k, policy)
        else:
            r0 = check_positive(radius, "radius")
        if sum(len(g) for g in groups) == 0:
            results = self._fused_pass("knn", groups, r0, k)
            results[0].report.extras["true_knn"] = true_knn_extras(r0, policy)
            return results
        covers = [cover_radius(self.points, g) for g in groups]
        finals, rounds_info, conv = run_expansion(
            lambda subs, r: self._fused_pass("knn", subs, r, k),
            groups,
            k,
            r0,
            covers,
            policy,
            self.tracer,
        )
        report = RunReport.combine(
            [ri["report"] for ri in rounds_info], rounds=True
        )
        # A group is degraded if any of its rounds touched a
        # brute-served shard; each round indexes only its live groups.
        degraded = [False] * len(groups)
        for ri in rounds_info:
            flags = ri["report"].extras["shard"]["degraded_groups"]
            for li, gi in enumerate(ri["live"]):
                degraded[gi] = degraded[gi] or flags[li]
        report.extras["shard"] = self._shard_extras(
            groups,
            degraded_groups=degraded,
            **{
                key: sum(ri["report"].extras["shard"][key] for ri in rounds_info)
                for key in ("sub_launches", "brute_shards", "failovers")
            },
        )
        report.extras["true_knn"] = true_knn_extras(r0, policy, conv)
        return [
            SearchResults(idx, cnt, d2, report)
            for idx, cnt, d2 in finals
        ]

    # ------------------------------------------------------------------
    # scatter
    # ------------------------------------------------------------------
    def overlap_mask(self, queries: np.ndarray, radius: float) -> np.ndarray:
        """Boolean ``(Q, S)``: may query ``q`` have neighbors in shard ``s``?

        True iff the query's distance to the shard's tight AABB is at
        most ``radius`` — a False entry proves no member point can be
        an ``r``-neighbor, so fan-out skips the shard entirely.
        """
        queries = np.asarray(queries, dtype=np.float64)
        mask = np.zeros((len(queries), self.n_shards), dtype=bool)
        if not len(queries):
            return mask
        r2 = float(radius) * float(radius)
        for sid, shard in enumerate(self.shards):
            d = queries - np.clip(queries, shard.lo, shard.hi)
            mask[:, sid] = np.einsum("ij,ij->i", d, d) <= r2
        return mask

    def _scatter_plans(
        self, groups: list[np.ndarray], radius: float
    ) -> list[list[np.ndarray]]:
        """Per group, per shard: the group-local row ids that fan out."""
        plans: list[list[np.ndarray]] = []
        for g in groups:
            mask = self.overlap_mask(g, radius)
            plans.append([np.flatnonzero(mask[:, sid]) for sid in range(self.n_shards)])
            self.fanout_queries += len(g)
            self.fanout_visits += int(mask.sum())
        return plans

    def _build_calls(
        self, groups: list[np.ndarray], plans: list[list[np.ndarray]]
    ) -> list[_ShardCall]:
        """Coalesce every group's fan-out rows into one flat sub-request
        per shard (ascending shard order, groups in submission order)."""
        calls: list[_ShardCall] = []
        for sid in range(self.n_shards):
            segments = []
            chunks = []
            start = 0
            for gi, g in enumerate(groups):
                rows = plans[gi][sid]
                if not len(rows):
                    continue
                segments.append((gi, rows, start))
                chunks.append(g[rows])
                start += len(rows)
            if segments:
                calls.append(
                    _ShardCall(
                        shard_id=sid,
                        queries=np.concatenate(chunks),
                        segments=segments,
                    )
                )
        return calls

    # ------------------------------------------------------------------
    # routing + failover
    # ------------------------------------------------------------------
    def _route(self, calls: list[_ShardCall]) -> tuple[list[int | None], int]:
        """Pick a live worker per sub-call (or None for brute fallback).

        The fault injector is consulted once per *attempt* on a live
        worker, serially in ascending shard order, so scripted fault
        sequences replay identically run over run. An injected error
        crashes the attempted worker; the walk then continues down the
        shard's consistent-hash preference list.
        """
        routes: list[int | None] = []
        failover_delta = 0
        for call in calls:
            pref = self.preference[call.shard_id]
            chosen: int | None = None
            for wid in pref:
                worker = self.workers[wid]
                if not worker.alive:
                    continue
                try:
                    spike = self.faults.on_launch()
                except TransientFault:
                    worker.alive = False
                    continue
                if spike > 0.0:
                    worker.busy_s += spike
                chosen = wid
                break
            if chosen is None:
                self.brute_fallbacks += 1
            elif chosen != pref[0]:
                failover_delta += 1
            routes.append(chosen)
        self.failovers += failover_delta
        return routes, failover_delta

    # ------------------------------------------------------------------
    # execute
    # ------------------------------------------------------------------
    def _execute(
        self,
        kind: str,
        calls: list[_ShardCall],
        routes: list[int | None],
        radius: float,
        k: int,
        budget: int | None = None,
    ) -> dict[int, SearchResults]:
        """Run every sub-call on the calling thread, brute ones last.

        Routed sub-calls run in ascending worker id, in shard order
        within a worker. Workers are separate devices only on the
        modeled clock (``busy_s``, the makespan); host threads would buy
        no wall time under the GIL. Outcomes are keyed by shard id.
        """
        outcomes: dict[int, SearchResults] = {}
        routed = sorted(
            (wid, call.shard_id, call)
            for call, wid in zip(calls, routes)
            if wid is not None
        )
        for wid, sid, call in routed:
            worker = self.workers[wid]
            engine = worker.engine_for(self.shards[sid])
            res = engine.search_fused(
                kind, [call.queries], radius=radius, k=k, budget=budget
            )[0]
            worker.busy_s += res.report.modeled_time
            worker.launches += 1
            outcomes[sid] = res

        # Shader arithmetic, so a degraded shard's candidates carry the
        # very float64 distances the healthy engine computes.
        for call, wid in zip(calls, routes):
            if wid is None:
                pts = self.points[self.shards[call.shard_id].point_ids]
                outcomes[call.shard_id] = (
                    exact_count(pts, call.queries, radius)
                    if kind == "count"
                    else exact_search(pts, call.queries, k, radius)
                )
        return outcomes

    # ------------------------------------------------------------------
    # gather
    # ------------------------------------------------------------------
    @staticmethod
    def _merge_rows(
        idx_mat: np.ndarray, d2_mat: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reduce shard-order candidate blocks to the k canonical best.

        Rows are put in :func:`~repro.core.results.canonical_sort`
        order, truncated to ``k`` and re-padded. Padding (``-1``/``inf``)
        sinks to the end because every real candidate has finite
        distance.
        """
        idx, d2 = canonical_sort(idx_mat, d2_mat)
        idx = idx[:, :k]
        d2 = d2[:, :k]
        counts = np.minimum(
            np.isfinite(d2).sum(axis=1), k
        ).astype(np.int64)
        pad = np.arange(k)[None, :] >= counts[:, None]
        idx = np.where(pad, np.int64(-1), idx)
        d2 = np.where(pad, np.inf, d2)
        return np.ascontiguousarray(idx), counts, np.ascontiguousarray(d2)

    def _gather(
        self,
        groups: list[np.ndarray],
        calls: list[_ShardCall],
        outcomes: dict[int, SearchResults],
        k: int,
    ) -> list[SearchResults]:
        """Merge per-shard rows back into per-group canonical results."""
        S = self.n_shards
        mats: list[tuple[np.ndarray, np.ndarray]] = []
        for g in groups:
            idx_mat = np.full((len(g), S * k), -1, dtype=np.int64)
            d2_mat = np.full((len(g), S * k), np.inf, dtype=np.float64)
            mats.append((idx_mat, d2_mat))
        for call in calls:
            res = outcomes[call.shard_id]
            point_ids = self.shards[call.shard_id].point_ids
            local_idx = res.indices
            valid = local_idx >= 0
            global_idx = np.where(
                valid, point_ids[np.clip(local_idx, 0, None)], np.int64(-1)
            )
            col = call.shard_id * k
            for gi, rows, start in call.segments:
                idx_mat, d2_mat = mats[gi]
                seg = slice(start, start + len(rows))
                idx_mat[rows, col:col + k] = global_idx[seg]
                d2_mat[rows, col:col + k] = res.sq_distances[seg]
        results = []
        for gi, g in enumerate(groups):
            if not len(g):
                idx, counts, d2 = empty_results(0, k)
                results.append(SearchResults(idx, counts, d2))
                continue
            idx, counts, d2 = self._merge_rows(*mats[gi], k)
            results.append(SearchResults(idx, counts, d2))
        return results

    @staticmethod
    def _gather_counts(
        groups: list[np.ndarray],
        calls: list[_ShardCall],
        outcomes: dict[int, SearchResults],
    ) -> list[SearchResults]:
        """Per group, the sum of its queries' per-shard counts."""
        counts = [np.zeros(len(g), dtype=np.int64) for g in groups]
        for call in calls:
            sub = outcomes[call.shard_id].counts
            for gi, rows, start in call.segments:
                counts[gi][rows] += sub[start : start + len(rows)]
        results = []
        for c in counts:
            idx, _, d2 = empty_results(len(c), 0)
            results.append(SearchResults(idx, c, d2))
        return results

    # ------------------------------------------------------------------
    def _shard_extras(
        self,
        groups: list,
        *,
        sub_launches: int,
        brute_shards: int,
        failovers: int,
        degraded_groups: list[bool],
    ) -> dict:
        """The ``extras["shard"]`` record: scatter tallies of a run."""
        return {
            "n_shards": self.n_shards,
            "n_workers": self.n_workers,
            "sub_launches": sub_launches,
            "brute_shards": brute_shards,
            "failovers": failovers,
            "degraded_groups": degraded_groups,
            "group_sizes": [len(g) for g in groups],
            "makespan_s": self.modeled_makespan_s,
        }
