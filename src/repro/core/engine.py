"""The end-to-end RTNN engine.

Orchestrates the whole paper pipeline —

  data transfer -> [grid + megacells -> partitions -> bundling]
                -> per-bundle BVH build -> [per-bundle scheduling]
                -> per-bundle search launch -> result merge

— while accounting every stage into the Fig. 12 breakdown categories
(``data``, ``opt``, ``bvh``, ``fs``, ``search``). The three
optimizations toggle independently, which is exactly the ablation of
Fig. 13 (NoOpt / Sched / +Partition / +Bundle).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.core.bundling import Bundle, bundle_partitions
from repro.core.cache import GASCache, GASKey, fingerprint_array, quantize_half_width
from repro.core.expansion import (
    DEFAULT_POLICY,
    ExpansionPolicy,
    cover_radius,
    reject_step_budget,
    run_expansion,
    seed_radius,
    true_knn_extras,
)
from repro.core.partition import compute_megacells, default_cell_size, make_partitions
from repro.core.queues import CountAccumulator, KnnQueueBatch, RangeAccumulator
from repro.core.results import RunReport, SearchResults, budget_extras
from repro.core.scheduling import schedule_queries
from repro.core.shaders import KnnShader, RangeShader
from repro.geometry.morton import morton_order
from repro.geometry.ray import RayBatch, DEFAULT_DIRECTION, SHORT_RAY_TMAX
from repro.gpu.costmodel import IsKind
from repro.gpu.device import DeviceSpec, RTX_2080
from repro.metrics.breakdown import Breakdown
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optix.gas import build_gas, refit_gas, sah_decayed
from repro.optix.pipeline import Pipeline
from repro.utils.validate import as_points, check_positive, check_positive_int

#: modeled bytes per point shipped over PCIe (float32 x, y, z)
POINT_BYTES = 12


@dataclass(frozen=True)
class RTNNConfig:
    """Feature switches and tuning knobs of the engine.

    Attributes
    ----------
    schedule:
        Spatially-ordered query scheduling (Section 4).
    partition:
        Megacell-based query partitioning (Section 5.1).
    bundle:
        Cost-model partition bundling (Section 5.2); only meaningful
        when ``partition`` is on.
    knn_aabb:
        ``"conservative"`` (exact) or ``"equiv_volume"`` (the paper's
        density heuristic) AABB sizing for uncapped KNN partitions.
    approx_elide_sphere_test:
        Section-8 approximation: skip Step 2 everywhere; returned range
        neighbors are then only guaranteed within ``sqrt(3) * r``.
    cell_div:
        Megacell grid granularity: ~``cell_div`` growth levels fit in
        the sphere bound.
    max_grid_cells:
        Memory cap for the partitioning grid.
    cache_sim:
        Run the sampled cache simulation on every launch.
    t_max:
        Short-ray segment end (Section 3.1).
    leaf_size:
        Primitives per BVH leaf. IS-call counts are identical for any
        value (per-primitive AABB tests gate the shader); larger leaves
        trade per-node pops for in-leaf tests, like hardware wide nodes.
    aabb_shrink:
        Section-8 approximation: scale uncapped partitions' AABB widths
        below the exact requirement (< 1 trades recall for speed).
    leaf_prune:
        Leaf MBR distance pruning (on by default): skip hit leaves the
        query provably cannot accept points from, bulk-accept leaves
        provably inside the acceptance sphere. Results are bit-identical
        either way; only work counters and wall time change.
    step_budget:
        Cap on traversal node pops per ray. ``None`` (default) is the
        exact mode; a positive budget returns approximate answers with
        an explicit recall lower bound in ``report.extras["budget"]``.
        Rejected for ``true_knn`` (its termination test needs exact
        bounded rounds).
    """

    schedule: bool = True
    partition: bool = True
    bundle: bool = True
    knn_aabb: str = "conservative"
    approx_elide_sphere_test: bool = False
    cell_div: int = 16
    max_grid_cells: int = 1 << 24
    cache_sim: bool = True
    t_max: float = SHORT_RAY_TMAX
    leaf_size: int = 4
    aabb_shrink: float = 1.0
    leaf_prune: bool = True
    step_budget: int | None = None


#: the request kinds every search path serves (engine, service, shards)
SEARCH_KINDS = ("knn", "range", "count", "true_knn")


def check_kind(kind: str) -> str:
    """``kind`` if it is one of :data:`SEARCH_KINDS`, else ValueError."""
    if kind not in SEARCH_KINDS:
        raise ValueError(f"kind must be one of {SEARCH_KINDS}, got {kind!r}")
    return kind


#: named ablation variants of Fig. 13
VARIANTS: dict[str, RTNNConfig] = {
    "noopt": RTNNConfig(schedule=False, partition=False, bundle=False),
    "sched": RTNNConfig(schedule=True, partition=False, bundle=False),
    "sched+part": RTNNConfig(schedule=True, partition=True, bundle=False),
    "sched+part+bundle": RTNNConfig(schedule=True, partition=True, bundle=True),
}


class RTNNEngine:
    """RTNN neighbor search over a fixed point set on one device.

    A held engine amortizes structure work across searches: the GAS
    cache (:class:`~repro.core.cache.GASCache`) persists every built
    acceleration structure, so repeat batches skip the BVH builds (and
    their ``breakdown.bvh`` charge) entirely — the Fig. 12/15
    amortization the paper assumes. ``update_points`` moves the point
    set while keeping the cache warm via refits, rebuilding only once
    refits have decayed tree quality.
    """

    def __init__(
        self,
        points,
        device: DeviceSpec = RTX_2080,
        config: RTNNConfig | None = None,
        tracer: Tracer | None = None,
        cache_capacity: int | None = None,
    ):
        self.points = as_points(points, "points")
        self.device = device
        self.config = config or RTNNConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pipeline = Pipeline(
            device=device,
            cache_sim=self.config.cache_sim,
            tracer=self.tracer,
            prune_leaves=self.config.leaf_prune,
        )
        self.cost_model = self.pipeline.cost_model
        # All per-partition BVHs share the same Morton order (the AABB
        # centers are always the points), hence one topology: every
        # width's GAS is the point-MBR tree ``_mbr`` grown by its half
        # width. The tree is built by the first GAS and refit by the
        # first refit_gas after a move.
        self._point_order = morton_order(self.points)
        self._mbr = None
        self.gas_cache = (
            GASCache() if cache_capacity is None else GASCache(cache_capacity)
        )
        self._points_fp = fingerprint_array(self.points)
        self._order_fp = fingerprint_array(self._point_order)
        # structure-update cost (refits) owed to the next run's bvh slot
        self._pending_bvh_time = 0.0
        # memoized true-kNN seed radii, keyed on (points_fp, k, policy);
        # invalidated whenever the point set moves (update_points)
        self._seed_cache: dict = {}

    def _gas_key(self, half_width: float) -> GASKey:
        return GASKey(
            points_fp=self._points_fp,
            width_bits=quantize_half_width(half_width),
            leaf_size=int(self.config.leaf_size),
            order_fp=self._order_fp,
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def range_search(
        self, queries, radius: float, k: int, budget: int | None = None
    ) -> SearchResults:
        """All neighbors within ``radius``, at most ``k`` per query.

        ``budget`` overrides ``config.step_budget`` for this call (see
        :class:`RTNNConfig`); it is per-call state, so concurrent
        callers sharing one engine cannot observe each other's budgets.
        """
        return self._run("range", queries, radius, k, budget=budget)

    def knn_search(
        self, queries, k: int, radius: float, budget: int | None = None
    ) -> SearchResults:
        """The ``k`` nearest neighbors within ``radius`` per query.

        ``budget`` overrides ``config.step_budget`` for this call.
        """
        return self._run("knn", queries, radius, k, budget=budget)

    def count_in_radius(self, queries, radius: float) -> SearchResults:
        """Exact per-query neighbor counts within ``radius``.

        The aggregate-only fast path: traversal, partitioning, and
        sphere testing are identical to :meth:`range_search`, but no
        neighbor indices or distances are materialized and rays never
        Any-Hit terminate — so ``results.counts`` is the exact
        within-radius population (never k-capped) while
        ``results.indices``/``results.sq_distances`` are zero-width.
        ``search_fused("count", ...)`` is the same pass over several
        groups; ``repro.verify`` checks the counts of every serving
        path against :func:`~repro.baselines.brute.exact_count`. The
        Section-8 ``approx_elide_sphere_test`` approximation applies
        exactly as it does to range search.
        """
        return self._run("count", queries, radius, 1)

    def true_knn_search(
        self,
        queries,
        k: int,
        radius: float | None = None,
        policy: ExpansionPolicy | None = None,
    ) -> SearchResults:
        """The exact ``k`` nearest neighbors per query, no radius bound.

        Runs bounded kNN rounds under a geometric radius schedule
        (*RT-kNNS Unbound*), re-launching only the queries whose row is
        still under-filled (``counts < k``). ``radius`` overrides the
        round-0 radius; by default it is seeded from the point cloud's
        grid density (:meth:`seed_radius`). A query returns
        ``counts < k`` only when the whole cloud holds fewer than ``k``
        points. Convergence telemetry (rounds, per-round radii,
        re-launched fractions) rides in
        ``results.report.extras["true_knn"]``.
        """
        return self._true_knn_groups([queries], radius, k, policy)[0]

    def seed_radius(
        self, k: int, policy: ExpansionPolicy | None = None
    ) -> float:
        """Round-0 radius of the true-kNN schedule for this point set.

        Memoized per ``(points, k, policy)``; the cache is dropped when
        ``update_points`` moves the cloud (density changes with the
        positions, and a stale seed would silently change the radius
        schedule — and with it the round-by-round telemetry — after a
        refit).
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
        """One pipeline pass over several independent query groups.

        Coalesces compatible requests (same point set, mode, ``k`` and
        ``radius``) into a single run: the data transfer is charged
        once for the point set, scheduling runs one first-hit pass over
        the union, and every GAS is resolved through the shared
        run-local memo and persistent cache. Partitioning and bundling,
        however, are computed **per group**: each group's queries land
        in exactly the partitions and bundles a solo call would give
        them, so each returned :class:`SearchResults` is bit-identical
        (indices, counts, squared distances) to calling
        :meth:`knn_search` / :meth:`range_search` with that group
        alone. The groups share one fused :class:`RunReport` (attached
        to every result).

        ``kind="true_knn"`` runs the adaptive-radius loop over the
        fused groups: every round re-launches only the still
        unsatisfied queries of every group through one fused bounded
        pass, so the per-group solo bit-identity guarantee carries over
        round by round. For that kind ``radius`` is the round-0 radius
        and may be ``None`` (density-seeded). ``kind="count"`` returns
        each group's :meth:`count_in_radius` answer (``k`` is unused).
        """
        if check_kind(kind) == "true_knn":
            return self._true_knn_groups(
                list(query_groups), radius, k, budget=budget
            )
        return self._run_groups(
            kind, list(query_groups), radius, k, budget=budget
        )

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def _make_bundles(self, kind, queries, radius, k, breakdown):
        cfg = self.config
        n_q = len(queries)
        # Megacell partitioning exploits the k cap (growth retires a
        # query once >= k points are guaranteed); counting has no cap,
        # so its only exact AABB is the full 2r with the sphere test —
        # every count query takes the single capped-style bundle.
        if cfg.partition and kind != "count":
            with self.tracer.span("partition", phase="partition") as sp:
                mc = compute_megacells(
                    self.points,
                    queries,
                    radius,
                    k,
                    cell_size=default_cell_size(radius, cfg.cell_div),
                    max_grid_cells=cfg.max_grid_cells,
                )
                grid_time = self.cost_model.grid_build_time(len(self.points))
                megacell_time = self.cost_model.megacell_time(
                    mc.total_growth_steps
                )
                breakdown.opt += grid_time
                breakdown.opt += megacell_time
                partitions = make_partitions(
                    mc, kind, radius, k, knn_aabb=cfg.knn_aabb,
                    shrink=cfg.aabb_shrink,
                )
                decision = bundle_partitions(
                    partitions,
                    n_points=len(self.points),
                    k=k,
                    kind=kind,
                    cost_model=self.cost_model,
                    enable=cfg.bundle,
                )
                sp.add(
                    modeled_s=grid_time + megacell_time,
                    growth_steps=int(mc.total_growth_steps),
                    partitions=decision.n_partitions,
                    bundles=len(decision.bundles),
                )
            return decision.bundles, decision.n_partitions, mc
        single = Bundle(
            query_ids=np.arange(n_q, dtype=np.int64),
            aabb_width=2.0 * radius,
            sphere_test=True,
            capped=True,
            members=[],
        )
        return [single], 1, None

    def _pass_args(self, kind, queries, bundles, global_rank, acc, radius):
        """Resolve a pass's bundles into (launch_ids, rays, shader, kinds).

        One launch per bundle, each ordered by ``global_rank`` when
        scheduling ran: ``rays`` and ``kinds`` hold one ray batch and
        one IS cost class per bundle, ``launch_ids`` every launch's
        query ids in launch order, and the one ``shader`` serves the
        whole pass over those concatenated rays.
        """
        cfg = self.config
        ids = [
            b.query_ids if global_rank is None
            else b.query_ids[np.argsort(global_rank[b.query_ids], kind="stable")]
            for b in bundles
        ]
        launch_ids = ids[0] if len(ids) == 1 else np.concatenate(ids)
        origins = queries[launch_ids]
        rays = []
        start = 0
        for q in ids:
            o = origins[start : start + len(q)]
            start += len(q)
            rays.append(RayBatch(
                origins=o,
                directions=np.broadcast_to(
                    np.asarray(DEFAULT_DIRECTION), o.shape
                ).copy(),
                t_min=0.0,
                t_max=cfg.t_max,
                query_ids=q,
            ))
        if kind == "knn":
            shader = KnnShader(self.points, origins, launch_ids, acc)
            return launch_ids, rays, shader, [IsKind.KNN] * len(bundles)
        tests = [
            bool(b.sphere_test and not cfg.approx_elide_sphere_test)
            for b in bundles
        ]
        sphere_test = (
            tests[0] if len(bundles) == 1
            else np.repeat(tests, [len(q) for q in ids])
        )
        shader = RangeShader(
            self.points, origins, launch_ids, acc, radius,
            sphere_test=sphere_test,
        )
        kinds = [IsKind.RANGE_TEST if t else IsKind.RANGE_FAST for t in tests]
        return launch_ids, rays, shader, kinds

    def _run(
        self,
        kind: str,
        queries,
        radius: float,
        k: int,
        budget: int | None = None,
    ) -> SearchResults:
        return self._run_groups(kind, [queries], radius, k, budget=budget)[0]

    def _run_groups(
        self,
        kind: str,
        groups: list,
        radius: float,
        k: int,
        budget: int | None = None,
    ) -> list[SearchResults]:
        """Execute one pipeline pass over one or more query groups.

        With a single group this is exactly the classic ``_run`` —
        same spans, same counter and breakdown accounting (the bench
        baselines pin that). With several groups, partition/bundle
        decisions are made per group (see :meth:`search_fused`) while
        everything else — transfer, scheduling, GAS resolution, the
        launch loop, the report — runs once over the union.
        """
        groups = [as_points(g, "queries") for g in groups]
        radius = check_positive(radius, "radius")
        k = check_positive_int(k, "k")
        cfg = self.config
        step_budget = budget if budget is not None else cfg.step_budget
        if step_budget is not None:
            step_budget = check_positive_int(step_budget, "step_budget")
        sizes = [len(g) for g in groups]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        n_q = int(offsets[-1])
        if len(groups) == 1:
            queries = groups[0]
        elif n_q:
            queries = np.concatenate([g for g in groups if len(g)])
        else:
            queries = np.empty((0, self.points.shape[1]), dtype=np.float64)

        breakdown = Breakdown()
        if self._pending_bvh_time:
            # structure updates (refits) performed since the last run
            breakdown.bvh += self._pending_bvh_time
            self._pending_bvh_time = 0.0
        with self.tracer.span("transfer", phase="data") as sp:
            n_bytes = (len(self.points) + n_q) * POINT_BYTES
            transfer_time = self.cost_model.transfer_time(n_bytes)
            breakdown.data += transfer_time
            sp.add(modeled_s=transfer_time, transfer_bytes=n_bytes)

        if kind == "knn":
            acc = KnnQueueBatch(n_q, k, radius)
        elif kind == "count":
            acc = CountAccumulator(n_q)
        else:
            acc = RangeAccumulator(n_q, k)

        bundles: list[Bundle] = []
        n_partitions = 0
        if len(groups) == 1:
            if n_q:
                bundles, n_partitions, _ = self._make_bundles(
                    kind, queries, radius, k, breakdown
                )
        else:
            # Per-group partitioning/bundling: each group gets exactly
            # the decision a solo run would, with query ids shifted
            # into the fused index space.
            for group, off in zip(groups, offsets):
                if not len(group):
                    continue
                group_bundles, group_parts, _ = self._make_bundles(
                    kind, group, radius, k, breakdown
                )
                n_partitions += group_parts
                for b in group_bundles:
                    bundles.append(
                        Bundle(
                            query_ids=b.query_ids + int(off),
                            aabb_width=b.aabb_width,
                            sphere_test=b.sphere_test,
                            capped=b.capped,
                            members=b.members,
                        )
                    )

        # One GAS per distinct (quantized) AABB width across bundles.
        # The run-local memo keeps within-run reuse free of cache
        # bookkeeping; the persistent cache serves cross-run hits.
        gases: dict[GASKey, object] = {}
        cache_hits = 0
        cache_misses = 0

        def gas_for(width: float):
            nonlocal cache_hits, cache_misses
            key = self._gas_key(width / 2.0)
            gas = gases.get(key)
            if gas is not None:
                return gas
            gas = self.gas_cache.lookup(key)
            if gas is None:
                cache_misses += 1
                gas = build_gas(
                    self.points,
                    width / 2.0,
                    self.cost_model,
                    leaf_size=cfg.leaf_size,
                    order=self._point_order,
                    tracer=self.tracer,
                    mbr=self._mbr,
                )
                self._mbr = gas.mbr
                self.gas_cache.insert(key, gas)
                breakdown.bvh += gas.build_time
            else:
                cache_hits += 1
            gases[key] = gas
            return gas

        # Scheduling is global (Listing 2): one truncated FS launch over
        # all queries against the largest bundle's BVH and one Morton
        # sort; every bundle then launches its queries in that order.
        global_rank = None
        if cfg.schedule and n_q:
            # The widest bundle's BVH gives the cheapest first-hit
            # pass: the truncated ray terminates at its first leaf hit,
            # which arrives soonest when leaves are fat, and any
            # enclosing AABB works as a spatial hint (Section 4's
            # "loose definition of proximity").
            widest = max(bundles, key=lambda b: b.aabb_width)
            with self.tracer.span("schedule", phase="schedule") as sp:
                sched = schedule_queries(
                    self.pipeline, gas_for(widest.aabb_width), queries
                )
                breakdown.fs += sched.fs_time
                breakdown.opt += sched.sort_time
                # The FS launch's counters and cost live on its own
                # (child) launch span; this span carries only the sort.
                sp.add(modeled_s=sched.sort_time, sorted_queries=n_q)
            global_rank = np.empty(n_q, dtype=np.int64)
            global_rank[sched.order] = np.arange(n_q)

        total_is = 0
        total_steps = 0
        hit_w = 0
        l1_acc = 0.0
        l2_acc = 0.0
        occ_w = 0.0
        occ_acc = 0.0
        leaves_pruned = 0
        leaves_bulk = 0
        # Queries with at least one budget-truncated ray: their rows may
        # be missing neighbors, everyone else's are provably exact.
        exhausted_q = np.zeros(n_q, dtype=bool)
        launches = []
        if bundles:
            # One traversal loop per pass: every bundle (and every fused
            # group's bundles) launches together over the shared
            # point-MBR tree, each bundle still costed as its own launch.
            with self.tracer.span("traverse", phase="traverse") as sp:
                gases = [gas_for(b.aabb_width) for b in bundles]
                launch_ids, rays, shader, kinds = self._pass_args(
                    kind, queries, bundles, global_rank, acc, radius
                )
                launch = self.pipeline.launch(
                    gases, rays, shader, kinds, step_budget=step_budget
                )
                # Launch counters/cost live on the child launch span.
                sp.add(bundle_queries=len(launch_ids))
                sp.note(aabb_widths=[float(b.aabb_width) for b in bundles])
            launches = launch.launches
            if step_budget is not None:
                be = launch.trace.budget_exhausted
                if be is not None and be.any():
                    exhausted_q[launch_ids[be]] = True

        for part in launches:
            breakdown.search += part.modeled_time
            trace = part.trace
            leaves_pruned += trace.leaves_pruned
            leaves_bulk += trace.leaves_bulk_accepted
            total_is += trace.total_is_calls
            total_steps += trace.total_steps
            tx = trace.node_transactions + trace.prim_transactions
            if part.l1_hit_rate is not None and tx:
                hit_w += tx
                l1_acc += part.l1_hit_rate * tx
                l2_acc += part.l2_hit_rate * tx
            occ = self.cost_model.occupancy(trace)
            occ_w += part.modeled_time
            occ_acc += occ * part.modeled_time

        if kind == "knn":
            idx, counts, d2 = acc.finalize()
        else:
            idx, counts, d2 = acc.idx, acc.count, acc.d2

        # Warm runs surface the amortization through the tracer. A cold
        # run (no hits) emits nothing, so pre-cache trace baselines stay
        # byte-identical; its misses are already visible as build spans.
        if cache_hits:
            with self.tracer.span("gas_cache", phase="build") as sp:
                sp.add(gas_cache_hits=cache_hits, gas_cache_misses=cache_misses)

        extras = {
            "launch_costs": [lc.cost.total for lc in launches],
            "aabb_widths": [b.aabb_width for b in bundles],
            "bundle_sizes": [b.n_queries for b in bundles],
            "gas_cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "entries": len(self.gas_cache),
            },
            "prune": {
                "enabled": bool(cfg.leaf_prune),
                "leaves_pruned": int(leaves_pruned),
                "leaves_bulk_accepted": int(leaves_bulk),
            },
        }
        if step_budget is not None:
            extras["budget"] = budget_extras(
                step_budget, int(exhausted_q.sum()), n_q
            )
            extras["budget"]["group_exhausted"] = [
                int(exhausted_q[off : off + n].sum())
                for off, n in zip(offsets, sizes)
            ]
        if len(groups) > 1:
            extras["fused"] = {"n_groups": len(groups), "group_sizes": sizes}
        report = RunReport(
            breakdown=breakdown,
            is_calls=total_is,
            traversal_steps=total_steps,
            n_partitions=n_partitions,
            n_bundles=len(bundles),
            n_bvh_builds=cache_misses,
            l1_hit_rate=(l1_acc / hit_w) if hit_w else None,
            l2_hit_rate=(l2_acc / hit_w) if hit_w else None,
            cache_transactions=hit_w,
            sm_occupancy=(occ_acc / occ_w) if occ_w else None,
            device=self.device.name,
            extras=extras,
        )
        if len(groups) == 1:
            return [SearchResults(idx, counts, d2, report)]
        return [
            SearchResults(
                idx[off : off + n].copy(),
                counts[off : off + n].copy(),
                d2[off : off + n].copy(),
                report,
            )
            for off, n in zip(offsets, sizes)
        ]

    # ------------------------------------------------------------------
    # true kNN (adaptive radius expansion)
    # ------------------------------------------------------------------
    def _true_knn_groups(
        self,
        groups: list,
        radius: float | None,
        k: int,
        policy: ExpansionPolicy | None = None,
        budget: int | None = None,
    ) -> list[SearchResults]:
        """Adaptive-radius exact kNN over one or more query groups.

        Round ``j`` runs one bounded kNN pass at ``r0 * growth**j``
        over only the queries still holding fewer than ``k`` neighbors,
        through the ordinary :meth:`_run_groups` machinery — so every
        re-launch reuses the partition/bundle pipeline and the GAS
        cache stays warm across rounds (round ``j+1`` rebuilds only the
        widths it has not seen). A round whose radius reaches the
        group's cover bound (joint AABB diagonal, with
        :data:`COVER_SLACK` headroom for shader rounding) is
        exhaustive: its bounded answer is exact even for queries with
        fewer than ``k`` points in the whole cloud, which terminate
        there with ``counts < k``.

        Rows finalized in different rounds are stitched into one
        result per group; all groups share one merged
        :class:`RunReport` whose ``extras["true_knn"]`` records the
        convergence trace (per-round radii, re-launch counts and
        fractions, the seed, and whether the run converged before
        ``policy.max_rounds``).
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
            # Delegate to one bounded pass so the canonical empty-run
            # report tail (zero partitions/bundles, same extras shape)
            # is preserved; all results share that report.
            results = self._run_groups("knn", groups, r0, k)
            results[0].report.extras["true_knn"] = true_knn_extras(r0, policy)
            return results

        covers = [cover_radius(self.points, g) for g in groups]
        finals, rounds_info, conv = run_expansion(
            lambda subs, r: self._run_groups("knn", subs, r, k),
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
        report.extras["true_knn"] = true_knn_extras(r0, policy, conv)
        return [
            SearchResults(idx, cnt, d2, report)
            for idx, cnt, d2 in finals
        ]

    # ------------------------------------------------------------------
    # structure lifecycle
    # ------------------------------------------------------------------
    def update_points(self, points) -> float:
        """Replace the point set, keeping cached structures warm.

        When the point count is unchanged every cached GAS is *refit*
        in place (:func:`repro.optix.gas.refit_gas`): the shared
        point-MBR tree is refit once and every width re-derived from it,
        so bounds stay exact over the frozen topology and subsequent
        searches remain exact while skipping full rebuilds. Each width
        still charges its own refit. Refits decay tree quality, so
        after the refits a watchdog compares each GAS's SAH cost with
        its build-time SAH: if any exceeds
        :data:`~repro.optix.gas.REBUILD_SAH_FACTOR` x its build SAH, or
        the point count changed, the Morton order is recomputed and the
        cache cleared, so the next search rebuilds every structure it
        needs over the new order. Returns the modeled refit seconds
        (0.0 on a count change), which are also charged to the next
        run's ``bvh`` category beside any rebuilds.
        """
        pts = as_points(points, "points")
        # Seed radii are density-derived: any movement of the cloud
        # invalidates them, or a post-refit true_knn run would walk a
        # radius schedule seeded from the old positions.
        self._seed_cache.clear()
        refit_time = 0.0
        if pts.shape == self.points.shape:
            self.points = pts
            self._points_fp = fingerprint_array(pts)
            decayed = False
            for key, gas in self.gas_cache.take_all():
                refit_time += refit_gas(
                    gas, pts, self.cost_model, tracer=self.tracer
                )
                decayed = decayed or sah_decayed(gas)
                self.gas_cache.insert(
                    replace(key, points_fp=self._points_fp), gas
                )
            self._pending_bvh_time += refit_time
            if not decayed:
                return refit_time
        # Every GAS shares the Morton order: rebuilding on the stale
        # order would reproduce the decayed topology.
        self.points = pts
        self._point_order = morton_order(pts)
        self._points_fp = fingerprint_array(pts)
        self._order_fp = fingerprint_array(self._point_order)
        self._mbr = None
        self.gas_cache.clear()
        return refit_time

    def with_config(self, **changes) -> "RTNNEngine":
        """A copy of this engine with config fields replaced.

        Unknown field names raise :exc:`ValueError` (with a
        nearest-match hint) rather than the bare ``TypeError`` a
        ``dataclasses.replace`` would emit — the CLI maps ``ValueError``
        to a one-line message and exit code 2, so a typo'd knob fails
        loudly instead of surfacing as a traceback.

        The copy starts with a cold GAS cache: config changes
        invalidate cached structures (``leaf_size`` feeds the build,
        and a fresh cache keeps the semantics obvious for the rest).
        """
        valid = sorted(f.name for f in fields(RTNNConfig))
        unknown = sorted(set(changes) - set(valid))
        if unknown:
            hints = []
            for name in unknown:
                close = difflib.get_close_matches(name, valid, n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                hints.append(f"{name!r}{hint}")
            raise ValueError(
                "unknown config field(s): "
                + ", ".join(hints)
                + "; valid fields: "
                + ", ".join(valid)
            )
        return RTNNEngine(
            self.points,
            device=self.device,
            config=replace(self.config, **changes),
            tracer=self.tracer,
            cache_capacity=self.gas_cache.capacity,
        )
