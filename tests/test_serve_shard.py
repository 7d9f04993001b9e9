"""The sharded serving tier: placement, scatter-gather bit-identity,
fan-out pruning, deterministic failover, and service integration.

The contract under test is the one the sharded paths of the
``repro.verify`` matrix enforce: any sharded topology — 1 shard, N shards, degraded
replicas, dead workers — produces answers bit-identical to the
single-engine path, because the merge is a canonical ``(sq_distance,
index)`` order that depends only on candidate values. Fault scenarios
are driven by the deterministic :class:`FaultInjector`, so every
failover here replays exactly.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.engine import RTNNConfig, RTNNEngine, VARIANTS
from repro.core.partition import make_spatial_shards
from repro.serve import (
    Fault,
    FaultInjector,
    HashRing,
    SearchService,
    ServiceConfig,
    ShardedEngine,
    ShardWorker,
)
from repro.utils.rng import default_rng

K, RADIUS = 6, 0.15
# Range set-identity needs a k no row overflows (a truncated bounded
# range result is a k-subset choice, not a set): ~6.8 expected
# neighbors at r=0.15 over 480 points, Poisson tail at 32 is ~1e-12.
K_RANGE = 32


@pytest.fixture(scope="module")
def world():
    rng = default_rng(11)
    points = rng.random((480, 3))
    queries = rng.random((41, 3))
    return points, queries


def _direct(points, kind, queries, cfg=None, radius=RADIUS):
    engine = RTNNEngine(points, config=cfg)
    if kind == "knn":
        return engine.knn_search(queries, k=K, radius=radius)
    return engine.range_search(queries, radius=radius, k=K_RANGE)


def _sharded(sh, kind, queries, radius=RADIUS):
    if kind == "knn":
        return sh.knn_search(queries, k=K, radius=radius)
    return sh.range_search(queries, radius=radius, k=K_RANGE)


def _assert_rows_equal(a, b, msg=""):
    assert np.array_equal(a.indices, b.indices), f"{msg}: indices"
    assert np.array_equal(a.counts, b.counts), f"{msg}: counts"
    assert np.array_equal(a.sq_distances, b.sq_distances), f"{msg}: distances"


# ----------------------------------------------------------------------
# spatial shards (repro.core.partition reuse)
# ----------------------------------------------------------------------
def test_spatial_shards_partition_the_index_set(world):
    points, _ = world
    shards = make_spatial_shards(points, 4)
    assert len(shards) == 4
    all_ids = np.concatenate([s.point_ids for s in shards])
    assert sorted(all_ids.tolist()) == list(range(len(points)))
    for s in shards:
        assert np.all(np.diff(s.point_ids) > 0), "ids must be ascending"
        member = points[s.point_ids]
        assert np.allclose(s.lo, member.min(axis=0))
        assert np.allclose(s.hi, member.max(axis=0))
    sizes = [s.n_points for s in shards]
    assert max(sizes) - min(sizes) <= 1, "near-equal split"


def test_one_shard_is_the_identity_split(world):
    points, _ = world
    (shard,) = make_spatial_shards(points, 1)
    assert np.array_equal(shard.point_ids, np.arange(len(points)))


def test_shard_count_clamped_and_empty_rejected():
    pts = default_rng(0).random((3, 3))
    assert len(make_spatial_shards(pts, 10)) == 3
    with pytest.raises(ValueError):
        make_spatial_shards(np.empty((0, 3)), 2)
    with pytest.raises(ValueError):
        make_spatial_shards(pts, 0)


# ----------------------------------------------------------------------
# consistent-hash placement
# ----------------------------------------------------------------------
def test_hash_ring_is_deterministic_and_complete():
    ring = HashRing(range(4))
    again = HashRing(range(4))
    for key in ("a", "b", "c"):
        assert ring.preference(key) == again.preference(key)
        assert sorted(ring.preference(key)) == [0, 1, 2, 3]


def test_bounded_load_assignment_balances_primaries():
    ring = HashRing(range(4))
    for salt in range(5):
        keys = [f"shard:{salt}:{i}" for i in range(4)]
        primaries = [p[0] for p in ring.assign(keys)]
        assert sorted(primaries) == [0, 1, 2, 3], (
            "4 shards on 4 workers must place one primary each"
        )


def test_removing_a_worker_only_moves_its_own_shards():
    keys = [f"k{i}" for i in range(8)]
    full = {k: HashRing(range(4)).preference(k)[0] for k in keys}
    reduced = HashRing([0, 1, 2])
    for k in keys:
        if full[k] != 3:
            assert reduced.preference(k)[0] == full[k], (
                "consistent hashing must not reshuffle surviving owners"
            )


# ----------------------------------------------------------------------
# scatter-gather bit-identity (the core contract)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["knn", "range"])
@pytest.mark.parametrize("cfg_name", ["full", "noopt"])
@pytest.mark.parametrize("n_shards", [1, 3, 4])
def test_sharded_matches_single_engine(world, kind, cfg_name, n_shards):
    points, queries = world
    cfg = RTNNConfig() if cfg_name == "full" else VARIANTS["noopt"]
    direct = _direct(points, kind, queries, cfg)
    sh = ShardedEngine(points, n_shards=n_shards, config=cfg)
    res = _sharded(sh, kind, queries)
    if kind == "range":
        # The set identity is only sound when no row overflows k.
        assert int(direct.counts.max(initial=0)) < K_RANGE
    if kind == "knn":
        # KNN single-engine rows are already distance-sorted: raw equal.
        _assert_rows_equal(direct, res, f"{kind}/{cfg_name}/{n_shards}")
    _assert_rows_equal(
        direct.canonical(), res, f"{kind}/{cfg_name}/{n_shards} canonical"
    )


def test_search_fused_merges_groups_independently(world):
    points, queries = world
    groups = [queries[:15], queries[15:20], queries[20:]]
    sh = ShardedEngine(points, n_shards=4)
    fused = sh.search_fused("knn", groups, radius=RADIUS, k=K)
    single = RTNNEngine(points)
    for g, res in zip(groups, fused):
        _assert_rows_equal(single.knn_search(g, k=K, radius=RADIUS), res)
    extra = fused[0].report.extras["shard"]
    assert extra["group_sizes"] == [15, 5, 21]
    assert extra["degraded_groups"] == [False, False, False]


def test_sharded_run_is_deterministic(world):
    points, queries = world
    a = _sharded(ShardedEngine(points, n_shards=4), "range", queries)
    b = _sharded(ShardedEngine(points, n_shards=4), "range", queries)
    _assert_rows_equal(a, b, "repeat run")


def test_merge_underfilled_rows_never_interleaves_padding():
    # Regression: a query with fewer than k in-radius neighbors, split
    # 1 + 1 across two shards, must merge into [real, real, -1, -1] —
    # the inf/-1 padding of each under-filled per-shard row must sink
    # below every real hit, and the merged count must be the clamped
    # sum of the per-shard counts.
    rng = default_rng(23)
    left = 0.2 + 0.05 * rng.random((12, 3))
    right = 0.8 - 0.05 * rng.random((12, 3))
    bridge = np.array([[0.45, 0.5, 0.5], [0.55, 0.5, 0.5]])
    points = np.vstack([left, right, bridge])
    a, b = len(points) - 2, len(points) - 1
    query = np.array([[0.5, 0.5, 0.5]])

    sh = ShardedEngine(points, n_shards=2)
    # The bridge points straddle the spatial split: one per shard.
    shard_of = {
        gi: sid
        for sid, shard in enumerate(sh.shards)
        for gi in (a, b)
        if gi in shard.point_ids
    }
    assert shard_of[a] != shard_of[b], "bridge points must be split 1+1"

    for kind in ("knn", "range"):
        res = (
            sh.knn_search(query, k=4, radius=0.08)
            if kind == "knn"
            else sh.range_search(query, radius=0.08, k=4)
        )
        assert res.counts[0] == 2, kind  # 1 + 1, clamped sum
        assert sorted(res.indices[0, :2].tolist()) == [a, b], kind
        assert (res.indices[0, 2:] == -1).all(), kind
        assert np.isfinite(res.sq_distances[0, :2]).all(), kind
        assert np.isinf(res.sq_distances[0, 2:]).all(), kind
        solo = (
            RTNNEngine(points).knn_search(query, k=4, radius=0.08)
            if kind == "knn"
            else RTNNEngine(points).range_search(query, radius=0.08, k=4)
        )
        _assert_rows_equal(res, solo, f"underfilled {kind}")


def test_merge_breaks_distance_ties_by_index():
    # Two points exactly mirrored about the query (coordinates exact in
    # binary, so the squared distances are bitwise equal): canonical
    # order must put the lower global index first.
    points = np.array(
        [[0.25, 0.5, 0.5], [0.75, 0.5, 0.5], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
    )
    sh = ShardedEngine(points, n_shards=2)
    res = sh.knn_search(np.array([[0.5, 0.5, 0.5]]), k=2, radius=0.5)
    assert res.counts[0] == 2
    assert res.sq_distances[0, 0] == res.sq_distances[0, 1]
    assert res.indices[0, 0] < res.indices[0, 1]


# ----------------------------------------------------------------------
# fan-out pruning
# ----------------------------------------------------------------------
def test_interior_queries_visit_only_their_shard():
    # Two well-separated clusters -> 2 shards with disjoint AABBs.
    rng = default_rng(5)
    a = rng.random((100, 3)) * 0.2
    b = rng.random((100, 3)) * 0.2 + 0.8
    points = np.concatenate([a, b])
    sh = ShardedEngine(points, n_shards=2)
    lo_a, hi_a = sh.shards[0].lo, sh.shards[0].hi
    assert (hi_a < sh.shards[1].lo).any(), "clusters must separate"
    queries = rng.random((20, 3)) * 0.1 + 0.05  # deep inside cluster A
    mask = sh.overlap_mask(queries, 0.05)
    assert mask[:, 0].all() and not mask[:, 1].any()
    sh.knn_search(queries, k=4, radius=0.05)
    assert sh.fanout_visits == len(queries), "no cross-cluster fan-out"
    # Only the overlapped shard got a sub-launch.
    assert sum(w.launches for w in sh.workers) == 1


def test_boundary_queries_fan_out_to_overlapped_shards_only(world):
    points, queries = world
    sh = ShardedEngine(points, n_shards=4)
    mask = sh.overlap_mask(queries, RADIUS)
    assert mask.any(axis=1).all(), "every query overlaps at least one shard"
    sh.knn_search(queries, k=K, radius=RADIUS)
    assert sh.fanout_visits == int(mask.sum())


# ----------------------------------------------------------------------
# failover + degradation
# ----------------------------------------------------------------------
def test_dead_primary_fails_over_bit_identically(world):
    points, queries = world
    direct = _direct(points, "knn", queries)
    sh = ShardedEngine(points, n_shards=4, replication=2)
    sh.kill_worker(sh.preference[0][0])
    res = sh.knn_search(queries, k=K, radius=RADIUS)
    _assert_rows_equal(direct, res, "dead primary")
    assert sh.failovers >= 1
    assert sh.brute_fallbacks == 0
    assert res.report.extras["shard"]["degraded_groups"] == [False]


def test_injected_fault_mid_batch_fails_over_deterministically(world):
    points, queries = world
    direct = _direct(points, "range", queries).canonical()

    def run():
        sh = ShardedEngine(
            points,
            n_shards=4,
            replication=2,
            faults=FaultInjector(script=[Fault(error=True)]),
        )
        res = sh.range_search(queries, radius=RADIUS, k=K_RANGE)
        return sh, res

    sh1, res1 = run()
    sh2, res2 = run()
    _assert_rows_equal(direct, res1, "injected fault")
    _assert_rows_equal(res1, res2, "replayed fault scenario")
    assert sh1.failovers == sh2.failovers == 1
    # The crashed worker stays dead until revived.
    assert sum(not w.alive for w in sh1.workers) == 1
    sh1.revive_worker(next(w.worker_id for w in sh1.workers if not w.alive))
    assert all(w.alive for w in sh1.workers)


def test_all_replicas_dead_degrades_to_exact_brute(world):
    points, queries = world
    for kind in ("knn", "range"):
        direct = _direct(points, kind, queries).canonical()
        sh = ShardedEngine(points, n_shards=4, replication=1)
        for w in sh.workers:
            w.alive = False
        res = _sharded(sh, kind, queries)
        _assert_rows_equal(direct, res, f"{kind} all-dead")
        extra = res.report.extras["shard"]
        assert extra["brute_shards"] == 4
        assert extra["degraded_groups"] == [True]
        assert sh.brute_fallbacks == 4


def test_update_points_reshards(world):
    points, queries = world
    sh = ShardedEngine(points, n_shards=4)
    sh.knn_search(queries, k=K, radius=RADIUS)
    new_points = default_rng(99).random((300, 3))
    sh.update_points(new_points)
    assert sh._points_fp != ""
    direct = _direct(new_points, "knn", queries)
    _assert_rows_equal(direct, sh.knn_search(queries, k=K, radius=RADIUS))


# ----------------------------------------------------------------------
# modeled clock
# ----------------------------------------------------------------------
def test_makespan_is_the_busiest_worker_not_the_sum(world):
    points, queries = world
    sh = ShardedEngine(points, n_shards=4)
    sh.knn_search(queries, k=K, radius=RADIUS)
    busy = [w.busy_s for w in sh.workers]
    assert sh.modeled_makespan_s == max(busy)
    assert sh.modeled_makespan_s < sum(busy), (
        "4 busy workers must beat serial execution on the modeled clock"
    )


# ----------------------------------------------------------------------
# worker count: placement only, never results or modeled work
# ----------------------------------------------------------------------
def _run_on_workers(monkeypatch, points, queries, kind, n_workers, kill=()):
    """One 4-shard search on ``n_workers``; returns (result, busy, order).

    ``order`` lists the ``(worker id, shard id)`` of every sub-call in
    the order the scatter ran them (spied on ``ShardWorker.engine_for``).
    """
    order = []
    engine_for = ShardWorker.engine_for

    def spy(self, shard):
        order.append((self.worker_id, shard.shard_id))
        return engine_for(self, shard)

    monkeypatch.setattr(ShardWorker, "engine_for", spy)
    sh = ShardedEngine(points, n_shards=4, n_workers=n_workers)
    for wid in kill:
        sh.kill_worker(wid)
    res = _sharded(sh, kind, queries)
    return res, sum(w.busy_s for w in sh.workers), order


def _assert_same_work(a, b):
    ra, rb = a.report, b.report
    for field in (
        "is_calls", "traversal_steps", "n_partitions", "n_bundles",
        "n_bvh_builds",
    ):
        assert getattr(ra, field) == getattr(rb, field), field
    assert ra.breakdown == rb.breakdown
    for extra in ("prune", "gas_cache"):
        assert ra.extras[extra] == rb.extras[extra], extra


@pytest.mark.parametrize("kind", ["knn", "range"])
@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_worker_count_changes_nothing_but_placement(
    world, monkeypatch, kind, n_workers
):
    points, queries = world
    ref, ref_busy, _ = _run_on_workers(monkeypatch, points, queries, kind, 1)
    res, busy, order = _run_on_workers(
        monkeypatch, points, queries, kind, n_workers
    )
    _assert_rows_equal(ref, res, f"{n_workers} workers")
    _assert_same_work(ref, res)
    # Per-worker float sums regroup the same terms: equal up to rounding.
    assert busy == pytest.approx(ref_busy, rel=1e-12)
    assert len(order) == 4
    assert order == sorted(order)
    assert len({wid for wid, _ in order}) == min(n_workers, 4)


def test_killed_worker_changes_nothing_but_placement(world, monkeypatch):
    points, queries = world
    ref, ref_busy, _ = _run_on_workers(monkeypatch, points, queries, "knn", 1)
    res, busy, order = _run_on_workers(
        monkeypatch, points, queries, "knn", 4, kill=(0,)
    )
    assert res.report.extras["shard"]["failovers"] == 1
    assert res.report.extras["shard"]["brute_shards"] == 0
    _assert_rows_equal(ref, res, "killed worker")
    _assert_same_work(ref, res)
    assert busy == pytest.approx(ref_busy, rel=1e-12)
    assert 0 not in {wid for wid, _ in order}
    assert order == sorted(order)


# ----------------------------------------------------------------------
# behind the SearchService front door
# ----------------------------------------------------------------------
def test_service_over_sharded_engine_is_bit_identical(world):
    points, queries = world
    direct = _direct(points, "knn", queries)

    async def scenario():
        service = SearchService(
            ShardedEngine(points, n_shards=4),
            config=ServiceConfig(batch_window_s=0.01),
        )
        async with service:
            res = await service.submit("knn", queries, k=K, radius=RADIUS)
        return service, res

    service, res = asyncio.run(scenario())
    assert not res.degraded
    _assert_rows_equal(direct, res.results, "served")
    report = service.report()
    shards = report.extras["service"]["shards"]
    assert shards["n_shards"] == 4
    assert shards["failovers"] == 0
    assert len(shards["workers"]) == 4


def test_killed_shard_mid_batch_surfaces_in_service_metrics(world):
    """Satellite: killed shard mid-batch -> failover result bit-identical
    to the healthy single-engine answer, flags in ServiceMetrics."""
    points, queries = world
    direct = _direct(points, "knn", queries)

    async def scenario(replication):
        engine = ShardedEngine(
            points,
            n_shards=4,
            replication=replication,
            faults=FaultInjector(script=[Fault(error=True)]),
        )
        service = SearchService(
            engine, config=ServiceConfig(batch_window_s=0.01)
        )
        async with service:
            res = await service.submit("knn", queries, k=K, radius=RADIUS)
        return service, res

    # With a replica: transparent failover, nothing degraded.
    service, res = asyncio.run(scenario(replication=2))
    _assert_rows_equal(direct, res.results, "failover via service")
    assert not res.degraded
    assert service.metrics.shard_failovers == 1
    assert service.metrics.shard_brute == 0
    assert service.metrics.rollup()["shard"]["failovers"] == 1

    # Without a replica: the shard degrades to brute, request flagged.
    service, res = asyncio.run(scenario(replication=1))
    _assert_rows_equal(direct, res.results, "brute degrade via service")
    assert res.degraded
    assert service.metrics.shard_brute == 1
    assert service.metrics.degraded == 1
    assert service.metrics.rollup()["shard"]["brute_shards"] == 1


@pytest.mark.parametrize("replication", [1, 2])
def test_sharded_count_sums_shard_counts_through_any_fallback(world, replication):
    """Native count: per-shard counts summed over the scatter plan equal
    the solo engine's, also when a dead shard is counted brute."""
    points, queries = world
    solo = RTNNEngine(points).count_in_radius(queries, RADIUS)
    sh = ShardedEngine(points, n_shards=4, replication=replication)
    sh.kill_worker(sh.preference[0][0])
    res = sh.search_fused("count", [queries[:20], queries[20:]], RADIUS, k=1)
    assert np.array_equal(np.concatenate([r.counts for r in res]), solo.counts)
    assert res[0].indices.shape == (20, 0)
    shard = res[0].report.extras["shard"]
    assert (shard["brute_shards"], shard["failovers"]) == (
        (1, 0) if replication == 1 else (0, 1)
    )


@pytest.mark.parametrize("kill_one", [False, True])
def test_sharded_report_sums_prune_and_cache_extras(world, monkeypatch, kill_one):
    """The fused sharded report carries the ``prune`` and ``gas_cache``
    extras summed over the modeled (non-brute) shard sub-reports."""
    points, queries = world
    sh = ShardedEngine(points, n_shards=4, replication=1)
    if kill_one:
        sh.workers[0].alive = False  # its shards are served brute
    outcomes = []
    execute = ShardedEngine._execute

    def spy(self, *args, **kwargs):
        outcomes.append(execute(self, *args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(ShardedEngine, "_execute", spy)
    for _ in range(2):  # the second pass hits every shard's GAS cache
        outcomes.clear()
        res = sh.range_search(queries, radius=RADIUS, k=K_RANGE)
        subs = [r.report for r in outcomes[0].values() if r.report is not None]
        assert len(subs) == 4 - res.report.extras["shard"]["brute_shards"]
        for extra, key in [
            ("prune", "leaves_pruned"),
            ("prune", "leaves_bulk_accepted"),
            ("gas_cache", "hits"),
            ("gas_cache", "misses"),
            ("gas_cache", "entries"),
        ]:
            want = sum(r.extras[extra][key] for r in subs)
            assert res.report.extras[extra][key] == want, (extra, key)
        assert res.report.extras["prune"]["enabled"]
    assert res.report.extras["prune"]["leaves_pruned"] > 0
    assert res.report.extras["prune"]["leaves_bulk_accepted"] > 0
    assert res.report.extras["gas_cache"]["hits"] > 0
