"""Leaf MBR pruning and the traversal step budget.

Two contracts, each tested against the exact search as its oracle:

* **pruning is invisible**: every (query, leaf) pair the MBR distance
  test skips would have been rejected by the accumulator anyway, so
  results — indices, counts, squared distances — are bit-identical
  with pruning on and off, across modes, variants and topologies; only
  the pruning counters may differ.
* **the budget is honest**: a budgeted run returns a subset of the
  exact answer, reports a recall lower bound the actual recall always
  meets, recovers exactness monotonically as the budget grows, and is
  rejected outright where it cannot be honest (``true_knn``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.engine import RTNNConfig, RTNNEngine, VARIANTS
from repro.geometry.aabb import aabb_contains, box_sq_dists
from repro.utils.rng import default_rng


def _clustered(n: int, seed: int = 3) -> np.ndarray:
    rng = default_rng(seed)
    centers = rng.random((8, 3))
    pts = centers[rng.integers(0, 8, n)] + rng.normal(0.0, 0.02, (n, 3))
    return np.clip(pts, 0.0, 1.0)


def _identical(a, b) -> bool:
    return (
        np.array_equal(a.indices, b.indices)
        and np.array_equal(a.counts, b.counts)
        and np.array_equal(a.sq_distances, b.sq_distances)
    )


def _search(engine, mode, queries, radius, k, **kw):
    if mode == "knn":
        return engine.knn_search(queries, k=k, radius=radius, **kw)
    if mode == "true_knn":
        return engine.true_knn_search(queries, k=k, radius=radius, **kw)
    return engine.range_search(queries, radius=radius, k=k, **kw)


# ----------------------------------------------------------------------
# MBR distance bounds
# ----------------------------------------------------------------------
def test_box_sq_dists_bounds_every_point_in_the_box():
    rng = default_rng(11)
    lo = rng.random((64, 3))
    hi = lo + rng.random((64, 3))
    pts = rng.random((64, 3)) * 3.0 - 1.0
    min_d2, max_d2 = box_sq_dists(pts, lo, hi)
    # Brute-force check against a dense corner/clamp sample per box.
    for i in range(64):
        clamped = np.clip(pts[i], lo[i], hi[i])
        assert min_d2[i] == pytest.approx(((pts[i] - clamped) ** 2).sum())
        corners = np.array(
            [[lo[i][d] if (m >> d) & 1 else hi[i][d] for d in range(3)]
             for m in range(8)]
        )
        far = ((pts[i] - corners) ** 2).sum(axis=1).max()
        assert max_d2[i] == pytest.approx(far)
    inside = aabb_contains(lo, hi, pts)
    assert np.all(min_d2[inside] == 0.0)


# ----------------------------------------------------------------------
# pruning is invisible
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", ["noopt", "sched+part", "sched+part+bundle"])
@pytest.mark.parametrize("mode", ["knn", "range", "true_knn"])
def test_pruned_results_bit_identical(mode, variant):
    points = _clustered(500)
    queries = points[:120]
    radius, k = (0.06, 8) if mode != "true_knn" else (None, 6)
    runs = {}
    for prune in (True, False):
        cfg = replace(VARIANTS[variant], leaf_prune=prune)
        runs[prune] = _search(
            RTNNEngine(points, config=cfg), mode, queries, radius, k
        )
    assert _identical(runs[True], runs[False])
    pruned = runs[True].report.extras["prune"]
    unpruned = runs[False].report.extras["prune"]
    assert pruned["enabled"] and not unpruned["enabled"]
    assert unpruned["leaves_pruned"] == 0
    # Clustered clouds guarantee distant leaves to skip.
    assert pruned["leaves_pruned"] > 0


def test_pruning_survives_refits():
    # Leaf MBRs are the shared point-MBR tree's leaf rows; a tree left
    # at frame-0 positions would prune against stale geometry and
    # silently drop neighbors.
    # Jitter steps take the refit path, the teleport step the SAH
    # watchdog's rebuild path.
    points = _clustered(300, seed=9)
    queries = points[:60].copy()
    runs = {}
    for prune in (True, False):
        eng = RTNNEngine(points, config=RTNNConfig(leaf_prune=prune))
        eng.knn_search(queries, k=6, radius=0.08)
        rng = default_rng(21)
        moved = points
        runs[prune] = []
        for step in range(4):
            if step == 2:
                moved = _clustered(300, seed=10)
            else:
                moved = moved + rng.normal(0.0, 0.004, points.shape)
            eng.update_points(moved)
            res = eng.knn_search(queries, k=6, radius=0.08)
            assert (res.report.n_bvh_builds > 0) == (step == 2)
            runs[prune].append(res)
    for pruned, unpruned in zip(runs[True], runs[False]):
        assert _identical(pruned, unpruned)


@pytest.mark.parametrize("mode", ["knn", "range"])
def test_pruned_results_bit_identical_sharded(mode):
    from repro.serve.shard import ShardedEngine

    points = _clustered(400, seed=5)
    queries = points[:100]
    runs = {}
    for prune in (True, False):
        eng = ShardedEngine(
            points, n_shards=4, config=RTNNConfig(leaf_prune=prune)
        )
        runs[prune] = _search(eng, mode, queries, 0.07, 6)
    assert _identical(runs[True], runs[False])


# ----------------------------------------------------------------------
# the budget is honest
# ----------------------------------------------------------------------
def _row_recall(res, exact) -> float:
    rows = len(exact.indices)
    same = sum(
        np.array_equal(res.indices[i], exact.indices[i]) for i in range(rows)
    )
    return same / rows if rows else 1.0


@pytest.mark.parametrize("mode", ["knn", "range"])
def test_budget_monotone_recall_and_honest_bound(mode):
    points = _clustered(500, seed=13)
    queries = points[:120]
    engine = RTNNEngine(points)
    exact = _search(engine, mode, queries, 0.06, 8)
    last = -1.0
    for budget in (2, 6, 20, 10_000):
        res = _search(engine, mode, queries, 0.06, 8, budget=budget)
        bud = res.report.extras["budget"]
        assert bud["step_budget"] == budget
        assert 0.0 <= bud["recall_lower_bound"] <= 1.0
        recall = _row_recall(res, exact)
        # The reported bound must never overpromise, and recall must
        # never degrade as the budget grows.
        assert recall >= bud["recall_lower_bound"] - 1e-12
        assert recall >= last - 1e-12
        # Budgeted answers are subsets: never more neighbors than exact.
        assert res.counts.sum() <= exact.counts.sum()
        last = recall
    # A huge budget never fires: bit-identical to the exact run.
    assert not bud["budget_exhausted"]
    assert bud["exhausted_queries"] == 0
    assert _identical(res, exact)


def test_budget_is_deterministic_and_config_equivalent():
    points = _clustered(400, seed=17)
    queries = points[:80]
    by_call = RTNNEngine(points).knn_search(
        queries, k=6, radius=0.05, budget=5
    )
    again = RTNNEngine(points).knn_search(queries, k=6, radius=0.05, budget=5)
    by_cfg = RTNNEngine(
        points, config=RTNNConfig(step_budget=5)
    ).knn_search(queries, k=6, radius=0.05)
    assert _identical(by_call, again)
    assert _identical(by_call, by_cfg)


def test_budget_exact_mode_untouched_by_default():
    points = _clustered(300, seed=19)
    res = RTNNEngine(points).knn_search(points[:50], k=4, radius=0.05)
    assert "budget" not in res.report.extras


def test_true_knn_rejects_budget_everywhere():
    points = _clustered(200, seed=23)
    engine = RTNNEngine(points, config=RTNNConfig(step_budget=4))
    with pytest.raises(ValueError, match="true_knn"):
        engine.true_knn_search(points[:20], k=4)
    with pytest.raises(ValueError, match="true_knn"):
        RTNNEngine(points).search_fused(
            "true_knn", [points[:20]], radius=0.1, k=4, budget=4
        )
    from repro.serve.shard import ShardedEngine

    with pytest.raises(ValueError, match="true_knn"):
        ShardedEngine(points, n_shards=2).search_fused(
            "true_knn", [points[:20]], radius=0.1, k=4, budget=4
        )


@pytest.mark.parametrize("entry", ["true_knn_search", "search_fused"])
@pytest.mark.parametrize("topology", ["engine", "sharded"])
def test_true_knn_rejects_configured_budget(topology, entry):
    """``config.step_budget`` is refused by every true_knn entry point.

    A budget-truncated bounded round drops neighbors, so running the
    expansion loop under a configured budget would return wrong rows
    with no ``budget`` extras to say so.
    """
    from repro.serve.shard import ShardedEngine

    points = _clustered(400, seed=41)
    cfg = RTNNConfig(step_budget=3)
    if topology == "engine":
        engine = RTNNEngine(points, config=cfg)
    else:
        engine = ShardedEngine(points, n_shards=4, config=cfg)
    with pytest.raises(ValueError, match="true_knn"):
        if entry == "true_knn_search":
            engine.true_knn_search(points[:60], k=8)
        else:
            engine.search_fused("true_knn", [points[:60]], radius=None, k=8)


def test_budget_through_sharded_engine():
    from repro.serve.shard import ShardedEngine

    points = _clustered(400, seed=29)
    queries = points[:100]
    eng = ShardedEngine(points, n_shards=4)
    exact = eng.knn_search(queries, k=6, radius=0.06)
    tight = eng.knn_search(queries, k=6, radius=0.06, budget=3)
    bud = tight.report.extras["budget"]
    assert bud["step_budget"] == 3
    assert 0.0 <= bud["recall_lower_bound"] <= 1.0
    assert tight.counts.sum() <= exact.counts.sum()
    loose = eng.knn_search(queries, k=6, radius=0.06, budget=10_000)
    assert _identical(loose, exact)
    assert not loose.report.extras["budget"]["budget_exhausted"]


# ----------------------------------------------------------------------
# serving front door
# ----------------------------------------------------------------------
def test_budget_isolates_fusion_and_rides_the_batcher():
    from repro.serve.batcher import MicroBatch, execute_batch
    from repro.serve.queue import RequestQueue, SearchRequest

    points = _clustered(300, seed=31)

    def req(rid, budget):
        return SearchRequest(
            rid=rid, kind="knn", queries=points[rid * 10:rid * 10 + 10],
            k=4, radius=0.06, submitted_at=0.0, points_fp="fp",
            budget=budget,
        )

    # Different budgets (and budgeted vs exact) never share a launch.
    q = RequestQueue(max_depth=8)
    for rid, budget in enumerate([3, 3, None, 5]):
        q.offer(req(rid, budget))
    batch, _ = q.pop_batch(now=0.0, max_requests=8, max_queries=1000)
    assert [r.rid for r in batch] == [0, 1]

    # A budgeted batch produces exactly the engine's budgeted answer.
    engine = RTNNEngine(points)
    out = execute_batch(engine, MicroBatch([req(0, 3), req(1, 3)]))
    for rid, res in enumerate(out):
        solo = engine.knn_search(
            points[rid * 10:rid * 10 + 10], k=4, radius=0.06, budget=3
        )
        assert _identical(res, solo)


def test_service_submit_validates_budget():
    import asyncio

    from repro.serve.service import SearchService

    points = _clustered(200, seed=37)

    async def drive():
        async with SearchService(RTNNEngine(points)) as svc:
            with pytest.raises(ValueError, match="true_knn"):
                await svc.submit(
                    "true_knn", points[:10], k=4, radius=0.1, budget=3
                )
            with pytest.raises(ValueError, match="step_budget|budget"):
                await svc.submit(
                    "knn", points[:10], k=4, radius=0.1, budget=0
                )
            ok = await svc.submit(
                "knn", points[:10], k=4, radius=0.1, budget=4
            )
        return ok

    result = asyncio.run(drive())
    solo = RTNNEngine(points).knn_search(
        points[:10], k=4, radius=0.1, budget=4
    )
    assert _identical(result.results, solo)
