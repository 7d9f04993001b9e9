"""``RunReport.combine``: one additive fold for rounds, shards and bundles.

Multi-round true-kNN runs and sharded passes fold many launch reports
into one. The fold must keep what a single report knows, including the
cache statistics: run-level hit rates are the transaction-weighted
means of the constituent launches, and occupancy is their
search-time-weighted mean.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import RTNNEngine
from repro.core.results import RunReport, budget_extras
from repro.gpu.costmodel import IsKind
from repro.metrics.breakdown import Breakdown
from repro.optix.pipeline import Pipeline
from repro.serve import ShardedEngine
from repro.utils.rng import default_rng


@pytest.fixture(scope="module")
def clustered():
    """Dense clusters plus far-out queries: a multi-round true kNN."""
    rng = default_rng(32)
    centers = rng.random((6, 3)) * 0.3
    which = rng.integers(0, 6, 400)
    pts = np.clip(centers[which] + rng.normal(0, 0.005, (400, 3)), 0, 1)
    queries = np.vstack([pts[:20] + 0.001, [[0.95, 0.95, 0.95]]])
    return pts, queries


@pytest.fixture
def launches(monkeypatch):
    """Every search launch (not the first-hit scheduling pre-pass), with
    its modeled occupancy. A pass traced in one loop counts as its
    per-bundle launches."""
    seen = []
    launch = Pipeline.launch

    def spy(self, gas, rays, shader, kind, *args, **kwargs):
        out = launch(self, gas, rays, shader, kind, *args, **kwargs)
        if kind is not IsKind.FIRST_HIT:
            for part in out.launches:
                seen.append((part, self.cost_model.occupancy(part.trace)))
        return out

    monkeypatch.setattr(Pipeline, "launch", spy)
    return seen


def _assert_launch_means(report, seen):
    tx = [out.trace.node_transactions + out.trace.prim_transactions for out, _ in seen]
    search = [out.modeled_time for out, _ in seen]
    assert report.cache_transactions == sum(tx) > 0
    for attr in ("l1_hit_rate", "l2_hit_rate"):
        want = sum(getattr(out, attr) * t for (out, _), t in zip(seen, tx)) / sum(tx)
        assert getattr(report, attr) == pytest.approx(want, rel=1e-12), attr
    want = sum(occ * s for (_, occ), s in zip(seen, search)) / sum(search)
    assert report.sm_occupancy == pytest.approx(want, rel=1e-12)
    assert report.breakdown.search == pytest.approx(sum(search), rel=1e-12)


def test_multi_round_true_knn_keeps_cache_statistics(clustered, launches):
    points, queries = clustered
    engine = RTNNEngine(points)
    res = engine.true_knn_search(queries, k=8)
    assert res.report.extras["true_knn"]["rounds"] > 1
    assert len(launches) > res.report.extras["true_knn"]["rounds"]
    _assert_launch_means(res.report, launches)
    # a size, not a flow: the engine's cache after the last round
    assert res.report.extras["gas_cache"]["entries"] == len(engine.gas_cache)


def test_sharded_fused_pass_keeps_cache_statistics(clustered, launches):
    points, queries = clustered
    sh = ShardedEngine(points, n_shards=4)
    groups = [queries[:11], queries[11:]]
    res = sh.search_fused("knn", groups, radius=0.1, k=8)
    assert res[0].report.extras["shard"]["sub_launches"] > 1
    _assert_launch_means(res[0].report, launches)


def test_sharded_true_knn_keeps_cache_statistics(clustered, launches):
    points, queries = clustered
    res = ShardedEngine(points, n_shards=4).true_knn_search(queries, k=8)
    assert res.report.extras["true_knn"]["rounds"] > 1
    _assert_launch_means(res.report, launches)


def test_single_round_report_is_the_round_report(monkeypatch):
    """A one-round true kNN reports exactly what its one bounded pass
    reported (plus its ``true_knn`` trace)."""
    rng = default_rng(5)
    points = rng.random((300, 3))
    engine = RTNNEngine(points)
    rounds = []
    run_groups = RTNNEngine._run_groups

    def spy(self, *args, **kwargs):
        out = run_groups(self, *args, **kwargs)
        rounds.append(out[0].report)
        return out

    monkeypatch.setattr(RTNNEngine, "_run_groups", spy)
    rep = engine.true_knn_search(points[:40], k=4, radius=0.5).report
    assert rep.extras["true_knn"]["rounds"] == 1
    (only,) = rounds
    assert rep is not only
    for name in RunReport.__dataclass_fields__:
        if name != "extras":
            assert getattr(rep, name) == getattr(only, name), name
    assert {k: v for k, v in rep.extras.items() if k != "true_knn"} == only.extras


def test_combine_sums_counts_and_weights_rates():
    a = RunReport(
        breakdown=Breakdown(bvh=1.0, search=3.0),
        is_calls=5, traversal_steps=7, n_partitions=2, n_bundles=2,
        n_bvh_builds=1, l1_hit_rate=0.5, l2_hit_rate=0.25,
        cache_transactions=100, sm_occupancy=0.4, device="dev",
        extras={
            "launch_costs": [1.0, 2.0],
            "gas_cache": {"hits": 1, "misses": 1, "entries": 3},
            "prune": {"enabled": True, "leaves_pruned": 4,
                      "leaves_bulk_accepted": 1},
            "budget": budget_extras(12, 1, 10),
        },
    )
    b = RunReport(
        breakdown=Breakdown(search=1.0), is_calls=1, traversal_steps=1,
        l1_hit_rate=1.0, l2_hit_rate=1.0, cache_transactions=300,
        sm_occupancy=0.8, device="dev",
        extras={
            "launch_costs": [0.5],
            "gas_cache": {"hits": 2, "misses": 0, "entries": 4},
            "budget": budget_extras(12, 3, 30),
        },
    )
    c = RunReport.combine([a, b])
    assert c.breakdown == Breakdown(bvh=1.0, search=4.0)
    assert (c.is_calls, c.traversal_steps) == (6, 8)
    assert (c.n_partitions, c.n_bundles, c.n_bvh_builds) == (3, 3, 2)
    assert c.cache_transactions == 400
    assert c.l1_hit_rate == pytest.approx((0.5 * 100 + 300) / 400)
    assert c.l2_hit_rate == pytest.approx((0.25 * 100 + 300) / 400)
    assert c.sm_occupancy == pytest.approx((0.4 * 3 + 0.8 * 1) / 4)
    assert c.extras["launch_costs"] == [1.0, 2.0, 0.5]
    assert c.extras["gas_cache"] == {"hits": 3, "misses": 1, "entries": 7}
    assert c.extras["prune"] == {
        "enabled": True, "leaves_pruned": 4, "leaves_bulk_accepted": 1,
    }
    assert c.extras["budget"] == budget_extras(12, 4, 40)
    # successive rounds of one engine: entries is the latest round's
    rounds = RunReport.combine([a, b], rounds=True)
    assert rounds.extras["gas_cache"]["entries"] == 4
    # no cache simulation anywhere: the rates stay unknown
    bare = RunReport.combine([RunReport(breakdown=Breakdown())] * 2)
    assert bare.l1_hit_rate is None and bare.sm_occupancy is None


def test_combine_of_nothing_is_an_empty_report():
    rep = RunReport.combine([])
    assert rep.modeled_time == 0.0
    assert (rep.n_partitions, rep.n_bundles, rep.n_bvh_builds) == (0, 0, 0)
    assert rep.extras["gas_cache"] == {"hits": 0, "misses": 0, "entries": 0}
    assert "budget" not in rep.extras
