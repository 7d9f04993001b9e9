"""End-to-end engine correctness against the brute-force oracle,
across all optimization variants and both search types."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.baselines import brute_force_knn, brute_force_range
from repro.core.engine import RTNNConfig, RTNNEngine, VARIANTS
from repro.gpu.device import RTX_2080TI


def _assert_knn_equal(res, ref):
    for i in range(res.n_queries):
        got = set(res.indices[i][: res.counts[i]].tolist())
        want = set(ref.indices[i][: ref.counts[i]].tolist())
        if got != want:
            # ties at the k-th distance make sets legitimately differ;
            # require equal counts and equal distance multisets instead
            assert res.counts[i] == ref.counts[i]
            np.testing.assert_allclose(
                np.sort(res.sq_distances[i][: res.counts[i]]),
                np.sort(ref.sq_distances[i][: ref.counts[i]]),
                rtol=1e-9,
            )


def _assert_range_valid(res, ref, points, queries, radius, k):
    r2 = radius * radius * (1 + 1e-12)
    for i in range(res.n_queries):
        got = res.indices[i][: res.counts[i]]
        # all returned neighbors are true neighbors
        d2 = ((points[got] - queries[i]) ** 2).sum(axis=1)
        assert (d2 <= r2).all()
        # counts are correct: min(true_count, k)
        assert res.counts[i] == min(ref.counts[i], k)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_knn_matches_oracle_all_variants(cube_points, cube_queries, variant):
    k, r = 6, 0.12
    cfg = VARIANTS[variant]
    engine = RTNNEngine(cube_points, config=cfg)
    res = engine.knn_search(cube_queries, k=k, radius=r)
    ref = brute_force_knn(cube_points, cube_queries, k=k, radius=r)
    _assert_knn_equal(res, ref)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_range_matches_oracle_all_variants(cube_points, cube_queries, variant):
    k, r = 2000, 0.12
    engine = RTNNEngine(cube_points, config=VARIANTS[variant])
    res = engine.range_search(cube_queries, radius=r, k=k)
    ref = brute_force_range(cube_points, cube_queries, radius=r, k=k)
    for i in range(res.n_queries):
        got = set(res.indices[i][: res.counts[i]].tolist())
        want = set(ref.indices[i][: ref.counts[i]].tolist())
        assert got == want


def test_knn_equiv_volume_heuristic_recall(cube_points, cube_queries):
    """The paper's heuristic is 'sufficient for correctness' on its
    datasets; on uniform data it should recover essentially everything."""
    k, r = 6, 0.12
    engine = RTNNEngine(cube_points, config=RTNNConfig(knn_aabb="equiv_volume"))
    res = engine.knn_search(cube_queries, k=k, radius=r)
    ref = brute_force_knn(cube_points, cube_queries, k=k, radius=r)
    got = sum(res.counts)
    recovered = 0
    for i in range(res.n_queries):
        recovered += len(
            set(res.indices[i][: res.counts[i]].tolist())
            & set(ref.indices[i][: ref.counts[i]].tolist())
        )
    assert recovered / max(sum(ref.counts), 1) >= 0.98
    assert got <= sum(ref.counts)


def test_clustered_points(clustered_points):
    """Partitioning and bundling must stay exact on clustered data."""
    q = clustered_points[::3]
    k, r = 5, 0.08
    engine = RTNNEngine(clustered_points)
    res = engine.knn_search(q, k=k, radius=r)
    ref = brute_force_knn(clustered_points, q, k=k, radius=r)
    _assert_knn_equal(res, ref)


def test_bounded_range_subset(cube_points, cube_queries):
    """With small k, returned neighbors are a k-subset of true ones."""
    r, k = 0.15, 3
    engine = RTNNEngine(cube_points)
    res = engine.range_search(cube_queries, radius=r, k=k)
    ref = brute_force_range(cube_points, cube_queries, radius=r, k=10**6 // 100)
    _assert_range_valid(res, ref, cube_points, cube_queries, r, k)


def test_queries_outside_cloud(cube_points):
    far = np.full((10, 3), 7.0)
    engine = RTNNEngine(cube_points)
    res = engine.knn_search(far, k=4, radius=0.1)
    assert (res.counts == 0).all()
    assert (res.indices == -1).all()


def test_empty_queries(cube_points):
    engine = RTNNEngine(cube_points)
    res = engine.range_search(np.zeros((0, 3)), radius=0.1, k=4)
    assert res.n_queries == 0
    assert res.report.modeled_time > 0  # transfer of the points still counted


def test_empty_queries_report_shape_matches_nonempty(cube_points):
    """The n_q == 0 path goes through the same report tail as every
    other run, so the serialized structure is identical."""
    from repro.metrics.breakdown import Breakdown

    engine = RTNNEngine(cube_points)
    empty = engine.range_search(np.zeros((0, 3)), radius=0.1, k=4).report
    full = engine.range_search(cube_points[:10], radius=0.1, k=4).report
    assert set(empty.extras) == set(full.extras)
    assert set(empty.extras["gas_cache"]) == set(full.extras["gas_cache"])
    # nothing is partitioned, bundled, or built for zero queries
    assert empty.n_partitions == 0
    assert empty.n_bundles == 0
    assert empty.n_bvh_builds == 0
    assert empty.is_calls == 0
    # the breakdown round-trips through its dict form exactly
    rt = Breakdown.from_dict(empty.breakdown.as_dict())
    assert rt.as_dict() == empty.breakdown.as_dict()


def test_report_structure(cube_points, cube_queries):
    engine = RTNNEngine(cube_points)
    res = engine.knn_search(cube_queries, k=4, radius=0.1)
    rep = res.report
    assert rep.breakdown.total > 0
    assert rep.is_calls > 0
    assert rep.n_bundles >= 1
    assert rep.device == "RTX 2080"
    assert set(rep.breakdown.fractions()) == {"data", "opt", "bvh", "fs", "search"}
    assert abs(sum(rep.breakdown.fractions().values()) - 1.0) < 1e-9


def test_devices_scale_modeled_time(cube_points, cube_queries):
    slow = RTNNEngine(cube_points).knn_search(cube_queries, k=4, radius=0.1)
    fast = RTNNEngine(cube_points, device=RTX_2080TI).knn_search(
        cube_queries, k=4, radius=0.1
    )
    # functional results identical
    assert (slow.indices == fast.indices).all()
    # the bigger board is modeled faster
    assert fast.report.modeled_time < slow.report.modeled_time


def test_with_config(cube_points):
    engine = RTNNEngine(cube_points)
    other = engine.with_config(schedule=False)
    assert engine.config.schedule and not other.config.schedule
    assert other.points is not None


def test_removed_parallel_bundles_field_rejected(cube_points):
    """Launches run serially on the calling thread; a config that still
    names the old ``parallel_bundles`` fan-out knob fails loudly on every
    construction path instead of being silently ignored. The same holds
    for the removed kernel ``backend`` selector: the NumPy kernels are
    called directly."""
    names = {f.name for f in fields(RTNNConfig)}
    assert "parallel_bundles" not in names and "backend" not in names
    assert len(names) == 13
    engine = RTNNEngine(cube_points)
    for stale in ({"parallel_bundles": 4}, {"backend": "numba"}):
        with pytest.raises(TypeError):
            RTNNConfig(**stale)
        with pytest.raises(TypeError):
            replace(VARIANTS["sched+part"], **stale)
        with pytest.raises(ValueError, match="unknown config field"):
            engine.with_config(**stale)


def test_input_validation(cube_points):
    engine = RTNNEngine(cube_points)
    with pytest.raises(ValueError):
        engine.knn_search(cube_points[:5], k=0, radius=0.1)
    with pytest.raises(ValueError):
        engine.knn_search(cube_points[:5], k=4, radius=-1.0)
    with pytest.raises(ValueError):
        engine.range_search(np.zeros((5, 2)), radius=0.1, k=4)
    with pytest.raises(ValueError):
        RTNNEngine(np.full((5, 3), np.nan))


def test_approx_elide_sphere_test_bound(cube_points, cube_queries):
    """§8: without the sphere test every neighbor is within sqrt(3)r."""
    r = 0.1
    engine = RTNNEngine(
        cube_points, config=RTNNConfig(approx_elide_sphere_test=True)
    )
    res = engine.range_search(cube_queries, radius=r, k=500)
    valid = res.sq_distances[res.indices >= 0]
    assert (valid <= 3 * r * r * (1 + 1e-9)).all()


def test_approx_shrunk_aabb_trades_recall(cube_points, cube_queries):
    k, r = 6, 0.12
    ref = brute_force_knn(cube_points, cube_queries, k=k, radius=r)
    res = RTNNEngine(
        cube_points, config=RTNNConfig(aabb_shrink=0.5)
    ).knn_search(cube_queries, k=k, radius=r)
    # still valid neighbors, possibly fewer
    assert (res.counts <= ref.counts).all()
    valid = res.sq_distances[res.indices >= 0]
    assert (valid <= r * r * (1 + 1e-9)).all()


def test_negative_and_offset_coordinates(rng):
    """Scenes far from the origin / spanning negative coordinates."""
    pts = rng.random((800, 3)) * 4.0 - 100.0  # [-100, -96)^3
    q = pts[:100] + rng.normal(0, 0.02, (100, 3))
    res = RTNNEngine(pts).knn_search(q, k=4, radius=0.3)
    ref = brute_force_knn(pts, q, k=4, radius=0.3)
    assert (res.counts == ref.counts).all()
    np.testing.assert_allclose(
        np.where(np.isinf(res.sq_distances), -1, res.sq_distances),
        np.where(np.isinf(ref.sq_distances), -1, ref.sq_distances),
        rtol=1e-9, atol=1e-9,
    )


def test_anisotropic_scene(rng):
    """Thin-slab scenes (like LiDAR) exercise anisotropic grids."""
    pts = rng.random((800, 3)) * np.array([50.0, 50.0, 0.5])
    res = RTNNEngine(pts).range_search(pts[:100], radius=2.0, k=500)
    ref = brute_force_range(pts, pts[:100], radius=2.0, k=500)
    assert (res.counts == ref.counts).all()
