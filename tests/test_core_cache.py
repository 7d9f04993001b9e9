"""The persistent GAS cache: unit behavior, engine integration, and
the warm-path bit-identity guarantee."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.cache import (
    DEFAULT_CAPACITY,
    GASCache,
    GASKey,
    fingerprint_array,
    quantize_half_width,
)
from repro.core.engine import RTNNEngine, VARIANTS
from repro.optix.gas import REBUILD_SAH_FACTOR, REFIT_COST_FRACTION


def _key(i: int) -> GASKey:
    return GASKey(points_fp="p", width_bits=i, leaf_size=4, order_fp="o")


# ----------------------------------------------------------------------
# unit: fingerprint / quantization
# ----------------------------------------------------------------------
def test_fingerprint_is_content_addressed():
    a = np.arange(12, dtype=np.float64).reshape(4, 3)
    b = a.copy()
    assert fingerprint_array(a) == fingerprint_array(b)
    b[0, 0] += 1.0
    assert fingerprint_array(a) != fingerprint_array(b)
    # dtype and shape are part of the content
    assert fingerprint_array(a) != fingerprint_array(a.astype(np.float32))
    assert fingerprint_array(a) != fingerprint_array(a.reshape(3, 4))


def test_quantize_merges_ulp_neighbors_but_not_distinct_widths():
    w = 0.1  # bit pattern ends ...1010, far from a 256-float boundary
    up = np.nextafter(w, np.inf)
    down = np.nextafter(w, -np.inf)
    assert quantize_half_width(w) == quantize_half_width(up)
    assert quantize_half_width(w) == quantize_half_width(down)
    # genuinely different widths stay apart
    assert quantize_half_width(0.1) != quantize_half_width(0.1001)
    assert quantize_half_width(0.1) != quantize_half_width(0.2)


# ----------------------------------------------------------------------
# unit: LRU cache
# ----------------------------------------------------------------------
def test_cache_hit_miss_and_stats():
    cache = GASCache(capacity=4)
    assert cache.lookup(_key(1)) is None
    cache.insert(_key(1), "gas1")
    assert cache.lookup(_key(1)) == "gas1"
    assert _key(1) in cache and len(cache) == 1
    assert cache.stats.as_dict() == {"hits": 1, "misses": 1, "evictions": 0}


def test_cache_evicts_least_recently_used():
    cache = GASCache(capacity=2)
    cache.insert(_key(1), "a")
    cache.insert(_key(2), "b")
    cache.lookup(_key(1))  # refresh 1; 2 is now LRU
    cache.insert(_key(3), "c")
    assert _key(2) not in cache
    assert _key(1) in cache and _key(3) in cache
    assert cache.stats.evictions == 1


def test_cache_capacity_validated():
    with pytest.raises(ValueError):
        GASCache(capacity=0)
    assert GASCache().capacity == DEFAULT_CAPACITY


def test_cache_consistent_under_concurrent_hammer():
    """Many threads racing lookup/insert/len must never corrupt the
    cache: the capacity bound holds at every observation, stats add up,
    and no operation raises (the serve worker thread and direct engine
    callers share one cache)."""
    cache = GASCache(capacity=8)
    n_threads, n_ops = 8, 400
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_threads)

    def hammer(wid: int) -> None:
        try:
            barrier.wait()
            for i in range(n_ops):
                key = _key((wid * 13 + i) % 24)
                if cache.lookup(key) is None:
                    cache.insert(key, f"gas-{wid}-{i}")
                assert len(cache) <= 8
                if i % 50 == 49:
                    cache.lookup(_key(i % 24))
        except BaseException as exc:  # surfaced below; threads can't fail a test
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(w,)) for w in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(cache) <= 8
    total_lookups = n_threads * (n_ops + n_ops // 50)
    assert cache.stats.hits + cache.stats.misses == total_lookups
    assert cache.stats.misses >= 24  # every distinct key missed at least once


def test_take_all_and_clear_keep_stats():
    cache = GASCache()
    cache.insert(_key(1), "a")
    cache.insert(_key(2), "b")
    taken = cache.take_all()
    assert [k.width_bits for k, _ in taken] == [1, 2]
    assert len(cache) == 0
    cache.insert(_key(3), "c")
    cache.lookup(_key(3))
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.hits == 1  # cumulative across clear


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_cloud():
    rng = np.random.default_rng(42)
    return rng.random((600, 3)), rng.random((80, 3))


def test_second_search_skips_every_build(small_cloud):
    points, queries = small_cloud
    engine = RTNNEngine(points)
    cold = engine.knn_search(queries, k=4, radius=0.1)
    warm = engine.knn_search(queries, k=4, radius=0.1)
    assert cold.report.n_bvh_builds > 0
    assert cold.report.extras["gas_cache"]["hits"] == 0
    assert warm.report.n_bvh_builds == 0
    assert warm.report.extras["gas_cache"]["hits"] > 0
    assert warm.report.breakdown.bvh == 0.0
    assert cold.report.breakdown.bvh > 0.0


def test_widths_within_one_ulp_share_one_build(small_cloud):
    points, queries = small_cloud
    engine = RTNNEngine(points)
    r = 0.1  # half-width 0.1 sits away from a quantization boundary
    engine.range_search(queries, radius=r, k=8)
    builds_before = engine.gas_cache.stats.misses
    res = engine.range_search(queries, radius=np.nextafter(r, np.inf), k=8)
    # the 1-ULP perturbed radius resolves to the cached entry
    assert engine.gas_cache.stats.misses == builds_before
    assert res.report.n_bvh_builds == 0
    assert res.report.extras["gas_cache"]["hits"] > 0


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("kind", ["knn", "range"])
def test_warm_search_bit_identical_to_cold_engine(small_cloud, kind, variant):
    """The cache must be invisible to results and counters: a warm
    second search equals a fresh engine's cold search, bit for bit."""
    points, queries = small_cloud
    held = RTNNEngine(points, config=VARIANTS[variant])
    fresh = RTNNEngine(points, config=VARIANTS[variant])
    if kind == "knn":
        held.knn_search(queries, k=5, radius=0.12)
        warm = held.knn_search(queries, k=5, radius=0.12)
        cold = fresh.knn_search(queries, k=5, radius=0.12)
    else:
        held.range_search(queries, radius=0.12, k=16)
        warm = held.range_search(queries, radius=0.12, k=16)
        cold = fresh.range_search(queries, radius=0.12, k=16)
    assert (warm.indices == cold.indices).all()
    assert (warm.counts == cold.counts).all()
    assert (warm.sq_distances[warm.indices >= 0]
            == cold.sq_distances[cold.indices >= 0]).all()
    assert warm.report.is_calls == cold.report.is_calls
    assert warm.report.traversal_steps == cold.report.traversal_steps
    assert warm.report.n_partitions == cold.report.n_partitions
    assert warm.report.n_bundles == cold.report.n_bundles


def test_update_points_same_shape_refits_cache(small_cloud):
    from repro.baselines import brute_force_knn

    points, queries = small_cloud
    engine = RTNNEngine(points)
    engine.knn_search(queries, k=4, radius=0.1)
    entries = len(engine.gas_cache)
    moved = points + 0.001
    refit_time = engine.update_points(moved)
    assert refit_time > 0.0
    assert len(engine.gas_cache) == entries  # warm, re-keyed
    res = engine.knn_search(queries, k=4, radius=0.1)
    # refit cost lands in the next run's bvh slot; no full rebuilds
    assert res.report.breakdown.bvh == pytest.approx(refit_time)
    assert res.report.n_bvh_builds == 0
    # refit bounds are exact: results still match the oracle
    ref = brute_force_knn(moved, queries, k=4, radius=0.1)
    assert (res.counts == ref.counts).all()


def test_update_points_new_shape_invalidates(small_cloud):
    points, queries = small_cloud
    engine = RTNNEngine(points)
    engine.knn_search(queries, k=4, radius=0.1)
    assert len(engine.gas_cache) > 0
    assert engine.update_points(points[:-10]) == 0.0
    assert len(engine.gas_cache) == 0
    res = engine.knn_search(queries, k=4, radius=0.1)
    assert res.report.n_bvh_builds > 0


def _cached_gases(engine):
    return list(engine.gas_cache._entries.values())


def _assert_rows_match_brute(res, points, queries, k, radius):
    from repro.baselines import brute_force_knn

    ref = brute_force_knn(points, queries, k=k, radius=radius)
    assert np.array_equal(res.indices, ref.indices)
    assert np.array_equal(res.counts, ref.counts)
    valid = res.indices >= 0
    np.testing.assert_allclose(
        res.sq_distances[valid], ref.sq_distances[valid],
        rtol=1e-9, atol=1e-12,
    )


def test_search_exact_after_refits(small_cloud):
    points, queries = small_cloud
    rng = np.random.default_rng(5)
    engine = RTNNEngine(points)
    engine.knn_search(queries, k=5, radius=0.12)
    pts = points
    for _ in range(4):
        pts = np.clip(pts + rng.normal(0, 0.01, pts.shape), 0, 1)
        assert engine.update_points(pts) > 0.0
        res = engine.knn_search(queries, k=5, radius=0.12)
        # drift too small to degrade quality: refit only, no rebuild
        assert res.report.n_bvh_builds == 0
        _assert_rows_match_brute(res, pts, queries, 5, 0.12)


def test_refit_cheaper_than_rebuild(small_cloud):
    points, queries = small_cloud
    engine = RTNNEngine(points)
    cold = engine.knn_search(queries, k=4, radius=0.1)
    refit_time = engine.update_points(points + 0.001)
    assert 0.0 < refit_time < cold.report.breakdown.bvh
    assert refit_time == pytest.approx(
        REFIT_COST_FRACTION * cold.report.breakdown.bvh
    )


@pytest.mark.parametrize("move", ["teleport", "shrink"])
@pytest.mark.parametrize("kind", ["knn", "range"])
def test_rebuild_on_quality_degradation(small_cloud, kind, move):
    """A refit that decays the SAH past REBUILD_SAH_FACTOR x its build
    SAH drops the cache and the Morton order; the next search rebuilds
    lazily and is bit-identical to a cold engine on the moved points."""
    from repro.geometry.morton import morton_order

    points, queries = small_cloud
    if move == "teleport":
        moved = np.random.default_rng(9).random(points.shape)
    else:
        moved = 0.25 * points

    def search(engine):
        if kind == "knn":
            return engine.knn_search(queries, k=5, radius=0.1)
        return engine.range_search(queries, radius=0.1, k=16)

    engine = RTNNEngine(points)
    search(engine)
    old_order_fp = engine._order_fp
    refit_time = engine.update_points(moved)
    assert refit_time > 0.0  # the refit already done is still charged
    assert len(engine.gas_cache) == 0
    assert engine._order_fp == fingerprint_array(morton_order(moved))
    if move == "teleport":  # a uniform shrink keeps the Morton order
        assert engine._order_fp != old_order_fp

    warm = search(engine)
    cold = search(RTNNEngine(moved))
    assert warm.report.n_bvh_builds == cold.report.n_bvh_builds > 0
    assert warm.report.breakdown.bvh == pytest.approx(
        refit_time + cold.report.breakdown.bvh
    )
    assert np.array_equal(warm.indices, cold.indices)
    assert np.array_equal(warm.counts, cold.counts)
    assert np.array_equal(warm.sq_distances, cold.sq_distances)
    assert warm.report.is_calls == cold.report.is_calls
    assert warm.report.traversal_steps == cold.report.traversal_steps


def test_long_walk_keeps_sah_bounded():
    """Small jitters refit, teleports and shrinks decay the tree: after
    every update each cached GAS stays within REBUILD_SAH_FACTOR of the
    SAH it was built with, and every search matches the oracle."""
    from repro.api import SearchSession
    from repro.bvh import tree_stats

    rng = np.random.default_rng(17)
    pts = rng.random((500, 3))
    session = SearchSession(pts)
    built = {}  # id(gas) -> (gas, SAH as built); holds gas alive
    for step in range(16):
        if step % 5 == 3:
            pts = rng.random(pts.shape)
        elif step % 5 == 4:
            pts = 0.25 * pts
        else:
            pts = np.clip(pts + rng.normal(0.0, 0.01, pts.shape), 0, 1)
        session.update_points(pts)
        for gas in _cached_gases(session.engine):
            sah = tree_stats(gas.bvh).sah_cost
            assert sah <= REBUILD_SAH_FACTOR * built[id(gas)][1]
        queries = pts[::9]
        res = session.knn_search(queries, k=5, radius=0.1)
        _assert_rows_match_brute(res, pts, queries, 5, 0.1)
        for gas in _cached_gases(session.engine):
            built.setdefault(id(gas), (gas, tree_stats(gas.bvh).sah_cost))


def test_with_config_starts_cold(small_cloud):
    points, queries = small_cloud
    engine = RTNNEngine(points, cache_capacity=7)
    engine.knn_search(queries, k=4, radius=0.1)
    other = engine.with_config(schedule=False)
    assert other.gas_cache.capacity == 7
    assert len(other.gas_cache) == 0
    assert other.knn_search(queries, k=4, radius=0.1).report.n_bvh_builds > 0


def test_equal_point_sets_share_keys(small_cloud):
    """Content addressing: equal arrays in different engines produce
    the same GAS keys."""
    points, _ = small_cloud
    a = RTNNEngine(points)
    b = RTNNEngine(points.copy())
    assert a._gas_key(0.05) == b._gas_key(0.05)


def test_cold_run_emits_no_cache_span(small_cloud):
    """Pre-cache trace baselines must stay byte-identical: the
    gas_cache span only appears once there is a hit to report."""
    from repro.obs import RecordingTracer

    points, queries = small_cloud
    tracer = RecordingTracer()
    engine = RTNNEngine(points, tracer=tracer)
    engine.knn_search(queries, k=4, radius=0.1)
    assert tracer.find("gas_cache") == []
    engine.knn_search(queries, k=4, radius=0.1)
    spans = tracer.find("gas_cache")
    assert len(spans) == 1
    assert spans[0].counters["gas_cache_hits"] > 0
    assert spans[0].counters["gas_cache_misses"] == 0
