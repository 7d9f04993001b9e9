"""Unbounded exact kNN: the adaptive radius-expansion loop.

The contract under test is the one the ``true_knn`` cells of the
``repro.verify`` matrix and the ``*-tknn`` bench families enforce:
``true_knn_search`` returns the *exact* k nearest neighbors of every
query — bit-identical to the brute-force oracle — regardless of engine
variant or sharded topology, re-launching only still-unsatisfied
queries each round, on a radius schedule that is a pure function of
(points, k, policy).

On clouds in generic position (random float64) identity is raw bitwise
equality of indices, counts and squared distances. At exact distance
ties crossing the k boundary the bounded engine keeps a
traversal-order tie subset while the oracle keeps the lowest indices,
so tie-heavy clouds (duplicates) compare counts + squared distances
bitwise and validate indices by recomputing each returned distance.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import hypothesis.extra.numpy as hnp

from repro.api import SearchSession, true_knn_search
from repro.baselines.brute import brute_force_true_knn
from repro.core.engine import RTNNConfig, RTNNEngine, VARIANTS
from repro.core.expansion import (
    DEFAULT_POLICY,
    ExpansionPolicy,
    cover_radius,
    seed_radius,
)
from repro.obs.tracer import RecordingTracer
from repro.serve import ShardedEngine
from repro.utils.rng import default_rng

K = 8


@pytest.fixture(scope="module")
def uniform():
    rng = default_rng(31)
    return rng.random((500, 3)), rng.random((60, 3))


@pytest.fixture(scope="module")
def clustered():
    """Dense clusters plus far-out queries: forces multi-round runs
    (cluster queries satisfy early, far queries keep expanding)."""
    rng = default_rng(32)
    centers = rng.random((6, 3)) * 0.3
    which = rng.integers(0, 6, 400)
    pts = np.clip(centers[which] + rng.normal(0, 0.005, (400, 3)), 0, 1)
    queries = np.vstack([pts[:20] + 0.001, [[0.95, 0.95, 0.95]]])
    return pts, queries


def _assert_identical(a, b, msg=""):
    assert np.array_equal(a.indices, b.indices), f"{msg}: indices"
    assert np.array_equal(a.counts, b.counts), f"{msg}: counts"
    assert np.array_equal(a.sq_distances, b.sq_distances), f"{msg}: distances"


def _shader_d2(points, q, idx):
    """Squared distances recomputed with the shader's arithmetic."""
    diff = points[idx] - q[None, :]
    return np.einsum("nd,nd->n", diff, diff)


# ----------------------------------------------------------------------
# the acceptance identity matrix: clouds x variants x topologies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cloud", ["uniform", "clustered"])
@pytest.mark.parametrize("cfg_name", ["full", "noopt"])
@pytest.mark.parametrize("n_shards", [1, 4])
def test_matches_brute_oracle(cloud, cfg_name, n_shards, request):
    points, queries = request.getfixturevalue(cloud)
    cfg = None if cfg_name == "full" else VARIANTS["noopt"]
    engine = (
        RTNNEngine(points, config=cfg)
        if n_shards == 1
        else ShardedEngine(points, n_shards=n_shards, config=cfg)
    )
    res = engine.true_knn_search(queries, k=K)
    oracle = brute_force_true_knn(points, queries, k=K)
    _assert_identical(res, oracle, f"{cloud}/{cfg_name}/sh{n_shards}")
    tk = res.report.extras["true_knn"]
    assert tk["converged"]
    assert (res.counts == K).all()


def test_sharded_walks_the_solo_radius_schedule(clustered):
    points, queries = clustered
    solo = RTNNEngine(points).true_knn_search(queries, k=K)
    sharded = ShardedEngine(points, n_shards=4).true_knn_search(queries, k=K)
    a = solo.report.extras["true_knn"]
    b = sharded.report.extras["true_knn"]
    assert a["seed_radius"] == b["seed_radius"]
    assert a["round_radii"] == b["round_radii"]
    assert a["relaunched"] == b["relaunched"]
    assert a["satisfied"] == b["satisfied"]
    _assert_identical(solo, sharded, "sharded vs solo")


# ----------------------------------------------------------------------
# convergence telemetry: only unsatisfied queries re-launch
# ----------------------------------------------------------------------
def test_only_unsatisfied_queries_relaunch(clustered):
    points, queries = clustered
    res = RTNNEngine(points).true_knn_search(queries, k=K)
    tk = res.report.extras["true_knn"]
    assert tk["rounds"] >= 2, "fixture must force a multi-round run"
    assert tk["relaunched"][0] == len(queries)
    for j in range(1, tk["rounds"]):
        # Round j re-launches exactly the queries round j-1 left short.
        assert tk["relaunched"][j] == (
            tk["relaunched"][j - 1] - tk["satisfied"][j - 1]
        )
        assert tk["relaunched"][j] <= tk["relaunched"][j - 1]
    # The fixture's cluster queries satisfy round 0; only the far
    # query keeps expanding.
    assert tk["relaunched"][1] < tk["relaunched"][0]
    assert sum(tk["satisfied"]) == len(queries)
    assert tk["converged"]
    # The schedule is the pure geometric series off the seed.
    for j, r in enumerate(tk["round_radii"]):
        assert r == tk["seed_radius"] * tk["growth"] ** j
    fractions = tk["relaunched_fraction"]
    assert fractions[0] == 1.0
    assert all(b <= a for a, b in zip(fractions, fractions[1:]))


def test_tracer_records_round_spans_and_counters(clustered):
    points, queries = clustered
    tracer = RecordingTracer()
    res = RTNNEngine(points, tracer=tracer).true_knn_search(queries, k=K)
    tk = res.report.extras["true_knn"]
    names = [s.name for root in tracer.spans for s in root.walk()]
    for j in range(tk["rounds"]):
        assert f"true_knn.round[{j}]" in names
    rounds = [
        s
        for root in tracer.spans
        for s in root.walk()
        if s.name.startswith("true_knn.round[")
    ]
    assert all(s.phase == "expand" for s in rounds)
    totals = tracer.total_counters()
    assert totals["true_knn_rounds"] == tk["rounds"]
    assert totals["relaunched_queries"] == sum(tk["relaunched"])
    assert totals["satisfied_queries"] == sum(tk["satisfied"])


# ----------------------------------------------------------------------
# fusion: groups, dtypes, the service path
# ----------------------------------------------------------------------
def test_fused_groups_match_solo(uniform):
    points, queries = uniform
    engine = RTNNEngine(points)
    g1, g2 = queries[:25], queries[25:]
    fused = engine.search_fused("true_knn", [g1, g2], radius=None, k=K)
    assert len(fused) == 2
    solo1 = RTNNEngine(points).true_knn_search(g1, k=K)
    solo2 = RTNNEngine(points).true_knn_search(g2, k=K)
    _assert_identical(fused[0], solo1, "group 0")
    _assert_identical(fused[1], solo2, "group 1")
    # Solo schedules are prefixes of the fused batch's schedule.
    tk = fused[0].report.extras["true_knn"]
    for solo in (solo1, solo2):
        stk = solo.report.extras["true_knn"]
        assert tk["round_radii"][: stk["rounds"]] == stk["round_radii"]


def test_fused_mixed_dtype_is_normalized_not_upcast_mid_pass(uniform):
    # Satellite: a float32 group fused with a float64 group must give
    # each group the same bits as a solo float64 call — queries are
    # normalized up front, never silently upcast inside the pass.
    points, queries = uniform
    g32 = queries[:20].astype(np.float32)
    g64 = queries[20:]
    fused = RTNNEngine(points).search_fused(
        "true_knn", [g32, g64], radius=None, k=K
    )
    solo32 = RTNNEngine(points).true_knn_search(
        np.asarray(g32, dtype=np.float64), k=K
    )
    solo64 = RTNNEngine(points).true_knn_search(g64, k=K)
    _assert_identical(fused[0], solo32, "float32 group")
    _assert_identical(fused[1], solo64, "float64 group")
    # Same contract through the bounded kinds.
    bounded = RTNNEngine(points).search_fused("knn", [g32, g64], 0.2, K)
    _assert_identical(
        bounded[0],
        RTNNEngine(points).knn_search(
            np.asarray(g32, dtype=np.float64), k=K, radius=0.2
        ),
        "bounded float32 group",
    )


def test_service_seeds_radius_so_equal_k_requests_fuse(uniform):
    points, queries = uniform
    session = SearchSession(points)
    g32 = queries[:20].astype(np.float32)
    g64 = queries[20:]

    async def drive():
        async with session.serve() as svc:
            return await asyncio.gather(
                svc.submit("true_knn", g32, k=K),
                svc.submit("true_knn", g64, k=K),
            )

    a, b = asyncio.run(drive())
    # radius=None resolved to the engine's seed up front -> concrete,
    # equal compat keys -> one fused launch.
    assert a.batch_occupancy == 2 and b.batch_occupancy == 2
    solo = RTNNEngine(points)
    _assert_identical(
        a, solo.true_knn_search(np.asarray(g32, dtype=np.float64), k=K),
        "served float32",
    )
    _assert_identical(b, solo.true_knn_search(g64, k=K), "served float64")


def test_service_rejects_missing_radius_for_bounded_kinds(uniform):
    points, queries = uniform
    session = SearchSession(points)

    async def drive():
        async with session.serve() as svc:
            await svc.submit("knn", queries[:4], k=K)

    with pytest.raises(ValueError, match="radius"):
        asyncio.run(drive())


# ----------------------------------------------------------------------
# the seed: deterministic, memoized, invalidated on update_points
# ----------------------------------------------------------------------
def test_seed_radius_is_a_pure_function_of_points_k_policy(uniform):
    points, _ = uniform
    module_seed = seed_radius(points, K)
    assert RTNNEngine(points).seed_radius(K) == module_seed
    assert ShardedEngine(points, n_shards=4).seed_radius(K) == module_seed
    assert seed_radius(points, K) == module_seed  # deterministic
    assert module_seed > 0.0
    # Memoized: same key returns without recompute (same float).
    engine = RTNNEngine(points)
    assert engine.seed_radius(K) == engine.seed_radius(K)
    # Explicit init_radius short-circuits the density estimate.
    assert seed_radius(points, K, ExpansionPolicy(init_radius=0.25)) == 0.25


def test_update_points_refit_then_true_knn_is_bit_identical(uniform):
    # Satellite: a warm refit (same count) must invalidate the density
    # seed and the per-round GAS keys — the post-update answer must
    # match a cold engine on the new cloud, bit for bit.
    points, queries = uniform
    engine = RTNNEngine(points)
    engine.true_knn_search(queries, k=K)  # warm caches on the old cloud
    moved = points * 0.5 + 0.1  # same count -> refit path
    engine.update_points(moved)
    res = engine.true_knn_search(queries, k=K)
    cold = RTNNEngine(moved).true_knn_search(queries, k=K)
    _assert_identical(res, cold, "refit vs cold")
    _assert_identical(res, brute_force_true_knn(moved, queries, k=K), "oracle")
    # The halved extent doubles the density: the seed must move too.
    assert engine.seed_radius(K) == seed_radius(moved, K)
    assert engine.seed_radius(K) != seed_radius(points, K)


def test_sharded_update_points_invalidates_seed(uniform):
    points, queries = uniform
    sharded = ShardedEngine(points, n_shards=4)
    sharded.true_knn_search(queries, k=K)
    moved = points * 0.5 + 0.1
    sharded.update_points(moved)
    assert sharded.seed_radius(K) == seed_radius(moved, K)
    res = sharded.true_knn_search(queries, k=K)
    _assert_identical(res, brute_force_true_knn(moved, queries, k=K), "oracle")


# ----------------------------------------------------------------------
# validation: one ValueError family at every entry point
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [{"k": 0}, {"k": 3, "radius": 0.0},
                                 {"k": 3, "radius": -0.5}])
def test_invalid_scalars_raise_valueerror_everywhere(uniform, bad):
    points, queries = uniform
    kwargs = {"k": bad.get("k"), "radius": bad.get("radius")}
    with pytest.raises(ValueError):
        RTNNEngine(points).true_knn_search(queries, **kwargs)
    with pytest.raises(ValueError):
        SearchSession(points).true_knn_search(queries, **kwargs)
    with pytest.raises(ValueError):
        true_knn_search(points, queries, **kwargs)
    with pytest.raises(ValueError):
        ShardedEngine(points, n_shards=2).true_knn_search(queries, **kwargs)


def test_bounded_kinds_share_the_valueerror_family(uniform):
    points, queries = uniform
    from repro.api import knn_search, range_search

    with pytest.raises(ValueError):
        knn_search(points, queries, k=0, radius=0.1)
    with pytest.raises(ValueError):
        knn_search(points, queries, k=3, radius=0.0)
    with pytest.raises(ValueError):
        range_search(points, queries, radius=-1.0, k=3)


def test_expansion_policy_validates():
    with pytest.raises(ValueError):
        ExpansionPolicy(growth=1.0)
    with pytest.raises(ValueError):
        ExpansionPolicy(growth=float("nan"))
    with pytest.raises(ValueError):
        ExpansionPolicy(init_radius=-0.1)
    with pytest.raises(ValueError):
        ExpansionPolicy(max_rounds=0)
    with pytest.raises(ValueError):
        ExpansionPolicy(oversample=0.0)
    assert DEFAULT_POLICY.growth > 1.0


# ----------------------------------------------------------------------
# edge shapes: n < k, empty queries, duplicates, round budget
# ----------------------------------------------------------------------
def test_cloud_smaller_than_k_terminates_with_short_counts():
    rng = default_rng(9)
    points = rng.random((4, 3))
    queries = rng.random((7, 3))
    res = RTNNEngine(points).true_knn_search(queries, k=10)
    assert (res.counts == 4).all()
    assert (res.indices[:, 4:] == -1).all()
    assert np.isinf(res.sq_distances[:, 4:]).all()
    tk = res.report.extras["true_knn"]
    assert tk["converged"], "n < k must converge via the cover bound"
    _assert_identical(res, brute_force_true_knn(points, queries, k=10), "n<k")


def test_empty_queries_return_empty_results(uniform):
    points, _ = uniform
    res = RTNNEngine(points).true_knn_search(np.empty((0, 3)), k=K)
    assert res.indices.shape == (0, K)
    assert res.report.extras["true_knn"]["rounds"] == 0


def test_round_budget_is_honored_and_reported():
    rng = default_rng(12)
    points = np.vstack([rng.random((50, 3)) * 0.01, [[1.0, 1.0, 1.0]]])
    queries = np.array([[0.005, 0.005, 0.005]])
    tight = ExpansionPolicy(init_radius=1e-6, max_rounds=3)
    res = RTNNEngine(points).true_knn_search(queries, k=K, policy=tight)
    tk = res.report.extras["true_knn"]
    assert tk["rounds"] <= 3
    if (res.counts < K).any():
        assert not tk["converged"]


def test_duplicate_cloud_terminates_and_matches_on_distances():
    # Every point triplicated: exact ties everywhere. Counts and the
    # distance rows stay bitwise-oracle-identical; indices are checked
    # by value (each returned index must realize its distance slot).
    rng = default_rng(13)
    base = rng.random((60, 3))
    points = np.repeat(base, 3, axis=0)
    queries = rng.random((15, 3))
    res = RTNNEngine(points).true_knn_search(queries, k=5)
    oracle = brute_force_true_knn(points, queries, k=5)
    assert np.array_equal(res.counts, oracle.counts)
    assert np.array_equal(res.sq_distances, oracle.sq_distances)
    for i, q in enumerate(queries):
        idx = res.indices[i, : res.counts[i]]
        assert len(set(idx.tolist())) == len(idx)
        assert np.array_equal(_shader_d2(points, q, idx), res.sq_distances[i, : res.counts[i]])
    assert res.report.extras["true_knn"]["converged"]


# ----------------------------------------------------------------------
# the property: unlimited rounds == brute-force exact kNN
# ----------------------------------------------------------------------
coords = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
clouds = hnp.arrays(
    np.float64, st.tuples(st.integers(2, 50), st.just(3)), elements=coords
)


@settings(max_examples=30, deadline=None)
@given(pts=clouds, k=st.integers(1, 9), seed=st.integers(0, 10),
       dup=st.booleans())
def test_property_true_knn_equals_brute_exact(pts, k, seed, dup):
    if dup:
        pts = np.repeat(pts, 2, axis=0)[: len(pts) + 8]
    q = np.random.default_rng(seed).random((6, 3))
    engine = RTNNEngine(pts, config=RTNNConfig(cache_sim=False))
    res = engine.true_knn_search(q, k=k)
    ref = brute_force_true_knn(pts, q, k=k)
    tk = res.report.extras["true_knn"]
    assert tk["converged"] and tk["rounds"] <= DEFAULT_POLICY.max_rounds
    assert np.array_equal(res.counts, ref.counts)
    # counts == min(k, n) always: the expansion never stops short.
    assert (res.counts == min(k, len(pts))).all()
    assert np.array_equal(res.sq_distances, ref.sq_distances)
    for i in range(len(q)):
        idx = res.indices[i, : res.counts[i]]
        assert len(set(idx.tolist())) == len(idx)
        assert np.array_equal(
            _shader_d2(pts, q[i], idx), res.sq_distances[i, : res.counts[i]]
        )


def test_cover_radius_bounds_every_pair(uniform):
    points, queries = uniform
    cover = cover_radius(points, queries)
    worst = 0.0
    lo = np.minimum(points.min(0), queries.min(0))
    hi = np.maximum(points.max(0), queries.max(0))
    span = hi - lo
    worst = float(np.sqrt((span * span).sum()))
    assert cover == worst
    assert cover_radius(points, np.empty((0, 3))) == 0.0
