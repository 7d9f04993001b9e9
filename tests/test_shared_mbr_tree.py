"""The shared point-MBR tree: level-synchronous refit and derived GASes.

Every width's GAS is the engine's point-MBR tree grown by its half
width. These tests pin the two facts it rests on: the vectorized
refit is bit-identical to the per-node loop it replaced, and a chain of
point updates leaves every cached width bit-identical to a fresh build
over the current points and order.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import default_rng

from repro.bvh import build_lbvh, build_median_split, refit_bvh, validate_bvh
from repro.core.engine import RTNNConfig, RTNNEngine
from repro.geometry.aabb import aabbs_from_points
from repro.optix import Pipeline, build_gas


def _loop_refit(bvh, prim_lo, prim_hi):
    """The per-node refit loop the level-synchronous pass replaced."""
    node_lo = bvh.node_lo.copy()
    node_hi = bvh.node_hi.copy()
    slo = prim_lo[bvh.prim_order]
    shi = prim_hi[bvh.prim_order]
    for i in range(bvh.n_nodes - 1, -1, -1):
        l, r = bvh.node_left[i], bvh.node_right[i]
        if l < 0:
            s, e = bvh.node_start[i], bvh.node_end[i]
            node_lo[i] = slo[s:e].min(axis=0)
            node_hi[i] = shi[s:e].max(axis=0)
        else:
            node_lo[i] = np.minimum(node_lo[l], node_lo[r])
            node_hi[i] = np.maximum(node_hi[l], node_hi[r])
    return node_lo, node_hi


def _cloud(kind, n, seed):
    rng = default_rng(seed)
    if kind == "duplicates":
        distinct = rng.random((max(1, n // 3), 3))
        return distinct[rng.integers(0, len(distinct), n)]
    if kind == "lattice":
        return 0.25 * rng.integers(-4, 5, (n, 3)).astype(np.float64)
    return rng.uniform(-5.0, 5.0, (n, 3))


def _boxes(pts, half_width):
    if half_width is None:  # the point-MBR tree: boxes are the points
        return pts, pts
    return aabbs_from_points(pts, half_width)


@settings(max_examples=60, deadline=None)
@given(
    builder=st.sampled_from([build_lbvh, build_median_split]),
    kind=st.sampled_from(["uniform", "duplicates", "lattice"]),
    n=st.integers(1, 70),
    leaf_size=st.integers(1, 8),
    half_width=st.sampled_from([None, 0.05, 0.1234567]),
    seed=st.integers(0, 2**16),
)
@example(build_lbvh, "uniform", 1, 1, None, 0)
@example(build_median_split, "uniform", 1, 4, 0.05, 0)
@example(build_lbvh, "duplicates", 40, 3, None, 1)
@example(build_median_split, "lattice", 50, 8, 0.1234567, 2)
def test_level_refit_matches_node_loop(
    builder, kind, n, leaf_size, half_width, seed
):
    bvh = builder(*_boxes(_cloud(kind, n, seed), half_width), leaf_size=leaf_size)
    # two refits: the second starts from level-refit bounds
    for step in (1, 2):
        lo, hi = _boxes(_cloud(kind, n, seed + step), half_width)
        want_lo, want_hi = _loop_refit(bvh, lo, hi)
        refit_bvh(bvh, lo, hi)
        assert np.array_equal(bvh.node_lo, want_lo)
        assert np.array_equal(bvh.node_hi, want_hi)
        validate_bvh(bvh)


def _leaf_mbrs(bvh, points):
    """Leaf point MBRs by one reduceat over the start-sorted leaves."""
    leaves = np.flatnonzero(bvh.is_leaf)
    leaves = leaves[np.argsort(bvh.node_start[leaves], kind="stable")]
    starts = bvh.node_start[leaves]
    pts = points[bvh.prim_order]
    return (
        leaves,
        np.minimum.reduceat(pts, starts, axis=0),
        np.maximum.reduceat(pts, starts, axis=0),
    )


def _assert_cached_gases_fresh(engine, points):
    cost_model = engine.cost_model
    for gas in engine.gas_cache._entries.values():
        assert gas.mbr is engine._mbr
        assert gas.bvh.node_left is engine._mbr.node_left  # shared, not copied
        fresh = build_gas(
            points,
            gas.half_width,
            cost_model,
            leaf_size=engine.config.leaf_size,
            order=engine._point_order,
        )
        for name in ("node_lo", "node_hi", "prim_lo", "prim_hi", "node_left",
                     "node_right", "node_start", "node_end", "prim_order"):
            assert np.array_equal(getattr(gas.bvh, name), getattr(fresh.bvh, name)), name
        leaves, lo, hi = _leaf_mbrs(gas.bvh, points)
        assert np.array_equal(gas.mbr.node_lo[leaves], lo)
        assert np.array_equal(gas.mbr.node_hi[leaves], hi)


def _clustered(n, seed):
    rng = default_rng(seed)
    centers = rng.random((6, 3))
    pts = centers[rng.integers(0, 6, n)] + rng.normal(0.0, 0.03, (n, 3))
    return np.clip(pts, 0.0, 1.0)


def _same_rows(a, b):
    # range rows come in traversal order, which follows the topology;
    # the canonical (distance, index) order does not
    a, b = a.canonical(), b.canonical()
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.sq_distances, b.sq_distances)


@pytest.mark.parametrize("leaf_prune", [True, False])
def test_update_chain_keeps_every_width_fresh(leaf_prune):
    """Jitter steps refit the shared tree; the teleport step trips the
    SAH watchdog and rebuilds. After every update and every search each
    cached width equals a fresh build over the current points and
    order, and search rows equal a cold engine's."""
    config = RTNNConfig(leaf_prune=leaf_prune)
    rng = default_rng(31)
    pts = _clustered(500, seed=4)
    queries = pts[::7].copy()
    k, radius = 6, 0.09

    def search(engine):
        return (
            engine.knn_search(queries, k=k, radius=radius),
            engine.range_search(queries, radius=radius, k=500),
        )

    engine = RTNNEngine(pts, config=config)
    search(engine)
    assert len(engine.gas_cache) > 1  # several widths share the tree
    for step in range(5):
        if step == 2:
            pts = default_rng(77).random(pts.shape)
        else:
            pts = np.clip(pts + rng.normal(0.0, 0.005, pts.shape), 0.0, 1.0)
        assert engine.update_points(pts) > 0.0
        assert (len(engine.gas_cache) == 0) == (step == 2)
        _assert_cached_gases_fresh(engine, pts)
        warm = search(engine)
        _assert_cached_gases_fresh(engine, pts)
        cold = search(RTNNEngine(pts, config=config))
        for w, c in zip(warm, cold):
            _same_rows(w, c)
        assert (warm[1].counts < 500).all()  # range rows are uncapped


def test_tree_owns_its_positions():
    """Moving the caller's array in place still refits the shared tree."""
    pts = default_rng(3).random((60, 3))
    cost_model = Pipeline().cost_model
    gas = build_gas(pts, 0.05, cost_model, leaf_size=2)
    pts += 0.5
    wide = build_gas(pts, 0.2, cost_model, leaf_size=2, mbr=gas.mbr)
    fresh = build_gas(pts, 0.2, cost_model, leaf_size=2, order=gas.mbr.prim_order)
    assert np.array_equal(wide.bvh.node_lo, fresh.bvh.node_lo)
    assert np.array_equal(wide.bvh.node_hi, fresh.bvh.node_hi)
