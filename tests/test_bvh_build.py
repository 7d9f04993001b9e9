"""BVH builder tests: structural invariants on both builders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import hypothesis.extra.numpy as hnp

from repro.bvh import build_lbvh, build_median_split, tree_stats, validate_bvh
from repro.geometry.aabb import aabbs_from_points


def _boxes(n, seed=0, hw=0.05):
    pts = np.random.default_rng(seed).random((n, 3))
    return aabbs_from_points(pts, hw)


@pytest.mark.parametrize("builder", [build_lbvh, build_median_split])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 500])
@pytest.mark.parametrize("leaf_size", [1, 4])
def test_structural_invariants(builder, n, leaf_size):
    lo, hi = _boxes(n)
    bvh = builder(lo, hi, leaf_size=leaf_size)
    validate_bvh(bvh)


@pytest.mark.parametrize("builder", [build_lbvh, build_median_split])
def test_single_primitive(builder):
    lo, hi = _boxes(1)
    bvh = builder(lo, hi)
    assert bvh.n_nodes == 1
    assert bvh.is_leaf.all()
    assert bvh.depth == 0


def test_lbvh_balanced_depth():
    lo, hi = _boxes(1024)
    bvh = build_lbvh(lo, hi, leaf_size=1)
    assert bvh.depth == 10  # midpoint splits over 1024 sorted prims


def test_duplicate_points_build():
    pts = np.zeros((50, 3))
    lo, hi = aabbs_from_points(pts, 0.1)
    bvh = build_lbvh(lo, hi)
    validate_bvh(bvh)
    assert bvh.n_prims == 50


def test_leaves_cover_every_prim_once():
    lo, hi = _boxes(100)
    bvh = build_lbvh(lo, hi, leaf_size=4)
    leaves = np.flatnonzero(bvh.is_leaf)
    owned = np.concatenate(
        [bvh.prim_order[bvh.node_start[i] : bvh.node_end[i]] for i in leaves]
    )
    assert np.array_equal(np.sort(owned), np.arange(100))


def test_custom_order_roundtrip():
    lo, hi = _boxes(32)
    order = np.random.default_rng(3).permutation(32)
    bvh = build_lbvh(lo, hi, order=order)
    validate_bvh(bvh)
    assert (bvh.prim_order == order).all()


def test_bad_inputs_rejected():
    lo, hi = _boxes(10)
    with pytest.raises(ValueError):
        build_lbvh(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        build_lbvh(hi, lo)  # inverted
    with pytest.raises(ValueError):
        build_lbvh(lo, hi, leaf_size=0)
    with pytest.raises(ValueError):
        build_lbvh(lo, hi, order=np.zeros(10, dtype=np.int64))  # not a perm


@pytest.mark.parametrize(
    "order",
    [
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 8],    # duplicate
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 10],   # out of range
        [-1, 1, 2, 3, 4, 5, 6, 7, 8, 9],   # negative
        [0, 1, 2, 3, 4, 5, 6, 7, 8],       # too short
        list(range(11)),                   # too long
    ],
)
def test_non_permutation_order_rejected(order):
    lo, hi = _boxes(10)
    with pytest.raises(ValueError, match="permutation"):
        build_lbvh(lo, hi, order=np.array(order))
    bvh = build_lbvh(lo, hi)
    bvh.prim_order = np.array(order)
    with pytest.raises(AssertionError, match="permutation"):
        validate_bvh(bvh)


def test_tree_stats_sane():
    lo, hi = _boxes(256)
    s = tree_stats(build_lbvh(lo, hi, leaf_size=2))
    assert s.n_prims == 256
    assert s.n_leaves >= 128
    assert 1.0 <= s.mean_leaf_size <= 2.0
    assert s.sah_cost > 0


def test_memory_bytes_scales():
    lo, hi = _boxes(100)
    bvh = build_lbvh(lo, hi)
    assert bvh.memory_bytes() == bvh.n_nodes * 32 + 100 * 32


@settings(max_examples=25, deadline=None)
@given(
    pts=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 80), st.just(3)),
        elements=st.floats(-10, 10, allow_nan=False),
    ),
    leaf_size=st.integers(1, 5),
)
def test_property_lbvh_valid_on_arbitrary_points(pts, leaf_size):
    lo, hi = aabbs_from_points(pts, 0.1)
    validate_bvh(build_lbvh(lo, hi, leaf_size=leaf_size))
