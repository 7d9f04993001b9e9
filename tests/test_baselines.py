"""Baseline searchers vs the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    CuNSearch,
    FRNN,
    FastRNN,
    PCLOctree,
    brute_force_knn,
    brute_force_range,
)
from repro.baselines.brute import _EXACT_CHUNK, exact_search
from repro.core.engine import RTNNEngine


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(42)
    pts = rng.random((1200, 3))
    q = rng.random((350, 3))
    return pts, q, 0.11


def _sets(res):
    return [
        set(res.indices[i][: res.counts[i]].tolist()) for i in range(res.n_queries)
    ]


def test_brute_range_counts(setup):
    pts, q, r = setup
    res = brute_force_range(pts, q, r, k=2000)
    # spot-check against direct computation
    for i in range(0, len(q), 50):
        d = np.linalg.norm(pts - q[i], axis=1)
        assert res.counts[i] == (d <= r).sum()


def test_brute_knn_sorted(setup):
    pts, q, r = setup
    res = brute_force_knn(pts, q, k=5, radius=r)
    d = res.sq_distances
    for i in range(len(q)):
        c = res.counts[i]
        assert (np.diff(d[i][:c]) >= 0).all()


def test_cunsearch_exact(setup):
    pts, q, r = setup
    got = CuNSearch(pts).range_search(q, r, k=2000)
    ref = brute_force_range(pts, q, r, k=2000)
    assert _sets(got) == _sets(ref)
    assert got.report.modeled_time > 0


def test_cunsearch_bounded_k(setup):
    pts, q, r = setup
    got = CuNSearch(pts).range_search(q, r, k=3)
    ref = brute_force_range(pts, q, r, k=2000)
    for i in range(len(q)):
        assert got.counts[i] == min(ref.counts[i], 3)
        d2 = ((pts[got.indices[i][: got.counts[i]]] - q[i]) ** 2).sum(axis=1)
        assert (d2 <= r * r * (1 + 1e-12)).all()


def test_frnn_exact(setup):
    pts, q, r = setup
    got = FRNN(pts).knn_search(q, k=7, radius=r)
    ref = brute_force_knn(pts, q, k=7, radius=r)
    for i in range(len(q)):
        assert got.counts[i] == ref.counts[i]
        np.testing.assert_allclose(
            got.sq_distances[i][: got.counts[i]],
            ref.sq_distances[i][: ref.counts[i]],
            rtol=1e-9,
        )


def test_pcl_octree_range_exact(setup):
    pts, q, r = setup
    got = PCLOctree(pts).range_search(q, r, k=2000)
    ref = brute_force_range(pts, q, r, k=2000)
    assert _sets(got) == _sets(ref)


def test_pcl_octree_nn_exact(setup):
    pts, q, r = setup
    got = PCLOctree(pts).knn_search(q, k=1, radius=r)
    ref = brute_force_knn(pts, q, k=1, radius=r)
    assert (got.counts == ref.counts).all()
    both = (got.counts == 1) & (ref.counts == 1)
    np.testing.assert_allclose(
        got.sq_distances[both, 0], ref.sq_distances[both, 0], rtol=1e-9
    )


def test_pcl_octree_rejects_k_gt_1(setup):
    pts, q, r = setup
    with pytest.raises(ValueError):
        PCLOctree(pts).knn_search(q, k=2, radius=r)


def test_fastrnn_exact(setup):
    pts, q, r = setup
    got = FastRNN(pts).knn_search(q, k=5, radius=r)
    ref = brute_force_knn(pts, q, k=5, radius=r)
    for i in range(len(q)):
        assert got.counts[i] == ref.counts[i]
        np.testing.assert_allclose(
            np.sort(got.sq_distances[i][: got.counts[i]]),
            ref.sq_distances[i][: ref.counts[i]],
            rtol=1e-9,
        )


def test_memory_models_positive(setup):
    pts, _, r = setup
    assert CuNSearch(pts).modeled_memory_bytes(10**7, r, 1.0) > 0
    assert FRNN(pts).modeled_memory_bytes(10**7, r, 1.0) > 0
    assert PCLOctree(pts).modeled_memory_bytes(10**7) > 0
    assert FastRNN(pts).modeled_memory_bytes(10**7) > 0


def test_grid_memory_blows_up_with_small_radius(setup):
    pts, _, _ = setup
    cu = CuNSearch(pts)
    assert cu.modeled_memory_bytes(10**6, 0.001, 100.0) > cu.modeled_memory_bytes(
        10**6, 1.0, 100.0
    )


def test_grid_chunking_matches_unchunked(setup):
    """Chunk boundaries must not change results (CSR bookkeeping)."""
    pts, q, r = setup
    a = CuNSearch(pts, chunk_size=64).range_search(q, r, k=2000)
    b = CuNSearch(pts).range_search(q, r, k=2000)
    assert _sets(a) == _sets(b)
    assert a.report.extras["candidates"] == b.report.extras["candidates"]
    fa = FRNN(pts, chunk_size=64).knn_search(q, k=6, radius=r)
    fb = FRNN(pts).knn_search(q, k=6, radius=r)
    assert (fa.counts == fb.counts).all()
    assert (fa.indices == fb.indices).all()


def test_chunk_size_validated(setup):
    pts, _, _ = setup
    with pytest.raises(ValueError):
        CuNSearch(pts, chunk_size=0)
    with pytest.raises(ValueError):
        FRNN(pts, chunk_size=-1)


def _true_knn_before(points, queries, k):
    """The true-kNN oracle as it stood before :func:`exact_search`."""
    n_q = len(queries)
    indices = np.full((n_q, k), -1, dtype=np.int64)
    sq_d = np.full((n_q, k), np.inf)
    take = min(k, len(points))
    for s in range(0, n_q, 256):
        block = queries[s : s + 256]
        diff = block[:, None, :] - points[None, :, :]
        d2 = np.einsum("qnd,qnd->qn", diff, diff)
        order = np.argsort(d2, axis=1, kind="stable")[:, :take]
        indices[s : s + 256, :take] = order
        sq_d[s : s + 256, :take] = d2[np.arange(len(block))[:, None], order]
    return indices, np.full(n_q, take, dtype=np.int64), sq_d


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(1, 60),
    n_queries=st.sampled_from([1, 9, _EXACT_CHUNK + 1, 2 * _EXACT_CHUNK + 7]),
    extra_k=st.integers(-8, 8),
    duplicates=st.booleans(),
    lattice=st.booleans(),
    radius=st.sampled_from([None, 0.25, 0.3, 2.0]),
)
def test_exact_search_matches_old_oracle_and_engine(
    seed, n_points, n_queries, extra_k, duplicates, lattice, radius
):
    """Rows span several query chunks, ``k`` may exceed ``N``, the cloud
    may hold duplicate points, and the radius may be unbounded. On a
    lattice with spacing 0.25, neighbors sit exactly on the radius."""
    rng = np.random.default_rng(seed)

    def cloud(n):
        return rng.integers(0, 5, (n, 3)) * 0.25 if lattice else rng.random((n, 3))

    pool = cloud(n_points)
    points = pool[rng.integers(0, max(n_points // 3, 1), n_points)] if duplicates else pool
    queries = cloud(n_queries)
    k = max(1, n_points + extra_k)
    got = exact_search(points, queries, k, radius)

    # the pre-change oracle's rows, cut to the radius (a prefix of each
    # ascending row, so the bounded rows are bit-comparable too)
    idx, counts, d2 = _true_knn_before(points, queries, k)
    if radius is not None:
        out = d2 > radius * radius
        idx[out], d2[out] = -1, np.inf
        counts = np.isfinite(d2).sum(axis=1)
    assert np.array_equal(got.indices, idx)
    assert np.array_equal(got.counts, counts)
    assert np.array_equal(got.sq_distances, d2)

    # the healthy engine's canonical rows; at an exact distance tie
    # across the k boundary the engine keeps a traversal-order subset
    engine = RTNNEngine(points)
    ref = (
        engine.true_knn_search(queries, k=k)
        if radius is None
        else engine.knn_search(queries, k=k, radius=radius)
    ).canonical()
    assert np.array_equal(got.counts, ref.counts)
    assert np.array_equal(got.sq_distances, ref.sq_distances)
    full = exact_search(points, queries, n_points + 1).sq_distances
    tie = (got.counts == k) & (full[:, min(k, n_points)] == got.sq_distances[:, -1])
    assert np.array_equal(got.indices[~tie], ref.indices[~tie])
