"""Uniform-grid binning tests."""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import grid as grid_mod
from repro.geometry.grid import UniformGrid


@pytest.fixture(scope="module")
def grid(request):
    rng = np.random.default_rng(7)
    pts = rng.random((500, 3))
    return UniformGrid(pts, cell_size=0.1), pts


def test_all_points_binned(grid):
    g, pts = grid
    assert g.cell_count.sum() == len(pts)
    assert sorted(g.point_order.tolist()) == list(range(len(pts)))


def test_cells_contain_their_points(grid):
    g, pts = grid
    for flat in np.flatnonzero(g.cell_count > 0)[:50]:
        ids = g.points_in_cell(flat)
        coords = g.cell_coords(pts[ids])
        assert (g.flatten(coords) == flat).all()


def test_cell_coords_clamped(grid):
    g, _ = grid
    far = np.array([[10.0, -5.0, 0.5]])
    c = g.cell_coords(far)
    assert (c >= 0).all() and (c < g.res).all()


def test_count_in_boxes_matches_bincount(grid):
    g, pts = grid
    rng = np.random.default_rng(1)
    lo = rng.integers(0, g.res, (30, 3))
    hi = np.minimum(lo + rng.integers(0, 4, (30, 3)), g.res - 1)
    got = g.count_in_boxes(lo, hi)
    for i in range(30):
        coords = g.cell_coords(pts)
        inside = np.logical_and(coords >= lo[i], coords <= hi[i]).all(axis=1)
        assert got[i] == inside.sum()


def test_full_box_counts_everything(grid):
    g, pts = grid
    full = g.count_in_boxes(np.zeros((1, 3), dtype=np.int64), (g.res - 1)[None, :])
    assert full[0] == len(pts)


def test_neighbor_cells_dropped_at_boundary(grid):
    g, _ = grid
    ids = g.neighbor_cell_ids(np.array([0, 0, 0]), reach=1)
    assert len(ids) == 8  # corner keeps only the in-grid octant


def test_memory_cap_coarsens():
    pts = np.random.default_rng(0).random((100, 3))
    g = UniformGrid(pts, cell_size=1e-4, max_cells=1000)
    assert g.n_cells <= 1000
    assert g.cell_size > 1e-4


def test_gather_cells(grid):
    g, pts = grid
    nonempty = np.flatnonzero(g.cell_count > 0)[:5]
    gathered = g.gather_cells(nonempty)
    assert len(gathered) == g.cell_count[nonempty].sum()


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        UniformGrid(np.zeros((0, 3)), 0.1)
    with pytest.raises(ValueError):
        UniformGrid(np.zeros((5, 3)), -1.0)
    with pytest.raises(ValueError):
        UniformGrid(np.zeros((5, 2)), 0.1)


# ----------------------------------------------------------------------
# direct (SAT-free) box counting: the path fine grids take
# ----------------------------------------------------------------------
def _brute_box_counts(g, lo3, hi3):
    """Per-point dominance count with the SAT's clip semantics."""
    coords = g.cell_coords(g.points)
    lo = np.clip(lo3, 0, g.res - 1)
    hi = np.clip(hi3, -1, g.res - 1)
    return np.array([
        np.logical_and(coords >= a, coords <= b).all(axis=1).sum()
        for a, b in zip(lo, hi)
    ])


@pytest.fixture(scope="module")
def fine_grid():
    """> 64 cells/point, longest axis y, with a 40-point single-cell pile."""
    rng = np.random.default_rng(11)
    pts = rng.random((300, 3)) * [1.0, 2.0, 0.5]
    pts[:40] = [0.5, 1.0, 0.25]
    return UniformGrid(pts, cell_size=0.02)


def _edge_boxes(g, rng, n=200):
    """Random boxes plus every clip/degenerate shape the counts must get."""
    res = g.res
    lo = rng.integers(-4, res + 4, (n, 3))
    hi = lo + rng.integers(-3, 12, (n, 3))  # some inverted (hi < lo)
    slab = int(np.argmax(res))
    lo[:20, slab], hi[:20, slab] = -2, res[slab] + 2  # whole slab axis
    pile = g.cell_coords(np.array([[0.5, 1.0, 0.25]]))[0]
    extra_lo = [
        np.zeros(3), pile, pile - 1,  # full grid, the pile's cell, around it
        res, res + 5, -np.ones(3) * 3,  # beyond the high / low edge
    ]
    extra_hi = [res - 1, pile, pile + 1, res + 2, res + 9, -np.ones(3)]
    return (np.vstack([lo, extra_lo]).astype(np.int64),
            np.vstack([hi, extra_hi]).astype(np.int64))


def test_fine_grid_takes_direct_path(fine_grid):
    g = fine_grid
    assert g.n_cells > grid_mod._DIRECT_CELLS_PER_POINT * len(g.points)
    fresh = UniformGrid(g.points, cell_size=g.cell_size)
    lo, hi = _edge_boxes(fresh, np.random.default_rng(0), n=10)
    fresh.count_in_boxes(lo, hi)
    assert fresh._sat is None


@pytest.mark.parametrize("chunk_elems", [None, 1, 1000])
def test_direct_counts_match_sat_and_brute(fine_grid, monkeypatch, chunk_elems):
    g = fine_grid
    if chunk_elems is not None:
        # tiny caps force the chunk-halving branch down to single boxes
        monkeypatch.setattr(grid_mod, "_DIRECT_CHUNK_ELEMS", chunk_elems)
    lo, hi = _edge_boxes(g, np.random.default_rng(3))
    got = g._count_in_boxes_direct(lo, hi)
    np.testing.assert_array_equal(got, _brute_box_counts(g, lo, hi))
    np.testing.assert_array_equal(got, g.sat.box_sums(lo, hi))
    assert got[-6] == len(g.points)  # the full-grid box
    assert got[-5] >= 40             # the pile's own cell
    for i in range(0, len(lo), 37):  # the 1-D single-box form
        one = g._count_in_boxes_direct(lo[i], hi[i])
        assert np.ndim(one) == 0 and one == got[i]


def test_direct_chunks_respect_element_cap(fine_grid, monkeypatch):
    g = fine_grid
    cap = 1000
    monkeypatch.setattr(grid_mod, "_DIRECT_CHUNK_ELEMS", cap)
    sizes = []
    count_nonzero = np.count_nonzero

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return count_nonzero(a, *args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", spy)
    lo, hi = _edge_boxes(g, np.random.default_rng(5))
    g._count_in_boxes_direct(lo, hi)
    assert sizes and max(sizes) <= cap


@settings(max_examples=60, deadline=None)
@given(
    pts=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 60), st.just(3)),
        elements=st.floats(0.0, 1.0),
    ),
    boxes=hnp.arrays(
        np.int64,
        st.tuples(st.integers(1, 80), st.just(6)),
        elements=st.integers(-3, 24),
    ),
    cell=st.sampled_from([0.05, 0.09, 0.3]),
)
def test_direct_counts_property(pts, boxes, cell):
    g = UniformGrid(pts, cell_size=cell)
    lo, hi = boxes[:, :3], boxes[:, 3:]
    got = g._count_in_boxes_direct(lo, hi)
    np.testing.assert_array_equal(got, _brute_box_counts(g, lo, hi))
    np.testing.assert_array_equal(got, g.sat.box_sums(lo, hi))
