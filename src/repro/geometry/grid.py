"""Uniform grids over 3-D point sets.

The uniform grid is the workhorse substrate for three distinct roles:

* the cuNSearch/FRNN baselines (grid-based exhaustive neighbor search);
* RTNN's megacell computation (Section 5.1), which iteratively grows a
  box of cells around each query;
* point-density estimation for the bundling cost model.

Binning uses a counting sort: points are bucketed by flattened cell id
and stored contiguously, with ``cell_start/cell_count`` CSR-style
offsets, so "all points in cell c" is a contiguous slice. The CSR
arrays (and the summed-area table) are O(total cells) to build, which
dwarfs O(points) work on fine grids — both are built lazily. Box
counting uses the summed-area table only on coarse grids (at most
``_DIRECT_CELLS_PER_POINT`` cells per point); finer grids — the
megacell grids of every benchmark workload — answer it by direct
per-point dominance tests restricted to each chunk of boxes' slab of
points along the longest grid axis, so megacell partitioning never
pays for cells nobody occupies.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.sat import SummedAreaTable3D

#: build the SAT only when the grid is at most this many cells per
#: point; finer grids answer box counts by direct dominance tests
_DIRECT_CELLS_PER_POINT = 64
#: cap on (boxes x points) comparison elements materialized at once
_DIRECT_CHUNK_ELEMS = 1 << 22
#: boxes per direct-count chunk before the element cap halves it; the
#: chunk's slab widens with every box it holds, so small chunks keep
#: each box's comparisons close to its own slab
_SLAB_CHUNK_BOXES = 32


class UniformGrid:
    """A uniform 3-D grid binning a point set.

    Parameters
    ----------
    points:
        ``(N, 3)`` float64 point set.
    cell_size:
        Edge length of the (cubic) cells.
    bounds:
        Optional ``(lo, hi)`` pair; defaults to the tight scene bounds.
        Points outside the bounds are clamped into boundary cells.
    max_cells:
        Safety cap on total cell count; the cell size is grown (resolution
        shrunk) if the requested size would exceed it. This mirrors the
        paper's "smallest cell size allowed by the GPU memory capacity".
    """

    def __init__(self, points, cell_size: float, bounds=None, max_cells: int = 64_000_000):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {points.shape}")
        if len(points) == 0:
            raise ValueError("cannot grid an empty point set")
        cell_size = float(cell_size)
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")

        if bounds is None:
            lo = points.min(axis=0)
            hi = points.max(axis=0)
        else:
            lo = np.asarray(bounds[0], dtype=np.float64)
            hi = np.asarray(bounds[1], dtype=np.float64)
        extent = np.maximum(hi - lo, 1e-12)

        res = np.maximum(np.ceil(extent / cell_size).astype(np.int64), 1)
        # Respect the memory cap by coarsening isotropically if needed.
        while int(np.prod(res)) > max_cells:
            cell_size *= 2.0
            res = np.maximum(np.ceil(extent / cell_size).astype(np.int64), 1)

        self.points = points
        self.lo = lo
        self.hi = hi
        self.cell_size = cell_size
        self.res = res  # (nx, ny, nz)
        self.n_cells = int(np.prod(res))

        self._point_cells = self.cell_coords(points)
        self._flat = self.flatten(self._point_cells)
        self._cells_t = None
        self._point_order = None
        self._cell_count = None
        self._cell_start = None
        self._sat = None

    # ------------------------------------------------------------------
    # lazy CSR binning (O(total cells) — only consumers that slice
    # cells pay for it; megacell partitioning never does)
    # ------------------------------------------------------------------
    @property
    def point_order(self) -> np.ndarray:
        """Grid-sorted original point indices (counting sort)."""
        if self._point_order is None:
            self._point_order = np.argsort(self._flat, kind="stable")
        return self._point_order

    @property
    def cell_count(self) -> np.ndarray:
        """Points binned into each cell, dense over all cells."""
        if self._cell_count is None:
            self._cell_count = np.bincount(self._flat, minlength=self.n_cells)
        return self._cell_count

    @property
    def cell_start(self) -> np.ndarray:
        """CSR offsets of each cell's slice of ``point_order``."""
        if self._cell_start is None:
            counts = self.cell_count
            self._cell_start = np.concatenate(([0], np.cumsum(counts)))[:-1]
        return self._cell_start

    # ------------------------------------------------------------------
    # coordinate transforms
    # ------------------------------------------------------------------
    def cell_coords(self, pts: np.ndarray) -> np.ndarray:
        """Integer cell coordinates ``(M, 3)``; clamped into the grid."""
        pts = np.asarray(pts, dtype=np.float64)
        raw = np.floor((pts - self.lo) / self.cell_size).astype(np.int64)
        return np.clip(raw, 0, self.res - 1)

    def flatten(self, idx3: np.ndarray) -> np.ndarray:
        """Flatten ``(M, 3)`` cell coordinates to linear cell ids."""
        nx, ny, nz = self.res
        return (idx3[:, 0] * ny + idx3[:, 1]) * nz + idx3[:, 2]

    # ------------------------------------------------------------------
    # contents
    # ------------------------------------------------------------------
    def points_in_cell(self, flat_id: int) -> np.ndarray:
        """Original indices of the points binned into one cell."""
        s = self.cell_start[flat_id]
        return self.point_order[s : s + self.cell_count[flat_id]]

    def gather_cells(self, flat_ids: np.ndarray) -> np.ndarray:
        """Original point indices for a set of cells, concatenated."""
        flat_ids = np.asarray(flat_ids, dtype=np.int64)
        pieces = [self.points_in_cell(c) for c in flat_ids]
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces)

    def neighbor_cell_ids(self, center3: np.ndarray, reach: int = 1) -> np.ndarray:
        """Flat ids of the ``(2*reach+1)^3`` cells around ``center3``.

        Cells outside the grid are dropped (not wrapped).
        """
        center3 = np.asarray(center3, dtype=np.int64)
        offs = np.arange(-reach, reach + 1, dtype=np.int64)
        dx, dy, dz = np.meshgrid(offs, offs, offs, indexing="ij")
        block = center3 + np.stack([dx.ravel(), dy.ravel(), dz.ravel()], axis=1)
        ok = np.logical_and(block >= 0, block < self.res).all(axis=1)
        return self.flatten(block[ok])

    # ------------------------------------------------------------------
    # aggregate counts
    # ------------------------------------------------------------------
    @property
    def sat(self) -> SummedAreaTable3D:
        """Lazily-built summed-area table over per-cell point counts."""
        if self._sat is None:
            dense = self.cell_count.reshape(tuple(self.res))
            self._sat = SummedAreaTable3D(dense)
        return self._sat

    def count_in_boxes(self, lo3: np.ndarray, hi3: np.ndarray) -> np.ndarray:
        """Points contained in inclusive cell-coordinate boxes, batched.

        ``lo3``/``hi3`` are ``(M, 3)`` integer corner coordinates
        (inclusive on both ends) with the same clipping semantics as
        :meth:`SummedAreaTable3D.box_sums`. Coarse grids (at most
        ``_DIRECT_CELLS_PER_POINT`` cells per point) use that table.
        Finer grids, where the O(total cells) table would dominate, take
        :meth:`_count_in_boxes_direct`: slab-restricted per-point
        dominance tests. Both paths return the exact same counts
        (``tests/test_geometry_grid.py`` checks the direct path against
        the table and a brute per-point count on a fine grid).
        """
        if self._sat is None and (
            self.n_cells > _DIRECT_CELLS_PER_POINT * len(self.points)
        ):
            return self._count_in_boxes_direct(lo3, hi3)
        return self.sat.box_sums(lo3, hi3)

    def _count_in_boxes_direct(self, lo3: np.ndarray, hi3: np.ndarray) -> np.ndarray:
        """SAT-free box counts: per-point dominance tests within a slab.

        Points are sorted once per grid by their cell on the longest
        grid axis, and boxes by their low corner on it, so a chunk of
        neighbouring boxes is tested only against the contiguous run of
        points whose slab coordinate falls inside the chunk's span. The
        chunk is halved until boxes x slab points fits in
        ``_DIRECT_CHUNK_ELEMS``, so the worst case (every box spanning
        the whole axis) is the plain O(boxes x points) scan. Clipping
        replicates :meth:`SummedAreaTable3D.box_sums` exactly (including
        boxes emptied or displaced by the clip).
        """
        lo3 = np.asarray(lo3, dtype=np.int64)
        hi3 = np.asarray(hi3, dtype=np.int64)
        single = lo3.ndim == 1
        if single:
            lo3 = lo3[None, :]
            hi3 = hi3[None, :]
        lo = np.clip(lo3, 0, self.res - 1).astype(np.int32)
        hi = np.clip(hi3, -1, self.res - 1).astype(np.int32)
        axis = int(np.argmax(self.res))
        if self._cells_t is None:
            order = np.argsort(self._point_cells[:, axis], kind="stable")
            pc = self._point_cells[order].astype(np.int32)
            self._cells_t = tuple(
                np.ascontiguousarray(pc[:, a]) for a in range(3)
            )
        cx, cy, cz = self._cells_t
        out = np.zeros(len(lo), dtype=np.int64)
        # boxes emptied by the clip count 0 and never reach the scan
        boxes = np.flatnonzero((hi >= lo).all(axis=1))
        boxes = boxes[np.argsort(lo[boxes, axis], kind="stable")]
        keys = self._cells_t[axis]
        first = np.searchsorted(keys, lo[boxes, axis], side="left")
        last = np.searchsorted(keys, hi[boxes, axis], side="right")
        n = len(boxes)
        s = 0
        while s < n:
            e = min(s + _SLAB_CHUNK_BOXES, n)
            p0 = first[s]  # boxes are sorted by lo: the chunk's min
            p1 = last[s:e].max()
            while (e - s) * (p1 - p0) > _DIRECT_CHUNK_ELEMS and e - s > 1:
                e = s + (e - s) // 2
                p1 = last[s:e].max()
            b = boxes[s:e]
            bx, by, bz = cx[p0:p1], cy[p0:p1], cz[p0:p1]
            # per-axis column comparisons (no (chunk, N, 3) broadcast):
            # ~3x less element work, and int32 halves the traffic
            ok = (bx >= lo[b, 0, None]) & (bx <= hi[b, 0, None])
            ok &= by >= lo[b, 1, None]
            ok &= by <= hi[b, 1, None]
            ok &= bz >= lo[b, 2, None]
            ok &= bz <= hi[b, 2, None]
            out[b] = np.count_nonzero(ok, axis=1)
            s = e
        return out[0] if single else out
