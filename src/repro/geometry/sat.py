"""3-D summed-area tables (integral volumes).

Megacell growth (Section 5.1) repeatedly asks "how many points fall in
this axis-aligned box of grid cells?". Answering each such query from
raw cell counts costs O(box volume); with a summed-area table it is an
O(1) inclusion-exclusion over 8 corners, and the 8 gathers vectorize
across *all* queries simultaneously. The table costs O(total cells) to
build, so :meth:`UniformGrid.count_in_boxes` uses it only on coarse
grids; finer grids (every benchmark workload's megacell grid) count by
slab-restricted direct tests instead.
"""

from __future__ import annotations

import numpy as np


class SummedAreaTable3D:
    """Integral volume over a dense 3-D array of non-negative counts.

    The table is stored padded with a zero slab on the low side of each
    axis so corner lookups never need branch on boundaries.
    """

    def __init__(self, dense: np.ndarray):
        dense = np.asarray(dense)
        if dense.ndim != 3:
            raise ValueError(f"dense must be 3-D, got shape {dense.shape}")
        total = int(dense.sum()) if dense.size else 0
        # Non-negative counts keep every partial prefix sum in
        # [0, total], so the table narrows to int32 whenever the total
        # fits — halving the memory traffic of the three cumsum sweeps.
        # box_sums widens corner gathers back to int64.
        narrow = (
            dense.size > 0 and int(dense.min()) >= 0 and total < 2**31
        )
        dtype = np.int32 if narrow else np.int64
        table = np.zeros(tuple(np.array(dense.shape) + 1), dtype=dtype)
        acc = table[1:, 1:, 1:]
        acc[...] = dense
        np.cumsum(acc, axis=0, out=acc)
        np.cumsum(acc, axis=1, out=acc)
        np.cumsum(acc, axis=2, out=acc)
        self.table = table
        self.shape = dense.shape
        self.total = total

    def box_sums(self, lo3: np.ndarray, hi3: np.ndarray) -> np.ndarray:
        """Sum of counts in inclusive boxes ``[lo3, hi3]``, batched.

        Parameters
        ----------
        lo3, hi3:
            ``(M, 3)`` integer cell coordinates, inclusive on both ends.
            Boxes are clipped to the table extent; an empty (inverted)
            box sums to zero.

        Returns
        -------
        numpy.ndarray of int64, shape ``(M,)``
        """
        lo3 = np.asarray(lo3, dtype=np.int64)
        hi3 = np.asarray(hi3, dtype=np.int64)
        single = lo3.ndim == 1
        if single:
            lo3 = lo3[None, :]
            hi3 = hi3[None, :]
        shape = np.asarray(self.shape, dtype=np.int64)
        lo = np.clip(lo3, 0, shape - 1)
        hi = np.clip(hi3, -1, shape - 1)
        # In padded-table coordinates, the box [lo, hi] inclusive maps to
        # corners lo (exclusive low) and hi+1 (inclusive high).
        x0, y0, z0 = lo[:, 0], lo[:, 1], lo[:, 2]
        x1, y1, z1 = hi[:, 0] + 1, hi[:, 1] + 1, hi[:, 2] + 1
        t = self.table

        def corner(xi, yi, zi):
            # widen before arithmetic: the 8-term alternating sum can
            # overflow a narrowed (int32) table's dtype
            return t[xi, yi, zi].astype(np.int64, copy=False)

        s = (
            corner(x1, y1, z1)
            - corner(x0, y1, z1)
            - corner(x1, y0, z1)
            - corner(x1, y1, z0)
            + corner(x0, y0, z1)
            + corner(x0, y1, z0)
            + corner(x1, y0, z0)
            - corner(x0, y0, z0)
        )
        empty = (hi < lo).any(axis=1)
        s = np.where(empty, 0, s)
        return s[0] if single else s
