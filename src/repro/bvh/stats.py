"""BVH quality statistics and structural validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bvh.node import BVH
from repro.geometry.aabb import aabb_surface_area


@dataclass
class TreeStats:
    """Summary statistics of a built BVH."""

    n_nodes: int
    n_leaves: int
    n_prims: int
    depth: int
    sah_cost: float          # surface-area-heuristic cost relative to root
    mean_leaf_size: float
    max_leaf_size: int


def tree_stats(bvh: BVH) -> TreeStats:
    """Compute size/depth/SAH statistics for a BVH."""
    leaf = bvh.is_leaf
    leaf_counts = (bvh.node_end - bvh.node_start)[leaf]
    areas = aabb_surface_area(bvh.node_lo, bvh.node_hi)
    root_area = max(float(areas[0]), 1e-300)
    # Standard SAH estimate: traversal cost 1 per internal node visit,
    # intersection cost 1 per primitive, weighted by hit probability
    # (area ratio to the root).
    internal_cost = float(areas[~leaf].sum() / root_area)
    leaf_cost = float((areas[leaf] * leaf_counts / root_area).sum())
    return TreeStats(
        n_nodes=bvh.n_nodes,
        n_leaves=int(leaf.sum()),
        n_prims=bvh.n_prims,
        depth=bvh.depth,
        sah_cost=internal_cost + leaf_cost,
        mean_leaf_size=float(leaf_counts.mean()),
        max_leaf_size=int(leaf_counts.max()),
    )


def validate_bvh(bvh: BVH) -> None:
    """Raise ``AssertionError`` on any structural invariant violation.

    Checks performed:

    * ``prim_order`` is a permutation of the primitives;
    * every node's bounds enclose its primitives' bounds;
    * every internal node's bounds enclose both children;
    * children partition the parent's primitive range;
    * every primitive appears in exactly one leaf;
    * leaf sizes respect ``leaf_size``.
    """
    n = bvh.n_prims
    assert np.array_equal(np.sort(bvh.prim_order), np.arange(len(bvh.prim_lo))), (
        "prim_order not a permutation"
    )

    slo = bvh.prim_lo[bvh.prim_order]
    shi = bvh.prim_hi[bvh.prim_order]
    eps = 1e-9
    leaf_cover = np.zeros(n, dtype=np.int64)
    for i in range(bvh.n_nodes):
        s, e = bvh.node_start[i], bvh.node_end[i]
        assert 0 <= s < e <= n, f"node {i} has bad range [{s}, {e})"
        assert (bvh.node_lo[i] <= slo[s:e].min(axis=0) + eps).all(), f"node {i} lo too tight"
        assert (bvh.node_hi[i] >= shi[s:e].max(axis=0) - eps).all(), f"node {i} hi too tight"
        l, r = bvh.node_left[i], bvh.node_right[i]
        if l < 0:
            assert r < 0, f"node {i} has right child but no left"
            assert e - s <= bvh.leaf_size, f"leaf {i} overflows leaf_size"
            leaf_cover[s:e] += 1
        else:
            assert 0 <= l < bvh.n_nodes and 0 <= r < bvh.n_nodes
            ls, le = bvh.node_start[l], bvh.node_end[l]
            rs, re = bvh.node_start[r], bvh.node_end[r]
            assert ls == s and re == e and le == rs, (
                f"children of node {i} do not partition [{s}, {e})"
            )
            assert (bvh.node_lo[i] <= bvh.node_lo[l] + eps).all()
            assert (bvh.node_lo[i] <= bvh.node_lo[r] + eps).all()
            assert (bvh.node_hi[i] >= bvh.node_hi[l] - eps).all()
            assert (bvh.node_hi[i] >= bvh.node_hi[r] - eps).all()
    assert (leaf_cover == 1).all(), "primitives not covered by exactly one leaf"
