"""BVH refitting: update bounds in place for moved primitives.

Dynamic workloads (SPH particles, LiDAR streams) move points every
step. Rebuilding the BVH costs k1 * M; *refitting* — recomputing node
bounds bottom-up over the unchanged topology — is cheaper and is what
OptiX exposes as an acceleration-structure update. Tree quality decays
as points drift from their build-time Morton order, so callers refit
until the SAH cost has decayed too far and then rebuild (the watchdog
in :meth:`repro.core.engine.RTNNEngine.update_points`).

The refit is level-synchronous, like the LBVH build. Leaf slices
partition ``prim_order``, so one ``reduceat`` over the start-sorted
leaves bounds every leaf at once. Internal nodes are then bounded one
depth level at a time, deepest first, with one vectorized min/max of
their children per level. The levels come from a breadth-first walk of
the child links, so any valid tree works (LBVH or median-split).
"""

from __future__ import annotations

import numpy as np

from repro.bvh.node import BVH


def _internal_levels(bvh: BVH) -> list[np.ndarray]:
    """Internal node ids grouped by depth, root level first."""
    levels = []
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        internal = frontier[bvh.node_left[frontier] >= 0]
        if len(internal):
            levels.append(internal)
        frontier = np.concatenate(
            [bvh.node_left[internal], bvh.node_right[internal]]
        )
    return levels


def refit_bvh(bvh: BVH, prim_lo: np.ndarray, prim_hi: np.ndarray) -> None:
    """Update ``bvh``'s bounds in place for new primitive AABBs.

    ``prim_lo``/``prim_hi`` replace the primitive bounds (same count and
    order as at build time); topology, primitive order and leaf
    assignment stay fixed. The result is bit-identical to recomputing
    every node's bounds from its primitives: min and max are exact.
    The bounds are stored as fresh arrays, so a launch still holding the
    old ones reads a consistent snapshot.
    """
    prim_lo = np.ascontiguousarray(prim_lo, dtype=np.float64)
    prim_hi = np.ascontiguousarray(prim_hi, dtype=np.float64)
    if prim_lo.shape != bvh.prim_lo.shape or prim_hi.shape != bvh.prim_hi.shape:
        raise ValueError("refit requires the same primitive count as the build")
    if np.any(prim_hi < prim_lo):
        raise ValueError("inverted primitive AABBs (hi < lo)")

    node_lo = np.empty_like(bvh.node_lo)
    node_hi = np.empty_like(bvh.node_hi)
    leaves = np.flatnonzero(bvh.is_leaf)
    leaves = leaves[np.argsort(bvh.node_start[leaves], kind="stable")]
    starts = bvh.node_start[leaves]
    node_lo[leaves] = np.minimum.reduceat(prim_lo[bvh.prim_order], starts, axis=0)
    node_hi[leaves] = np.maximum.reduceat(prim_hi[bvh.prim_order], starts, axis=0)
    for ids in reversed(_internal_levels(bvh)):
        l, r = bvh.node_left[ids], bvh.node_right[ids]
        node_lo[ids] = np.minimum(node_lo[l], node_lo[r])
        node_hi[ids] = np.maximum(node_hi[l], node_hi[r])
    bvh.prim_lo = prim_lo
    bvh.prim_hi = prim_hi
    bvh.node_lo = node_lo
    bvh.node_hi = node_hi
