"""BVH refitting: update bounds in place for moved primitives.

Dynamic workloads (SPH particles, LiDAR streams) move points every
step. Rebuilding the BVH costs k1 * M; *refitting* — recomputing node
bounds bottom-up over the unchanged topology — is cheaper and is what
OptiX exposes as an acceleration-structure update. Tree quality decays
as points drift from their build-time Morton order, so callers refit
until the SAH cost has decayed too far and then rebuild (the watchdog
in :meth:`repro.core.engine.RTNNEngine.update_points`).

The refit walks the level structure implicitly: node bounds are
recomputed children-first by iterating nodes in reverse creation order
(children always have larger indices than their parent in both
builders).
"""

from __future__ import annotations

import numpy as np

from repro.bvh.node import BVH


def refit_bvh(bvh: BVH, prim_lo: np.ndarray, prim_hi: np.ndarray) -> None:
    """Update ``bvh``'s bounds in place for new primitive AABBs.

    ``prim_lo``/``prim_hi`` replace the primitive bounds (same count and
    order as at build time); topology, primitive order and leaf
    assignment stay fixed.
    """
    prim_lo = np.ascontiguousarray(prim_lo, dtype=np.float64)
    prim_hi = np.ascontiguousarray(prim_hi, dtype=np.float64)
    if prim_lo.shape != bvh.prim_lo.shape or prim_hi.shape != bvh.prim_hi.shape:
        raise ValueError("refit requires the same primitive count as the build")
    if np.any(prim_hi < prim_lo):
        raise ValueError("inverted primitive AABBs (hi < lo)")
    bvh.prim_lo = prim_lo
    bvh.prim_hi = prim_hi
    # Cached leaf point-MBRs are position-derived; every refit moves the
    # primitives, so stale MBRs would make distance pruning unsound.
    bvh.invalidate_leaf_mbrs()

    slo = prim_lo[bvh.prim_order]
    shi = prim_hi[bvh.prim_order]
    # Children are created after their parents in both builders, so a
    # reverse sweep sees every node's children before the node itself.
    for i in range(bvh.n_nodes - 1, -1, -1):
        l, r = bvh.node_left[i], bvh.node_right[i]
        if l < 0:
            s, e = bvh.node_start[i], bvh.node_end[i]
            bvh.node_lo[i] = slo[s:e].min(axis=0)
            bvh.node_hi[i] = shi[s:e].max(axis=0)
        else:
            bvh.node_lo[i] = np.minimum(bvh.node_lo[l], bvh.node_lo[r])
            bvh.node_hi[i] = np.maximum(bvh.node_hi[l], bvh.node_hi[r])
