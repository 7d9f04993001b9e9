"""Geometry acceleration structures (the OptiX GAS).

A GAS is a BVH over custom primitives — here always the point-centered
cubic AABBs of Listing 1 — plus its modeled build cost. Building
executes on the SMs and is non-programmable, exactly as in OptiX; the
only knob the algorithm has is the AABB half-width.

Every GAS is derived from a *point-MBR tree*: the LBVH whose
primitives are the points themselves, so each node bound is the
minimum bounding rectangle of its points. Growing every point into a
cube of half-width ``h`` grows every node by exactly ``h``: rounding is
monotone, so ``min(fl(p - h)) == fl(min(p) - h)``. A width's BVH is
therefore the tree's node bounds ``∓ h`` over the tree's own topology
arrays, shared by reference. Partitioned search builds one GAS per
AABB width (Listing 3) over one point order, so the widths share one
tree and a point update refits that tree once. The tree's leaf rows
are also the tight leaf point MBRs that distance pruning needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.bvh import BVH, build_lbvh, refit_bvh, tree_stats
from repro.geometry.aabb import aabbs_from_points
from repro.geometry.morton import morton_order
from repro.gpu.costmodel import CostModel
from repro.obs.tracer import NULL_TRACER, Tracer

#: refit touches each node once with trivial math — a quarter of the
#: full build's per-AABB cycles is a conservative hardware-update cost
REFIT_COST_FRACTION = 0.25

#: a refit structure whose SAH cost exceeds this multiple of its
#: build-time SAH has decayed enough to be rebuilt (see
#: :meth:`repro.core.engine.RTNNEngine.update_points`)
REBUILD_SAH_FACTOR = 2.0


@dataclass
class GeometryAS:
    """A built acceleration structure.

    Attributes
    ----------
    bvh: the underlying tree, ``mbr`` grown by ``half_width``.
    points: ``(N, 3)`` the primitive centers (search points).
    half_width: AABB half-width used for every primitive.
    build_time: modeled construction time (k1 * M).
    mbr: the point-MBR tree ``bvh`` derives from, shared with every
        GAS built from it; its leaf rows are the leaf point MBRs.
    build_sah: SAH cost of the tree as built; recorded by the first
        :func:`refit_gas`, so structures that never move never pay for
        the measurement.
    """

    bvh: BVH
    points: np.ndarray
    half_width: float
    build_time: float
    mbr: BVH
    build_sah: float | None = None

    @property
    def n_prims(self) -> int:
        return self.bvh.n_prims

    @property
    def aabb_width(self) -> float:
        return 2.0 * self.half_width


def _sync_mbr(mbr: BVH, points: np.ndarray) -> None:
    """Refit the point-MBR tree to ``points`` unless it is already there.

    The tree keeps its own copy of the positions, so a caller moving
    its array in place still reads as a change.
    """
    if not np.array_equal(mbr.prim_lo, points):
        own = points.copy()
        refit_bvh(mbr, own, own)


def _grow(mbr: BVH, prim_lo: np.ndarray, prim_hi: np.ndarray, half_width) -> BVH:
    """The BVH over ``(prim_lo, prim_hi)`` = ``mbr`` grown by ``half_width``.

    Bit-identical to :func:`build_lbvh` over the cubes in ``mbr``'s
    order; the topology arrays are shared, not copied.
    """
    hw = float(half_width)
    return replace(
        mbr,
        node_lo=mbr.node_lo - hw,
        node_hi=mbr.node_hi + hw,
        prim_lo=prim_lo,
        prim_hi=prim_hi,
    )


def build_gas(
    points: np.ndarray,
    half_width: float,
    cost_model: CostModel,
    leaf_size: int = 1,
    order: np.ndarray | None = None,
    tracer: Tracer | None = None,
    mbr: BVH | None = None,
) -> GeometryAS:
    """Build a GAS over point-centered cubic AABBs.

    ``half_width`` is the search radius for the unpartitioned algorithm
    (AABB width = 2r, Listing 1) or the per-partition ``AABBSize/2``
    (Listing 3). ``order`` optionally reuses a precomputed Morton order
    so repeated per-partition builds over the same points skip the sort.
    ``mbr`` is the point-MBR tree of an earlier GAS over these points;
    the new width is derived from it (refit first if the points moved),
    with its order and leaf size, instead of building a tree. Each build
    still charges the full modeled cost: on the device every width is
    its own build.
    ``tracer`` receives a ``build_gas`` span (phase ``build``) with the
    structure counters and the modeled build cost.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("build_gas", phase="build") as sp:
        points = np.ascontiguousarray(points, dtype=np.float64)
        lo, hi = aabbs_from_points(points, half_width)
        if mbr is None:
            if order is None:
                # the order a direct build over these AABBs would use
                order = morton_order(0.5 * (lo + hi))
            own = points.copy()
            mbr = build_lbvh(own, own, leaf_size=leaf_size, order=order)
        else:
            _sync_mbr(mbr, points)
        bvh = _grow(mbr, lo, hi, half_width)
        build_time = cost_model.bvh_build_time(len(points))
        sp.add(
            aabbs=len(points),
            bvh_nodes=bvh.n_nodes,
            bvh_depth=bvh.depth,
            modeled_s=build_time,
        )
        sp.note(aabb_width=2.0 * float(half_width))
    return GeometryAS(
        bvh=bvh,
        points=points,
        half_width=float(half_width),
        build_time=build_time,
        mbr=mbr,
    )


def refit_gas(
    gas: GeometryAS,
    points: np.ndarray,
    cost_model: CostModel,
    tracer: Tracer | None = None,
) -> float:
    """Warm-update ``gas`` in place for moved points; returns the cost.

    The acceleration-structure *update* of OptiX: the shared point-MBR
    tree is refit bottom-up over the frozen topology
    (:func:`repro.bvh.refit_bvh`) unless another width already refit
    it to ``points``, and this width is re-derived from it. Bounds stay
    exact — searches against the refit structure return exact results —
    but tree quality decays as points drift from their build-time
    Morton order. The first refit records the build-time SAH cost so
    :func:`sah_decayed` can tell when the engine should rebuild instead
    (the watchdog in :meth:`repro.core.engine.RTNNEngine.update_points`).
    Requires the same point count as the build; the returned modeled
    seconds are ``REFIT_COST_FRACTION`` of a full build.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("refit_gas", phase="build") as sp:
        if gas.build_sah is None:
            gas.build_sah = tree_stats(gas.bvh).sah_cost
        points = np.ascontiguousarray(points, dtype=np.float64)
        _sync_mbr(gas.mbr, points)
        lo, hi = aabbs_from_points(points, gas.half_width)
        gas.bvh = _grow(gas.mbr, lo, hi, gas.half_width)
        gas.points = points
        refit_time = (
            cost_model.bvh_build_time(len(points)) * REFIT_COST_FRACTION
        )
        sp.add(aabbs=len(points), modeled_s=refit_time)
        sp.note(aabb_width=2.0 * float(gas.half_width))
    return refit_time


def sah_decayed(gas: GeometryAS) -> bool:
    """Whether a refit ``gas``'s SAH cost exceeds ``REBUILD_SAH_FACTOR``
    x its build-time SAH (call after :func:`refit_gas`)."""
    return tree_stats(gas.bvh).sah_cost > REBUILD_SAH_FACTOR * gas.build_sah
