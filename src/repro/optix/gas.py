"""Geometry acceleration structures (the OptiX GAS).

A GAS is a BVH over custom primitives — here always the point-centered
cubic AABBs of Listing 1 — plus its modeled build cost. Building
executes on the SMs and is non-programmable, exactly as in OptiX; the
only knob the algorithm has is the AABB half-width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bvh import BVH, build_lbvh, refit_bvh, tree_stats
from repro.geometry.aabb import aabbs_from_points
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
    bvh: the underlying tree.
    points: ``(N, 3)`` the primitive centers (search points).
    half_width: AABB half-width used for every primitive.
    build_time: modeled construction time (k1 * M).
    build_sah: SAH cost of the tree as built; recorded by the first
        :func:`refit_gas`, so structures that never move never pay for
        the measurement.
    """

    bvh: BVH
    points: np.ndarray
    half_width: float
    build_time: float
    build_sah: float | None = None

    @property
    def n_prims(self) -> int:
        return self.bvh.n_prims

    @property
    def aabb_width(self) -> float:
        return 2.0 * self.half_width


def build_gas(
    points: np.ndarray,
    half_width: float,
    cost_model: CostModel,
    leaf_size: int = 1,
    order: np.ndarray | None = None,
    tracer: Tracer | None = None,
) -> GeometryAS:
    """Build a GAS over point-centered cubic AABBs.

    ``half_width`` is the search radius for the unpartitioned algorithm
    (AABB width = 2r, Listing 1) or the per-partition ``AABBSize/2``
    (Listing 3). ``order`` optionally reuses a precomputed Morton order
    so repeated per-partition builds over the same points skip the sort.
    ``tracer`` receives a ``build_gas`` span (phase ``build``) with the
    structure counters and the modeled build cost.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("build_gas", phase="build") as sp:
        points = np.ascontiguousarray(points, dtype=np.float64)
        lo, hi = aabbs_from_points(points, half_width)
        bvh = build_lbvh(lo, hi, leaf_size=leaf_size, order=order)
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
    )


def refit_gas(
    gas: GeometryAS,
    points: np.ndarray,
    cost_model: CostModel,
    tracer: Tracer | None = None,
) -> float:
    """Warm-update ``gas`` in place for moved points; returns the cost.

    The acceleration-structure *update* of OptiX: primitive AABBs are
    recentered on the new points and node bounds are refit bottom-up
    over the frozen topology (:func:`repro.bvh.refit_bvh`). Bounds stay
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
        lo, hi = aabbs_from_points(points, gas.half_width)
        refit_bvh(gas.bvh, lo, hi)  # also drops cached leaf point-MBRs
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
