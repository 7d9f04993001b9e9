"""Axis-aligned bounding boxes and ray-AABB intersection.

AABBs are stored as a pair of arrays ``(lo, hi)``, each ``(N, 3)``
float64, or interleaved as an ``(N, 6)`` array ``[lo | hi]`` when a
single buffer is convenient (the BVH node layout uses the latter).

The ray-AABB test implements the *two intersection conditions* from the
paper (Fig. 2):

1. the slab-test hit parameter ``t`` falls inside ``[t_min, t_max]``;
2. the ray *origin lies inside* the AABB, even if the slab-test ``t``
   is outside ``[t_min, t_max]``.

Condition 2 is what makes RTNN's "short ray" trick work: with
``t_max = 1e-16`` essentially every intersection is an origin-inside
event.
"""

from __future__ import annotations

import numpy as np


def aabbs_from_points(points: np.ndarray, half_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Build one cubic AABB per point, centered on the point.

    This is ``buildBVH``'s AABB generation from Listing 1: each point
    becomes a box of width ``2 * half_width`` (the paper uses
    ``half_width = search radius r`` for the unpartitioned algorithm).

    Returns ``(lo, hi)`` arrays of shape ``(N, 3)``.
    """
    points = np.asarray(points, dtype=np.float64)
    hw = float(half_width)
    if hw <= 0.0:
        raise ValueError(f"half_width must be positive, got {hw}")
    return points - hw, points + hw


def aabb_union(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union of a set of AABBs: elementwise min of ``lo``, max of ``hi``."""
    return lo.min(axis=0), hi.max(axis=0)


def aabb_contains(lo: np.ndarray, hi: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Test containment of ``points`` ``(M, 3)`` in AABBs ``(M, 3)`` pairwise.

    Boundary points count as inside (closed boxes), matching the
    conservative semantics hardware ray tracing uses for watertightness.
    """
    return np.logical_and(points >= lo, points <= hi).all(axis=-1)


def box_sq_dists(
    points: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Squared Euclidean lower/upper bounds from points to closed boxes.

    Per axis, the nearest box point is at gap
    ``max(lo - p, p - hi, 0)`` and the farthest corner at
    ``max(p - lo, hi - p)``; summing squares over the axes gives
    ``min_d2`` (0 inside the box) and ``max_d2`` — the bounds of leaf
    MBR pruning. Points and boxes pair row-wise.
    """
    near = np.maximum(np.maximum(lo - points, points - hi), 0.0)
    far = np.maximum(points - lo, hi - points)
    min_d2 = np.einsum("ij,ij->i", near, near)
    max_d2 = np.einsum("ij,ij->i", far, far)
    return min_d2, max_d2


def aabb_volume(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Volume of each AABB; zero for degenerate (inverted) boxes."""
    ext = np.clip(hi - lo, 0.0, None)
    return np.prod(ext, axis=-1)


def aabb_surface_area(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Surface area of each AABB (used by SAH-style tree quality stats)."""
    ext = np.clip(hi - lo, 0.0, None)
    x, y, z = ext[..., 0], ext[..., 1], ext[..., 2]
    return 2.0 * (x * y + y * z + z * x)


def scene_bounds(points: np.ndarray, pad: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Tight bounds of a point set, optionally padded on every side."""
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        raise ValueError("cannot compute bounds of an empty point set")
    return points.min(axis=0) - pad, points.max(axis=0) + pad


def ray_aabb_intersect(
    origins: np.ndarray,
    directions: np.ndarray,
    t_min: float,
    t_max: float,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Vectorized ray-AABB intersection honoring both paper conditions.

    Parameters
    ----------
    origins, directions:
        ``(R, 3)`` ray batches (directions need not be normalized).
    t_min, t_max:
        The ray segment; RTNN uses ``[0, 1e-16]``.
    lo, hi:
        ``(R, 3)`` AABBs tested pairwise against the rays. (Broadcasting
        against a single box is also supported.)

    Returns
    -------
    numpy.ndarray of bool, shape ``(R,)``
        ``True`` where Condition 1 (slab hit within segment) *or*
        Condition 2 (origin inside the box) holds.
    """
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)

    # Condition 2: origin inside the (closed) box.
    inside = np.logical_and(origins >= lo, origins <= hi).all(axis=-1)

    # Fast path for RTNN's degenerate short rays: a segment of length
    # <= 1e-12 can only produce Condition-1 hits when the origin sits
    # within 1e-12 of the box — measure-zero boundary cases the paper's
    # formulation deliberately ignores (Section 3.1's "only rays whose
    # origins reside in an AABB will trigger Step 2").
    if t_max - t_min <= 1e-12 and t_min >= 0.0:
        return inside

    # Condition 1: classic slab test with divide-by-zero handled via inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / directions
        t0 = (lo - origins) * inv
        t1 = (hi - origins) * inv
    near = np.minimum(t0, t1)
    far = np.maximum(t0, t1)
    # A zero direction component yields nan when the origin sits exactly
    # on a slab; treat that axis as non-constraining.
    near = np.where(np.isnan(near), -np.inf, near)
    far = np.where(np.isnan(far), np.inf, far)
    t_enter = near.max(axis=-1)
    t_exit = far.min(axis=-1)
    slab_hit = (t_enter <= t_exit) & (t_exit >= t_min) & (t_enter <= t_max)

    return inside | slab_hit
