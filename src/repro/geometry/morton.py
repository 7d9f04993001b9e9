"""Morton (Z-order) codes, 2-D and 3-D, fully vectorized.

Morton codes serve two roles in this library, both from the paper:

* the LBVH builder sorts primitive AABBs by the Morton code of their
  centroid so spatially close primitives end up in nearby leaves;
* query scheduling (Section 4) sorts first-hit AABB centers in Morton
  order so adjacent rays represent spatially close queries.

Encoding uses the classic magic-number bit-spreading on ``uint64``:
21 bits per axis in 3-D (63-bit codes), 32 bits per axis in 2-D.
"""

from __future__ import annotations

import numpy as np

#: bits of quantization per axis for 3-D codes
MORTON_BITS_3D = 21
#: bits per axis for 2-D codes
MORTON_BITS_2D = 31


def _part1by2(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each lane so they occupy every 3rd bit."""
    x = x.astype(np.uint64) & np.uint64(0x1FFFFF)
    x = (x | (x << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def _compact1by2(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_part1by2`."""
    x = x.astype(np.uint64) & np.uint64(0x1249249249249249)
    x = (x | (x >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return x


def _part1by1(x: np.ndarray) -> np.ndarray:
    """Spread the low 31 bits of each lane so they occupy every 2nd bit."""
    x = x.astype(np.uint64) & np.uint64(0x7FFFFFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def normalize_to_grid(points: np.ndarray, bits: int, lo=None, hi=None) -> np.ndarray:
    """Quantize points into integer grid coordinates ``[0, 2**bits - 1]``.

    Points are scaled into the (optionally supplied) bounds; degenerate
    axes map to coordinate 0. An axis is degenerate when its extent is
    not positive or so small (subnormal) that the grid scale overflows.
    """
    points = np.asarray(points, dtype=np.float64)
    if lo is None:
        lo = points.min(axis=0)
    if hi is None:
        hi = points.max(axis=0)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    extent = hi - lo
    with np.errstate(divide="ignore", over="ignore"):
        scale = (2**bits - 1) / extent
    scale = np.where((extent > 0.0) & np.isfinite(scale), scale, 0.0)
    coords = np.clip((points - lo) * scale, 0, 2**bits - 1)
    return coords.astype(np.uint64)


def morton_encode_3d(points: np.ndarray, lo=None, hi=None) -> np.ndarray:
    """63-bit Morton codes for 3-D points (21 bits per axis)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {points.shape}")
    q = normalize_to_grid(points, MORTON_BITS_3D, lo, hi)
    return (
        _part1by2(q[:, 0])
        | (_part1by2(q[:, 1]) << np.uint64(1))
        | (_part1by2(q[:, 2]) << np.uint64(2))
    )


def morton_decode_3d(codes: np.ndarray) -> np.ndarray:
    """Recover quantized integer grid coordinates ``(N, 3)`` from codes."""
    codes = np.asarray(codes, dtype=np.uint64)
    x = _compact1by2(codes)
    y = _compact1by2(codes >> np.uint64(1))
    z = _compact1by2(codes >> np.uint64(2))
    return np.stack([x, y, z], axis=1)


def morton_encode_2d(points: np.ndarray, lo=None, hi=None) -> np.ndarray:
    """62-bit Morton codes for 2-D points (31 bits per axis)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be (N, 2), got {points.shape}")
    q = normalize_to_grid(points, MORTON_BITS_2D, lo, hi)
    return _part1by1(q[:, 0]) | (_part1by1(q[:, 1]) << np.uint64(1))


def morton_order(points: np.ndarray, lo=None, hi=None) -> np.ndarray:
    """Indices that sort 2-D or 3-D points in Morton (Z) order.

    The sort is stable, so points with identical codes keep input order
    (this makes query scheduling deterministic).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.shape[1] == 3:
        codes = morton_encode_3d(points, lo, hi)
    elif points.shape[1] == 2:
        codes = morton_encode_2d(points, lo, hi)
    else:
        raise ValueError(f"points must be (N, 2) or (N, 3), got {points.shape}")
    return np.argsort(codes, kind="stable")
