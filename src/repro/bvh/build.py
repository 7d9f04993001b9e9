"""BVH construction.

Two builders:

* :func:`build_lbvh` — the production builder. Primitives are sorted by
  the Morton code of their AABB centroid, then a balanced binary tree is
  erected over the sorted range by midpoint splitting, one tree *level*
  per NumPy pass (no per-node Python loop). This mirrors the linear-time
  LBVH construction GPUs use and — like NVIDIA's — has build time linear
  in the number of AABBs (Eq. 3 / Fig. 15 of the paper).

* :func:`build_median_split` — a small recursive object-median reference
  builder (widest-axis centroid median). Used in tests to cross-check
  traversal results against an independently-shaped tree.

Both builders fix only the topology; node bounds come from
:func:`~repro.bvh.refit.refit_bvh`, the level-synchronous bounds pass
that also refits moved primitives.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.node import BVH
from repro.bvh.refit import refit_bvh
from repro.geometry.morton import morton_order


def build_lbvh(
    prim_lo: np.ndarray,
    prim_hi: np.ndarray,
    leaf_size: int = 1,
    order: np.ndarray | None = None,
) -> BVH:
    """Build a balanced LBVH over primitive AABBs.

    Parameters
    ----------
    prim_lo, prim_hi:
        ``(N, 3)`` primitive bounds.
    leaf_size:
        Maximum primitives per leaf (1 matches the paper's one-AABB-per-
        point BVH).
    order:
        Optional precomputed primitive order; defaults to Morton order of
        the centroids.
    """
    prim_lo = np.ascontiguousarray(prim_lo, dtype=np.float64)
    prim_hi = np.ascontiguousarray(prim_hi, dtype=np.float64)
    n = len(prim_lo)
    if n == 0:
        raise ValueError("cannot build a BVH over zero primitives")
    if prim_lo.shape != prim_hi.shape or prim_lo.shape[1] != 3:
        raise ValueError("prim_lo/prim_hi must both be (N, 3)")
    leaf_size = int(leaf_size)
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")

    if order is None:
        centers = 0.5 * (prim_lo + prim_hi)
        order = morton_order(centers)
    else:
        order = np.asarray(order, dtype=np.int64)
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order must be a permutation of range(N)")

    starts_all: list[np.ndarray] = []
    ends_all: list[np.ndarray] = []
    left_all: list[np.ndarray] = []
    right_all: list[np.ndarray] = []

    # Level-order construction: the frontier holds this level's ranges.
    f_start = np.array([0], dtype=np.int64)
    f_end = np.array([n], dtype=np.int64)
    nodes_so_far = 0
    depth = 0
    while len(f_start):
        count = f_end - f_start
        split = count > leaf_size
        n_split = int(split.sum())
        mids = (f_start + f_end) // 2

        left = np.full(len(f_start), -1, dtype=np.int64)
        right = np.full(len(f_start), -1, dtype=np.int64)
        base = nodes_so_far + len(f_start)
        pos = np.cumsum(split) - 1  # rank among splitting nodes
        left[split] = base + 2 * pos[split]
        right[split] = base + 2 * pos[split] + 1

        starts_all.append(f_start)
        ends_all.append(f_end)
        left_all.append(left)
        right_all.append(right)
        nodes_so_far += len(f_start)

        if n_split == 0:
            break
        ns = np.empty(2 * n_split, dtype=np.int64)
        ne = np.empty(2 * n_split, dtype=np.int64)
        ns[0::2] = f_start[split]
        ne[0::2] = mids[split]
        ns[1::2] = mids[split]
        ne[1::2] = f_end[split]
        f_start, f_end = ns, ne
        depth += 1

    m = nodes_so_far
    bvh = BVH(
        node_lo=np.empty((m, 3), dtype=np.float64),
        node_hi=np.empty((m, 3), dtype=np.float64),
        node_left=np.concatenate(left_all),
        node_right=np.concatenate(right_all),
        node_start=np.concatenate(starts_all),
        node_end=np.concatenate(ends_all),
        prim_order=order,
        prim_lo=prim_lo,
        prim_hi=prim_hi,
        depth=depth,
        leaf_size=leaf_size,
    )
    refit_bvh(bvh, prim_lo, prim_hi)  # also rejects inverted AABBs
    return bvh


def build_median_split(
    prim_lo: np.ndarray, prim_hi: np.ndarray, leaf_size: int = 1
) -> BVH:
    """Reference builder: recursive widest-axis object-median split.

    O(N log² N) with Python-level recursion — intended for tests and
    small inputs, where its independently-shaped tree cross-checks the
    LBVH traversal results.
    """
    prim_lo = np.ascontiguousarray(prim_lo, dtype=np.float64)
    prim_hi = np.ascontiguousarray(prim_hi, dtype=np.float64)
    n = len(prim_lo)
    if n == 0:
        raise ValueError("cannot build a BVH over zero primitives")
    leaf_size = int(leaf_size)
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
    centers = 0.5 * (prim_lo + prim_hi)

    order = np.arange(n, dtype=np.int64)
    node_left: list[int] = []
    node_right: list[int] = []
    node_start: list[int] = []
    node_end: list[int] = []

    max_depth = 0
    # Explicit stack of (start, end, node_id, depth); children are
    # allocated eagerly so parent slots can be patched in place.
    def new_node(s: int, e: int) -> int:
        node_left.append(-1)
        node_right.append(-1)
        node_start.append(s)
        node_end.append(e)
        return len(node_left) - 1

    root = new_node(0, n)
    stack = [(0, n, root, 0)]
    while stack:
        s, e, nid, d = stack.pop()
        max_depth = max(max_depth, d)
        if e - s <= leaf_size:
            continue
        seg = order[s:e]
        ext = prim_hi[seg].max(axis=0) - prim_lo[seg].min(axis=0)
        axis = int(np.argmax(ext))
        loc = np.argsort(centers[seg, axis], kind="stable")
        order[s:e] = seg[loc]
        mid = s + (e - s) // 2
        lid = new_node(s, mid)
        rid = new_node(mid, e)
        node_left[nid] = lid
        node_right[nid] = rid
        stack.append((s, mid, lid, d + 1))
        stack.append((mid, e, rid, d + 1))

    m = len(node_left)
    bvh = BVH(
        node_lo=np.empty((m, 3), dtype=np.float64),
        node_hi=np.empty((m, 3), dtype=np.float64),
        node_left=np.asarray(node_left, dtype=np.int64),
        node_right=np.asarray(node_right, dtype=np.int64),
        node_start=np.asarray(node_start, dtype=np.int64),
        node_end=np.asarray(node_end, dtype=np.int64),
        prim_order=order,
        prim_lo=prim_lo,
        prim_hi=prim_hi,
        depth=max_depth,
        leaf_size=leaf_size,
    )
    refit_bvh(bvh, prim_lo, prim_hi)
    return bvh
