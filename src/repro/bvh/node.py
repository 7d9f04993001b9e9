"""Flat BVH storage.

Nodes are stored in structure-of-arrays form (bounds, children, leaf
ranges). Leaves reference a contiguous slice of ``prim_order`` — the
primitive indices sorted by the builder — so "primitives under this
leaf" is always a view, never a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BVH:
    """A flat binary BVH over primitive AABBs.

    Attributes
    ----------
    node_lo, node_hi:
        ``(M, 3)`` node bounds.
    node_left, node_right:
        ``(M,)`` child node indices; ``-1`` for leaves.
    node_start, node_end:
        ``(M,)`` range into ``prim_order`` covered by each node
        (leaves use it to enumerate primitives; internal nodes keep it
        for statistics/validation).
    prim_order:
        ``(N,)`` primitive indices in tree order.
    prim_lo, prim_hi:
        ``(N, 3)`` primitive AABBs in *original* primitive order.
    depth:
        Maximum node depth (root = 0); bounds the traversal stack.
    leaf_size:
        Builder's max primitives per leaf.
    """

    node_lo: np.ndarray
    node_hi: np.ndarray
    node_left: np.ndarray
    node_right: np.ndarray
    node_start: np.ndarray
    node_end: np.ndarray
    prim_order: np.ndarray
    prim_lo: np.ndarray
    prim_hi: np.ndarray
    depth: int
    leaf_size: int

    @property
    def n_nodes(self) -> int:
        return len(self.node_left)

    @property
    def n_prims(self) -> int:
        return len(self.prim_order)

    @property
    def is_leaf(self) -> np.ndarray:
        """Boolean mask over nodes; True where the node is a leaf."""
        return self.node_left < 0

    def memory_bytes(self, node_bytes: int = 32, prim_bytes: int = 32) -> int:
        """Modeled device-memory footprint (used by the GPU cost model).

        Hardware BVH nodes are compressed; 32 B/node approximates the
        Turing-era compressed-wide-node figure well enough for traffic
        modeling.
        """
        return self.n_nodes * node_bytes + self.n_prims * prim_bytes
