"""RTNN's intersection shaders (Listing 1 / Listing 2 / Section 5.1).

Each shader consumes one traversal round per ``flat_hits`` call: every
(ray, primitive) pair that passed the primitive test, ray-major with
each ray's pairs in leaf-slot order. It converts launch-order ray ids
to user query ids via the launch's ``query_ids`` map, updates its
accumulator, and returns ``None`` or the rays it ends (Any-Hit) plus
the position of each one's terminating pair — the traversal drops the
pairs after it. Calling a shader directly is the plain form of the
same step: it returns just the terminated ray ids. Distances
are always *computed* here for result reporting; whether they *cost*
anything is decided by the launch's :class:`~repro.gpu.costmodel.IsKind`
(the partitioned range fast path models the sphere test as elided).
"""

from __future__ import annotations

import numpy as np

from repro.bvh.traverse import rank_batches, run_ranks
from repro.core.queues import KnnQueueBatch, RangeAccumulator


def _pair_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a - b
    return np.einsum("ij,ij->i", d, d)


class _PairDistance:
    """Squared (ray, primitive) distances through reusable scratch.

    A shader computes distances once per traversal round; allocating
    three fresh arrays each call dominates its cost for small batches.
    This helper gathers both operands with ``np.take(..., out=)`` into
    per-instance buffers (grown geometrically, never shrunk), subtracts
    in place, and reduces with ``einsum(..., out=)`` — the identical
    float64 operations as :func:`_pair_sq_dist`, so results stay
    bit-identical (asserted in ``tests/test_core_shaders_results.py``).

    The returned distance array is a view of instance scratch, valid
    until the next call; both accumulators copy on insert. Buffers are
    per shader instance, so concurrent bundle launches (each with its
    own shader) never share scratch.
    """

    __slots__ = ("_a", "_b", "_d2")

    def __init__(self):
        self._a = np.empty((0, 3), dtype=np.float64)
        self._b = np.empty((0, 3), dtype=np.float64)
        self._d2 = np.empty(0, dtype=np.float64)

    def __call__(
        self,
        a: np.ndarray,
        a_ids: np.ndarray,
        b: np.ndarray,
        b_ids: np.ndarray,
    ) -> np.ndarray:
        if a.dtype != np.float64 or b.dtype != np.float64:
            return _pair_sq_dist(a[a_ids], b[b_ids])
        n = len(a_ids)
        if n > len(self._d2):
            cap = max(2 * len(self._d2), n)
            self._a = np.empty((cap, 3), dtype=np.float64)
            self._b = np.empty((cap, 3), dtype=np.float64)
            self._d2 = np.empty(cap, dtype=np.float64)
        ga = self._a[:n]
        gb = self._b[:n]
        np.take(a, a_ids, axis=0, out=ga)
        np.take(b, b_ids, axis=0, out=gb)
        np.subtract(ga, gb, out=ga)
        return np.einsum("ij,ij->i", ga, ga, out=self._d2[:n])


class RangeShader:
    """Range-search IS: record neighbors within r, terminate at K.

    ``sphere_test=False`` is the Section-5.1 fast path: every point
    whose AABB encloses the query is accepted without the distance
    check (valid when the AABB is inscribed in the r-sphere). A
    boolean array sets it per ray, for a pass whose launches differ.
    """

    def __init__(
        self,
        points: np.ndarray,
        origins: np.ndarray,
        query_ids: np.ndarray,
        accumulator: RangeAccumulator,
        radius: float,
        sphere_test: bool = True,
    ):
        self.points = points
        self.origins = origins
        self.query_ids = query_ids
        self.acc = accumulator
        self.r2 = float(radius) * float(radius)
        self.sphere_test = sphere_test
        self._tests = bool(np.any(sphere_test))
        # rays exempt from the distance check (None: one flag for all)
        self._exempt = (
            ~np.asarray(sphere_test, dtype=bool) if np.ndim(sphere_test) else None
        )
        self._dist = _PairDistance()

    def __call__(self, ray_ids: np.ndarray, prim_ids: np.ndarray):
        cut = self.flat_hits(ray_ids, prim_ids)
        return None if cut is None else cut[0]

    def flat_hits(self, ray_ids: np.ndarray, prim_ids: np.ndarray):
        """Record one round's accepted candidates; end rays at K.

        Each ray's accepted candidates are ranked in slot order and
        appended in one accumulator insert; a ray ends at the candidate
        that fills its list, and the ones after it are never recorded.
        """
        d2 = self._dist(self.origins, ray_ids, self.points, prim_ids)
        kept = None
        if self._tests:
            keep = d2 <= self.r2
            if self._exempt is not None:
                keep |= self._exempt[ray_ids]
            if not keep.all():
                kept = np.flatnonzero(keep)
                if not len(kept):
                    return None
                ray_ids, prim_ids, d2 = ray_ids[kept], prim_ids[kept], d2[kept]
        full = self.acc.insert(
            self.query_ids[ray_ids], prim_ids, d2, run_ranks(ray_ids)
        )
        if not len(full):
            return None
        return ray_ids[full], full if kept is None else kept[full]


class KnnShader:
    """KNN IS: operate the bounded priority queue; never terminate early.

    Finding the K *nearest* requires visiting every enclosing AABB, so
    unlike range search there is no Any-Hit termination (Section 2.1);
    ``any_hit = False`` tells the traversal so.
    """

    any_hit = False

    def __init__(
        self,
        points: np.ndarray,
        origins: np.ndarray,
        query_ids: np.ndarray,
        queue: KnnQueueBatch,
    ):
        self.points = points
        self.origins = origins
        self.query_ids = query_ids
        self.queue = queue
        self._dist = _PairDistance()

    def __call__(self, ray_ids: np.ndarray, prim_ids: np.ndarray):
        return self.flat_hits(ray_ids, prim_ids)

    def flat_hits(self, ray_ids: np.ndarray, prim_ids: np.ndarray) -> None:
        """Offer one round's candidates to the queues.

        Distances are evaluated once for the whole round, candidates
        beyond the queue radius are dropped up front (the queue would
        drop them anyway), and the survivors are re-batched by *per-ray
        rank* (:func:`~repro.bvh.traverse.rank_batches`). Each batch
        therefore holds at most one candidate per query, and every query
        still receives its candidates in slot order, so the queue passes
        through the identical sequence of states as one insert per slot:
        results are bit-identical, with far fewer insert calls (the
        batch count is the *max* surviving candidates of any one ray,
        not the leaf size).
        """
        d2 = self._dist(self.origins, ray_ids, self.points, prim_ids)
        keep = d2 <= self.queue.r2
        if not keep.all():
            if not keep.any():
                return None
            ray_ids = ray_ids[keep]
            prim_ids = prim_ids[keep]
            d2 = d2[keep]
        qids = self.query_ids[ray_ids]
        for sel in rank_batches(ray_ids):
            self.queue.insert(qids[sel], prim_ids[sel], d2[sel])
        return None


class FirstHitShader:
    """Scheduling pre-pass IS (Listing 2, K = 1).

    Records the first leaf AABB (primitive) each ray lands in and
    terminates the ray immediately — the "truncated ray tracing" that
    makes query grouping nearly free.
    """

    def __init__(self, n_queries: int, query_ids: np.ndarray):
        self.query_ids = query_ids
        self.first_hit = np.full(n_queries, -1, dtype=np.int64)

    def __call__(self, ray_ids: np.ndarray, prim_ids: np.ndarray):
        return self.flat_hits(ray_ids, prim_ids)[0]

    def flat_hits(self, ray_ids: np.ndarray, prim_ids: np.ndarray):
        """Record each ray's first candidate and end the ray there."""
        first = np.flatnonzero(run_ranks(ray_ids) == 0)
        rays = ray_ids[first]
        self.first_hit[self.query_ids[rays]] = prim_ids[first]
        return rays, first
