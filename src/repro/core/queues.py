"""Vectorized per-query neighbor accumulators.

Three flavors, matching the paper's two search types plus the
aggregate-only count query built on top of them:

* :class:`KnnQueueBatch` — a bounded priority queue per query (the KNN
  IS shader "operates a priority queue"); keeps the K smallest
  distances seen, radius-bounded.
* :class:`RangeAccumulator` — an append-only bounded list per query
  (range search records any neighbor within r until K are found, then
  terminates the ray via Any-Hit).
* :class:`CountAccumulator` — a bare tally per query (aggregate-only
  ``count_in_radius``): no neighbor indices or distances are ever
  materialized, and no ray terminates early, so counts are exact and
  never k-capped.

All three process *batches* of (query, candidate) pairs. The KNN
queue takes at most one candidate per query per batch (its shader
re-batches a round by per-ray rank), which keeps its updates free of
scatter conflicts. The range accumulator also takes a whole traversal
round at once: a query's candidates arrive as one contiguous run, each
tagged with its rank in the run, and the count accumulator tallies any
batch.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import empty_results


class KnnQueueBatch:
    """K-bounded max-queues over squared distance, one per query."""

    def __init__(self, n_queries: int, k: int, radius: float):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.n_queries = n_queries
        self.k = int(k)
        self.r2 = float(radius) * float(radius)
        self.idx, self.count, self.d2 = empty_results(n_queries, self.k)
        # Worst (largest) distance currently held; only meaningful once a
        # queue is full, +inf until then so any candidate is accepted.
        self.worst = np.full(n_queries, np.inf, dtype=np.float64)

    def insert(self, qids: np.ndarray, pids: np.ndarray, d2: np.ndarray) -> None:
        """Offer one candidate per (unique) query id.

        Candidates beyond the radius bound or not improving a full queue
        are dropped; otherwise they displace the current worst entry.
        """
        keep = d2 <= self.r2
        if not keep.all():  # callers that pre-filter skip three copies
            if not keep.any():
                return
            qids = qids[keep]
            pids = pids[keep]
            d2 = d2[keep]

        counts = self.count[qids]
        not_full = counts < self.k
        if not_full.all():  # filling phase: every offered queue has room
            self.idx[qids, counts] = pids
            self.d2[qids, counts] = d2
            self.count[qids] = counts + 1
            newly_full = qids[counts + 1 == self.k]
            if len(newly_full):
                self.worst[newly_full] = self.d2[newly_full].max(axis=1)
            return
        if not_full.any():
            q = qids[not_full]
            slots = counts[not_full]
            self.idx[q, slots] = pids[not_full]
            self.d2[q, slots] = d2[not_full]
            self.count[q] = slots + 1
            newly_full = q[slots + 1 == self.k]
            if len(newly_full):
                self.worst[newly_full] = self.d2[newly_full].max(axis=1)

        improving = (~not_full) & (d2 < self.worst[qids])
        if improving.any():
            q = qids[improving]
            d2_new = d2[improving]
            rows = self.d2[q]  # one gathered copy serves argmax and max
            victim = rows.argmax(axis=1)
            arange = np.arange(len(q))
            rows[arange, victim] = d2_new
            self.idx[q, victim] = pids[improving]
            self.d2[q, victim] = d2_new
            self.worst[q] = rows.max(axis=1)

    def finalize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (indices, counts, sq_distances) sorted by distance."""
        order = np.argsort(self.d2, axis=1, kind="stable")
        rows = np.arange(self.n_queries)[:, None]
        return self.idx[rows, order], self.count.copy(), self.d2[rows, order]


class RangeAccumulator:
    """Append-only bounded neighbor lists, one per query.

    Radius filtering is the *shader's* job (it may be elided on the
    partitioned fast path); the accumulator stores whatever it is
    offered.
    """

    def __init__(self, n_queries: int, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.n_queries = n_queries
        self.k = int(k)
        self.idx, self.count, self.d2 = empty_results(n_queries, self.k)

    def insert(
        self,
        qids: np.ndarray,
        pids: np.ndarray,
        d2: np.ndarray,
        rank: np.ndarray | None = None,
    ) -> np.ndarray:
        """Append candidates in offer order.

        A query's candidates form one contiguous run and ``rank`` gives
        each one's position in its run (``None``: every query appears
        once). Candidate ``rank`` lands in slot ``count + rank`` while
        that is below ``k``; the rest are dropped, exactly as if the run
        had been offered one candidate at a time.

        Returns the positions (into the offered batch) of the
        candidates that filled their query's list — at most one per
        query; their rays should terminate (Any-Hit).
        """
        if len(qids) == 0:
            return np.empty(0, dtype=np.int64)
        slots = self.count[qids]
        if rank is not None:
            slots += rank
        open_slot = slots < self.k
        written = None
        if not open_slot.all():
            written = np.flatnonzero(open_slot)
            qids, pids, d2 = qids[written], pids[written], d2[written]
            slots = slots[written]
            if not len(qids):
                return written
        self.idx[qids, slots] = pids
        self.d2[qids, slots] = d2
        # A query's written candidates are a prefix of its run, so the
        # run's last written one carries the query's new count.
        run_end = np.empty(len(qids), dtype=bool)
        run_end[-1] = True
        np.not_equal(qids[1:], qids[:-1], out=run_end[:-1])
        self.count[qids[run_end]] = slots[run_end] + 1
        full = np.flatnonzero(slots + 1 == self.k)
        return full if written is None else written[full]


class CountAccumulator:
    """Aggregate-only tallies, one per query (``count_in_radius``).

    Shares the :class:`RangeAccumulator` insert protocol so the range
    IS shader drives it unchanged: radius filtering stays the shader's
    job, but nothing is materialized — ``idx``/``d2`` are zero-width
    and ``insert`` only bumps the tally. It never reports a full query,
    so no ray Any-Hit terminates and the final counts are the *exact*
    within-radius population (range counts saturate at ``k``).
    """

    def __init__(self, n_queries: int):
        self.n_queries = n_queries
        self.k = 0
        self.idx, self.count, self.d2 = empty_results(n_queries, 0)
        self._no_full = np.empty(0, dtype=np.int64)

    def insert(
        self,
        qids: np.ndarray,
        pids: np.ndarray,
        d2: np.ndarray,
        rank: np.ndarray | None = None,
    ) -> np.ndarray:
        """Tally every offered candidate (queries may repeat); terminate
        nothing."""
        if len(qids):
            self.count += np.bincount(qids, minlength=self.n_queries)
        return self._no_full
