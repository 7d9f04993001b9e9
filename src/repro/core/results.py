"""Search results and run reports returned by the public API."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.metrics.breakdown import Breakdown


@dataclass
class RunReport:
    """Modeled-performance record of one end-to-end search.

    Attributes
    ----------
    breakdown:
        Modeled time split into the Fig. 12 categories.
    is_calls:
        Total intersection-shader calls of the actual search.
    traversal_steps:
        Total BVH node pops of the actual search.
    n_partitions:
        Partitions produced by megacell computation (1 if disabled).
    n_bundles:
        Launch groups after bundling (== n_partitions if bundling off).
    n_bvh_builds:
        Acceleration structures constructed.
    l1_hit_rate, l2_hit_rate:
        Cache hit rates of the actual search (sampled simulation), or
        ``None`` when cache simulation was disabled.
    sm_occupancy:
        Modeled achieved occupancy of the actual search.
    device:
        Device name the run was modeled on.
    extras:
        Free-form diagnostic numbers (per-launch details etc.).
    """

    breakdown: Breakdown
    is_calls: int = 0
    traversal_steps: int = 0
    n_partitions: int = 1
    n_bundles: int = 1
    n_bvh_builds: int = 1
    l1_hit_rate: float | None = None
    l2_hit_rate: float | None = None
    sm_occupancy: float | None = None
    device: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def modeled_time(self) -> float:
        return self.breakdown.total


def sum_work_extras(reports) -> dict:
    """The summed ``gas_cache`` and ``prune`` extras of ``reports``.

    Cache hits/misses, pruned and bulk-accepted leaf pairs add up, and
    so do cache ``entries`` — the total for reports of *different*
    engines (shards); a caller folding rounds of one engine replaces it
    with the latest count. Pruning counts as enabled if any report ran
    it.
    """
    cache = {"hits": 0, "misses": 0, "entries": 0}
    prune = {"enabled": False, "leaves_pruned": 0, "leaves_bulk_accepted": 0}
    for rep in reports:
        got = rep.extras.get("gas_cache", {})
        for key in cache:
            cache[key] += got.get(key, 0)
        got = rep.extras.get("prune", {})
        prune["enabled"] = prune["enabled"] or bool(got.get("enabled", False))
        prune["leaves_pruned"] += got.get("leaves_pruned", 0)
        prune["leaves_bulk_accepted"] += got.get("leaves_bulk_accepted", 0)
    return {"gas_cache": cache, "prune": prune}


@dataclass
class SearchResults:
    """Neighbors found for a batch of queries.

    Attributes
    ----------
    indices:
        ``(Q, K)`` int64 point indices, ``-1``-padded. KNN results are
        sorted ascending by distance; range results are in discovery
        order (a set, not a ranking).
    counts:
        ``(Q,)`` number of valid entries per row.
    sq_distances:
        ``(Q, K)`` squared distances aligned with ``indices``
        (``inf`` in padding slots).
    report:
        The modeled-performance record, or ``None`` for searchers that
        do not model hardware (e.g. the brute-force oracle).
    """

    indices: np.ndarray
    counts: np.ndarray
    sq_distances: np.ndarray
    report: RunReport | None = None

    @property
    def n_queries(self) -> int:
        return len(self.indices)

    @property
    def k(self) -> int:
        return self.indices.shape[1]

    def neighbor_sets(self) -> list[set[int]]:
        """Per-query neighbor id sets (order-insensitive comparison)."""
        return [
            set(row[:c].tolist())
            for row, c in zip(self.indices, self.counts)
        ]

    def canonical(self) -> "SearchResults":
        """Rows reordered into canonical ``(sq_distance, index)`` order.

        The canonical order is topology-independent: it depends only on
        the neighbor *set*, never on traversal or discovery order. The
        sharded serving tier emits it natively; applying it to a
        single-engine result makes the two bit-comparable (KNN results
        are already distance-sorted, so for them this is the identity
        whenever no two distinct neighbors tie exactly).
        """
        idx, d2 = canonical_sort(self.indices, self.sq_distances)
        return SearchResults(
            indices=idx,
            counts=self.counts.copy(),
            sq_distances=d2,
            report=self.report,
        )

    def sorted_by_distance(self) -> "SearchResults":
        """Return a copy with each row sorted ascending by distance."""
        order = np.argsort(self.sq_distances, axis=1, kind="stable")
        rows = np.arange(len(self.indices))[:, None]
        return SearchResults(
            indices=self.indices[rows, order],
            counts=self.counts.copy(),
            sq_distances=self.sq_distances[rows, order],
            report=self.report,
        )


def canonical_sort(
    indices: np.ndarray, sq_distances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows sorted lexicographically by ``(sq_distance, index)``.

    Two stable row-wise argsorts: sorting by index first, then stably
    by distance, leaves equal-distance entries in index order.
    """
    rows = np.arange(len(indices))[:, None]
    by_idx = np.argsort(indices, axis=1, kind="stable")
    idx = indices[rows, by_idx]
    d2 = sq_distances[rows, by_idx]
    by_d2 = np.argsort(d2, axis=1, kind="stable")
    return idx[rows, by_d2], d2[rows, by_d2]


def empty_results(n_queries: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Allocate the (indices, counts, sq_distances) triple."""
    indices = np.full((n_queries, k), -1, dtype=np.int64)
    counts = np.zeros(n_queries, dtype=np.int64)
    sq_d = np.full((n_queries, k), np.inf, dtype=np.float64)
    return indices, counts, sq_d
