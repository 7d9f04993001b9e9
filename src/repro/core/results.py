"""Search results and run reports returned by the public API."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
        ``None`` when cache simulation was disabled. Over several
        launches, rounds or shards: the mean weighted by
        ``cache_transactions``.
    cache_transactions:
        Node + primitive transactions of the cache-simulated launches:
        the weight behind the hit rates (0 when none was simulated).
    sm_occupancy:
        Modeled achieved occupancy of the actual search: the mean over
        its launches weighted by modeled search time
        (``breakdown.search``).
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
    cache_transactions: int = 0
    sm_occupancy: float | None = None
    device: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def modeled_time(self) -> float:
        return self.breakdown.total

    @classmethod
    def combine(cls, reports, *, rounds: bool = False) -> "RunReport":
        """Fold the reports of several launches into one run report.

        Modeled time, IS calls, traversal steps, partition/bundle/build
        tallies, the per-launch lists, ``gas_cache`` hits/misses,
        ``prune`` leaf counts and ``budget`` query counts add up. The
        hit rates are re-weighted by ``cache_transactions`` and the
        occupancy by ``breakdown.search``, so run-level cache
        statistics survive the fold. Cache ``entries`` is a size, not a
        flow: it sums across different engines (shards), but when
        ``rounds`` is set the reports are successive rounds of the same
        engine(s) and the latest round's count stands.

        A single report comes back as an unchanged copy; no reports
        give an empty report (no partitions, bundles or builds).
        """
        reports = list(reports)
        if len(reports) == 1:
            return replace(reports[0], extras=dict(reports[0].extras))
        breakdown = Breakdown()
        for rep in reports:
            breakdown = breakdown + rep.breakdown

        def total(attr: str) -> int:
            return sum(getattr(rep, attr) for rep in reports)

        def extra(name: str, key: str, of=reports) -> int:
            return sum(rep.extras.get(name, {}).get(key, 0) for rep in of)

        def mean(attr: str, weight) -> float | None:
            parts = [
                (getattr(rep, attr), weight(rep))
                for rep in reports
                if getattr(rep, attr) is not None and weight(rep)
            ]
            w = sum(pw for _, pw in parts)
            return sum(v * pw for v, pw in parts) / w if w else None

        extras: dict = {
            key: [v for rep in reports for v in rep.extras.get(key, [])]
            for key in ("launch_costs", "aabb_widths", "bundle_sizes")
        }
        extras["gas_cache"] = {
            "hits": extra("gas_cache", "hits"),
            "misses": extra("gas_cache", "misses"),
            "entries": extra("gas_cache", "entries", reports[-1:] if rounds else reports),
        }
        extras["prune"] = {
            "enabled": any(rep.extras.get("prune", {}).get("enabled") for rep in reports),
            "leaves_pruned": extra("prune", "leaves_pruned"),
            "leaves_bulk_accepted": extra("prune", "leaves_bulk_accepted"),
        }
        budgets = [rep.extras["budget"] for rep in reports if "budget" in rep.extras]
        if budgets:
            extras["budget"] = budget_extras(
                budgets[0]["step_budget"],
                extra("budget", "exhausted_queries"),
                extra("budget", "total_queries"),
            )
        return cls(
            breakdown=breakdown,
            is_calls=total("is_calls"),
            traversal_steps=total("traversal_steps"),
            n_partitions=total("n_partitions"),
            n_bundles=total("n_bundles"),
            n_bvh_builds=total("n_bvh_builds"),
            l1_hit_rate=mean("l1_hit_rate", lambda r: r.cache_transactions),
            l2_hit_rate=mean("l2_hit_rate", lambda r: r.cache_transactions),
            cache_transactions=total("cache_transactions"),
            sm_occupancy=mean("sm_occupancy", lambda r: r.breakdown.search),
            device=reports[0].device if reports else "",
            extras=extras,
        )


def budget_extras(step_budget: int, exhausted: int, n_queries: int) -> dict:
    """The ``extras["budget"]`` record of a step-budgeted search.

    A query whose rays all ran to completion got the exact answer, so
    the recall lower bound counts only the ``exhausted`` queries (those
    with a budget-truncated ray) as wrong.
    """
    return {
        "step_budget": int(step_budget),
        "budget_exhausted": bool(exhausted),
        "exhausted_queries": int(exhausted),
        "total_queries": int(n_queries),
        "recall_lower_bound": (
            1.0 if n_queries == 0 else max(0.0, 1.0 - exhausted / n_queries)
        ),
    }


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
        the neighbor *set*, never on traversal or discovery order. KNN
        rows are already in it (the queue ranks candidates by the same
        total order, ties included), so for them this is the identity;
        range rows list neighbors in discovery order, and applying it
        makes them comparable across paths.
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
