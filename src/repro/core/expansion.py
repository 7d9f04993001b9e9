"""Adaptive radius expansion for unbounded ("true") kNN.

RTNN's native kNN is radius-bounded: a query silently returns fewer
than ``k`` neighbors when the ball is too small. *RT-kNNS Unbound*
(Nagarajan et al., ICS 2023) removes the bound by launching bounded
searches under a geometric radius schedule and re-launching only the
queries that are still unsatisfied. This module holds the pieces of
that schedule shared by every searcher — the single engine, the
sharded scatter-gather topology, and the serving tier — so all of them
walk *bit-identical* radius sequences:

* :func:`seed_radius` — the round-0 radius, estimated from a coarse
  grid-density histogram of the **point set** (never the queries):
  the radius of a ball expected to hold ``oversample * k`` points at
  the cloud's median occupied-cell density. Depending only on
  ``(points, k, policy)`` is what makes solo, fused, sharded and
  served runs share one schedule, which the bit-identity tests and the
  bench baselines pin.
* :func:`cover_radius` — the per-group termination bound: the diagonal
  of the joint AABB of points and queries. A round whose radius
  reaches it has every point in range of every query, so the round's
  bounded answer *is* the exact kNN answer (``counts < k`` only when
  the whole cloud holds fewer than ``k`` points).
* :class:`ExpansionPolicy` — the knobs: an explicit round-0 override,
  the geometric growth factor, the density oversampling, and a hard
  round cap.

Everything here is host-side scalar/grid arithmetic — no pair
distances (the COST rules forbid distance math outside the shaders),
no RNG, no clocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.results import empty_results
from repro.geometry.grid import UniformGrid
from repro.obs.tracer import NULL_TRACER
from repro.utils.validate import as_points, check_positive, check_positive_int

#: smallest usable round-0 radius: degenerate clouds (all points
#: coincident) still need a strictly positive bounded-search radius
_MIN_SEED = 1e-12

#: relative slack applied to the cover bound before declaring a round
#: exhaustive: the shader's squared distances can round a few ulps past
#: the exact value, so requiring the radius to exceed the AABB diagonal
#: by one part in 1e9 guarantees no true neighbor is dropped at the
#: boundary, while changing the round count on no realistic schedule
#: (growth >= 2 overshoots the bound by far more per round)
COVER_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class ExpansionPolicy:
    """Knobs of the true-kNN radius expansion schedule.

    Attributes
    ----------
    init_radius:
        Explicit round-0 radius; ``None`` (the default) derives it from
        the grid-density estimate of :func:`seed_radius`.
    growth:
        Geometric factor between rounds: round ``j`` searches at
        ``r0 * growth**j``. Must exceed 1 or the schedule never covers
        the scene.
    oversample:
        Density safety factor: the seed ball is sized to hold
        ``oversample * k`` points at the estimated density, so
        typical queries finish in round 0 and only tail queries
        (sparse regions, boundary) re-launch.
    max_rounds:
        Hard cap on rounds. The geometric schedule reaches any scene's
        cover bound in a few dozen rounds, so the cap only matters as a
        backstop; a run that hits it reports ``converged=False`` and
        returns the best bounded answer of the final round.
    max_grid_cells:
        Memory cap forwarded to the density grid.
    """

    init_radius: float | None = None
    growth: float = 2.0
    oversample: float = 2.0
    max_rounds: int = 64
    max_grid_cells: int = 1 << 22

    def __post_init__(self):
        if self.init_radius is not None:
            check_positive(self.init_radius, "init_radius")
        if not np.isfinite(self.growth) or self.growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {self.growth}")
        check_positive(self.oversample, "oversample")
        check_positive_int(self.max_rounds, "max_rounds")


#: the schedule every searcher uses unless a caller overrides it
DEFAULT_POLICY = ExpansionPolicy()


def reject_step_budget(*budgets) -> None:
    """Refuse true kNN under any step budget (per call or configured).

    The expansion loop's termination test (``counts == k`` after an
    exhaustive round) needs exact bounded rounds; a budget-truncated
    round would silently return wrong rows. Every true-kNN entry point
    of every searcher calls this with its call and config budgets.
    """
    if any(b is not None for b in budgets):
        raise ValueError(
            "true_knn is incompatible with a step budget: its "
            "termination test requires exact bounded rounds"
        )


def true_knn_extras(
    r0: float, policy: ExpansionPolicy, convergence: dict | None = None
) -> dict:
    """The ``extras["true_knn"]`` record of one expansion run.

    ``convergence`` is :func:`run_expansion`'s telemetry; ``None``
    stands for a run over no queries (zero rounds, converged).
    """
    if convergence is None:
        convergence = {
            "rounds": 0,
            "round_radii": [],
            "relaunched": [],
            "satisfied": [],
            "relaunched_fraction": [],
            "converged": True,
        }
    return {"seed_radius": r0, "growth": policy.growth, **convergence}


def seed_radius(points, k: int, policy: ExpansionPolicy | None = None) -> float:
    """The round-0 radius of the expansion schedule.

    A coarse uniform grid (~1 cell per point over the bounding box)
    bins the cloud; the median count over *occupied* cells estimates
    the local density ``rho`` where points actually live — far more
    robust on clustered clouds than the bounding-box average, which
    the empty space between clusters dilutes. The seed is the radius
    of a ball expected to hold ``policy.oversample * k`` points at
    that density::

        r0 = cbrt(3 * oversample * k / (4 * pi * rho))

    Deterministic in ``(points, k, policy)`` — the queries never
    participate, so every topology serving the same cloud derives the
    same schedule.
    """
    policy = policy or DEFAULT_POLICY
    k = check_positive_int(k, "k")
    if policy.init_radius is not None:
        return float(policy.init_radius)
    points = as_points(points, "points", dims=None)
    n = len(points)
    if n == 0:
        raise ValueError("cannot seed a radius from an empty point set")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    extent = np.maximum(hi - lo, _MIN_SEED)
    dims = points.shape[1]
    # ~1 point per cell on average over the bounding volume
    cell = float(np.prod(extent)) ** (1.0 / dims) / max(n, 1) ** (1.0 / dims)
    cell = max(cell, _MIN_SEED)
    if dims == 3:
        grid = UniformGrid(points, cell, max_cells=policy.max_grid_cells)
        counts = grid.cell_count
        occupied = counts[counts > 0]
        per_cell = float(np.median(occupied))
        rho = per_cell / grid.cell_size**3
        want = policy.oversample * k
        r0 = (3.0 * want / (4.0 * np.pi * rho)) ** (1.0 / 3.0)
    else:
        # 2-D clouds: area density over the bounding box (the uniform
        # grid substrate is 3-D only; 2-D inputs are rare and small).
        area = float(np.prod(extent))
        rho = n / area
        want = policy.oversample * k
        r0 = (want / (np.pi * rho)) ** 0.5
    return float(max(r0, _MIN_SEED))


def cover_radius(points, queries) -> float:
    """Radius at which a bounded search over ``points`` is exhaustive.

    The diagonal of the joint AABB of points and queries bounds every
    query-to-point distance, so a bounded kNN round at ``r >= cover``
    sees the whole cloud as candidates: its answer is the exact
    (unbounded) kNN answer, and any query still holding fewer than
    ``k`` neighbors simply lives in a cloud with fewer than ``k``
    points. ``0.0`` for empty query sets (nothing left to cover).

    No pair distances are computed — only the two AABBs (the COST
    rules keep distance math inside the shaders).
    """
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if len(queries) == 0 or len(points) == 0:
        return 0.0
    lo = np.minimum(points.min(axis=0), queries.min(axis=0))
    hi = np.maximum(points.max(axis=0), queries.max(axis=0))
    span = hi - lo
    return float(np.sqrt(np.sum(span * span)))


def run_expansion(
    bounded_pass,
    groups: list,
    k: int,
    r0: float,
    covers: list,
    policy: ExpansionPolicy | None = None,
    tracer=None,
):
    """Drive the shared adaptive-expansion loop over query groups.

    Round ``j`` calls ``bounded_pass(subs, r0 * growth**j)`` with the
    still-unsatisfied queries of every live group (``subs`` is one
    array per live group, in group order) and folds the rows that
    finished — ``counts >= k``, or any row once the radius clears the
    group's cover bound (times :data:`COVER_SLACK`) — into the final
    per-group result triples. Both the single engine and the sharded
    scatter-gather topology run *this* loop with their own bounded
    searcher; since a bounded pass is bit-identical across the two, the
    round structure (and therefore every per-round radius and re-launch
    set) is too.

    Each round is wrapped in a ``true_knn.round[j]`` span with phase
    ``"expand"`` carrying the integer convergence counters
    (``true_knn_rounds`` / ``relaunched_queries`` /
    ``satisfied_queries``) and the round radius as a note.

    Returns ``(finals, rounds_info, convergence)``: per-group
    ``(indices, counts, sq_distances)`` triples; one record per round
    with the round's shared report, the live global group indices, and
    the launch tallies; and the convergence telemetry dict destined for
    ``extras["true_knn"]``.
    """
    policy = policy or DEFAULT_POLICY
    tracer = tracer if tracer is not None else NULL_TRACER
    sizes = [len(g) for g in groups]
    n_total = sum(sizes)
    finals = [empty_results(n, k) for n in sizes]
    active = [np.arange(n, dtype=np.int64) for n in sizes]
    slacked = [c * COVER_SLACK for c in covers]
    rounds_info: list[dict] = []
    forced = False
    rounds = 0
    while rounds < policy.max_rounds:
        live = [gi for gi in range(len(groups)) if len(active[gi])]
        if not live:
            break
        last = rounds == policy.max_rounds - 1
        r = r0 * policy.growth**rounds
        subs = [groups[gi][active[gi]] for gi in live]
        n_launched = int(sum(len(s) for s in subs))
        with tracer.span(f"true_knn.round[{rounds}]", phase="expand") as sp:
            round_res = bounded_pass(subs, r)
            n_done = 0
            for sub_i, gi in enumerate(live):
                res = round_res[sub_i]
                rows = active[gi]
                if r >= slacked[gi]:
                    # exhaustive: every point was a candidate, so the
                    # bounded answer is the exact answer even for
                    # under-filled rows
                    done = np.ones(len(rows), dtype=bool)
                elif last:
                    # round budget exhausted: flush the best bounded
                    # answer and report non-convergence
                    done = np.ones(len(rows), dtype=bool)
                    forced = forced or bool((res.counts < k).any())
                else:
                    done = res.counts >= k
                take = rows[done]
                idx, cnt, d2 = finals[gi]
                idx[take] = res.indices[done]
                cnt[take] = res.counts[done]
                d2[take] = res.sq_distances[done]
                active[gi] = rows[~done]
                n_done += int(done.sum())
            sp.add(
                true_knn_rounds=1,
                relaunched_queries=n_launched,
                satisfied_queries=n_done,
            )
            sp.note(radius=float(r))
        rounds_info.append(
            {
                "report": round_res[0].report,
                "live": live,
                "radius": float(r),
                "relaunched": n_launched,
                "satisfied": n_done,
            }
        )
        rounds += 1
    convergence = {
        "rounds": rounds,
        "round_radii": [ri["radius"] for ri in rounds_info],
        "relaunched": [ri["relaunched"] for ri in rounds_info],
        "satisfied": [ri["satisfied"] for ri in rounds_info],
        "relaunched_fraction": [
            (ri["relaunched"] / n_total) if n_total else 0.0
            for ri in rounds_info
        ],
        "converged": not forced,
    }
    return finals, rounds_info, convergence
