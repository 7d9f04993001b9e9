"""Synthetic open-loop load generation.

The generator models the ROADMAP's "heavy traffic" scenario in
miniature: ``clients`` independent open-loop arrival processes submit
requests at an aggregate ``rps`` for ``duration_s`` seconds, with
exponential inter-arrivals drawn from seeded
:func:`repro.utils.rng.default_rng` streams (one per client, so a
fixed seed replays the same offered load). Open-loop means arrivals do
*not* wait for completions — exactly the regime where admission
control and micro-batching earn their keep.

:func:`run_load` drives a started :class:`SearchService` and returns
an outcome tally. The gates built on it (zero errors, coalescing,
sharded scaling) are rows of :mod:`repro.verify`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.serve.queue import AdmissionError, DeadlineExpired, ServeError
from repro.serve.service import SearchService
from repro.utils.rng import default_rng


@dataclass(frozen=True)
class LoadSpec:
    """Shape of the synthetic offered load."""

    rps: float = 200.0
    clients: int = 4
    duration_s: float = 2.0
    queries_per_request: int = 8
    mode: str = "knn"
    k: int = 8
    radius: float = 0.1
    deadline_s: float | None = None
    seed: int = 0


@dataclass
class LoadOutcome:
    """Tally of one load run, from the clients' point of view."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    expired: int = 0
    errored: int = 0
    degraded: int = 0
    occupancy_max: int = 0
    errors: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "errored": self.errored,
            "degraded": self.degraded,
            "occupancy_max": self.occupancy_max,
        }


async def _client(
    service: SearchService,
    points: np.ndarray,
    spec: LoadSpec,
    client_id: int,
    outcome: LoadOutcome,
) -> None:
    """One open-loop arrival process (its share of the total rps)."""
    rng = default_rng(spec.seed * 10_007 + client_id)
    rate = spec.rps / max(spec.clients, 1)
    loop = asyncio.get_running_loop()
    t_end = loop.time() + spec.duration_s
    pending: list[asyncio.Task] = []

    async def one_request() -> None:
        # Queries are jittered samples of the point set: realistic
        # density, still well inside the scene.
        ids = rng.integers(0, len(points), spec.queries_per_request)
        jitter = rng.normal(0.0, spec.radius * 0.25, (spec.queries_per_request, points.shape[1]))
        queries = points[ids] + jitter
        try:
            res = await service.submit(
                spec.mode,
                queries,
                k=spec.k,
                radius=spec.radius,
                deadline_s=spec.deadline_s,
            )
            outcome.completed += 1
            if res.degraded:
                outcome.degraded += 1
            outcome.occupancy_max = max(outcome.occupancy_max, res.batch_occupancy)
        except AdmissionError:
            outcome.rejected += 1
        except DeadlineExpired:
            outcome.expired += 1
        except ServeError as exc:
            outcome.errored += 1
            outcome.errors.append(str(exc))

    while loop.time() < t_end:
        outcome.submitted += 1
        pending.append(asyncio.create_task(one_request()))
        # Exponential inter-arrival (Poisson process per client).
        await asyncio.sleep(float(rng.exponential(1.0 / rate)))
    if pending:
        await asyncio.gather(*pending)


async def run_load(
    service: SearchService, points: np.ndarray, spec: LoadSpec
) -> LoadOutcome:
    """Drive ``service`` with the offered load; returns the tally.

    The service must already be started; it is *not* stopped here, so
    callers can read its metrics and report afterwards.
    """
    outcome = LoadOutcome()
    await asyncio.gather(
        *(
            _client(service, points, spec, c, outcome)
            for c in range(max(spec.clients, 1))
        )
    )
    return outcome
