"""The benchmark's workloads: seeded inputs and the closed loops.

Every workload turns the seed into plain arrays before anything is
timed (the program never sees the seed), sets the system up through
its public API, runs a closed loop for a fixed number of seconds over
those inputs, and hands back the first answer to each distinct request
for :mod:`oracle` to check afterwards.

Set-up -- session construction, service start and one warm-up call per
request kind, which moves lazy imports and cold GAS builds out of the
timed loop -- is repeated :data:`SETUPS` times and reported as the
median; the last set-up's session is the one that is timed.

The point clouds are the registry's canonical inputs (generator seed
0); the seed draws the queries and the drift, so runs with different
seeds measure the same system on different traffic.
"""

from __future__ import annotations

import asyncio
import resource
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import oracle
from repro.api import SearchSession
from repro.datasets import registry
from repro.serve.queue import ServeError

#: set-ups per run; setup_s is their median
SETUPS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; sizes are the recorded ones."""

    name: str
    loop: str                 # "batch" | "serve" | "refit"
    dataset: str
    scale: float = 1.0
    kind: str = "knn"         # batch and refit workloads
    k: int = 16
    batch: int = 1000         # queries per call (batch, refit)
    pool: int = 4             # distinct batches, drift steps or rounds, cycled
    request_queries: int = 16  # serve
    shards: int | None = None
    jitter: float = 0.02      # refit: per-step sigma as a share of r


#: one serve round as (kind, requests, k), submitted in this order: 8
#: concurrent requests, 5 knn, 2 range and 1 true_knn (62.5/25/12.5%)
SERVE_MIX = (("knn", 5, 16), ("range", 2, 32), ("true_knn", 1, 8))
ROUND_SIZE = sum(count for _, count, _ in SERVE_MIX)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload("knn-nbody", "batch", "NBody-9M", kind="knn", k=16,
                 batch=1000, pool=4),
        Workload("range-kitti", "batch", "KITTI-1M", kind="range", k=32,
                 batch=2000, pool=4),
        Workload("serve-mixed", "serve", "Bunny-360K", pool=16),
        Workload("serve-sharded", "serve", "Bunny-360K", pool=16, shards=2),
        Workload("refit-drift", "refit", "NBody-9M", scale=0.2, k=16,
                 batch=256, pool=8),
    ]
}

#: test-only reduced sizes; never used for recorded numbers
SMALL: dict[str, dict] = {
    "knn-nbody": dict(scale=0.05, batch=100, pool=2),
    "range-kitti": dict(scale=0.1, batch=200, pool=2),
    "serve-mixed": dict(scale=0.25, pool=2, request_queries=4),
    "serve-sharded": dict(scale=0.25, pool=2, request_queries=4),
    "refit-drift": dict(scale=0.05, batch=32, pool=4),
}


def workload(name: str, small: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **SMALL[name]) if small else w


@dataclass
class Request:
    """One distinct input: what the oracle needs to check an answer."""

    kind: str
    queries: np.ndarray
    k: int
    radius: float
    points: np.ndarray


@dataclass
class Op:
    """One answered operation: a batch call, a served request or a step."""

    key: int                  # index into Run.requests
    latency_s: float
    report: object = None     # the answer's RunReport; None if it failed
    error: str | None = None


@dataclass
class Run:
    """Everything one workload run measured.

    A round is what the closed loop waits for before it goes on: one
    call, one step, or one serve round of concurrent requests.

    Only the first answer to each request is kept (for the oracle);
    every later answer to it is checked against that one as it arrives
    and dropped, so what a run holds does not grow with the number of
    calls that fit in the loop -- peak_rss_mb measures the program, not
    the benchmark's bookkeeping.
    """

    requests: list[Request]
    setup_s: list[float] = field(default_factory=list)
    modeled_ops: int = 0      # leading ops whose modeled time is seeded
    round_queries: int = 0    # queries of one round of the closed loop
    round_s: list[float] = field(default_factory=list)  # each round's time
    ops: list[Op] = field(default_factory=list)
    answers: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    peak_rss_mb: float = 0.0
    service: dict = field(default_factory=dict)

    def done(self, key: int, latency_s: float, res) -> None:
        first = self.answers.setdefault(key, res)
        error = None
        if first is not res:
            req = self.requests[key]
            error = oracle.mismatch(req, oracle.reference(req, first), res)
        self.ops.append(Op(key, latency_s, res.report, error))

    def failed(self, key: int, latency_s: float, error: str) -> None:
        self.ops.append(Op(key, latency_s, None, error))

    def finish(self, t0: float) -> "Run":
        self.elapsed_s = time.perf_counter() - t0
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        return self


class Cloud:
    """A registry point cloud and the strata its queries are drawn from.

    The strata are equal runs of the points in grid-cell order (cell
    edge = the search radius), so consecutive points are spatial
    neighbours. Drawing one query per stratum gives every batch the
    same spatial make-up -- dense halo cores included -- which keeps
    the partition structure, and with it the work per call, from
    swinging with the seed; the seed picks which points.
    """

    def __init__(self, w: Workload):
        self.points, spec = registry.load(w.dataset, scale=w.scale)
        self.radius = spec.radius
        cells = np.floor(
            (self.points - self.points.min(axis=0)) / self.radius
        ).astype(np.int64)
        self.order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))

    def draw(self, rng, sets: int, n: int) -> np.ndarray:
        """Point indices of ``sets`` query sets of ``n``, shape ``(sets, n)``.

        One point is drawn from each of ``sets * n`` strata, and set
        ``j`` takes strata ``j, j + sets, j + 2 * sets, ...``. So every
        set spans the whole cloud, the sets of one draw differ only in
        neighbouring points, and the work of a pool of sets hardly
        changes with the seed.
        """
        total = sets * n
        bounds = np.linspace(0, len(self.order), total + 1).astype(np.int64)
        picks = bounds[:-1] + (rng.random(total) * np.diff(bounds)).astype(np.int64)
        return self.order[picks].reshape(n, sets).T


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _search(session, req: Request):
    if req.kind == "knn":
        return session.knn_search(req.queries, k=req.k, radius=req.radius)
    return session.range_search(req.queries, radius=req.radius, k=req.k)


# ----------------------------------------------------------------------
# batch and refit: one caller cycling a seeded pool on one thread
# ----------------------------------------------------------------------
def batch_inputs(w: Workload, seed: int):
    """A warm-up batch and the pool of batches the loop cycles."""
    cloud = Cloud(w)
    rng = np.random.default_rng(seed)
    sets = [*cloud.draw(rng, 1, w.batch), *cloud.draw(rng, w.pool, w.batch)]
    warm, *pool = [
        Request(w.kind, cloud.points[idx], w.k, cloud.radius, cloud.points)
        for idx in sets
    ]
    return warm, pool


def refit_inputs(w: Workload, seed: int):
    """A warm-up batch and a drift trajectory of ``w.pool`` steps.

    Each step adds N(0, (jitter * r)^2) to every point of the previous
    step and takes its queries from the moved cloud.
    """
    cloud = Cloud(w)
    rng = np.random.default_rng(seed)
    points = cloud.points
    warm = Request(w.kind, points[cloud.draw(rng, 1, w.batch)[0]], w.k,
                   cloud.radius, points)
    steps = []
    for idx in cloud.draw(rng, w.pool, w.batch):
        points = points + rng.normal(0.0, w.jitter * cloud.radius, points.shape)
        steps.append(Request(w.kind, points[idx], w.k, cloud.radius, points))
    return warm, steps


def run_calls(w: Workload, seed: int, seconds: float, rec=None) -> Run:
    """The batch and refit loops; a refit step moves the points first."""
    moves = w.loop == "refit"
    warm, pool = (refit_inputs if moves else batch_inputs)(w, seed)
    setup_s = []
    for i in range(SETUPS):
        session = None  # let the previous set-up go before the next one
        if rec is not None:
            rec.recording = i == SETUPS - 1
        t0 = time.perf_counter()
        session = SearchSession(warm.points)
        _search(session, warm)
        setup_s.append(time.perf_counter() - t0)
    if rec is not None:
        rec.stage = "timed"

    # The whole pool always runs once: the modeled time of that first
    # cycle depends on the seed alone.
    run = Run(pool, setup_s, modeled_ops=len(pool), round_queries=w.batch)
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while len(run.ops) < len(pool) or time.perf_counter() < deadline:
        key = len(run.ops) % len(pool)
        start = time.perf_counter()
        try:
            if moves:
                session.update_points(pool[key].points)
            res = _search(session, pool[key])
        except Exception as exc:  # a failed call is counted, not fatal
            run.failed(key, time.perf_counter() - start, _error(exc))
            continue
        run.round_s.append(time.perf_counter() - start)
        run.done(key, run.round_s[-1], res)
    return run.finish(t0)


# ----------------------------------------------------------------------
# serve: rounds of concurrent asyncio requests on the main thread
# ----------------------------------------------------------------------
def serve_inputs(w: Workload, seed: int):
    """Warm-up requests (one per kind), then ``w.pool`` rounds of requests.

    The requests are flat, round after round, each round in
    :data:`SERVE_MIX` order; the seed draws every request's queries.
    """
    cloud = Cloud(w)
    rng = np.random.default_rng(seed)
    ks = {kind: k for kind, _, k in SERVE_MIX}
    one_round = [kind for kind, count, _ in SERVE_MIX for _ in range(count)]
    sets = [*cloud.draw(rng, len(ks), w.request_queries),
            *cloud.draw(rng, ROUND_SIZE * w.pool, w.request_queries)]
    requests = [
        Request(kind, cloud.points[idx], ks[kind], cloud.radius, cloud.points)
        for kind, idx in zip(list(ks) + one_round * w.pool, sets)
    ]
    return requests[: len(ks)], requests[len(ks):]


async def _submit(svc, req: Request):
    radius = None if req.kind == "true_knn" else req.radius
    return await svc.submit(req.kind, req.queries, k=req.k, radius=radius)


def run_serve(w: Workload, seed: int, seconds: float, rec=None) -> Run:
    """Closed-loop rounds of :data:`ROUND_SIZE` concurrent requests.

    Each round submits its requests together and waits for every reply
    before the next round starts -- the fan-out-and-gather shape of the
    ``repro.workloads`` service client. The service sees the same
    arrivals in the same order every round, so which requests fuse
    into one launch is fixed by the inputs, not by timing.
    """
    warm, requests = serve_inputs(w, seed)
    return asyncio.run(_serve(w, warm, requests, seconds, rec))


async def _serve(w, warm, requests, seconds, rec) -> Run:
    setup_s = []
    svc = None
    for i in range(SETUPS):
        if svc is not None:
            await svc.stop()
        if rec is not None:
            rec.recording = i == SETUPS - 1
        t0 = time.perf_counter()
        session = SearchSession(warm[0].points)
        if w.shards is None:
            svc = session.serve()
        else:
            # One worker holds every shard: its sub-calls run in turn on
            # the executor thread. A thread per worker only contends
            # for the GIL with the other on two vCPUs.
            svc = session.serve(shards=w.shards, workers=1)
        await svc.start()
        for req in warm:
            await _submit(svc, req)
        setup_s.append(time.perf_counter() - t0)
    if rec is not None:
        rec.stage = "timed"

    # The whole pool always runs once, as in the batch loops.
    run = Run(requests, setup_s, modeled_ops=len(requests),
              round_queries=ROUND_SIZE * w.request_queries)
    before = _shard_counts(svc)
    t0 = time.perf_counter()
    deadline = t0 + seconds

    async def request(key: int):
        start = time.perf_counter()
        try:
            res = await _submit(svc, requests[key])
        except ServeError as exc:  # rejected, expired or stopped
            run.failed(key, time.perf_counter() - start, _error(exc))
            return
        latency = time.perf_counter() - start
        if res.degraded:
            run.failed(key, latency, "degraded answer")
        else:
            run.done(key, latency, res.results)

    rounds = 0
    while rounds < w.pool or time.perf_counter() < deadline:
        first = (rounds % w.pool) * ROUND_SIZE
        start = time.perf_counter()
        await asyncio.gather(*(request(key)
                               for key in range(first, first + ROUND_SIZE)))
        run.round_s.append(time.perf_counter() - start)
        rounds += 1
    run.finish(t0)
    after = _shard_counts(svc)
    await svc.stop()
    run.service = {key: after[key] - before[key] for key in after}
    return run


def _shard_counts(svc) -> dict:
    """Shard-tier tallies from the public rollup (zeros when unsharded)."""
    rollup = getattr(svc.engine, "shard_rollup", None)
    if rollup is None:
        return {"visits": 0, "fanned": 0, "failovers": 0, "brute": 0}
    r = rollup()
    return {
        "visits": r["fanout"]["shard_visits"],
        "fanned": r["fanout"]["queries"],
        "failovers": r["failovers"],
        "brute": r["brute_fallbacks"],
    }


LOOPS = {"batch": run_calls, "refit": run_calls, "serve": run_serve}


def run(name: str, seed: int, seconds: float, rec=None, small=False) -> Run:
    w = workload(name, small)
    return LOOPS[w.loop](w, seed, seconds, rec)
