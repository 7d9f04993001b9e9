"""The equivalence matrix: every search path returns the oracle's answer.

RTNN's scheduling and partitioning only change performance, so every
serving path must return exactly what one oracle per kind says. The
identity matrix states that as a table of :class:`Cell` rows:

* kind ∈ {knn, range, count, true_knn, budgeted};
* path ∈ {solo engine, fused service, sharded 1, sharded 4, sharded 4
  with one shard's primary killed} (:data:`PATH_RUNNERS`);
* variant ∈ {noopt, full} (:data:`CONFIGS`);
* ± refit-then-search: the path's own ``update_points`` first jitters
  the cloud (a refit), then teleports it (the SAH watchdog rebuilds),
  and the path searches after each move.

The oracles are :func:`~repro.baselines.brute.exact_search` (knn,
true_knn, and range with ``k`` set to the largest oracle count, rows
compared in canonical order) and
:func:`~repro.baselines.brute.exact_count` (count). A ``budgeted``
cell runs knn and range under a budget that fires and one that never
does, and each answer meets the step-budget contract instead: every
returned neighbor is distinct and in the exact range answer at its
exact distance, knn rows stay in canonical order, ``recall_lower_bound``
lies in ``[0, 1]``, and a budget that never fired returns the
unbudgeted rows. A
combination the contract rejects (true kNN under a budget) is a row
expecting its typed error.

The rows that are not identities:
``serve-smoke`` (open-loop load at :data:`SERVE_RPS`: zero errors,
rejections or expiries, batches coalesce),
``shard-smoke`` (1 vs 4 shards: zero errors or expiries, modeled
throughput scales ≥ :data:`MIN_SCALING`) and ``workloads`` (DBSCAN,
Hausdorff and SPH equal across paths and to their brute oracles). The
``true_knn`` cells also check the expansion telemetry: converged within
:data:`MAX_ROUNDS` rounds, exactly the unsatisfied queries relaunched,
and the served radius schedule extending the solo one.

Run ``python -m repro.verify`` (``make verify``); it exits 1 naming
every failing cell or row.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.api import SearchSession
from repro.baselines.brute import exact_count, exact_search
from repro.core.engine import VARIANTS, RTNNConfig, RTNNEngine
from repro.core.results import SearchResults
from repro.datasets import load
from repro.serve.loadgen import LoadSpec, run_load
from repro.serve.service import SearchService, ServiceConfig
from repro.serve.shard import ShardedEngine
from repro.utils.rng import default_rng
from repro.workloads import (
    DBSCANConfig,
    HausdorffConfig,
    SessionClient,
    SPHConfig,
    brute_dbscan,
    brute_hausdorff,
    brute_sph,
    run_dbscan,
    run_hausdorff,
    run_sph,
    service_client,
)

KINDS = ("knn", "range", "count", "true_knn", "budgeted")
CONFIGS = {"noopt": VARIANTS["noopt"], "full": RTNNConfig()}
#: shards of the sharded paths and of the scaling row
SHARDS = 4
#: modeled-clock throughput scaling the shard-smoke row requires at SHARDS
MIN_SCALING = 2.5
#: expansion rounds a true_knn cell may take
MAX_ROUNDS = 12
#: serve-smoke's offered load: a rate the service drains without a
#: growing backlog on 2 vCPUs, so the row checks coalescing rather
#: than admission control under saturation
SERVE_RPS = 25
#: a short batching window: the matrix submits each step's groups at once
_SERVE_CONFIG = ServiceConfig(batch_window_s=0.002)


def _require(ok: bool, message: str) -> None:
    """A gate check that ``python -O`` cannot strip."""
    if not ok:
        raise AssertionError(message)


@dataclass(frozen=True)
class Cell:
    """One row of the matrix: ``expect`` is the typed error a rejected
    combination must raise (``None``: the oracle's answer)."""

    kind: str
    path: str
    variant: str
    refit: bool = False
    expect: type[Exception] | None = None

    @property
    def name(self) -> str:
        return f"{self.kind}/{self.path}/{self.variant}" + (
            "/refit" if self.refit else ""
        )


def clustered_cloud(n: int, seed: int, spread: float = 0.02) -> np.ndarray:
    """A deterministic clustered point cloud in the unit cube."""
    rng = default_rng(seed)
    centers = rng.random((8, 3))
    pts = centers[rng.integers(0, 8, n)] + rng.normal(0.0, spread, (n, 3))
    return np.clip(pts, 0.0, 1.0)


@dataclass(frozen=True)
class Scene:
    """The matrix input: a cloud, its moves and the query groups."""

    steps: tuple  # the cloud, jittered, then teleported
    groups: tuple
    k: int = 6
    radius: float = 0.08
    #: a budget that fires on this scene, and one that never does
    tight_budget: int = 3
    loose_budget: int = 1 << 20


def make_scene(n_points: int = 500, n_groups: int = 2, seed: int = 5) -> Scene:
    """A clustered cloud and query groups jittered off it, each with one
    outlier beyond its box (it takes several true-kNN rounds)."""
    rng = default_rng(seed)
    pts = clustered_cloud(n_points, seed, spread=0.04)
    jitter = np.clip(pts + rng.normal(0.0, 0.003, pts.shape), 0.0, 1.0)
    teleport = default_rng(seed + 1).random(pts.shape)
    groups = []
    for _ in range(n_groups):
        q = pts[rng.integers(0, n_points, 7)] + rng.normal(0.0, 0.01, (7, 3))
        groups.append(np.vstack([q, 1.0 + rng.random((1, 3))]))
    return Scene(steps=(pts, jitter, teleport), groups=tuple(groups))


# ----------------------------------------------------------------------
# one runner per path
# ----------------------------------------------------------------------
class SoloPath:
    """Direct per-group calls on one held engine."""

    def __init__(self, points, config: RTNNConfig):
        self.engine = RTNNEngine(points, config=config)

    def search(self, kind, groups, k, radius, budget=None) -> list:
        e = self.engine
        if kind == "true_knn":
            if budget is not None:
                e = e.with_config(step_budget=budget)
            return [e.true_knn_search(g, k=k) for g in groups]
        if kind == "count":
            return [e.count_in_radius(g, radius) for g in groups]
        search = e.knn_search if kind == "knn" else e.range_search
        return [search(g, k=k, radius=radius, budget=budget) for g in groups]

    def update(self, points) -> None:
        self.engine.update_points(points)

    def close(self) -> None:
        pass


class ServedPath:
    """Concurrent submits through a :class:`SearchService`: every
    step's groups fuse into one batch."""

    def __init__(self, engine, kill_primary: bool = False):
        self.engine = engine
        self.kill_primary = kill_primary
        if kill_primary:
            engine.kill_worker(engine.preference[0][0])
        self.service = SearchService(engine, config=_SERVE_CONFIG)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.service.start())

    def search(self, kind, groups, k, radius, budget=None) -> list:
        svc = self.service
        if kind == "true_knn":
            radius = None  # density-seeded, as the solo call

        async def gather():
            return await asyncio.gather(*(
                svc.submit(kind, g, k=k, radius=radius, budget=budget)
                for g in groups
            ))

        served = self.loop.run_until_complete(gather())
        for res in served:
            _require(not res.degraded, "served degraded")
            _require(
                res.batch_occupancy == len(groups),
                f"batch occupancy {res.batch_occupancy}, "
                f"expected {len(groups)} fused requests",
            )
        if self.kill_primary:
            shard = served[0].results.report.extras["shard"]
            _require(shard["failovers"] > 0, "the killed primary never failed over")
        return [res.results for res in served]

    def update(self, points) -> None:
        self.service.update_points(points)

    def close(self) -> None:
        self.loop.run_until_complete(self.service.stop())
        self.loop.close()


#: path name -> runner factory over (points, config)
PATH_RUNNERS = {
    "solo": SoloPath,
    "fused": lambda p, c: ServedPath(RTNNEngine(p, config=c)),
    "sh1": lambda p, c: ServedPath(ShardedEngine(p, n_shards=1, config=c)),
    f"sh{SHARDS}": lambda p, c: ServedPath(
        ShardedEngine(p, n_shards=SHARDS, config=c)
    ),
    f"sh{SHARDS}-killed": lambda p, c: ServedPath(
        ShardedEngine(p, n_shards=SHARDS, config=c), kill_primary=True
    ),
}

#: every identity cell, then the combinations the contract rejects
MATRIX = tuple(
    Cell(kind, path, variant, refit)
    for path, variant, refit, kind in product(
        PATH_RUNNERS, CONFIGS, (False, True), KINDS
    )
) + tuple(
    Cell("true_knn+budget", path, variant, expect=ValueError)
    for path, variant in product(PATH_RUNNERS, CONFIGS)
)


# ----------------------------------------------------------------------
# oracles and checks
# ----------------------------------------------------------------------
def _rows_differ(got: SearchResults, want: SearchResults) -> list[str]:
    return [
        f"{f} != oracle"
        for f in ("indices", "counts", "sq_distances")
        if not np.array_equal(getattr(got, f), getattr(want, f))
    ]


def _oracle(kind, points, groups, k, radius) -> list:
    if kind == "count":
        return [exact_count(points, g, radius) for g in groups]
    if kind == "true_knn":
        return [exact_search(points, g, k) for g in groups]
    if kind == "knn":
        return [exact_search(points, g, k, radius) for g in groups]
    return [exact_search(points, g, range_k(points, groups, radius), radius)
            for g in groups]


def range_k(points, groups, radius) -> int:
    """The range ``k`` no row overflows: the largest oracle count."""
    counts = exact_count(points, np.concatenate(groups), radius).counts
    return max(int(counts.max(initial=0)), 1)


def _check_true_knn(report, reference_radii) -> list[str]:
    """Converged in bounded rounds, relaunching only the unsatisfied
    queries; the served schedule extends the solo one."""
    tk = report.extras["true_knn"]
    out = []
    if not tk["converged"] or tk["rounds"] > MAX_ROUNDS:
        out.append(f"{tk['rounds']} rounds, converged={tk['converged']}")
    launched, satisfied = tk["relaunched"], tk["satisfied"]
    for j in range(1, len(launched)):
        if launched[j] != launched[j - 1] - satisfied[j - 1]:
            out.append(f"round {j} relaunched {launched[j]} queries, "
                       f"not the {launched[j - 1] - satisfied[j - 1]} unsatisfied")
    if sum(satisfied) != launched[0]:
        out.append("satisfied counts do not account for every query")
    for radii in reference_radii:
        if tk["round_radii"][: len(radii)] != radii:
            out.append("radius schedule diverges from the solo engine's")
    return out


def _check_budgeted(kind, got, exact, unbudgeted, never_fires: bool) -> list[str]:
    """The step-budget contract for one ``kind`` (knn or range) group.

    ``exact`` holds the exact range rows (every in-radius neighbor with
    its exact squared distance), ``unbudgeted`` the oracle's rows for
    ``kind``; ``never_fires`` marks the budget too large to ever run
    out. A budgeted row holds distinct neighbors, each in the exact
    range row at its exact distance (so within the radius); a knn row
    is also in canonical ``(sq_distance, index)`` order.
    """
    out = []
    bud = got.report.extras["budget"]
    if not 0.0 <= bud["recall_lower_bound"] <= 1.0:
        out.append(f"recall_lower_bound {bud['recall_lower_bound']} outside [0, 1]")
    if never_fires:
        if bud["budget_exhausted"]:
            out.append("the never-firing budget fired")
        rows = got.canonical() if kind == "range" else got
        return out + [f"unfired budget: {m}" for m in _rows_differ(rows, unbudgeted)]
    for q in range(len(got.counts)):
        n = int(got.counts[q])
        idx, d2 = got.indices[q, :n], got.sq_distances[q, :n]
        truth = dict(zip(exact.indices[q, : exact.counts[q]].tolist(),
                         exact.sq_distances[q, : exact.counts[q]].tolist()))
        if len(set(idx.tolist())) < n:
            out.append(f"query {q}: budgeted {kind} row repeats a neighbor")
        if any(truth.get(i) != d for i, d in zip(idx.tolist(), d2.tolist())):
            out.append(f"query {q}: budgeted {kind} row is not a subset of the exact row")
        if kind == "knn":
            ordered = (d2[1:] > d2[:-1]) | ((d2[1:] == d2[:-1]) & (idx[1:] > idx[:-1]))
            if not ordered.all():
                out.append(f"query {q}: budgeted knn row is not in (d2, index) order")
    return out


class _Run:
    """One matrix run: oracles and solo radius schedules, memoized."""

    def __init__(self, scene: Scene):
        self.scene = scene
        self._oracles: dict = {}
        self.solo_radii: dict = {}

    def oracle(self, kind, step):
        key = (kind, step)
        if key not in self._oracles:
            s = self.scene
            self._oracles[key] = _oracle(
                kind, s.steps[step], s.groups, s.k, s.radius
            )
        return self._oracles[key]

    def check(self, cell: Cell, runner, step: int) -> list[str]:
        s = self.scene
        if cell.expect is not None:
            try:
                runner.search("true_knn", s.groups, s.k, s.radius, s.tight_budget)
            except cell.expect:
                return []
            return [f"expected {cell.expect.__name__}"]
        if cell.kind == "budgeted":
            exact = self.oracle("range", step)
            out = []
            for kind, k in (("range", range_k(s.steps[step], s.groups, s.radius)),
                            ("knn", s.k)):
                fired = False
                for budget in (s.tight_budget, s.loose_budget):
                    got = runner.search(kind, s.groups, k, s.radius, budget)
                    for g, e, u in zip(got, exact, self.oracle(kind, step)):
                        out += _check_budgeted(kind, g, e, u, budget == s.loose_budget)
                        fired |= g.report.extras["budget"]["budget_exhausted"]
                if not fired:
                    out.append(f"the tight budget never fired on {kind}")
            return out
        k = s.k
        if cell.kind == "range":
            k = range_k(s.steps[step], s.groups, s.radius)
        got = runner.search(cell.kind, s.groups, k, s.radius)
        want = self.oracle(cell.kind, step)
        out = []
        for gi, (g, w) in enumerate(zip(got, want)):
            if cell.kind == "count":
                if not np.array_equal(g.counts, w.counts):
                    out.append(f"group {gi}: counts != oracle")
                continue
            rows = g.canonical() if cell.kind == "range" else g
            out += [f"group {gi}: {m}" for m in _rows_differ(rows, w)]
            if cell.kind == "true_knn":
                key = (cell.variant, step, gi)
                if cell.path == "solo":
                    self.solo_radii[key] = g.report.extras["true_knn"]["round_radii"]
                ref = [self.solo_radii[key]] if key in self.solo_radii else []
                out += [f"group {gi}: {m}" for m in _check_true_knn(g.report, ref)]
        return out


def _watchdog(runner, step: int) -> list[str]:
    """The jitter must refit a solo engine's cache, the teleport trip
    its SAH watchdog (sharded paths reshard on every move)."""
    engine = getattr(runner, "engine", None)
    if not isinstance(engine, RTNNEngine):
        return []
    rebuilt = len(engine.gas_cache) == 0
    if rebuilt != (step == 2):
        return ["the teleport did not trip the SAH watchdog" if step == 2
                else "the jitter did not keep the refit cache"]
    return []


def run_matrix(scene: Scene | None = None, cells=MATRIX) -> dict[str, list[str]]:
    """Run ``cells`` over ``scene``; returns failure messages by cell name.

    Cells sharing a (path, variant) share one runner: it searches the
    cloud, then (for refit cells) moves it twice through its own
    ``update_points`` and searches after each move.
    """
    run = _Run(scene or make_scene())
    failures: dict[str, list[str]] = {}
    instances = sorted({(c.path, c.variant) for c in cells},
                       key=lambda pv: (list(PATH_RUNNERS).index(pv[0]), pv[1]))
    for path, variant in instances:
        mine = [c for c in cells if (c.path, c.variant) == (path, variant)]
        try:
            _run_path(run, path, variant, mine, failures)
        except Exception as exc:  # a path that cannot build or move
            for cell in mine:
                failures.setdefault(cell.name, []).append(
                    f"{type(exc).__name__}: {exc}"
                )
    return failures


def _run_path(run: _Run, path, variant, cells, failures) -> None:
    runner = PATH_RUNNERS[path](run.scene.steps[0], CONFIGS[variant])
    try:
        steps = (0, 1, 2) if any(c.refit for c in cells) else (0,)
        for step in steps:
            moved = []
            if step:
                runner.update(run.scene.steps[step])
                moved = _watchdog(runner, step)
            for cell in cells:
                if cell.refit != bool(step):
                    continue
                try:
                    msgs = moved + run.check(cell, runner, step)
                except Exception as exc:  # a crash fails only its cell
                    msgs = [f"{type(exc).__name__}: {exc}"]
                if msgs:
                    tag = f"step {step}: " if step else ""
                    failures.setdefault(cell.name, []).extend(
                        tag + m for m in msgs
                    )
    finally:
        runner.close()


# ----------------------------------------------------------------------
# the rows that are not identities
# ----------------------------------------------------------------------
def serve_smoke() -> str:
    """Seeded open-loop load the service sustains: zero errors,
    rejections or expiries, and batches coalesce."""
    points, spec = load("Bunny-360K", scale=0.03)
    load_spec = LoadSpec(rps=SERVE_RPS, clients=4, duration_s=2.0,
                         mode="knn", k=4, radius=spec.radius, seed=0)

    async def drive():
        svc = SearchService(RTNNEngine(points),
                            config=ServiceConfig(max_queue_depth=256,
                                                 batch_window_s=0.010))
        async with svc:
            return await run_load(svc, points, load_spec)

    out = asyncio.run(drive())
    _require(out.errored == 0, f"{out.errored} errored requests ({out.errors[:3]})")
    _require(out.rejected == 0, f"{out.rejected} requests rejected at admission")
    _require(out.expired == 0, f"{out.expired} requests expired")
    _require(out.occupancy_max > 1, "no coalescing (batch occupancy never > 1)")
    return f"{out.completed} requests, occupancy max {out.occupancy_max}"


def shard_smoke() -> str:
    """1 vs SHARDS shards under one load: zero errors or expiries and
    modeled-clock throughput scaling >= MIN_SCALING."""
    points, _ = load("Bunny-360K", scale=0.1)
    load_spec = LoadSpec(rps=150, clients=4, duration_s=1.0,
                         mode="knn", k=8, radius=0.05, seed=0)
    qps = {}
    for n in (1, SHARDS):
        engine = ShardedEngine(points, n_shards=n)

        async def drive():
            svc = SearchService(engine,
                                config=ServiceConfig(max_queue_depth=256,
                                                     batch_window_s=0.005))
            async with svc:
                return await run_load(svc, points, load_spec)

        out = asyncio.run(drive())
        _require(out.errored == 0, f"{n} shard(s): {out.errored} serve errors")
        _require(out.expired == 0, f"{n} shard(s): {out.expired} expiries")
        makespan = engine.modeled_makespan_s
        _require(engine.fanout_queries > 0 and makespan > 0.0,
                 f"{n} shard(s) served nothing")
        qps[n] = engine.fanout_queries / makespan
    scaling = qps[SHARDS] / qps[1]
    _require(
        scaling >= MIN_SCALING,
        f"modeled throughput scaling {scaling:.2f}x at {SHARDS} shards "
        f"is below {MIN_SCALING}x",
    )
    return f"modeled throughput scaling {scaling:.2f}x at {SHARDS} shards"


@contextlib.contextmanager
def _workload_client(points, path: str):
    session = SearchSession(points)
    if path == "solo":
        yield SessionClient(session)
    else:
        shards = SHARDS if path == f"sh{SHARDS}" else None
        with service_client(session, shards=shards, config=_SERVE_CONFIG) as c:
            yield c


def workloads(
    n_points: int = 300, n_queries: int = 120, seed: int = 7, sph_steps: int = 5
) -> str:
    """DBSCAN, Hausdorff and an SPH run: equal on every path and to
    their brute oracles."""
    points = clustered_cloud(n_points, seed)
    a_set = clustered_cloud(n_queries, seed + 1)
    dcfg = DBSCANConfig(eps=0.05, min_pts=5, batch_size=64)
    hcfg = HausdorffConfig(chunk_size=48)
    scfg = SPHConfig(radius=0.06, dt=1e-3, n_steps=sph_steps)
    runs = {}
    for path in ("solo", "fused", f"sh{SHARDS}"):
        with _workload_client(points, path) as client:
            d = run_dbscan(client, dcfg)
            h = run_hausdorff(client, a_set, hcfg)
            runs[path] = (
                (d.labels, d.counts, d.n_clusters),
                (h.sq_distance, h.index_a, h.index_b),
            )
        with _workload_client(points, path) as client:
            s = run_sph(client, scfg)
            runs[path] += ((s.positions, s.velocities),)
    labels, _, counts, clusters = brute_dbscan(points, dcfg)
    oracle = (
        (labels, counts, clusters),
        brute_hausdorff(a_set, points),
        brute_sph(points, scfg),
    )
    for path, got in runs.items():
        for name, g, o in zip(("dbscan", "hausdorff", "sph"), got, oracle):
            _require(
                all(np.array_equal(x, y) for x, y in zip(g, o)),
                f"{name} on {path} != brute oracle",
            )
    return f"dbscan, hausdorff, sph exact on {'/'.join(runs)}"


#: (row name, check) for the rows that are not identities
ROWS = (
    ("serve-smoke", serve_smoke),
    ("shard-smoke", shard_smoke),
    ("workloads", workloads),
)


def main(argv=None) -> int:
    argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="run the path-equivalence matrix and the serving rows",
    ).parse_args(argv)
    status = 0
    failures = run_matrix()
    for name, msgs in failures.items():
        for m in msgs:
            print(f"verify: FAIL {name}: {m}", file=sys.stderr)
    rejected = sum(c.expect is not None for c in MATRIX)
    if failures:
        status = 1
    else:
        print(f"verify: {len(MATRIX) - rejected} identity cells match their "
              f"oracles, {rejected} rejected combinations raise their error")
    for name, row in ROWS:
        try:
            print(f"verify: {name} ok: {row()}")
        except AssertionError as exc:
            print(f"verify: FAIL {name}: {exc}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
