"""The pinned perf-regression bench suite (``python -m repro.obs.bench``).

Runs a fixed set of small scenarios — KITTI-like, uniform and clustered
clouds, each as the un-optimized baseline, scheduled, and
scheduled+partitioned engine — records per-phase counters and timings
into ``BENCH_<date>.json``, and compares against the most recent
committed bench file:

* **counters are exact**: the simulator is deterministic, so any drift
  in IS calls, warp steps, cache hits, AABB tests, or result checksums
  is a real behavior change and fails the run;
* **modeled time** must match to a tight relative tolerance (it is pure
  float arithmetic over the counters);
* **wall-clock** (simulator speed) may regress up to ``--wall-tol``
  (default 20%) before failing. Wall checks compare different machines
  meaninglessly, so ``--smoke`` — the CI entry point — skips them (and
  skips writing a new bench file) unless overridden.

The smoke suite is a strict subset of the full suite (same names, same
sizes), so a smoke run diffs cleanly against a committed full bench
file.

Exit codes: 0 clean, 1 regression/mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import cProfile
import datetime
import json
import platform
import pstats
import re
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.core.engine import RTNNConfig, RTNNEngine, VARIANTS
from repro.datasets.kitti import kitti_like
from repro.obs.report import RunReport
from repro.obs.tracer import RecordingTracer
from repro.utils.rng import default_rng

SCHEMA_VERSION = 1

#: relative tolerance for modeled seconds (pure float-over-counters)
MODELED_RTOL = 1e-9
#: default wall-clock regression tolerance (+20%)
WALL_TOL = 0.20


# ----------------------------------------------------------------------
# scenario definitions
# ----------------------------------------------------------------------
def _uniform(n: int, seed: int) -> np.ndarray:
    return default_rng(seed).random((n, 3))


def _clustered(n: int, seed: int) -> np.ndarray:
    rng = default_rng(seed)
    centers = rng.random((12, 3))
    which = rng.integers(0, len(centers), n)
    pts = centers[which] + rng.normal(0.0, 0.01, (n, 3))
    return np.clip(pts, 0.0, 1.0)


def _kitti(n: int, seed: int) -> np.ndarray:
    return kitti_like(n, seed=seed)


#: generator + (radius, mode, k) per dataset family; radii are sized so
#: an r-ball holds a meaningful neighbor population at bench scale.
#: The ``*-tight`` families are the repeat-batch shapes: many points
#: (heavy builds) and a tight radius (short traversals), so structure
#: amortization — the quantity those scenarios pin — dominates.
#: The ``*-tknn`` families run the unbounded exact-kNN expansion loop
#: (radius ``None`` = density-seeded r0); their records additionally
#: carry the expansion round count and a bit-identity verdict against
#: the brute-force exact-kNN oracle, gated by
#: :func:`check_true_knn_oracle`.
#: The ``dbscan-*``/``hausdorff-*``/``sph-*`` families run the
#: downstream workload pipelines (repro.workloads) end to end through a
#: SearchSession; ``radius`` is the workload's eps/interaction radius
#: and ``k`` its remaining knob (min_pts, chunk size, or step count).
#: Their records carry the workload span counters plus a
#: ``workload_oracle_ok`` verdict against the brute oracle, gated by
#: :func:`check_workload_oracle`.
_FAMILIES = {
    "kitti": (_kitti, 4.0, "range", 32),
    "uniform": (_uniform, 0.15, "knn", 8),
    "clustered": (_clustered, 0.05, "knn", 16),
    "kitti-tight": (_kitti, 0.4, "range", 8),
    "uniform-tight": (_uniform, 0.02, "knn", 4),
    "clustered-tight": (_clustered, 0.002, "knn", 4),
    "uniform-tknn": (_uniform, None, "true_knn", 16),
    "clustered-tknn": (_clustered, None, "true_knn", 12),
    "dbscan-clustered": (_clustered, 0.03, "dbscan", 5),
    "dbscan-uniform": (_uniform, 0.12, "dbscan", 4),
    "hausdorff-uniform": (_uniform, None, "hausdorff", 64),
    "sph-clustered": (_clustered, 0.05, "sph", 3),
}

_WORKLOAD_MODES = ("dbscan", "hausdorff", "sph")


@dataclass(frozen=True)
class Scenario:
    """One pinned bench configuration.

    ``repeat`` runs the scenario's search that many times on one held
    engine: batch 1 is cold, later batches hit the engine's GAS cache.
    Counters accumulate over every batch (warm batches are bit-identical
    re-runs, so totals stay deterministic); the record additionally
    carries cold/warm wall times and their ratio.
    """

    family: str          # key into _FAMILIES
    n_points: int
    n_queries: int       # self-search over the first n_queries points
    variant: str         # key into repro.core.engine.VARIANTS
    seed: int = 7
    repeat: int = 1      # query batches served by one held engine
    shards: int = 0      # sharded topology workers (0 = single engine)
    budget: int = 0      # per-query traversal step budget (0 = exact)

    @property
    def name(self) -> str:
        mode = _FAMILIES[self.family][2]
        base = f"{self.family}-{self.n_points}/{self.variant}/{mode}"
        if self.repeat > 1:
            base = f"{base}/x{self.repeat}"
        if self.shards:
            base = f"{base}/sh{self.shards}"
        if self.budget:
            base = f"{base}/b{self.budget}"
        return base

    def config(self) -> RTNNConfig:
        cfg = VARIANTS[self.variant]
        if self.budget:
            cfg = replace(cfg, step_budget=self.budget)
        return cfg


def repeat_scenarios() -> list[Scenario]:
    """The repeat-batch family: held-engine amortization per dataset."""
    return [
        Scenario(family=f, n_points=50000, n_queries=32, variant="noopt",
                 repeat=3)
        for f in ("kitti-tight", "uniform-tight", "clustered-tight")
    ]


def smoke_suite() -> list[Scenario]:
    """The CI smoke subset: every base family baseline vs fully
    optimized, the repeat-batch amortization scenarios, and one
    sharded-topology twin (result-identical to its single-engine
    scenario, checked by :func:`check_shard_consistency`)."""
    return [
        Scenario(family=f, n_points=400, n_queries=160, variant=v)
        for f in ("kitti", "uniform", "clustered")
        for v in ("noopt", "sched+part")
    ] + repeat_scenarios() + [
        Scenario(family="uniform", n_points=400, n_queries=160,
                 variant="sched+part", shards=4),
    ] + [
        # The unbounded exact-kNN expansion loop: baseline and optimized
        # single-engine runs plus a sharded twin, every one gated
        # bit-identical to the brute oracle by check_true_knn_oracle.
        Scenario(family="uniform-tknn", n_points=400, n_queries=160,
                 variant="noopt"),
        Scenario(family="uniform-tknn", n_points=400, n_queries=160,
                 variant="sched+part"),
        Scenario(family="uniform-tknn", n_points=400, n_queries=160,
                 variant="sched+part", shards=4),
        Scenario(family="clustered-tknn", n_points=400, n_queries=160,
                 variant="sched+part"),
    ] + [
        # The step budget: a budgeted twin (``/bN``, gated by
        # :func:`check_budget_consistency` as approximate-but-honest: a
        # subset of the exact answer plus a sane recall bound).
        Scenario(family="uniform", n_points=400, n_queries=160,
                 variant="sched+part", budget=12),
    ] + [
        # Downstream workload pipelines driven end to end through a
        # SearchSession; every record pins the workload span counters
        # and check_workload_oracle gates the brute-oracle verdicts.
        Scenario(family="dbscan-clustered", n_points=300, n_queries=300,
                 variant="sched+part"),
        Scenario(family="hausdorff-uniform", n_points=300, n_queries=120,
                 variant="sched+part"),
        Scenario(family="sph-clustered", n_points=240, n_queries=240,
                 variant="sched+part"),
    ]


def full_suite() -> list[Scenario]:
    """Smoke scenarios plus larger three-variant sweeps per family."""
    return smoke_suite() + [
        Scenario(family=f, n_points=2000, n_queries=700, variant=v)
        for f in ("kitti", "uniform", "clustered")
        for v in ("noopt", "sched", "sched+part")
    ] + [
        Scenario(family=f, n_points=2000, n_queries=700,
                 variant="sched+part")
        for f in ("uniform-tknn", "clustered-tknn")
    ] + [
        # Larger workload sweeps: the baseline-variant DBSCAN twin pins
        # variant-independence of the labels, the uniform family a
        # second density regime.
        Scenario(family="dbscan-clustered", n_points=300, n_queries=300,
                 variant="noopt"),
        Scenario(family="dbscan-uniform", n_points=600, n_queries=600,
                 variant="sched+part"),
        Scenario(family="hausdorff-uniform", n_points=800, n_queries=300,
                 variant="sched+part"),
        Scenario(family="sph-clustered", n_points=400, n_queries=400,
                 variant="sched+part"),
    ]


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _int_counters(counters: dict) -> dict:
    """Only the exactly-comparable (integer) counters, as plain ints."""
    return {
        k: int(v)
        for k, v in counters.items()
        if isinstance(v, (int, np.integer))
    }


def _run_workload_scenario(
    scenario: Scenario, gen, points, mode: str, radius, k: int
) -> dict:
    """Execute one downstream-workload scenario end to end.

    The pipeline drives a solo :class:`~repro.api.SearchSession` (the
    bench pins the session path; cross-path bit-identity is the
    ``workloads`` row of :mod:`repro.verify`) and the record carries
    the workload span counters, a deterministic result checksum, and a
    ``workload_oracle_ok`` verdict against the brute-force oracle.
    """
    # Imported lazily: the classic engine scenarios never need the
    # workload pipelines.
    from repro.api import SearchSession
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
    )

    tracer = RecordingTracer()
    session = SearchSession(points, config=scenario.config(), tracer=tracer)
    client = SessionClient(session)
    t0 = time.perf_counter()
    if mode == "dbscan":
        cfg = DBSCANConfig(eps=radius, min_pts=k, batch_size=64)
        out = run_dbscan(client, cfg, tracer=tracer)
        wall = time.perf_counter() - t0
        o_labels, _o_core, o_counts, o_clusters = brute_dbscan(points, cfg)
        oracle_ok = (
            np.array_equal(out.labels, o_labels)
            and np.array_equal(out.counts, o_counts)
            and out.n_clusters == o_clusters
        )
        neighbors = int(out.counts.sum())
        checksum = int(out.labels.sum())
        workload = dict(out.stats)
    elif mode == "hausdorff":
        cfg = HausdorffConfig(chunk_size=k)
        queries_a = gen(scenario.n_queries, scenario.seed + 1)
        out = run_hausdorff(client, queries_a, cfg, tracer=tracer)
        wall = time.perf_counter() - t0
        o_hd2, o_ia, o_ib = brute_hausdorff(queries_a, points)
        oracle_ok = out.sq_distance == o_hd2 and (
            (out.index_a, out.index_b) == (o_ia, o_ib)
        )
        neighbors = int(out.stats["relaunched"])
        checksum = int(out.index_a) * len(points) + int(out.index_b)
        workload = dict(out.stats, sq_distance=out.sq_distance)
    else:  # sph
        cfg = SPHConfig(radius=radius, n_steps=k)
        out = run_sph(client, cfg, tracer=tracer)
        wall = time.perf_counter() - t0
        o_x, o_v = brute_sph(points, cfg)
        oracle_ok = np.array_equal(out.positions, o_x) and np.array_equal(
            out.velocities, o_v
        )
        neighbors = int(out.stats["neighbor_pairs"])
        # Bit-exact trajectory fingerprint: the raw float64 words summed
        # as int64 (wraps mod 2**64 — deterministic).
        checksum = int(out.positions.view(np.int64).sum())
        workload = dict(out.stats)

    report = RunReport.from_run(
        scenario.name, tracer, extras={"workload": workload}
    )
    return {
        "counters": _int_counters(report.counters),
        "phases": {
            phase: {
                "modeled_s": stats.modeled_s,
                "counters": _int_counters(stats.counters),
            }
            for phase, stats in report.phases.items()
        },
        "breakdown": report.breakdown,
        # No single SearchResults carries a whole-pipeline breakdown;
        # the modeled time is the sum over the traced engine phases.
        "modeled_s": sum(s.modeled_s for s in report.phases.values()),
        "wall_s": wall,
        "neighbors": neighbors,
        "checksum": checksum,
        "workload": workload,
        "workload_oracle_ok": bool(oracle_ok),
    }


def run_scenario(scenario: Scenario) -> dict:
    """Execute one scenario and return its bench record."""
    gen, radius, mode, k = _FAMILIES[scenario.family]
    points = gen(scenario.n_points, scenario.seed)
    if mode in _WORKLOAD_MODES:
        return _run_workload_scenario(scenario, gen, points, mode, radius, k)
    queries = points[: scenario.n_queries]

    tracer = RecordingTracer()
    if scenario.shards:
        # Imported lazily: repro.serve pulls in asyncio machinery the
        # single-engine bench path never needs.
        from repro.serve.shard import ShardedEngine

        engine = ShardedEngine(
            points,
            n_shards=scenario.shards,
            config=scenario.config(),
            tracer=tracer,
        )
    else:
        engine = RTNNEngine(points, config=scenario.config(), tracer=tracer)
    walls = []
    for _ in range(scenario.repeat):
        t0 = time.perf_counter()
        if mode == "knn":
            res = engine.knn_search(queries, k=k, radius=radius)
        elif mode == "true_knn":
            res = engine.true_knn_search(queries, k=k, radius=radius)
        else:
            res = engine.range_search(queries, radius=radius, k=k)
        walls.append(time.perf_counter() - t0)

    cache = (
        engine.cache_stats()
        if scenario.shards
        else engine.gas_cache.stats.as_dict()
    )
    report = RunReport.from_run(
        scenario.name,
        tracer,
        result=res,
        extras={"gas_cache": cache},
    )
    valid = res.indices >= 0
    record = {
        "counters": _int_counters(report.counters),
        "phases": {
            phase: {
                "modeled_s": stats.modeled_s,
                "counters": _int_counters(stats.counters),
            }
            for phase, stats in report.phases.items()
        },
        "breakdown": report.breakdown,
        "modeled_s": report.modeled_s,
        "wall_s": sum(walls),
        "neighbors": int(res.counts.sum()),
        "checksum": int(res.indices[valid].sum()),
    }
    if scenario.repeat > 1:
        warm = sum(walls[1:]) / (scenario.repeat - 1)
        record["wall_first_s"] = walls[0]
        record["wall_warm_s"] = warm
        record["warm_speedup"] = (walls[0] / warm) if warm > 0 else float("inf")
        record["gas_cache"] = cache
    if scenario.budget:
        bud = res.report.extras.get("budget", {})
        record["budget"] = {
            key: bud[key]
            for key in (
                "step_budget",
                "budget_exhausted",
                "exhausted_queries",
                "total_queries",
                "recall_lower_bound",
            )
            if key in bud
        }
    if mode == "true_knn":
        # The expansion loop must land on the exact answer: pin the
        # round count and compare every cell against the brute-force
        # exact-kNN oracle (bench clouds are in generic position, so
        # raw bit-identity holds — no k-boundary distance ties).
        from repro.baselines.brute import brute_force_true_knn

        oracle = brute_force_true_knn(points, queries, k=k)
        tk = res.report.extras["true_knn"]
        record["true_knn_rounds"] = int(tk["rounds"])
        record["true_knn_converged"] = bool(tk["converged"])
        record["oracle_identical"] = bool(
            np.array_equal(res.indices, oracle.indices)
            and np.array_equal(res.counts, oracle.counts)
            and np.array_equal(res.sq_distances, oracle.sq_distances)
        )
    return record


_SHARD_SUFFIX = re.compile(r"/sh\d+$")


def shard_twin(name: str) -> str | None:
    """Name of the single-engine scenario a ``/shN`` scenario mirrors."""
    if not _SHARD_SUFFIX.search(name):
        return None
    return _SHARD_SUFFIX.sub("", name)


_BUDGET_SUFFIX = re.compile(r"/b\d+$")


def budget_twin(name: str) -> str | None:
    """Name of the exact scenario a ``/bN`` scenario mirrors."""
    if not _BUDGET_SUFFIX.search(name):
        return None
    return _BUDGET_SUFFIX.sub("", name)


def run_suite(scenarios: list[Scenario], verbose: bool = True) -> dict:
    """Run every scenario; returns the bench-file payload."""
    records = {}
    for sc in scenarios:
        rec = run_scenario(sc)
        records[sc.name] = rec
        if verbose:
            c = rec["counters"]
            warm = (
                f"  warm x{rec['warm_speedup']:.2f}"
                if "warm_speedup" in rec
                else ""
            )
            print(
                f"  {sc.name:<38} modeled {rec['modeled_s'] * 1e6:9.2f} us  "
                f"wall {rec['wall_s']:6.2f} s  "
                f"is={c.get('is_calls', 0):>8,} "
                f"steps={c.get('traversal_steps', 0):>9,}"
                f"{warm}"
            )
    return {
        "schema": SCHEMA_VERSION,
        "created": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "scenarios": records,
    }


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def check_shard_consistency(payload: dict) -> list[str]:
    """Assert every ``/shN`` scenario returns the single-engine answer.

    The sharded scatter-gather merge is value-deterministic, so the
    neighbor population and the index checksum must match the
    single-engine twin exactly. Counters and modeled seconds are *not*
    compared: a sharded topology legitimately builds smaller per-shard
    BVHs and traverses them independently, so its work profile differs
    by construction.
    """
    failures: list[str] = []
    scenarios = payload.get("scenarios", {})
    for name, rec in sorted(scenarios.items()):
        twin = shard_twin(name)
        if twin is None:
            continue
        if twin not in scenarios:
            failures.append(
                f"{name}: single-engine twin {twin!r} missing from suite"
            )
            continue
        ref = scenarios[twin]
        for key in ("neighbors", "checksum"):
            if rec.get(key) != ref.get(key):
                failures.append(
                    f"{name}: {key} diverged from single-engine twin "
                    f"({ref.get(key)!r} -> {rec.get(key)!r})"
                )
    return failures


def check_budget_consistency(payload: dict) -> list[str]:
    """Gate every step-budgeted ``/bN`` scenario against its exact twin.

    Budgeted runs are approximate by contract, but honestly so: the
    neighbor population must be a subset of the exact twin's (never
    more work reported than the exact answer), the recorded recall
    lower bound must be sane, and a budgeted run whose budget never
    fired must be bit-identical.
    """
    failures: list[str] = []
    scenarios = payload.get("scenarios", {})
    for name, rec in sorted(scenarios.items()):
        twin = budget_twin(name)
        if twin is None:
            continue
        if twin not in scenarios:
            failures.append(f"{name}: exact twin {twin!r} missing from suite")
            continue
        ref = scenarios[twin]
        bud = rec.get("budget")
        if not bud:
            failures.append(f"{name}: budgeted record carries no budget stats")
            continue
        if rec.get("neighbors", 0) > ref.get("neighbors", 0):
            failures.append(
                f"{name}: budgeted run reports MORE neighbors than its "
                f"exact twin ({ref.get('neighbors')!r} -> "
                f"{rec.get('neighbors')!r})"
            )
        bound = bud.get("recall_lower_bound")
        if bound is None or not (0.0 <= bound <= 1.0):
            failures.append(
                f"{name}: recall_lower_bound {bound!r} outside [0, 1]"
            )
        if not bud.get("budget_exhausted", False):
            for key in ("neighbors", "checksum"):
                if rec.get(key) != ref.get(key):
                    failures.append(
                        f"{name}: budget never fired yet {key} diverged "
                        f"from the exact twin ({ref.get(key)!r} -> "
                        f"{rec.get(key)!r})"
                    )
    return failures


def check_true_knn_oracle(payload: dict) -> list[str]:
    """Assert every true-knn scenario matched the brute exact oracle.

    :func:`run_scenario` stamps ``oracle_identical`` (bit-identity of
    indices, counts and squared distances against
    :func:`~repro.baselines.brute.brute_force_true_knn`) and
    ``true_knn_converged`` on every expansion scenario; a ``False``
    either way is a correctness bug in the expansion loop, never noise.
    """
    failures: list[str] = []
    for name, rec in sorted(payload.get("scenarios", {}).items()):
        if "oracle_identical" not in rec:
            continue
        if not rec["oracle_identical"]:
            failures.append(
                f"{name}: true-knn result diverged from the brute-force "
                f"exact-kNN oracle"
            )
        if not rec.get("true_knn_converged", True):
            failures.append(
                f"{name}: expansion hit the round budget without "
                f"satisfying every query "
                f"(rounds={rec.get('true_knn_rounds')!r})"
            )
    return failures


def check_workload_oracle(payload: dict) -> list[str]:
    """Assert every workload scenario matched its brute oracle.

    :func:`_run_workload_scenario` stamps ``workload_oracle_ok`` —
    exact equality of DBSCAN labels/counts, the Hausdorff distance and
    witness pair, or the full SPH trajectory against the brute-force
    recomputation. A ``False`` is a correctness bug in the pipeline or
    the engine, never noise.
    """
    failures: list[str] = []
    for name, rec in sorted(payload.get("scenarios", {}).items()):
        if "workload_oracle_ok" not in rec:
            continue
        if not rec["workload_oracle_ok"]:
            failures.append(
                f"{name}: workload result diverged from its brute-force "
                f"oracle"
            )
    return failures


def compare_records(
    current: dict,
    baseline: dict,
    wall_tol: float = WALL_TOL,
    check_wall: bool = True,
    modeled_rtol: float = MODELED_RTOL,
) -> list[str]:
    """Diff two bench payloads; returns failure descriptions.

    Only scenarios present in *both* files are compared (a smoke run
    against a full baseline compares the smoke subset). Counter and
    checksum drift fails in either direction; wall-clock fails only
    when the current run is slower than ``baseline * (1 + wall_tol)``.
    """
    failures: list[str] = []
    cur = current.get("scenarios", {})
    base = baseline.get("scenarios", {})
    shared = sorted(set(cur) & set(base))
    if not shared:
        return failures

    def diff_counters(name, where, now, then):
        for key in sorted(set(now) | set(then)):
            a, b = now.get(key), then.get(key)
            if a != b:
                failures.append(
                    f"{name}: {where} counter {key!r} changed "
                    f"{b!r} -> {a!r} (counters must match exactly)"
                )

    for name in shared:
        c, b = cur[name], base[name]
        diff_counters(name, "total", c["counters"], b["counters"])
        for phase in sorted(set(c.get("phases", {})) | set(b.get("phases", {}))):
            pc = c.get("phases", {}).get(phase, {}).get("counters", {})
            pb = b.get("phases", {}).get(phase, {}).get("counters", {})
            diff_counters(name, f"phase {phase!r}", pc, pb)
        for key in ("neighbors", "checksum"):
            if c.get(key) != b.get(key):
                failures.append(
                    f"{name}: result {key} changed {b.get(key)!r} -> "
                    f"{c.get(key)!r} (results must be reproducible)"
                )
        bm, cm = b.get("modeled_s", 0.0), c.get("modeled_s", 0.0)
        if abs(cm - bm) > modeled_rtol * max(abs(bm), abs(cm), 1e-300):
            failures.append(
                f"{name}: modeled_s drifted {bm!r} -> {cm!r} "
                f"(tolerance {modeled_rtol:g} relative)"
            )
        if check_wall:
            bw, cw = b.get("wall_s", 0.0), c.get("wall_s", 0.0)
            if bw > 0 and cw > bw * (1.0 + wall_tol):
                failures.append(
                    f"{name}: wall-clock regressed {bw:.3f}s -> {cw:.3f}s "
                    f"(> +{wall_tol:.0%} tolerance)"
                )
    return failures


def find_baseline(directory: Path, exclude: Path | None = None) -> Path | None:
    """The most recent ``BENCH_*.json`` in ``directory``, if any."""
    candidates = sorted(
        p
        for p in directory.glob("BENCH_*.json")
        if exclude is None or p.resolve() != exclude.resolve()
    )
    return candidates[-1] if candidates else None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
#: scenario profiled by ``--profile`` / ``make profile`` when none is
#: named: the fully-optimized large scenario, the one the replay
#: work targets
_PROFILE_DEFAULT = "clustered-2000/sched+part/knn"


def profile_scenario(name: str, top: int = 15) -> int:
    """cProfile one suite scenario and print the hottest functions."""
    matches = [sc for sc in full_suite() if sc.name == name]
    if not matches:
        print(f"bench: no scenario named {name!r}; choices:", file=sys.stderr)
        for sc in full_suite():
            print(f"  {sc.name}", file=sys.stderr)
        return 2
    scenario = matches[0]
    print(f"bench: profiling {scenario.name}")
    profiler = cProfile.Profile()
    profiler.enable()
    run_scenario(scenario)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(top)

    # Hot-path summary: MBR pruning effectiveness and the scenario's
    # wall-clock, from one run outside the profiler (cProfile overhead
    # would inflate it).
    rec = run_scenario(scenario)
    c = rec["counters"]
    print(
        f"bench: hot-path summary: wall {rec['wall_s']:6.2f} s, "
        f"leaf pairs pruned {c.get('leaves_pruned', 0):,}, "
        f"bulk-accepted {c.get('leaves_bulk_accepted', 0):,}, "
        f"prim transactions {c.get('prim_transactions', 0):,}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="run the pinned perf-regression bench suite",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the small CI subset; implies --no-wall and --no-write",
    )
    parser.add_argument(
        "--dir",
        default=".",
        help="directory holding BENCH_*.json files (default: cwd)",
    )
    parser.add_argument("--out", help="output path (default: <dir>/BENCH_<date>.json)")
    parser.add_argument(
        "--baseline",
        help="baseline file to diff against (default: newest BENCH_*.json in --dir)",
    )
    parser.add_argument(
        "--wall-tol",
        type=float,
        default=WALL_TOL,
        help="wall-clock regression tolerance (default 0.20 = +20%%)",
    )
    wall = parser.add_mutually_exclusive_group()
    wall.add_argument(
        "--check-wall", dest="check_wall", action="store_true", default=None
    )
    wall.add_argument("--no-wall", dest="check_wall", action="store_false")
    write = parser.add_mutually_exclusive_group()
    write.add_argument(
        "--write", dest="write", action="store_true", default=None,
        help="write the BENCH_<date>.json artifact",
    )
    write.add_argument("--no-write", dest="write", action="store_false")
    parser.add_argument(
        "--profile",
        nargs="?",
        const=_PROFILE_DEFAULT,
        metavar="SCENARIO",
        help="cProfile one scenario (default: %(const)s) and print the "
        "top functions by cumulative time instead of running the suite",
    )
    args = parser.parse_args(argv)

    if args.profile:
        return profile_scenario(args.profile)

    check_wall = args.check_wall if args.check_wall is not None else not args.smoke
    do_write = args.write if args.write is not None else not args.smoke

    directory = Path(args.dir)
    today = datetime.date.today().isoformat()
    out_path = Path(args.out) if args.out else directory / f"BENCH_{today}.json"

    suite = smoke_suite() if args.smoke else full_suite()
    label = "smoke" if args.smoke else "full"
    print(f"bench: running the {label} suite ({len(suite)} scenarios)")
    payload = run_suite(suite)

    status = 0
    # The gates on the suite's own results: (check, line printed when
    # it passes, failure label), in this order. Built per call so the
    # checks are looked up when main runs.
    gates = (
        (check_shard_consistency,
         "sharded scenarios match their single-engine twins",
         "sharded/single divergence"),
        (check_budget_consistency,
         "budgeted twins bounded by their exact twins",
         "budget divergence"),
        (check_true_knn_oracle,
         "true-knn scenarios match the brute exact-kNN oracle",
         "true-knn oracle divergence"),
        (check_workload_oracle,
         "workload scenarios match their brute oracles",
         "workload oracle divergence"),
    )
    for check, ok_line, label in gates:
        failures = check(payload)
        if failures:
            print(f"bench: {len(failures)} {label}(s):", file=sys.stderr)
            for failure in failures:
                print(f"  FAIL {failure}", file=sys.stderr)
            status = 1
        else:
            print(f"bench: {ok_line}")

    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            print(f"bench: baseline {baseline_path} not found", file=sys.stderr)
            return 2
    else:
        baseline_path = find_baseline(directory, exclude=out_path if do_write else None)

    if baseline_path is None:
        print("bench: no baseline BENCH_*.json found; nothing to compare")
    else:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        failures = compare_records(
            payload, baseline, wall_tol=args.wall_tol, check_wall=check_wall
        )
        compared = sorted(
            set(payload["scenarios"]) & set(baseline.get("scenarios", {}))
        )
        print(
            f"bench: compared {len(compared)} scenario(s) against "
            f"{baseline_path.name}"
            + ("" if check_wall else " (wall-clock checks skipped)")
        )
        if failures:
            print(f"bench: {len(failures)} regression(s):", file=sys.stderr)
            for failure in failures:
                print(f"  FAIL {failure}", file=sys.stderr)
            status = 1
        else:
            print("bench: no regressions")

    if do_write:
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"bench: wrote {out_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
