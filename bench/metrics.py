"""End-to-end and per-layer metrics of one finished workload run.

Each function returns ``{name: (value, n)}`` where ``n`` is the sample
count behind the value. Units and directions live in BENCHMARK.json.

End-to-end metrics come from the untraced run. Per-layer metrics come
from the bench-side spans of a traced run (see :mod:`spans`): a
``*.wall_frac`` is the layer's self time (its spans' durations minus
the nested calls into other layers) divided by the timed wall time. The
``gas.*`` metrics cover the recorded set-up and the timed loop, every
other per-layer metric the timed loop alone. A layer a workload never
enters reads 0.
"""

from __future__ import annotations

import numpy as np

from spans import self_times

BREAKDOWN = ("data", "opt", "bvh", "fs", "search")


def _reports(ops) -> list:
    """The distinct run reports behind ``ops``: fused requests share one."""
    seen = {}
    for op in ops:
        if op.report is not None:
            seen.setdefault(id(op.report), op.report)
    return list(seen.values())


def _latencies_ms(run) -> np.ndarray:
    return np.array([op.latency_s for op in run.ops
                     if op.report is not None]) * 1e3


def end_to_end(run) -> dict[str, tuple[float, int]]:
    """User-visible metrics.

    ``throughput_qps`` is the queries of one round of the closed loop (a
    call, a step, or a serve round of concurrent requests) over the
    median round time -- the rate of the median round, which a few
    seconds of host contention do not move the way they move a total
    over the elapsed time.
    """
    lat_ms = _latencies_ms(run)
    throughput = run.round_queries / float(np.median(run.round_s))
    prefix = run.ops[: run.modeled_ops]
    modeled = sum(r.modeled_time for r in _reports(prefix))
    prefix_q = sum(len(run.requests[op.key].queries) for op in prefix
                   if op.report is not None)
    return {
        "throughput_qps": (throughput, len(run.round_s)),
        "latency_p50_ms": (float(np.median(lat_ms)), len(lat_ms)),
        "modeled_gpu_ns_per_query": (modeled / prefix_q * 1e9, len(prefix)),
        "peak_rss_mb": (run.peak_rss_mb, 1),
        "setup_s": (float(np.median(run.setup_s)), len(run.setup_s)),
    }


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def per_layer(run, spans) -> dict[str, tuple[float, int]]:
    selfs = self_times(spans)
    timed = [s for s in spans if s.stage == "timed"]
    by_layer: dict[str, list] = {}
    for s in timed:
        by_layer.setdefault(s.layer, []).append(s)

    def layer(name):
        return by_layer.get(name, [])

    def self_frac_of_wall(name):
        return _ratio(sum(selfs[s.id] for s in layer(name)), run.elapsed_s)

    def self_share(name):
        own = layer(name)
        return _ratio(sum(selfs[s.id] for s in own),
                      sum(s.duration for s in own))

    n_ops = len(run.ops)
    out: dict[str, tuple[float, int]] = {}

    # the tail of the calls, requests or steps (measured while traced)
    lat_ms = _latencies_ms(run)
    out["latency_p90_ms"] = (float(np.percentile(lat_ms, 90)), len(lat_ms))

    # serve: the service front door and its executor job
    submits = [s for s in layer("serve") if s.name.endswith(".submit")]
    batches = [s for s in layer("serve") if s.name.endswith(".execute_batch")]
    engine_of = {}
    for b in batches:
        for rid in b.attrs.get("rids", ()):
            engine_of[rid] = b.duration
    lat = sum(s.duration for s in submits)
    wait = sum(s.attrs.get("queue_wait_s", 0.0) for s in submits)
    in_engine = sum(engine_of.get(s.attrs.get("rid"), 0.0) for s in submits)
    out["serve.queue_wait_frac"] = (_ratio(wait, lat), len(submits))
    out["serve.self_frac"] = (_ratio(lat - wait - in_engine, lat), len(submits))
    out["serve.batch_occupancy_mean"] = (
        _ratio(sum(len(b.attrs.get("rids", ())) for b in batches), len(batches)),
        len(batches),
    )
    out["serve.engine_busy_frac"] = (
        _ratio(sum(b.duration for b in batches), run.elapsed_s), len(batches)
    )

    # shard: scatter-gather over the shards
    svc = run.service
    shard_calls = layer("shard")
    out["shard.fanout_mean"] = (
        _ratio(svc.get("visits", 0), svc.get("fanned", 0)), len(shard_calls)
    )
    out["shard.self_frac"] = (self_share("shard"), len(shard_calls))
    out["shard.failovers_plus_brute"] = (
        float(svc.get("failovers", 0) + svc.get("brute", 0)), len(shard_calls)
    )

    # engine: the RTNNEngine public calls
    engine = layer("engine")
    searches = [s for s in engine if "queries" in s.attrs]
    queries = sum(s.attrs["queries"] for s in searches)
    out["engine.calls"] = (_ratio(len(engine), n_ops), n_ops)
    out["engine.self_frac"] = (self_share("engine"), len(engine))

    # partition / bundling
    mc = layer("partition")
    out["partition.wall_frac"] = (self_frac_of_wall("partition"), len(mc))
    out["partition.growth_steps_per_query"] = (
        _ratio(sum(s.attrs.get("growth_steps", 0) for s in mc),
               sum(s.attrs.get("queries", 0) for s in mc)),
        len(mc),
    )
    out["partition.bundles_per_call"] = (
        _ratio(sum(s.attrs["bundles"] for s in searches), len(searches)),
        len(searches),
    )

    # schedule
    sched = layer("schedule")
    modeled_total = sum(s.attrs["breakdown"]["total"] for s in searches)
    out["schedule.wall_frac"] = (self_frac_of_wall("schedule"), len(sched))
    out["schedule.modeled_frac"] = (
        _ratio(sum(s.attrs.get("modeled_s", 0.0) for s in sched), modeled_total),
        len(sched),
    )

    # GAS builds (set-up included) and the GAS cache
    builds = [s for s in spans if s.layer == "gas"]
    out["gas.builds"] = (float(len(builds)), len(builds))
    out["gas.build_ms_total"] = (
        sum(s.duration for s in builds) * 1e3, len(builds)
    )
    hits = sum(s.attrs.get("gas_hits", 0) for s in searches)
    misses = sum(s.attrs.get("gas_misses", 0) for s in searches)
    out["gas_cache.hit_ratio"] = (_ratio(hits, hits + misses), hits + misses)

    # traversal
    launches = layer("traverse")
    steps = sum(s.attrs["steps"] for s in searches)
    out["traverse.wall_frac"] = (self_frac_of_wall("traverse"), len(launches))
    out["traverse.launches_per_call"] = (
        _ratio(len(launches), len(searches)), len(searches)
    )
    out["traverse.steps_per_query"] = (_ratio(steps, queries), queries)
    out["traverse.is_calls_per_query"] = (
        _ratio(sum(s.attrs["is_calls"] for s in searches), queries), queries
    )
    out["traverse.leaf_prune_ratio"] = (
        _ratio(sum(s.attrs.get("leaves_pruned", 0) for s in searches), steps),
        len(searches),
    )
    cycle = sorted(searches, key=lambda s: s.start)[: run.modeled_ops or None]
    out["traverse.steps_per_query_drift"] = (_drift(cycle), len(cycle))

    # shader accumulators
    queue = layer("queues")
    inserts = [s for s in queue if s.name.endswith(".insert")]
    out["queues.wall_frac"] = (self_frac_of_wall("queues"), len(queue))
    out["queues.insert_calls_per_query"] = (
        _ratio(len(inserts), queries), queries
    )

    # cache-simulation replay
    tx = [s for s in launches if s.attrs.get("l1") is not None]
    weight = sum(s.attrs["tx"] for s in tx)
    out["replay.wall_frac"] = (self_frac_of_wall("replay"), len(layer("replay")))
    out["replay.l1_hit_rate"] = (
        _ratio(sum(s.attrs["l1"] * s.attrs["tx"] for s in tx), weight), len(tx)
    )
    out["replay.l2_hit_rate"] = (
        _ratio(sum(s.attrs["l2"] * s.attrs["tx"] for s in tx), weight), len(tx)
    )

    # true-kNN radius expansion (counted where the expansion loop ran)
    loops = [s for s in timed if "rounds" in s.attrs]
    launched = [s.attrs["relaunched"] for s in loops]
    out["expansion.rounds_mean"] = (
        _ratio(sum(s.attrs["rounds"] for s in loops), len(loops)), len(loops)
    )
    out["expansion.relaunched_frac"] = (
        _ratio(sum(sum(r[1:]) for r in launched),
               sum(r[0] for r in launched if r)),
        len(loops),
    )

    # refit
    updates = [s for s in engine if s.name.endswith(".update_points")]
    out["refit.gases_per_update"] = (
        _ratio(len(layer("refit")), len(updates)), len(updates)
    )
    out["refit.wall_frac"] = (self_frac_of_wall("refit"), len(layer("refit")))

    # the Fig. 12 breakdown of modeled time
    for cat in BREAKDOWN:
        out[f"modeled.{cat}_frac"] = (
            _ratio(sum(s.attrs["breakdown"][cat] for s in searches),
                   modeled_total),
            len(searches),
        )
    return out


def _drift(calls) -> float:
    """Steps per query of the last quarter of ``calls`` over the first's.

    Over the first pass of a cycled pool: on ``refit-drift`` that is one
    whole drift trajectory, so the ratio is how far tree quality decayed.
    """
    q = len(calls) // 4
    if q == 0:
        return 0.0

    def rate(part):
        return _ratio(sum(s.attrs["steps"] for s in part),
                      sum(s.attrs["queries"] for s in part))

    return _ratio(rate(calls[-q:]), rate(calls[:q]))
