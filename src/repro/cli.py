"""Command-line interface.

Subcommands::

    repro search      --dataset KITTI-12M --mode knn -k 8        # or --points file.ply
    repro serve       --dataset uniform-1M --rps 200 --duration 2  # micro-batching service
    repro workload    --dataset uniform-1M --workload dbscan -r 0.05  # downstream pipeline
    repro trace       --dataset uniform-1M --scale 0.01          # span tree + counters
    repro datasets    [--generate NAME --out cloud.ply]
    repro experiments [--only fig11] [--scale 0.25]
    repro analyze     [paths...] [--format json]    # static analysis

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.core.engine import RTNNConfig, RTNNEngine
from repro.datasets import DATASETS, load, read_ply, read_xyz, write_ply
from repro.gpu.device import KNOWN_DEVICES, RTX_2080


def _cli_error(msg: str) -> SystemExit:
    """One-line usage error: print to stderr, exit with code 2."""
    print(f"repro: error: {msg}", file=sys.stderr)
    return SystemExit(2)


def _load_points(arg: str) -> np.ndarray:
    if arg.endswith(".ply"):
        return read_ply(arg)
    if arg.endswith((".xyz", ".txt")):
        return read_xyz(arg)
    raise _cli_error(f"unsupported point file (use .ply/.xyz/.txt): {arg}")


def _validate_point_args(args) -> None:
    """Fail fast (exit 2, one line) on bad inputs, before any loading."""
    for attr in ("points", "queries"):
        path = getattr(args, attr, None)
        if path and not os.path.isfile(path):
            raise _cli_error(f"--{attr}: no such file: {path}")
    if getattr(args, "k", 1) < 1:
        raise _cli_error(f"-k must be >= 1, got {args.k}")
    radius = getattr(args, "radius", None)
    if radius is not None and radius <= 0:
        raise _cli_error(f"--radius must be positive, got {radius:g}")
    if getattr(args, "repeat", 1) < 1:
        raise _cli_error(f"--repeat must be >= 1, got {args.repeat}")
    budget = getattr(args, "budget", None)
    if budget is not None and budget < 1:
        raise _cli_error(f"--budget must be >= 1, got {budget}")


def _add_search(sub):
    p = sub.add_parser("search", help="run a neighbor search")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", help="point cloud file (.ply/.xyz)")
    src.add_argument("--dataset", choices=sorted(DATASETS), help="registry dataset")
    p.add_argument("--scale", type=float, default=1.0, help="registry dataset scale")
    p.add_argument("--queries", help="query file (default: self-search)")
    p.add_argument("--mode", choices=("knn", "range", "true-knn"), default="knn")
    p.add_argument("-k", type=int, default=8, help="neighbor bound K")
    p.add_argument("-r", "--radius", type=float, help="search radius "
                   "(default: registry radius or scene-extent/100; for "
                   "true-knn: density-seeded initial radius)")
    p.add_argument("--device", choices=sorted(KNOWN_DEVICES), default=RTX_2080.name)
    p.add_argument("--no-schedule", action="store_true")
    p.add_argument("--no-partition", action="store_true")
    p.add_argument("--no-bundle", action="store_true")
    p.add_argument("--knn-aabb", choices=("conservative", "equiv_volume"),
                   default="conservative")
    p.add_argument("--budget", type=int, default=None, metavar="STEPS",
                   help="per-query traversal step budget: deterministic "
                        "approximate answers with a reported recall lower "
                        "bound (default: exact, no budget; rejected for "
                        "true-knn)")
    p.add_argument("--no-prune", action="store_true",
                   help="disable leaf MBR distance pruning (results are "
                        "bit-identical either way; for perf comparison)")
    p.add_argument("--profile", action="store_true",
                   help="report leaf-pruning counters after the search")
    p.add_argument("--repeat", type=int, default=1, metavar="N",
                   help="run the search N times on the held engine; warm "
                        "batches reuse the GAS cache (default 1)")
    p.add_argument("--out", help="write results to an .npz file")


def _cmd_search(args) -> int:
    _validate_point_args(args)
    mode = args.mode.replace("-", "_")
    if args.dataset:
        points, spec = load(args.dataset, scale=args.scale)
        radius = args.radius if args.radius else spec.radius
    else:
        points = _load_points(args.points)
        radius = args.radius
        if radius is None:
            extent = float((points.max(axis=0) - points.min(axis=0)).max())
            radius = extent / 100.0
    if mode == "true_knn" and args.radius is None:
        radius = None  # density-seeded initial radius (engine default)
    queries = _load_points(args.queries) if args.queries else points

    config = RTNNConfig(
        schedule=not args.no_schedule,
        partition=not args.no_partition,
        bundle=not args.no_bundle,
        knn_aabb=args.knn_aabb,
        step_budget=args.budget,
        leaf_prune=not args.no_prune,
    )
    engine = RTNNEngine(points, device=KNOWN_DEVICES[args.device], config=config)

    repeat = max(1, args.repeat)
    walls = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        if mode == "knn":
            res = engine.knn_search(queries, k=args.k, radius=radius)
        elif mode == "true_knn":
            res = engine.true_knn_search(queries, k=args.k, radius=radius)
        else:
            res = engine.range_search(queries, radius=radius, k=args.k)
        walls.append(time.perf_counter() - t0)
    wall = walls[0]

    rep = res.report
    tk = rep.extras.get("true_knn")
    rdesc = (f"r0={tk['seed_radius']:g} (seeded)" if tk and radius is None
             else f"r={radius:g}")
    print(f"{args.mode} search: {len(points)} points, {len(queries)} queries, "
          f"{rdesc}, k={args.k}")
    print(f"neighbors found: total {int(res.counts.sum())}, "
          f"mean {res.counts.mean():.2f}/query")
    if tk:
        radii = ", ".join(f"{r:g}" for r in tk["round_radii"])
        print(f"expansion: {tk['rounds']} rounds (radii [{radii}]), "
              f"growth {tk['growth']:g}, relaunched {tk['relaunched']}, "
              f"{'converged' if tk['converged'] else 'ROUND BUDGET HIT'}")
    print(f"modeled GPU time on {rep.device}: {rep.modeled_time * 1e3:.4f} ms "
          f"(simulator wall: {wall:.2f} s)")
    for cat, sec in rep.breakdown.as_dict().items():
        print(f"  {cat:>7}: {sec * 1e6:10.2f} us")
    print(f"partitions: {rep.n_partitions}, bundles: {rep.n_bundles}, "
          f"IS calls: {rep.is_calls}")
    bud = rep.extras.get("budget")
    if bud:
        print(f"budget: {bud['step_budget']} steps/query, exhausted "
              f"{bud['exhausted_queries']}/{bud['total_queries']} queries, "
              f"recall >= {bud['recall_lower_bound']:.3f} "
              f"({'APPROXIMATE' if bud['budget_exhausted'] else 'exact: budget never fired'})")
    if args.profile:
        pr = rep.extras.get("prune", {})
        state = "on" if pr.get("enabled") else "off"
        print(f"profile: leaf MBR pruning {state}: "
              f"{pr.get('leaves_pruned', 0):,} leaf pairs pruned, "
              f"{pr.get('leaves_bulk_accepted', 0):,} bulk-accepted")
    if repeat > 1:
        warm = sum(walls[1:]) / (repeat - 1)
        stats = engine.gas_cache.stats
        print(f"batches: {repeat} (cold {walls[0]:.2f} s, warm mean "
              f"{warm:.2f} s, {walls[0] / warm:.2f}x)" if warm > 0 else
              f"batches: {repeat}")
        print(f"gas cache: {stats.hits} hits, {stats.misses} misses, "
              f"{stats.evictions} evictions")
    if args.out:
        np.savez_compressed(
            args.out,
            indices=res.indices,
            counts=res.counts,
            sq_distances=res.sq_distances,
        )
        print(f"results written to {args.out}")
    return 0


def _add_serve(sub):
    p = sub.add_parser(
        "serve",
        help="run the micro-batching search service under synthetic load",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", help="point cloud file (.ply/.xyz)")
    src.add_argument("--dataset", choices=sorted(DATASETS), help="registry dataset")
    p.add_argument("--scale", type=float, default=1.0, help="registry dataset scale")
    p.add_argument("--mode", choices=("knn", "range", "true-knn"), default="knn")
    p.add_argument("-k", type=int, default=8, help="neighbor bound K")
    p.add_argument("-r", "--radius", type=float, help="search radius "
                   "(default: registry radius or scene-extent/100; for "
                   "true-knn this is the round-0 radius)")
    p.add_argument("--device", choices=sorted(KNOWN_DEVICES), default=RTX_2080.name)
    p.add_argument("--rps", type=float, default=200.0,
                   help="aggregate open-loop arrival rate (default 200)")
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent open-loop clients (default 4)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="seconds of offered load (default 2)")
    p.add_argument("--queries-per-request", type=int, default=8, metavar="N",
                   help="queries per synthetic request (default 8)")
    p.add_argument("--window-ms", type=float, default=5.0,
                   help="batching window in milliseconds (default 5)")
    p.add_argument("--depth", type=int, default=256,
                   help="admission queue depth bound (default 256)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request deadline in milliseconds (default: none)")
    p.add_argument("--seed", type=int, default=0, help="load-generator seed")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="serve from a sharded topology: N spatial shards on "
                        "N engine workers behind the same front door "
                        "(default: single engine)")
    p.add_argument("--workers", type=int, default=None, metavar="W",
                   help="engine workers for --shards (default: one per shard)")
    p.add_argument("--replication", type=int, default=2,
                   help="workers eligible per shard, primary + failover "
                        "replicas (default 2)")
    p.add_argument("--json", dest="json_out", metavar="PATH",
                   help="also write the service RunReport as JSON ('-' for stdout)")


def _cmd_serve(args) -> int:
    import asyncio

    from repro.api import SearchSession
    from repro.serve import LoadSpec, ServiceConfig, run_load

    _validate_point_args(args)
    if args.rps <= 0 or args.duration <= 0 or args.clients < 1:
        raise _cli_error("--rps/--duration must be positive, --clients >= 1")
    if args.shards is not None and args.shards < 1:
        raise _cli_error(f"--shards must be >= 1, got {args.shards}")
    if args.dataset:
        points, spec = load(args.dataset, scale=args.scale)
        radius = args.radius if args.radius else spec.radius
    else:
        points = _load_points(args.points)
        radius = args.radius
        if radius is None:
            extent = float((points.max(axis=0) - points.min(axis=0)).max())
            radius = extent / 100.0

    mode = args.mode.replace("-", "_")
    session = SearchSession(points, device=KNOWN_DEVICES[args.device])
    config = ServiceConfig(
        max_queue_depth=args.depth,
        batch_window_s=args.window_ms / 1e3,
    )
    load_spec = LoadSpec(
        rps=args.rps,
        clients=args.clients,
        duration_s=args.duration,
        queries_per_request=args.queries_per_request,
        mode=mode,
        k=args.k,
        radius=radius,
        deadline_s=None if args.deadline_ms is None else args.deadline_ms / 1e3,
        seed=args.seed,
    )

    async def drive():
        service = session.serve(
            config=config,
            shards=args.shards,
            workers=args.workers,
            replication=args.replication,
        )
        async with service:
            await run_load(service, points, load_spec)
        return service

    service = asyncio.run(drive())
    roll = service.metrics.rollup()

    print(f"serve: {mode} over {len(points)} points, r={radius:g}, "
          f"k={args.k} on {args.device}")
    print(f"offered load: {args.rps:g} rps x {args.duration:g}s "
          f"({args.clients} clients, {args.queries_per_request} queries/req, "
          f"window {args.window_ms:g} ms)")
    req = roll["requests"]
    print(f"requests: {req['submitted']} admitted, {req['completed']} completed, "
          f"{req['rejected']} rejected, {req['expired']} expired, "
          f"{req['degraded']} degraded, {req['retries']} retries")
    bat = roll["batches"]
    occ_mean = bat["occupancy_mean"] or 0.0
    print(f"batches: {bat['count']} (fallback {bat['fallback']}), occupancy "
          f"mean {occ_mean:.2f} max {bat['occupancy_max'] or 0}")
    lat = roll["latency_s"]
    if lat["p50"] is not None:
        print(f"latency: p50 {lat['p50'] * 1e3:.1f} ms, "
              f"p99 {lat['p99'] * 1e3:.1f} ms, max {lat['max'] * 1e3:.1f} ms")
    print(f"queue: depth max {roll['queue']['depth_max']}, "
          f"mean {roll['queue']['depth_mean']:.1f}")
    if args.shards:
        sh = service.engine.shard_rollup()
        fan = sh["fanout"]["mean"]
        print(f"shards: {sh['n_shards']} on {sh['n_workers']} workers "
              f"(replication {sh['replication']}), fan-out mean "
              f"{fan:.2f}" if fan is not None else
              f"shards: {sh['n_shards']} on {sh['n_workers']} workers")
        print(f"  failovers {sh['failovers']}, brute fallbacks "
              f"{sh['brute_fallbacks']}, modeled makespan "
              f"{sh['makespan_s'] * 1e3:.3f} ms")

    report = service.report(
        "repro serve",
        scenario={
            "n_points": len(points),
            "mode": mode,
            "k": args.k,
            "radius": radius,
            "rps": args.rps,
            "clients": args.clients,
            "duration_s": args.duration,
            "seed": args.seed,
        },
    )
    if args.json_out == "-":
        print(report.to_json())
    elif args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"report written to {args.json_out}")

    return 0


def _add_workload(sub):
    p = sub.add_parser(
        "workload",
        help="run a downstream workload pipeline (dbscan/hausdorff/sph)",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", help="point cloud file (.ply/.xyz)")
    src.add_argument("--dataset", choices=sorted(DATASETS), help="registry dataset")
    p.add_argument("--scale", type=float, default=1.0, help="registry dataset scale")
    p.add_argument("--workload", choices=("dbscan", "hausdorff", "sph"),
                   default="dbscan", help="pipeline to run (default dbscan)")
    p.add_argument("--queries", help="Hausdorff A set file (default: a "
                   "seeded uniform cloud over the point extent)")
    p.add_argument("-r", "--radius", type=float,
                   help="eps (dbscan) / interaction radius (sph); default "
                        "registry radius or scene-extent/100")
    p.add_argument("--min-pts", type=int, default=4,
                   help="dbscan core threshold, self-inclusive (default 4)")
    p.add_argument("--batch-size", type=int, default=256,
                   help="dbscan frontier batch size (default 256)")
    p.add_argument("--chunk-size", type=int, default=256,
                   help="hausdorff A-chunk size (default 256)")
    p.add_argument("--steps", type=int, default=5,
                   help="sph step count (default 5)")
    p.add_argument("--dt", type=float, default=1e-3, help="sph step size")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="drive a sharded SearchService instead of the solo "
                        "session (default: solo)")
    p.add_argument("--fan", type=int, default=2,
                   help="concurrent submit chunks per serve batch (default 2)")
    p.add_argument("--seed", type=int, default=7,
                   help="seed for generated clouds (default 7)")
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute oracle and assert exact equality")
    p.add_argument("--json", dest="json_out", metavar="PATH",
                   help="write the workload RunReport as JSON ('-' for stdout)")


def _cmd_workload(args) -> int:
    import contextlib

    from repro.api import SearchSession
    from repro.obs import RecordingTracer, RunReport
    from repro.workloads import (
        DBSCANConfig,
        HausdorffConfig,
        SPHConfig,
        SessionClient,
        brute_dbscan,
        brute_hausdorff,
        brute_sph,
        run_dbscan,
        run_hausdorff,
        run_sph,
        service_client,
    )

    _validate_point_args(args)
    if args.dataset:
        points, spec = load(args.dataset, scale=args.scale)
        radius = args.radius if args.radius else spec.radius
    else:
        points = _load_points(args.points)
        radius = args.radius
        if radius is None:
            extent = float((points.max(axis=0) - points.min(axis=0)).max())
            radius = extent / 100.0

    tracer = RecordingTracer()
    session = SearchSession(points, tracer=tracer)
    if args.shards is not None:
        client_ctx = service_client(session, shards=args.shards, fan=args.fan)
    else:
        client_ctx = contextlib.nullcontext(SessionClient(session))

    with client_ctx as client:
        if args.workload == "dbscan":
            cfg = DBSCANConfig(eps=radius, min_pts=args.min_pts,
                               batch_size=args.batch_size)
            res = run_dbscan(client, cfg, tracer)
            stats = res.stats
            print(f"dbscan: {len(points)} points, eps={radius:g}, "
                  f"min_pts={args.min_pts}")
            print(f"  {res.n_clusters} clusters, {stats['core_points']} core, "
                  f"{stats['border_points']} border, "
                  f"{stats['noise_points']} noise "
                  f"({stats['rounds']} frontier rounds, "
                  f"{stats['edges']} edges)")
            if args.oracle:
                labels, _, counts, _ = brute_dbscan(points, cfg)
                assert np.array_equal(res.labels, labels), "labels != oracle"
                assert np.array_equal(res.counts, counts), "counts != oracle"
                print("  oracle: labels exactly equal")
        elif args.workload == "hausdorff":
            if args.queries:
                queries = _load_points(args.queries)
            else:
                from repro.utils.rng import default_rng

                rng = default_rng(args.seed)
                lo, hi = points.min(axis=0), points.max(axis=0)
                queries = lo + rng.random(points.shape) * (hi - lo)
            cfg = HausdorffConfig(chunk_size=args.chunk_size)
            res = run_hausdorff(client, queries, cfg, tracer)
            stats = res.stats
            print(f"hausdorff: |A|={len(queries)}, |B|={len(points)}")
            print(f"  h(A,B) = {res.distance:.6g} at A[{res.index_a}] -> "
                  f"B[{res.index_b}] ({stats['chunks']} chunks, "
                  f"{stats['rounds']} rounds, {stats['pruned']} pruned)")
            if args.oracle:
                hd2, ia, ib = brute_hausdorff(queries, points)
                assert (res.sq_distance, res.index_a, res.index_b) == (
                    hd2, ia, ib), "hausdorff != oracle"
                print("  oracle: distance and witness exactly equal")
        else:
            cfg = SPHConfig(radius=radius, dt=args.dt, n_steps=args.steps)
            res = run_sph(client, cfg, tracer=tracer)
            stats = res.stats
            drift = float(np.abs(res.positions - points).max())
            print(f"sph: {len(points)} points, h={radius:g}, dt={args.dt:g}, "
                  f"{args.steps} steps")
            print(f"  {stats['neighbor_pairs']} neighbor pairs, k per step "
                  f"{stats['k_per_step']}, refit {stats['refit_s']:.3g} "
                  f"modeled s, max |dx| {drift:.3g}")
            if args.oracle:
                x, v = brute_sph(points, cfg)
                assert np.array_equal(res.positions, x), "positions != oracle"
                assert np.array_equal(res.velocities, v), "velocities != oracle"
                print("  oracle: trajectory bit-identical")

    if args.json_out:
        report = RunReport.from_run(
            f"workload {args.workload}",
            tracer,
            scenario={
                "workload": args.workload,
                "n_points": len(points),
                "radius": radius,
                "shards": args.shards,
            },
            extras={"workload": stats},
        )
        if args.json_out == "-":
            print(report.to_json())
        else:
            with open(args.json_out, "w") as fh:
                fh.write(report.to_json())
                fh.write("\n")
            print(f"report written to {args.json_out}")
    return 0


def _add_trace(sub):
    p = sub.add_parser(
        "trace",
        help="run a search under the observability tracer and render it",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", help="point cloud file (.ply/.xyz)")
    src.add_argument("--dataset", choices=sorted(DATASETS), help="registry dataset")
    p.add_argument("--scale", type=float, default=1.0, help="registry dataset scale")
    p.add_argument("--queries", help="query file (default: self-search)")
    p.add_argument("--mode", choices=("knn", "range", "true-knn"), default="knn")
    p.add_argument("-k", type=int, default=8, help="neighbor bound K")
    p.add_argument("-r", "--radius", type=float, help="search radius "
                   "(default: registry radius or scene-extent/100; for "
                   "true-knn: density-seeded initial radius)")
    p.add_argument("--device", choices=sorted(KNOWN_DEVICES), default=RTX_2080.name)
    p.add_argument("--no-schedule", action="store_true")
    p.add_argument("--no-partition", action="store_true")
    p.add_argument("--no-bundle", action="store_true")
    p.add_argument("--json", dest="json_out", metavar="PATH",
                   help="also write the RunReport as JSON ('-' for stdout)")


def _cmd_trace(args) -> int:
    from repro.obs import RecordingTracer, RunReport, render_report

    mode = args.mode.replace("-", "_")
    if args.dataset:
        points, spec = load(args.dataset, scale=args.scale)
        radius = args.radius if args.radius else spec.radius
        source = f"{args.dataset} x{args.scale:g}"
    else:
        points = _load_points(args.points)
        radius = args.radius
        if radius is None:
            extent = float((points.max(axis=0) - points.min(axis=0)).max())
            radius = extent / 100.0
        source = args.points
    if mode == "true_knn" and args.radius is None:
        radius = None  # density-seeded initial radius (engine default)
    queries = _load_points(args.queries) if args.queries else points

    config = RTNNConfig(
        schedule=not args.no_schedule,
        partition=not args.no_partition,
        bundle=not args.no_bundle,
    )
    tracer = RecordingTracer()
    engine = RTNNEngine(
        points,
        device=KNOWN_DEVICES[args.device],
        config=config,
        tracer=tracer,
    )
    if mode == "knn":
        res = engine.knn_search(queries, k=args.k, radius=radius)
    elif mode == "true_knn":
        res = engine.true_knn_search(queries, k=args.k, radius=radius)
    else:
        res = engine.range_search(queries, radius=radius, k=args.k)

    report = RunReport.from_run(
        f"{mode} search",
        tracer,
        result=res,
        scenario={
            "source": source,
            "n_points": len(points),
            "n_queries": len(queries),
            "mode": mode,
            "k": args.k,
            "radius": radius,
        },
    )
    print(render_report(report))
    if args.json_out == "-":
        print(report.to_json())
    elif args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"report written to {args.json_out}")
    return 0


def _add_datasets(sub):
    p = sub.add_parser("datasets", help="list or generate registry datasets")
    p.add_argument("--generate", choices=sorted(DATASETS), help="dataset to write")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output .ply path (required with --generate)")


def _cmd_datasets(args) -> int:
    if args.generate:
        if not args.out:
            raise SystemExit("--generate requires --out")
        pts, spec = load(args.generate, scale=args.scale, seed=args.seed)
        write_ply(args.out, pts)
        print(f"wrote {len(pts)} points ({spec.family}) to {args.out}")
        return 0
    print(f"{'name':14s} {'family':7s} {'n_points':>9s} {'paper_n':>11s} {'radius':>8s}")
    for spec in DATASETS.values():
        print(
            f"{spec.name:14s} {spec.family:7s} {spec.n_points:9d} "
            f"{spec.paper_n_points:11d} {spec.radius:8g}"
        )
    return 0


def _add_experiments(sub):
    p = sub.add_parser("experiments", help="regenerate the paper's figures")
    p.add_argument("--only", help="run one section, e.g. fig11 or fig05")
    p.add_argument("--scale", type=float, help="dataset scale (sets REPRO_SCALE)")


def _cmd_experiments(args) -> int:
    import os

    if args.scale is not None:
        os.environ["REPRO_SCALE"] = str(args.scale)
    from repro.experiments.__main__ import SECTIONS, main as run_all

    if args.only:
        matched = [
            (title, fn) for title, fn in SECTIONS if args.only.lower() in title.lower()
            or args.only.lower().replace("fig", "fig. ").replace("fig. .", "fig.")
            in title.lower()
        ]
        if not matched:
            names = ", ".join(t.split(" — ")[0] for t, _ in SECTIONS)
            raise SystemExit(f"no section matches {args.only!r}; sections: {names}")
        for title, fn in matched:
            print(title)
            fn()
        return 0
    run_all()
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RTNN reproduction: neighbor search as hardware ray tracing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_search(sub)
    _add_serve(sub)
    _add_workload(sub)
    _add_trace(sub)
    _add_datasets(sub)
    _add_experiments(sub)
    # `repro analyze ...` forwards everything after the subcommand to the
    # static-analysis CLI (see repro.analysis.cli for its options).
    sub.add_parser(
        "analyze",
        help="run the execution-model static analysis",
        add_help=False,
    )
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["analyze"]:
        from repro.analysis.cli import main as analysis_main

        return analysis_main(argv[1:])
    args = parser.parse_args(argv)
    # One validation contract across every entry point (satellite of the
    # true-knn PR): bad scalars the arg pre-checks cannot see (e.g. a
    # degenerate cloud, a policy rejected by ExpansionPolicy) surface
    # from repro.api / the engine as ValueError; map them to the same
    # one-line-stderr exit 2 as _validate_point_args.
    try:
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "workload":
            return _cmd_workload(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "datasets":
            return _cmd_datasets(args)
        return _cmd_experiments(args)
    except ValueError as exc:
        raise _cli_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
