"""The repository benchmark: seeded workloads through the public API.

Run every workload, each in a fresh process, and print every
end-to-end metric as ``workload metric value unit (n=samples)``::

    python bench/run.py --seed 0
    python bench/run.py --seed 0 --trace      # + per-layer metrics,
                                              #   span files, overhead

Run one workload in this process; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json, or its per-layer
metrics with ``--trace 1``)::

    python bench/run.py --workload knn-nbody --seed 3 --seconds 10 --trace 0

Every answer is checked against the brute-force oracle after the timed
loop; a failed or wrong answer makes the exit code non-zero. ``--out
DIR`` also writes one JSON record per run (seed, git revision, nproc,
Python and NumPy versions, each metric with its sample count), which
``bench/compare.py`` reads. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: a child that has not finished by then is killed (the first run of a
#: checkout also pays for cold imports)
CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _units(spec: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or fail loudly."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source under {src}")
    sys.path.insert(0, str(src))


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _record(values: dict, units: dict) -> dict:
    return {
        name: {"value": values[name][0], "unit": units[name],
               "n": values[name][1]}
        for name in units
    }


def run_one(name: str, seed: int, seconds: float, trace: bool,
            out_dir: Path | None = None, small: bool = False) -> int:
    """Run one workload here; print its metrics and the JSON result line."""
    spec = load_spec()
    _import_program()
    import numpy as np

    import metrics
    import oracle
    import spans
    import workloads

    rec = spans.Recorder() if trace else None
    with spans.patched(rec) if trace else contextlib.nullcontext():
        run = workloads.run(name, seed, seconds, rec=rec, small=small)
    wrong = oracle.check(run)
    failures = [op.error for op in run.ops if op.error is not None]
    failures += list(wrong.values())
    attempted = len(run.ops)
    failed = len(failures)

    e2e = _record(metrics.end_to_end(run), _units(spec, "end_to_end"))
    layers = {}
    if trace:
        layers = _record(metrics.per_layer(run, rec.spans),
                         _units(spec, "per_layer"))
        OUT.mkdir(exist_ok=True)
        rec.write(OUT / f"{name}.trace.json")
    shown = layers if trace else e2e
    for metric, m in shown.items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']} (n={m['n']})")
    print(f"{name} failed_frac {failed / attempted:.6g} ratio (n={attempted})")
    for why in sorted(set(failures))[:5]:
        print(f"{name} FAILED: {why}", file=sys.stderr)

    correct = failed == 0
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "-trace" if trace else ""
        record = {
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "git_rev": _git_rev(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "correct": correct, "attempted": attempted, "failed": failed,
            "end_to_end": e2e, "per_layer": layers,
        }
        path = out_dir / f"{name}-seed{seed}{suffix}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in shown.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def _child(name: str, seed: int, seconds: float, trace: bool,
           out_dir: Path) -> tuple[int, dict | None]:
    """Run one workload in a fresh process; relay its metric lines."""
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--out", str(out_dir),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(proc.stderr)
    path = out_dir / f"{name}-seed{seed}{'-trace' if trace else ''}.json"
    record = json.loads(path.read_text()) if proc.returncode == 0 else None
    return proc.returncode, record


def run_all(seed: int, seconds: float, trace: bool, out_dir: Path) -> int:
    """Every workload in a fresh process each; non-zero if any failed."""
    spec = load_spec()
    t0 = time.perf_counter()
    status = 0
    for w in spec["workloads"]:
        code, plain = _child(w["name"], seed, seconds, False, out_dir)
        status = status or code
        if not trace:
            continue
        code, traced = _child(w["name"], seed, seconds, True, out_dir)
        status = status or code
        if plain is not None and traced is not None:
            fast = plain["end_to_end"]["throughput_qps"]["value"]
            slow = traced["end_to_end"]["throughput_qps"]["value"]
            print(f"{w['name']} tracing_overhead {1.0 - slow / fast:.6g} ratio"
                  f" (n=1)")
            print(f"{w['name']} spans written to "
                  f"{(OUT / (w['name'] + '.trace.json')).relative_to(ROOT)}")
    print(f"# {len(spec['workloads'])} workloads, seed {seed}, "
          f"{time.perf_counter() - t0:.1f} s, "
          f"{'ok' if status == 0 else 'FAILED'}")
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="length of each timed loop")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="record per-layer spans (1) or not (0)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the per-run JSON records")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.out)
    out_dir = args.out if args.out is not None else OUT / "runs"
    return run_all(args.seed, args.seconds, bool(args.trace), out_dir)


if __name__ == "__main__":
    sys.exit(main())
