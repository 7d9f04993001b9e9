"""Compare two sets of benchmark runs, metric by metric.

    python bench/compare.py A/ B/

``A/`` (the baseline, e.g. the parent commit) and ``B/`` (the change)
hold the per-run JSON records written by ``bench/run.py --out DIR``.
Runs are paired by workload and seed. For every (workload, metric) pair
this prints each side's median and quartiles, the share of pairs B won
(ties count for neither) and a verdict:

* ``better`` -- over at least ten pairs, B won at least nine tenths
  and the medians differ, in B's favour, by more than the distance
  between A's quartiles;
* ``worse`` -- B's median is worse than A's by more than the metric's
  bound in BENCHMARK.json (per-layer metrics have no bound: the mirror
  of ``better``);
* ``unresolved`` -- A's own spread (quartile distance over median) is
  wider than the bound, unless every run of B reads better than every
  run of A; for a per-layer metric, fewer than ten pairs;
* ``unchanged`` -- otherwise.

Exit code 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: share of pairs a side must win to claim a difference
WIN_SHARE = 0.9

#: pairs below which no difference is claimed either way
MIN_PAIRS = 10


def load_runs(directory: Path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value} over every record in ``directory``."""
    runs: dict[tuple[str, str], dict[int, float]] = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        for section in ("end_to_end", "per_layer"):
            for metric, m in rec.get(section, {}).items():
                runs.setdefault((rec["workload"], metric), {})[rec["seed"]] = (
                    m["value"]
                )
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: dict[int, float], b: dict[int, float], higher: bool,
            bound: float | None) -> tuple[str, float]:
    """The verdict for one (workload, metric) pair and B's share of wins."""
    sign = 1.0 if higher else -1.0
    seeds = sorted(set(a) & set(b))
    pairs = [(a[s], b[s]) for s in seeds]
    if not pairs:  # no common seeds: pair the runs in seed order
        pairs = list(zip([a[s] for s in sorted(a)], [b[s] for s in sorted(b)]))
    b_wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    a_wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    won = b_wins / len(pairs)
    a1, a_med, a3 = quartiles(list(a.values()))
    _, b_med, _ = quartiles(list(b.values()))
    gain = sign * (b_med - a_med)
    iqr = a3 - a1
    enough = len(pairs) >= MIN_PAIRS
    if enough and b_wins >= WIN_SHARE * len(pairs) and gain > iqr:
        return "better", won
    if bound is None:
        if enough and a_wins >= WIN_SHARE * len(pairs) and -gain > iqr:
            return "worse", won
        return ("unchanged" if enough else "unresolved"), won
    if -gain > bound * abs(a_med):
        return "worse", won
    spread = iqr / abs(a_med) if a_med else 0.0
    if spread > bound:
        a_best = max(sign * v for v in a.values())
        if min(sign * v for v in b.values()) <= a_best:
            return "unresolved", won
    return "unchanged", won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="baseline run records")
    parser.add_argument("b", type=Path, help="changed run records")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    worse = 0
    print(f"{'workload':14} {'metric':34} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B won':>6}  verdict")
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, name = key
        m = metrics.get(name)
        if m is None:
            continue
        a, b = a_runs[key], b_runs[key]
        v, won = verdict(a, b, m["better"] == "higher", m.get("bound"))
        worse += v == "worse"
        print(f"{workload:14} {name:34} {_cell(a):>34} {_cell(b):>34} "
              f"{won:6.0%}  {v}")
    return 1 if worse else 0


def _cell(runs: dict[int, float]) -> str:
    q1, med, q3 = quartiles(list(runs.values()))
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


if __name__ == "__main__":
    sys.exit(main())
