"""Fig. 13 — teasing apart the optimizations.

Five variants on KITTI-12M and NBody-9M, for KNN and range search:

* NoOpt, Sched, Sched+Partition, Sched+Partition+Bundle (the shipping
  configuration), and Oracle — the best a-posteriori choice of whether
  to partition and how to bundle (the paper computes it by offline
  exhaustive search; our bundler already scans every strategy in its
  family, so the oracle is the min over the measured variants plus the
  partitioning-disabled run).

Paper shapes to verify: scheduling alone gives 1.8-5.9x; partitioning
is dramatically effective for KNN on KITTI (~150x) but *hurts* on the
clustered N-body input; bundling recovers ~19% on range search and is
neutral for KNN; the shipping config lands within a few percent of
Oracle on KITTI while NBody's Oracle disables partitioning.
"""

from __future__ import annotations

from repro.core.engine import RTNNConfig, RTNNEngine, VARIANTS
from repro.datasets import load
from repro.experiments.harness import env_scale, format_table
from repro.gpu.device import DeviceSpec, RTX_2080

#: variant display order of the figure
VARIANT_ORDER = ("noopt", "sched", "sched+part", "sched+part+bundle")


def run(
    datasets=("KITTI-12M", "NBody-9M"),
    device: DeviceSpec = RTX_2080,
    scale: float | None = None,
    range_k: int = 32,
    k_knn: int = 8,
    kinds=("knn", "range"),
) -> list[dict]:
    """One row per (dataset, kind): modeled ms per variant + oracle."""
    scale = env_scale() if scale is None else scale
    rows = []
    for name in datasets:
        points, spec = load(name, scale=scale)
        for kind in kinds:
            times = {}
            for vname in VARIANT_ORDER:
                cfg = VARIANTS[vname]
                engine = RTNNEngine(
                    points,
                    device=device,
                    config=RTNNConfig(
                        schedule=cfg.schedule,
                        partition=cfg.partition,
                        bundle=cfg.bundle,
                        knn_aabb="equiv_volume",
                    ),
                )
                if kind == "knn":
                    res = engine.knn_search(points, k_knn, spec.radius)
                else:
                    res = engine.range_search(points, spec.radius, range_k)
                times[vname] = res.report.modeled_time * 1e3
            # Oracle: best a-posteriori strategy (partition on with best
            # bundling, or partition off entirely).
            oracle = min(times["sched"], times["sched+part"], times["sched+part+bundle"])
            rows.append(
                {
                    "dataset": name,
                    "type": kind,
                    **{v: times[v] for v in VARIANT_ORDER},
                    "oracle": oracle,
                    "sched_speedup": times["noopt"] / times["sched"],
                    "part_speedup": times["sched"] / times["sched+part"],
                    "bundle_gain": times["sched+part"] / times["sched+part+bundle"],
                }
            )
    return rows


def main():
    """Print this figure's table to stdout."""
    rows = run()
    print("Fig. 13 — optimization ablation (modeled ms per variant)")
    print(format_table(rows))


if __name__ == "__main__":
    main()
