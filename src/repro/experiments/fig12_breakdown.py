"""Fig. 12 — time distribution of RTNN runs (Data/Opt/BVH/FS/Search).

One stacked-bar row per dataset for each search type. Paper findings
this reproduces: small inputs are dominated by non-search overheads;
the N-body inputs spend an outsized share in Opt + BVH (non-uniform
density -> many partitions); KNN spends a larger *search* fraction than
range search (88.5% vs 63.5% on KITTI-12M).
"""

from __future__ import annotations

from repro.core.engine import RTNNConfig, RTNNEngine
from repro.datasets import DATASETS, load
from repro.experiments.harness import env_scale, format_table
from repro.gpu.device import DeviceSpec, RTX_2080


def run(
    datasets: list[str] | None = None,
    device: DeviceSpec = RTX_2080,
    scale: float | None = None,
    range_k: int = 32,
    k_knn: int = 8,
    kinds=("knn", "range"),
) -> list[dict]:
    """One row per (dataset, kind) with per-category time fractions."""
    scale = env_scale() if scale is None else scale
    names = datasets or list(DATASETS)
    rows = []
    for name in names:
        points, spec = load(name, scale=scale)
        engine = RTNNEngine(
            points, device=device, config=RTNNConfig(knn_aabb="equiv_volume")
        )
        for kind in kinds:
            if kind == "knn":
                res = engine.knn_search(points, k_knn, spec.radius)
            else:
                res = engine.range_search(points, spec.radius, range_k)
            frac = res.report.breakdown.fractions()
            rows.append(
                {
                    "dataset": name,
                    "type": kind,
                    "total_ms": res.report.modeled_time * 1e3,
                    **{f"{cat}_frac": frac[cat] for cat in ("data", "opt", "bvh", "fs", "search")},
                    "n_partitions": res.report.n_partitions,
                    "n_bundles": res.report.n_bundles,
                }
            )
    return rows


def main():
    """Print this figure's table to stdout."""
    rows = run()
    print("Fig. 12 — RTNN time distribution")
    print(format_table(rows))


if __name__ == "__main__":
    main()
