"""Fig. 11 — RTNN speedup over the four baselines on all eight inputs.

For every registry dataset (self-search: queries = points) we run

* range search:  RTNN vs cuNSearch and PCL-Octree,
* KNN search:    RTNN vs FRNN and FastRNN,

and report modeled-GPU-time speedups, with the paper's OOM annotation
evaluated at *paper scale* (the baseline's modeled memory footprint for
the original point counts vs device capacity) and DNF for baselines
>1000x slower. Paper geomeans on the RTX 2080: range 2.2x (PCL), 44x
(cuNSearch); KNN 3.5x (FRNN), 65x (FastRNN); speedups grow with input
size; KNN speedups exceed range speedups.
"""

from __future__ import annotations

from repro.baselines import CuNSearch, FRNN, FastRNN, PCLOctree
from repro.core.engine import RTNNConfig, RTNNEngine
from repro.datasets import DATASETS, load
from repro.experiments.harness import DNF_RATIO, env_scale, format_table
from repro.gpu.device import DeviceSpec, RTX_2080
from repro.metrics.fits import geomean

#: neighbor bounds used for the headline comparison
K_RANGE = 32
K_KNN = 8


def _rtnn(points, device):
    return RTNNEngine(
        points,
        device=device,
        config=RTNNConfig(knn_aabb="equiv_volume"),
    )


def run(
    datasets: list[str] | None = None,
    device: DeviceSpec = RTX_2080,
    scale: float | None = None,
    range_k: int = K_RANGE,
    k_knn: int = K_KNN,
    kinds=("range", "knn"),
) -> list[dict]:
    """One row per (dataset, search type)."""
    scale = env_scale() if scale is None else scale
    names = datasets or list(DATASETS)
    rows = []
    for name in names:
        points, spec = load(name, scale=scale)
        queries = points
        r = spec.radius
        engine = _rtnn(points, device)

        if "range" in kinds:
            rt = engine.range_search(queries, r, range_k)
            cu = CuNSearch(points, device=device)
            cu_res = cu.range_search(queries, r, range_k)
            cu_oom = (
                cu.modeled_memory_bytes(spec.paper_n_points, r, spec.scene_extent)
                + spec.paper_n_points * range_k * 4
            ) > device.mem_bytes
            pcl = PCLOctree(points, device=device)
            pcl_res = pcl.range_search(queries, r, range_k)
            pcl_oom = pcl.modeled_memory_bytes(spec.paper_n_points) > device.mem_bytes
            rows.append(
                {
                    "dataset": name,
                    "type": "range",
                    "rtnn_ms": rt.report.modeled_time * 1e3,
                    "cunsearch_x": _cell(rt, cu_res, cu_oom),
                    "pcloctree_x": _cell(rt, pcl_res, pcl_oom),
                }
            )
        if "knn" in kinds:
            rt = engine.knn_search(queries, k_knn, r)
            fr = FRNN(points, device=device)
            fr_res = fr.knn_search(queries, k_knn, r)
            fr_oom = (
                fr.modeled_memory_bytes(spec.paper_n_points, r, spec.scene_extent)
                + spec.paper_n_points * k_knn * 8
            ) > device.mem_bytes
            fa = FastRNN(points, device=device)
            fa_res = fa.knn_search(queries, k_knn, r)
            fa_oom = fa.modeled_memory_bytes(spec.paper_n_points) > device.mem_bytes
            rows.append(
                {
                    "dataset": name,
                    "type": "knn",
                    "rtnn_ms": rt.report.modeled_time * 1e3,
                    "frnn_x": _cell(rt, fr_res, fr_oom),
                    "fastrnn_x": _cell(rt, fa_res, fa_oom),
                }
            )
    return rows


def _cell(rtnn_res, base_res, oom: bool) -> str:
    if oom:
        return "OOM"
    ratio = base_res.report.modeled_time / rtnn_res.report.modeled_time
    if ratio > DNF_RATIO:
        return "DNF"
    return f"{ratio:.2f}x"


def speedup_values(rows: list[dict], column: str) -> list[float]:
    """Numeric speedups from a column, skipping OOM/DNF annotations."""
    out = []
    for r in rows:
        v = r.get(column)
        if isinstance(v, str) and v.endswith("x"):
            out.append(float(v[:-1]))
    return out


def summarize(rows: list[dict]) -> dict[str, float]:
    """Geomean speedup per baseline column (paper's headline numbers)."""
    out = {}
    for col in ("cunsearch_x", "pcloctree_x", "frnn_x", "fastrnn_x"):
        vals = speedup_values(rows, col)
        if vals:
            out[col] = geomean(vals)
    return out


def main():
    """Print this figure's table to stdout."""
    rows = run()
    print("Fig. 11 — RTNN speedup over baselines (modeled GPU time)")
    print(format_table(rows))
    print("geomeans:", {k: f"{v:.1f}x" for k, v in summarize(rows).items()})


if __name__ == "__main__":
    main()
