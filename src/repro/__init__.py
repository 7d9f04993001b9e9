"""repro — a full reproduction of *RTNN: Accelerating Neighbor Search
Using Hardware Ray Tracing* (Yuhao Zhu, PPoPP 2022) on a simulated
RT-core GPU.

Quick start::

    import numpy as np
    from repro import RTNNEngine

    points = np.random.default_rng(0).random((10_000, 3))
    engine = RTNNEngine(points)
    res = engine.knn_search(points[:100], k=8, radius=0.1)
    res.indices      # (100, 8) neighbor ids, -1 padded
    res.report.breakdown.total   # modeled GPU seconds

Packages: :mod:`repro.core` (the paper's contribution),
:mod:`repro.optix` / :mod:`repro.bvh` / :mod:`repro.gpu` (the simulated
hardware substrate), :mod:`repro.serve` (the async micro-batching
service tier), :mod:`repro.baselines` (cuNSearch / FRNN /
PCL-Octree / FastRNN analogues), :mod:`repro.datasets` (synthetic
KITTI / 3-D-scan / N-body workloads), :mod:`repro.experiments` (one
runner per figure of the paper).
"""

from repro.api import SearchSession
from repro.core import (
    RTNNEngine,
    RTNNConfig,
    SearchResults,
    RunReport,
    VARIANTS,
    PlanarRTNN,
)
from repro.gpu import RTX_2080, RTX_2080TI, DeviceSpec

__version__ = "1.0.0"

__all__ = [
    "RTNNEngine",
    "SearchSession",
    "PlanarRTNN",
    "RTNNConfig",
    "SearchResults",
    "RunReport",
    "VARIANTS",
    "RTX_2080",
    "RTX_2080TI",
    "DeviceSpec",
    "__version__",
]
