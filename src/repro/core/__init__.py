"""RTNN core: neighbor search formulated as hardware ray tracing.

Public surface:

* :class:`RTNNEngine` / :class:`RTNNConfig` — the full pipeline with
  query scheduling, partitioning and bundling;
* :data:`VARIANTS` — the named ablation configurations of Fig. 13;
* the building blocks (:mod:`scheduling`, :mod:`partition`,
  :mod:`bundling`, :mod:`queues`, :mod:`shaders`) for users composing
  their own pipelines.
"""

from repro.core.engine import RTNNEngine, RTNNConfig, VARIANTS
from repro.core.results import SearchResults, RunReport
from repro.core.partition import (
    compute_megacells,
    make_partitions,
    MegacellResult,
    Partition,
    default_cell_size,
    knn_aabb_width,
    EQUIV_VOLUME_COEFF,
)
from repro.core.bundling import bundle_partitions, Bundle, BundlingDecision
from repro.core.scheduling import schedule_queries, ScheduleOutcome
from repro.core.planar import PlanarRTNN
from repro.core.queues import KnnQueueBatch, RangeAccumulator

__all__ = [
    "RTNNEngine",
    "RTNNConfig",
    "VARIANTS",
    "SearchResults",
    "RunReport",
    "compute_megacells",
    "make_partitions",
    "MegacellResult",
    "Partition",
    "default_cell_size",
    "knn_aabb_width",
    "EQUIV_VOLUME_COEFF",
    "bundle_partitions",
    "Bundle",
    "BundlingDecision",
    "schedule_queries",
    "ScheduleOutcome",
    "PlanarRTNN",
    "KnnQueueBatch",
    "RangeAccumulator",
]
