"""Simulated GPU substrate.

The paper runs on NVIDIA Turing hardware (RT cores + SMs). We replace
that hardware with a mechanistic model:

* :mod:`repro.gpu.device` — device specifications (RTX 2080 / 2080 Ti);
* :mod:`repro.gpu.cache` — sampled set-associative LRU cache hierarchy
  (L1 per SM, shared L2) fed by the traversal engine's memory tracer
  hook; produces the hit rates of Fig. 6;
* :mod:`repro.gpu.replay` — vectorized threshold LRU replay of a
  recorded line stream, bit-identical to the online LRU simulation;
* :mod:`repro.gpu.costmodel` — converts hardware counters (warp steps,
  IS calls, transactions, AABB counts, bytes moved) into modeled GPU
  time. All speedups reported by experiments are ratios of modeled
  time, so trends depend on mechanistic counts, not on Python speed.
"""

from repro.gpu.device import DeviceSpec, RTX_2080, RTX_2080TI, KNOWN_DEVICES
from repro.gpu.cache import (
    CacheHierarchy,
    CacheStats,
    OnlineSampledCacheTracer,
    SampledCacheTracer,
    hierarchy_geometry,
)
from repro.gpu.replay import lru_hit_mask, replay_hierarchy
from repro.gpu.costmodel import CostModel, LaunchCost, IsKind

__all__ = [
    "DeviceSpec",
    "RTX_2080",
    "RTX_2080TI",
    "KNOWN_DEVICES",
    "CacheHierarchy",
    "CacheStats",
    "OnlineSampledCacheTracer",
    "SampledCacheTracer",
    "hierarchy_geometry",
    "lru_hit_mask",
    "replay_hierarchy",
    "CostModel",
    "LaunchCost",
    "IsKind",
]
