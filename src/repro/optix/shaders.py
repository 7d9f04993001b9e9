"""Shader interface for the simulated pipeline.

A shader is any callable ``(ray_ids, prim_ids) -> terminated | None``
invoked on batches of (ray, primitive-AABB-hit) pairs holding at most
one pair per ray. ``ray_ids`` are launch-order indices; shaders
translate them to user query ids through the launch's ``query_ids``
mapping. Returning an array of ray ids (from the batch) terminates
those rays (Any-Hit termination). A shader may also expose
``flat_hits`` to take a whole traversal round in one call — see
:mod:`repro.bvh.traverse` for both forms.

The concrete neighbor-search shaders live in :mod:`repro.core.shaders`;
this module defines the protocol plus a trivial counting shader used by
characterization experiments (Figs. 7/8) and tests.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class IntersectionShader(Protocol):
    """Structural type every IS shader satisfies."""

    def __call__(self, ray_ids: np.ndarray, prim_ids: np.ndarray):
        """Process hit pairs; optionally return ray ids to terminate."""
        ...


class CountingShader:
    """IS shader that only counts calls (and optionally records pairs)."""

    def __init__(self, n_rays: int, record_pairs: bool = False):
        self.calls = np.zeros(n_rays, dtype=np.int64)
        self.record_pairs = record_pairs
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = []

    def __call__(self, ray_ids: np.ndarray, prim_ids: np.ndarray):
        self.calls[ray_ids] += 1
        if self.record_pairs:
            self.pairs.append((ray_ids.copy(), prim_ids.copy()))
        return None

    @property
    def total_calls(self) -> int:
        return int(self.calls.sum())
