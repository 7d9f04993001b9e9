"""Sampled set-associative LRU cache hierarchy.

The traversal engine reports, per lockstep iteration, which BVH nodes
and primitives each ray touches. Simulating every access through an LRU
hierarchy would dominate runtime, so — following the standard sampled
micro-architectural simulation methodology (SMARTS-style) — we simulate
a deterministic subset of warps exactly and report their hit rates as
the estimate for the whole launch.

Address mapping: BVH nodes and primitives live in separate regions of a
flat address space; consecutive ids share cache lines (4 nodes or
primitives per 128 B line), so spatially-coherent launch orders also
enjoy spatial locality, exactly like the real memory layout.

Two tracer implementations share the sampling policy:

* :class:`SampledCacheTracer` (default) only *records* the sampled
  block's line stream during traversal and derives hit/miss counts
  afterwards via the vectorized threshold LRU replay in
  :mod:`repro.gpu.replay` — exact by the LRU stack-inclusion property.
* :class:`OnlineSampledCacheTracer` pushes every line through the
  Python-level LRU as it arrives. It is the reference implementation
  the replay is asserted against, and remains available for debugging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.replay import replay_hierarchy


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 1.0


def hierarchy_geometry(
    l1_kb: int = 64,
    l2_kb: int = 4096,
    line_bytes: int = 128,
    l1_ways: int = 4,
    l2_ways: int = 16,
    l2_share: float = 1.0 / 46.0,
) -> tuple[int, int, int, int]:
    """Resolve capacities into ``(l1_sets, l1_ways, l2_sets, l2_ways)``.

    Single source of truth for the set/way geometry, shared by the
    online hierarchy and the replay tracer so both simulate the exact
    same cache.
    """
    l1_lines = max((l1_kb * 1024) // line_bytes, l1_ways)
    l2_lines = max(int((l2_kb * 1024 * l2_share)) // line_bytes, l2_ways)
    return (
        max(l1_lines // l1_ways, 1),
        l1_ways,
        max(l2_lines // l2_ways, 1),
        l2_ways,
    )


class _SetAssociativeLRU:
    """A single set-associative LRU cache over line addresses.

    Each set is a plain Python list ordered LRU-first — membership and
    reordering on <= a few dozen ways are C-speed list operations,
    which keeps the per-access simulation cheap.
    """

    def __init__(self, n_sets: int, n_ways: int):
        if n_sets < 1 or n_ways < 1:
            raise ValueError("cache needs at least 1 set and 1 way")
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.sets: list[list[int]] = [[] for _ in range(n_sets)]
        self.stats = CacheStats()

    def access(self, line: int) -> bool:
        """Access one line; returns True on hit. Misses allocate."""
        s = self.sets[line % self.n_sets]
        if line in s:
            if s[-1] != line:
                s.remove(line)
                s.append(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(s) >= self.n_ways:
            s.pop(0)
        s.append(line)
        return False


class CacheHierarchy:
    """L1 (per-SM, we simulate the one hosting the sampled warps) + L2."""

    def __init__(
        self,
        l1_kb: int = 64,
        l2_kb: int = 4096,
        line_bytes: int = 128,
        l1_ways: int = 4,
        l2_ways: int = 16,
        l2_share: float = 1.0 / 46.0,
    ):
        # The sampled warps represent one SM's slice of the machine, so
        # they see one L1 and (approximately) their fair share of L2.
        l1_sets, l1_w, l2_sets, l2_w = hierarchy_geometry(
            l1_kb=l1_kb,
            l2_kb=l2_kb,
            line_bytes=line_bytes,
            l1_ways=l1_ways,
            l2_ways=l2_ways,
            l2_share=l2_share,
        )
        self.line_bytes = line_bytes
        self.l1 = _SetAssociativeLRU(l1_sets, l1_w)
        self.l2 = _SetAssociativeLRU(l2_sets, l2_w)

    def access(self, line: int) -> None:
        if not self.l1.access(line):
            self.l2.access(line)

    @property
    def l1_stats(self) -> CacheStats:
        return self.l1.stats

    @property
    def l2_stats(self) -> CacheStats:
        return self.l2.stats


@dataclass
class _ReplayedHierarchy:
    """Finalized replay results, shaped like :class:`CacheHierarchy`."""

    l1_stats: CacheStats
    l2_stats: CacheStats


#: ids-per-line for nodes and primitives (128 B line / 32 B record)
IDS_PER_LINE = 4
#: offset separating primitive addresses from node addresses
PRIM_REGION = 1 << 40


class _WarpBlockSampler:
    """Shared sampling policy: one SM's worth of *contiguous* warps.

    An SM hosts warps drawn from consecutive launch indices, and
    ray-tracing kernels are register-heavy enough that only ~8 warps are
    resident at once, so we sample one contiguous block of ``max_warps``
    warps (taken from the middle of the launch to avoid boundary
    effects) sharing one L1 and their slice of L2.
    """

    def __init__(self, n_rays: int, warp_size: int, max_warps: int):
        n_warps = max((n_rays + warp_size - 1) // warp_size, 1)
        block = min(max_warps, n_warps)
        start = (n_warps - block) // 2
        self.sampled = np.arange(start, start + block, dtype=np.int64)
        self._sampled_set = np.zeros(n_warps, dtype=bool)
        self._sampled_set[self.sampled] = True
        self.warp_size = warp_size
        self.sample_fraction = len(self.sampled) / n_warps


class SampledCacheTracer(_WarpBlockSampler):
    """Record-and-replay memory tracer for the sampled warp block.

    Plugs into :func:`repro.bvh.traverse.trace_batch` via the ``tracer``
    argument. During traversal the hooks only *append* the sampled
    block's line addresses (cheap NumPy slicing); :meth:`finalize` then
    computes the per-level hit/miss counts with the vectorized
    threshold LRU replay — bit-identical to running the stream through
    :class:`CacheHierarchy` online, at a fraction of the cost.

    Every lane request enters the stream (requests are what profilers
    count): a coherent warp's lanes hit the line their first lane just
    brought in — coalescing and cache reuse both surface as hits,
    incoherent lanes as misses.

    Results (``hier``, hit rates, counters) finalize lazily on first
    read; recording after a read transparently re-finalizes, since the
    replay always recomputes from the full stream.
    """

    def __init__(
        self,
        n_rays: int,
        warp_size: int = 32,
        max_warps: int = 8,
        l1_kb: int = 64,
        l2_kb: int = 4096,
        l2_share: float = 1.0 / 46.0,
    ):
        super().__init__(n_rays, warp_size, max_warps)
        self._geometry = hierarchy_geometry(
            l1_kb=l1_kb, l2_kb=l2_kb, l2_share=l2_share
        )
        self._chunks: list[np.ndarray] = []
        self._replayed: _ReplayedHierarchy | None = None

    # -- tracer protocol -------------------------------------------------
    def on_node_access(self, iteration: int, ray_ids: np.ndarray, node_ids: np.ndarray):
        keep = self._sampled_set[ray_ids // self.warp_size]
        if keep.any():
            self._chunks.append(node_ids[keep].astype(np.int64) // IDS_PER_LINE)
            self._replayed = None

    def on_prim_access(self, iteration: int, ray_ids: np.ndarray, prim_ids: np.ndarray):
        keep = self._sampled_set[ray_ids // self.warp_size]
        if keep.any():
            self._chunks.append(
                PRIM_REGION + prim_ids[keep].astype(np.int64) // IDS_PER_LINE
            )
            self._replayed = None

    def finalize(self) -> None:
        """Replay the recorded stream; idempotent until new recording."""
        if self._replayed is not None:
            return
        if self._chunks:
            lines = np.concatenate(self._chunks)
        else:
            lines = np.empty(0, dtype=np.int64)
        (l1h, l1m), (l2h, l2m) = replay_hierarchy(lines, *self._geometry)
        self._replayed = _ReplayedHierarchy(
            CacheStats(l1h, l1m), CacheStats(l2h, l2m)
        )

    # -- results ----------------------------------------------------------
    @property
    def hier(self) -> _ReplayedHierarchy:
        self.finalize()
        assert self._replayed is not None
        return self._replayed

    @property
    def l1_hit_rate(self) -> float:
        return self.hier.l1_stats.hit_rate

    @property
    def l2_hit_rate(self) -> float:
        return self.hier.l2_stats.hit_rate

    @property
    def sampled_accesses(self) -> int:
        """Coalesced accesses issued by the sampled block."""
        return self.hier.l1_stats.accesses

    def counters(self) -> dict:
        """Sampled hit/miss counts under their observability names.

        These are the *sampled block's* raw counts (deterministic for a
        fixed launch), not launch-wide estimates — exactly what the
        bench harness wants for exact-match regression comparison.
        """
        l1, l2 = self.hier.l1_stats, self.hier.l2_stats
        return {
            "l1_hits": l1.hits,
            "l1_misses": l1.misses,
            "l2_hits": l2.hits,
            "l2_misses": l2.misses,
        }

    def scaled_l1_misses(self) -> float:
        """Launch-wide L1 miss estimate (sampled misses / sample fraction)."""
        return self.hier.l1_stats.misses / self.sample_fraction

    def scaled_l2_misses(self) -> float:
        """Launch-wide L2 miss estimate."""
        return self.hier.l2_stats.misses / self.sample_fraction


class OnlineSampledCacheTracer(_WarpBlockSampler):
    """Reference tracer: per-access online LRU simulation.

    Original implementation of :class:`SampledCacheTracer`, retained as
    the oracle the replay is asserted against (and for step-debugging a
    single launch). Interface-compatible with the replay tracer.
    """

    def __init__(
        self,
        n_rays: int,
        warp_size: int = 32,
        max_warps: int = 8,
        l1_kb: int = 64,
        l2_kb: int = 4096,
        l2_share: float = 1.0 / 46.0,
    ):
        super().__init__(n_rays, warp_size, max_warps)
        self.hier = CacheHierarchy(l1_kb=l1_kb, l2_kb=l2_kb, l2_share=l2_share)

    def _run(self, ray_ids: np.ndarray, lines: np.ndarray) -> None:
        warps = ray_ids // self.warp_size
        keep = self._sampled_set[warps]
        if not keep.any():
            return
        access = self.hier.access
        for line in lines[keep].tolist():
            access(line)

    # -- tracer protocol -------------------------------------------------
    def on_node_access(self, iteration: int, ray_ids: np.ndarray, node_ids: np.ndarray):
        self._run(ray_ids, node_ids.astype(np.int64) // IDS_PER_LINE)

    def on_prim_access(self, iteration: int, ray_ids: np.ndarray, prim_ids: np.ndarray):
        self._run(ray_ids, PRIM_REGION + prim_ids.astype(np.int64) // IDS_PER_LINE)

    def finalize(self) -> None:
        """Online simulation has nothing to defer; present for protocol."""

    # -- results ----------------------------------------------------------
    @property
    def l1_hit_rate(self) -> float:
        return self.hier.l1_stats.hit_rate

    @property
    def l2_hit_rate(self) -> float:
        return self.hier.l2_stats.hit_rate

    @property
    def sampled_accesses(self) -> int:
        """Coalesced accesses issued by the sampled block."""
        return self.hier.l1_stats.accesses

    def counters(self) -> dict:
        """Sampled hit/miss counts under their observability names."""
        l1, l2 = self.hier.l1_stats, self.hier.l2_stats
        return {
            "l1_hits": l1.hits,
            "l1_misses": l1.misses,
            "l2_hits": l2.hits,
            "l2_misses": l2.misses,
        }

    def scaled_l1_misses(self) -> float:
        """Launch-wide L1 miss estimate (sampled misses / sample fraction)."""
        return self.hier.l1_stats.misses / self.sample_fraction

    def scaled_l2_misses(self) -> float:
        """Launch-wide L2 miss estimate."""
        return self.hier.l2_stats.misses / self.sample_fraction
