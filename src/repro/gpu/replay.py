"""Vectorized replay of a recorded cache-access stream.

The sampled cache tracer records the sampled warp block's line
addresses during traversal; this module computes the exact hit/miss
counts afterwards from that stream, entirely in NumPy. The result is
bit-identical to pushing the stream through the per-access LRU
(:class:`repro.gpu.cache._SetAssociativeLRU`, kept as the test oracle).

Correctness rests on the classic LRU **stack-inclusion property**: an
access to line ``X`` hits a ``W``-way set iff fewer than ``W`` distinct
other lines of the same set were touched since the previous access to
``X`` (a first-ever access always misses). Only that threshold matters,
never the full reuse distance. Write ``p = prev(a)`` for the previous
use of ``a``'s line among its set's accesses. A line counts in the
window ``(p, a)`` exactly at its first access there, the one access
``b`` of that line with ``prev(b) < p``, so::

    a hits  iff  #{b in (p, a) : prev(b) < p} < W

:func:`lru_hit_mask` decides that without per-access Python work:

1. **Set grouping and run collapse** — a stable sort by set makes each
   set's accesses contiguous, in stream order. An access repeating its
   set's previous line has an empty window and hits. Dropping it is
   exact for every other access: only whole same-line runs sit between
   consecutive survivors of a line, so no window gains or loses a
   distinct line.
2. **Previous-use links** — a stable sort by line makes consecutive
   uses of a line adjacent, giving each survivor its ``prev``.
3. **Cheap decisions** — the windows are sorted by length. One shorter
   than ``W`` is a hit with no counting. An access ``b`` whose own
   previous use lies at least ``G >= a - p`` positions back has
   ``prev(b) < p``, so one prefix count per power of two ``G`` (each
   serving a contiguous slice of the sorted windows) proves most of the
   rest misses.
4. **Bounded scan** — the undecided windows step backwards from ``a``
   one offset at a time, all at once. A window leaves as a hit when it
   runs out (a prefix slice, thanks to the sort) and as a miss once its
   count reaches ``W`` (dropped every ``W`` steps).

Every sort takes a 16-bit key where one fits, which NumPy sorts by
radix: set ids, window lengths, and line tags (``line // n_sets``, with
empty value ranges folded away; node and primitive lines sit ``2**40``
apart). The set always comes from the true line.

The L2 stream is the subsequence of L1 misses, replayed the same way,
so the whole hierarchy matches the online simulation exactly (asserted
in ``tests/test_gpu_replay.py``).
"""

from __future__ import annotations

import numpy as np

#: keys below this span sort as uint16, which NumPy radix-sorts
_RADIX_SPAN = 1 << 16


def _stable_argsort(key: np.ndarray, span: int) -> np.ndarray:
    """Stable argsort of non-negative integer keys below ``span``."""
    if span <= _RADIX_SPAN:
        key = key.astype(np.uint16)
    return np.argsort(key, kind="stable")


def _fold(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Order-preserving map of ``values`` onto ``[0, span)``.

    While the span is wider than a radix key, the empty range between
    the values below and above the midpoint is closed. Distinct values
    stay distinct, so sorting the result groups equal values exactly as
    sorting ``values`` would.
    """
    v = values - values.min()
    span = int(v.max()) + 1
    while span > _RADIX_SPAN:
        upper = v >= span // 2
        gap = int(np.where(upper, v, span).min()) - int(np.where(upper, -1, v).max()) - 1
        if gap == 0:
            break
        np.subtract(v, gap, out=v, where=upper)
        span -= gap
    return v, span


def _unproven(prev, a, p, length, n_ways: int) -> np.ndarray:
    """Mask of the windows the long-gap bound cannot prove misses.

    ``a``, ``p`` and ``length = a - p`` describe windows longer than
    ``n_ways``, sorted by length. For the smallest power of two
    ``G >= length``, every ``b`` in the window whose previous use lies
    ``G`` or more positions back is a distinct line, so counting them
    is a lower bound on the window's distinct lines.
    """
    gap = np.arange(prev.size) - prev
    gap[prev < 0] = np.iinfo(gap.dtype).max
    counts = np.zeros(prev.size + 1, dtype=np.intp)
    unproven = np.empty(a.size, dtype=bool)
    lo = 0
    g = 1 << n_ways.bit_length()  # the first power of two above n_ways
    while lo < a.size:
        hi = int(np.searchsorted(length, g, side="right"))
        if hi > lo:
            np.cumsum(gap >= g, out=counts[1:])
            unproven[lo:hi] = counts[a[lo:hi]] - counts[p[lo:hi] + 1] < n_ways
        lo, g = hi, 2 * g
    return unproven


def _scan_hits(prev, a, p, length, n_ways: int) -> np.ndarray:
    """The hits among windows sorted by length, by backward offset scan.

    Step ``j`` counts ``b = a - j`` when ``prev(b) < p``. A window whose
    ``length - 1`` accesses are all counted leaves as a prefix slice: a
    hit iff its count stayed below ``n_ways``. Counts only grow, so the
    windows already at ``n_ways`` (misses) are dropped every ``n_ways``
    steps rather than tested every step.
    """
    hits = [a[:0]]
    count = np.zeros(a.size, dtype=np.intp)
    lo = 0
    step = 0
    while True:
        done = int(np.searchsorted(length, step + 1, side="right"))
        if done > lo:
            hits.append(a[lo:done][count[lo:done] < n_ways])
            lo = done
        if lo == a.size:
            return np.concatenate(hits)
        step += 1
        count[lo:] += prev[a[lo:] - step] < p[lo:]
        if step % n_ways == 0:
            live = lo + np.flatnonzero(count[lo:] < n_ways)
            a, p, length, count = a[live], p[live], length[live], count[live]
            lo = 0


def lru_hit_mask(lines: np.ndarray, n_sets: int, n_ways: int) -> np.ndarray:
    """Per-access hit mask of one set-associative LRU cache.

    Exactly reproduces :class:`repro.gpu.cache._SetAssociativeLRU` fed
    the same ``lines`` in order (hit promotes to MRU, miss allocates and
    evicts the LRU way).
    """
    if n_sets < 1 or n_ways < 1:
        raise ValueError("cache needs at least 1 set and 1 way")
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    hits = np.zeros(lines.size, dtype=bool)
    if lines.size == 0:
        return hits

    # 1. group by set, then collapse set-local runs (they hit)
    by_set = _stable_argsort(lines % n_sets, n_sets)
    grouped = lines[by_set]
    fresh = np.empty(lines.size, dtype=bool)
    fresh[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=fresh[1:])
    heads = np.flatnonzero(fresh)
    stream = grouped[heads]

    # 2. previous use of each survivor's line (-1 = first use); within a
    # set, the tag tells lines apart, and the set grouping survives the
    # stable sort, so equal lines end up adjacent
    tag, span = _fold(stream // n_sets)
    by_line = _stable_argsort(tag, span)
    same = stream[by_line[1:]] == stream[by_line[:-1]]
    a = by_line[1:][same]
    p = by_line[:-1][same]
    prev = np.full(stream.size, -1, dtype=np.intp)
    prev[a] = p

    # 3. windows (p, a) by length: short ones hit, the bound proves
    # most long ones miss
    length = a - p
    order = _stable_argsort(length, int(length.max(initial=0)) + 1)
    a, p, length = a[order], p[order], length[order]
    short = int(np.searchsorted(length, n_ways, side="right"))
    a_hit = a[:short]
    a, p, length = a[short:], p[short:], length[short:]
    keep = _unproven(prev, a, p, length, n_ways)

    # 4. scan what is left
    scanned = _scan_hits(prev, a[keep], p[keep], length[keep], n_ways)
    grouped_hit = ~fresh
    grouped_hit[heads[a_hit]] = True
    grouped_hit[heads[scanned]] = True
    hits[by_set] = grouped_hit
    return hits


def replay_hierarchy(
    lines: np.ndarray,
    l1_sets: int,
    l1_ways: int,
    l2_sets: int,
    l2_ways: int,
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Replay a recorded line stream through L1 then L2.

    Returns ``((l1_hits, l1_misses), (l2_hits, l2_misses))``,
    bit-identical to feeding :class:`repro.gpu.cache.CacheHierarchy`
    the same stream online (L2 observes exactly the L1 misses, in
    order).
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    l1_hit = lru_hit_mask(lines, l1_sets, l1_ways)
    l1_hits = int(np.count_nonzero(l1_hit))
    spill = lines[~l1_hit]
    l2_hit = lru_hit_mask(spill, l2_sets, l2_ways)
    l2_hits = int(np.count_nonzero(l2_hit))
    return (
        (l1_hits, lines.size - l1_hits),
        (l2_hits, spill.size - l2_hits),
    )
