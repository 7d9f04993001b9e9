"""Batched BVH traversal — the simulated RT-core.

Execution model. Rays traverse autonomously on the RT cores (one stack
pop per ray per round), while SIMT costs are charged at *warp*
granularity: a warp (32 consecutive launch indices) stays busy until
its slowest lane finishes, so

``warp_traversal_steps = Σ_warps max(per-lane pops)``
``warp_is_steps        = Σ_warps max(per-lane IS calls)``

— the classic divergence penalty: incoherent warps mix short and long
rays and pay for the longest, coherent warps retire together.

Memory. Every node pop and leaf-primitive test fetches a record; the
optional ``tracer`` (the sampled cache simulator) observes the access
stream of one SM's worth of contiguous warps, with per-warp
per-iteration deduplication standing in for intra-warp coalescing.
``node_transactions``/``prim_transactions`` report the *uncoalesced*
fetch totals as a tracer-free fallback.

Leaf stage. Each round runs one fused pass over every (ray, in-leaf
slot) pair of the leaves hit that round: one gather, one primitive
AABB test (the IS shader is skipped for primitives whose AABBs the ray
misses, Fig. 1b; bulk-accepted leaves skip the test), and one shader
call on the surviving pairs — ray-major, each ray's pairs in slot order
(a ray reaches at most one leaf per round). The ``hit_handler`` takes
one of two forms:

* a shader exposing ``flat_hits(ray_ids, prim_ids)`` consumes the whole
  round and returns ``None`` or ``(terminated_rays, positions)`` — each
  ray it ends (the Any-Hit path used when K neighbors are found) and
  the index of the pair that ended it;
* a plain callable ``hit_handler(ray_ids, prim_ids) -> terminated_ray_ids
  | None`` is called once per candidate rank (batch i holds every live
  ray's i-th pair, so a call sees at most one pair per ray) and may
  only terminate rays of the batch it was handed.

Either way a terminated ray's round is cut after its terminating slot:
later slots count as never reached — no fetch, no primitive test, no
IS call — exactly as if the leaf's slots had run one after another.
The memory tracer sees the reached pairs slot-major, except for
shaders that declare ``any_hit = False`` (KNN), whose rounds stream in
the gathered ray-major order.

One loop per pass. Query partitioning launches one bundle per AABB
width (Listing 3), and every width's BVH is the same point-MBR tree
grown by its half-width ``h``. :func:`trace_forest` therefore traces
all launches of a pass in one round loop over the tree's topology: a
ray's node and primitive tests use the tree's bounds grown by its own
launch's ``h`` — the exact floats its launch's GAS holds — and prune
bounds may be per ray. :func:`trace_batch` is the same loop over one
launch and a ready-made BVH. The loop keeps ``steps``, ``is_calls``
and primitive tests per ray and the pruned, bulk-accepted, Any-Hit
and primitive-access tallies per launch; at the end each launch gets
its own :class:`TraceResult` (its ``iterations`` is its longest ray's
``steps``, its warp counters come from its own ray slice). Each
launch's memory tracer gets that launch's share of every round, with
launch-local ray ids and the shared round index, in the order it would
see alone. Every launch starts at round 0, and no query has rays in
two launches, so no launch can tell it ran beside others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bvh.node import BVH
from repro.geometry.aabb import aabb_contains, box_sq_dists, ray_aabb_intersect


def _finalize_tracer(tracer) -> None:
    """Invoke the tracer's optional ``finalize()`` hook."""
    fin = getattr(tracer, "finalize", None)
    if fin is not None:
        fin()


def _warp_max(values: np.ndarray, warp_size: int) -> np.ndarray:
    """Per-warp max of a per-ray array (last warp may be partial)."""
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=values.dtype)
    n_warps = (n + warp_size - 1) // warp_size
    padded = np.zeros(n_warps * warp_size, dtype=values.dtype)
    padded[:n] = values
    return padded.reshape(n_warps, warp_size).max(axis=1)


def _both(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """Conjunction of two optional pair masks (``None`` = every pair)."""
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def _per_leaf(
    pair_leaf: np.ndarray, mask: np.ndarray | None, counts: np.ndarray
) -> np.ndarray:
    """Per-leaf-ray tally of the pairs ``mask`` selects (``None`` = all)."""
    if mask is None:
        return counts
    return np.bincount(pair_leaf[mask], minlength=len(counts))


def _stable_order(keys: np.ndarray, top: int) -> np.ndarray:
    """Stable argsort of small non-negative ints ``<= top`` (NumPy
    radix-sorts 16-bit keys, several times faster than 64-bit ones)."""
    if top < 1 << 15:
        keys = keys.astype(np.int16)
    return np.argsort(keys, kind="stable")


def run_ranks(ray_ids: np.ndarray) -> np.ndarray:
    """Rank of each pair within its ray's run.

    ``ray_ids`` is ray-major — each ray's pairs are contiguous, the
    order the fused leaf stage hands a round to its shader — so a ray's
    i-th pair gets rank i.
    """
    n = len(ray_ids)
    idx = np.arange(n, dtype=np.int64)
    if n == 0:
        return idx
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(ray_ids[1:], ray_ids[:-1], out=head[1:])
    return idx - np.maximum.accumulate(np.where(head, idx, 0))


def rank_batches(ray_ids: np.ndarray) -> list:
    """Split ray-major pairs into batches by per-ray rank.

    Batch i holds every ray's i-th pair, in ray order: each batch has at
    most one pair per ray, and every ray meets its pairs in their
    original order batch after batch. Batches index ``ray_ids`` — one
    ``slice(None)`` when no ray has a second pair.
    """
    rank = run_ranks(ray_ids)
    if len(rank) == 0:
        return []
    top = int(rank.max())
    if top == 0:
        return [slice(None)]
    order = _stable_order(rank, top)
    bounds = np.searchsorted(rank[order], np.arange(top + 2))
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _drive_by_rank(hit_handler, ray_ids: np.ndarray, prim_ids: np.ndarray):
    """Run one fused round through a plain ``(ray_ids, prim_ids)`` callable.

    The handler is called once per :func:`rank_batches` batch, so each
    call sees at most one pair per ray. Rays it terminates must come
    from the batch it was handed (``ray_ids`` ascending, as the
    traversal orders them); they are dropped from later ranks. Returns
    what a ``flat_hits`` shader would: ``None`` or ``(terminated_rays,
    positions)``.
    """
    pos = np.arange(len(ray_ids), dtype=np.int64)
    dead = np.empty(0, dtype=np.int64)
    ends = []
    for sel in rank_batches(ray_ids):
        b = pos[sel]
        if len(dead):
            b = b[~np.isin(ray_ids[b], dead)]
            if not len(b):
                break
        r = ray_ids[b]
        term = hit_handler(r, prim_ids[b])
        if term is None or not len(term):
            continue
        term = np.unique(np.asarray(term, dtype=np.int64))
        at = np.minimum(np.searchsorted(r, term), len(r) - 1)
        if (r[at] != term).any():
            raise ValueError(
                "hit_handler terminated rays outside the batch it was handed"
            )
        ends.append(b[at])
        dead = np.union1d(dead, term)
    if not ends:
        return None
    cut = np.concatenate(ends)
    return ray_ids[cut], cut


@dataclass(frozen=True)
class PruneSpec:
    """Leaf MBR distance-pruning bounds for one launch.

    The traversal skips a hit leaf outright when the squared Euclidean
    distance from the ray origin to the leaf's *tight point MBR*
    exceeds every bound under which the launch's shader could accept a
    member point:

    * ``static_t2`` — the launch-constant bound. Any accepted point
      must pass the primitive AABB test (``L∞ <= half_width``, hence
      ``d² <= 3·half_width²``), and when the shader applies the sphere
      test also ``d² <= r²``; ``static_t2`` is the minimum of the
      applicable bounds, so ``min_d2 > static_t2`` proves no member
      point can be accepted (or even reach the shader).
    * ``worst`` — optional per-query dynamic bound (the KNN queue's
      current worst-kept distance, ``+inf`` until a queue fills). The
      queue improves only on ``(d², index) < (worst, worst_idx)``, so a
      candidate at exactly ``d² == worst`` can still enter; the leaf
      keep test is therefore non-strict (``min_d2 <= bound``) and must
      stay so. ``worst`` is monotone non-increasing, so any snapshot
      is a sound prune bound.

    In a forest launch ``static_t2`` and ``bulk_t2`` may be ``(R,)``
    per-ray arrays (each ray's own launch bound) instead of scalars.

    ``bulk_t2`` enables the complementary move for range launches with
    an active sphere test and ``half_width >= r``: a leaf whose
    ``max_d2 <= bulk_t2 (= r²)`` is *bulk-accepted* — every member
    point provably passes both the primitive AABB test
    (``L∞ <= d <= r <= half_width``) and the sphere test, so its pairs
    skip the per-point AABB tests and flow straight to the shader, in
    their unchanged place in the round (Any-Hit timing, and therefore
    results, stay bit-identical). ``None`` disables bulk acceptance
    (KNN — the queue still needs every distance compared — and
    fast-path bundles, whose inscribed AABBs must keep filtering).
    """

    leaf_lo: np.ndarray        # (M, 3) tight leaf point MBRs (leaf rows)
    leaf_hi: np.ndarray
    static_t2: float | np.ndarray    # squared prune bound (scalar or (R,))
    bulk_t2: float | np.ndarray | None = None  # bulk-accept bound (range w/ sphere test)
    worst: np.ndarray | None = None  # (Q,) live KNN worst-distance array
    query_ids: np.ndarray | None = None  # (R,) ray -> accumulator row


@dataclass
class TraceResult:
    """Counters produced by one :func:`trace_batch` launch."""

    steps: np.ndarray               # (R,) node pops per ray
    is_calls: np.ndarray            # (R,) IS shader calls per ray
    prim_tests_per_ray: np.ndarray  # (R,) leaf primitive-AABB tests per ray
    iterations: int                 # rounds executed
    warp_traversal_steps: int       # Σ warps max per-lane pops
    warp_is_steps: int              # Σ warps max per-lane IS calls
    prim_test_warp_steps: int       # Σ warps max per-lane prim tests
    node_transactions: int          # uncoalesced node fetches
    prim_transactions: int          # uncoalesced primitive fetches
    n_rays: int
    warp_size: int
    per_warp_steps: np.ndarray | None = None  # (W,) busy rounds
    ah_terminations: int = 0        # rays stopped via the Any-Hit path
    leaves_pruned: int = 0          # (ray, leaf) pairs skipped by MBR pruning
    leaves_bulk_accepted: int = 0   # (ray, leaf) pairs bulk-accepted
    budget_stopped_rays: int = 0    # rays truncated by the step budget
    budget_exhausted: np.ndarray | None = None  # (R,) bool, truncated rays

    @property
    def total_steps(self) -> int:
        return int(self.steps.sum())

    @property
    def total_is_calls(self) -> int:
        return int(self.is_calls.sum())

    @property
    def prim_tests(self) -> int:
        return int(self.prim_tests_per_ray.sum())

    @property
    def n_warps(self) -> int:
        return (self.n_rays + self.warp_size - 1) // self.warp_size

    @property
    def simd_efficiency(self) -> float:
        """Active traversal lanes / (warp_size × busy warp steps)."""
        if self.warp_traversal_steps == 0:
            return 1.0
        return self.total_steps / (self.warp_size * self.warp_traversal_steps)

    @property
    def is_simd_efficiency(self) -> float:
        """Active IS lanes / (warp_size × busy IS warp steps)."""
        if self.warp_is_steps == 0:
            return 1.0
        return self.total_is_calls / (self.warp_size * self.warp_is_steps)

    def counters(self) -> dict:
        """The launch's counters under their canonical observability
        names (what :mod:`repro.obs` spans and bench records carry).

        ``aabb_tests`` counts every ray-AABB evaluation — one per node
        pop plus one per in-leaf primitive test — the quantity the
        paper's Fig. 7 prices.
        """
        return {
            "rays": int(self.n_rays),
            "traversal_steps": self.total_steps,
            "is_calls": self.total_is_calls,
            "ah_terminations": int(self.ah_terminations),
            "prim_aabb_tests": self.prim_tests,
            "aabb_tests": self.total_steps + self.prim_tests,
            "warp_traversal_steps": int(self.warp_traversal_steps),
            "warp_is_steps": int(self.warp_is_steps),
            "node_transactions": int(self.node_transactions),
            "prim_transactions": int(self.prim_transactions),
            "leaves_pruned": int(self.leaves_pruned),
            "leaves_bulk_accepted": int(self.leaves_bulk_accepted),
            "budget_stopped_rays": int(self.budget_stopped_rays),
        }

    def merge(self, other: "TraceResult") -> "TraceResult":
        """Aggregate counters of two launches (used by partitioned search).

        Raises ``ValueError`` if the launches used different warp sizes
        — their warp-granular counters would not be commensurable.
        """
        if self.warp_size != other.warp_size:
            raise ValueError(
                f"cannot merge TraceResults with different warp sizes "
                f"({self.warp_size} != {other.warp_size})"
            )
        return TraceResult(
            steps=np.concatenate([self.steps, other.steps]),
            is_calls=np.concatenate([self.is_calls, other.is_calls]),
            prim_tests_per_ray=np.concatenate(
                [self.prim_tests_per_ray, other.prim_tests_per_ray]
            ),
            iterations=self.iterations + other.iterations,
            warp_traversal_steps=self.warp_traversal_steps + other.warp_traversal_steps,
            warp_is_steps=self.warp_is_steps + other.warp_is_steps,
            prim_test_warp_steps=self.prim_test_warp_steps + other.prim_test_warp_steps,
            node_transactions=self.node_transactions + other.node_transactions,
            prim_transactions=self.prim_transactions + other.prim_transactions,
            n_rays=self.n_rays + other.n_rays,
            warp_size=self.warp_size,
            per_warp_steps=None
            if self.per_warp_steps is None or other.per_warp_steps is None
            else np.concatenate([self.per_warp_steps, other.per_warp_steps]),
            ah_terminations=self.ah_terminations + other.ah_terminations,
            leaves_pruned=self.leaves_pruned + other.leaves_pruned,
            leaves_bulk_accepted=(
                self.leaves_bulk_accepted + other.leaves_bulk_accepted
            ),
            budget_stopped_rays=(
                self.budget_stopped_rays + other.budget_stopped_rays
            ),
            budget_exhausted=None
            if self.budget_exhausted is None or other.budget_exhausted is None
            else np.concatenate([self.budget_exhausted, other.budget_exhausted]),
        )


def trace_batch(
    bvh: BVH,
    origins: np.ndarray,
    directions: np.ndarray,
    t_min: float,
    t_max: float,
    hit_handler,
    warp_size: int = 32,
    tracer=None,
    max_iterations: int | None = None,
    prune: PruneSpec | None = None,
    step_budget: int | None = None,
) -> TraceResult:
    """Trace a batch of rays through ``bvh``.

    Parameters
    ----------
    bvh:
        The acceleration structure.
    origins, directions:
        ``(R, 3)`` rays in *launch order* (warp w = rays 32w .. 32w+31).
    t_min, t_max:
        Shared ray segment (RTNN: ``[0, 1e-16]``).
    hit_handler:
        A ``flat_hits`` shader or a plain callable ``(ray_ids, prim_ids)
        -> terminated_ray_ids | None`` (see the module docstring).
        ``prim_ids`` are original primitive indices. Terminated rays
        stop traversing immediately (Any-Hit termination).
    tracer:
        Optional memory tracer with ``on_node_access(it, ray_ids,
        node_ids)`` / ``on_prim_access(it, ray_ids, prim_ids)`` hooks
        (the sampled cache simulator plugs in here). If the tracer also
        exposes ``finalize()``, it is called once after the last hook so
        record-and-replay tracers can roll up their deferred state.
    max_iterations:
        Safety valve; raises ``RuntimeError`` if exceeded.
    prune:
        Optional :class:`PruneSpec`. Hit leaves whose tight point MBR
        provably cannot contribute are skipped before the per-point
        gather; leaves provably entirely inside the acceptance sphere
        are bulk-accepted past the primitive AABB tests. Results are
        bit-identical with or without pruning; only work counters and
        the primitive access stream change.
    step_budget:
        Optional cap on node pops per ray. A ray that reaches the cap
        with stack entries remaining stops deterministically and is
        flagged in ``budget_exhausted`` — the approximate-search mode.
        ``None`` (default) traverses to completion (exact).

    Returns
    -------
    TraceResult
    """
    return _trace(
        bvh, None, (len(origins),), origins, directions, t_min, t_max,
        hit_handler, warp_size, (tracer,), max_iterations, prune,
        step_budget,
    )[0]


def trace_forest(
    mbr: BVH,
    half_widths,
    sizes,
    origins: np.ndarray,
    directions: np.ndarray,
    t_min: float,
    t_max: float,
    hit_handler,
    warp_size: int = 32,
    tracers=None,
    max_iterations: int | None = None,
    prune: PruneSpec | None = None,
    step_budget: int | None = None,
) -> list[TraceResult]:
    """Trace several launches over one point-MBR tree in one round loop.

    Launch ``i`` is ``sizes[i]`` consecutive rays of ``origins`` /
    ``directions`` traced through ``mbr`` grown by ``half_widths[i]``
    — the BVH :func:`repro.optix.gas.build_gas` derives for that width
    — so each launch computes exactly the floats a :func:`trace_batch`
    over its own GAS would. ``hit_handler`` sees the forest's ray ids
    (launch ``i``'s rays follow launch ``i - 1``'s). ``tracers`` holds
    one memory tracer (or ``None``) per launch; each sees only its
    launch's accesses, with launch-local ray ids and the shared round
    index. ``prune`` bounds may be per-ray arrays. Every other argument
    is :func:`trace_batch`'s.

    Returns one :class:`TraceResult` per launch, equal field for field
    to the launch traced on its own, provided no query's accumulator
    row is shared between launches.
    """
    sizes = tuple(int(n) for n in sizes)
    grow = np.repeat(np.asarray(half_widths, dtype=np.float64), sizes)
    if tracers is None:
        tracers = (None,) * len(sizes)
    if len(tracers) != len(sizes) or len(grow) != len(origins):
        raise ValueError(
            "trace_forest needs one size and one tracer per launch, and "
            "sizes summing to the ray count"
        )
    return _trace(
        mbr, grow, sizes, origins, directions, t_min, t_max, hit_handler,
        warp_size, tuple(tracers), max_iterations, prune, step_budget,
    )


def _per_ray(bound, rays: np.ndarray):
    """A prune bound for ``rays``: scalars apply to every ray."""
    return bound if np.ndim(bound) == 0 else bound[rays]


def _trace(
    bvh: BVH,
    grow: np.ndarray | None,
    sizes: tuple,
    origins: np.ndarray,
    directions: np.ndarray,
    t_min: float,
    t_max: float,
    hit_handler,
    warp_size: int,
    tracers: tuple,
    max_iterations: int | None,
    prune: PruneSpec | None,
    step_budget: int | None,
) -> list[TraceResult]:
    """The round loop behind :func:`trace_batch` and :func:`trace_forest`.

    ``grow`` is ``None`` (``bvh``'s own bounds) or a per-ray half-width
    that grows every node and primitive bound ``bvh`` holds. Rays are
    ``len(sizes)`` consecutive launches; the work counters are kept per
    ray (and the tallies per launch) and split by launch at the end.
    """
    origins = np.ascontiguousarray(origins, dtype=np.float64)
    directions = np.ascontiguousarray(directions, dtype=np.float64)
    n_rays = len(origins)
    n_launches = len(sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    # Per-ray launch id for the per-launch tallies (one launch: plain ints).
    lid = (
        None if n_launches == 1
        else np.repeat(np.arange(n_launches, dtype=np.int64), sizes)
    )
    hooked = [i for i, t in enumerate(tracers) if t is not None]

    def tally(rays: np.ndarray, mask: np.ndarray | None = None):
        """How many of ``rays`` (those ``mask`` selects) each launch owns."""
        if lid is None:
            return len(rays) if mask is None else int(np.count_nonzero(mask))
        picked = lid[rays] if mask is None else lid[rays[mask]]
        return np.bincount(picked, minlength=n_launches)

    def feed(hook: str, iteration: int, rays, ids, cut=None) -> None:
        """Hand each launch's share of a round's accesses to its tracer.

        ``rays`` are grouped by launch in launch order; ``cut`` holds
        the group boundaries (found from the ray ids when ``None``,
        which then must ascend).
        """
        if lid is None:
            getattr(tracers[0], hook)(iteration, rays, ids)
            return
        if cut is None:
            cut = np.searchsorted(rays, offsets)
        for i in hooked:
            a, b = cut[i], cut[i + 1]
            if b > a:
                getattr(tracers[i], hook)(
                    iteration, rays[a:b] - offsets[i], ids[a:b]
                )

    steps = np.zeros(n_rays, dtype=np.int64)
    is_calls = np.zeros(n_rays, dtype=np.int64)
    prim_tests = np.zeros(n_rays, dtype=np.int64)
    budget_exhausted = np.zeros(n_rays, dtype=bool)
    ah_terminations = 0
    leaves_pruned = 0
    leaves_bulk_accepted = 0
    prim_accesses = 0
    iteration = 0

    stack_width = bvh.depth + 2
    stack = np.zeros((n_rays, stack_width), dtype=np.int64)
    sp = np.ones(n_rays, dtype=np.int64)  # root pre-pushed at slot 0
    alive = np.ones(n_rays, dtype=bool)

    node_left = bvh.node_left
    node_right = bvh.node_right
    node_start = bvh.node_start
    node_end = bvh.node_end
    node_lo = bvh.node_lo
    node_hi = bvh.node_hi
    prim_order = bvh.prim_order
    prim_lo = bvh.prim_lo
    prim_hi = bvh.prim_hi
    max_leaf = bvh.leaf_size
    test_prims = max_leaf > 1  # leaf bound == prim bound when 1
    # RTNN's degenerate short rays reduce the prim AABB test to closed
    # origin-in-box containment. Longer segments keep the general slab
    # test.
    fast_prim_test = (t_max - t_min <= 1e-12) and (t_min >= 0.0)
    # Bulk acceptance only pays when there is a per-point test to skip.
    bulk_t2 = prune.bulk_t2 if prune is not None and test_prims else None
    fused = hasattr(hit_handler, "flat_hits")
    # Primitive fetches stream slot-major (the order lockstep lanes
    # issue a leaf's slots in) unless the shader never ends a ray early.
    slot_major = getattr(hit_handler, "any_hit", True)

    def bounds(lo, hi, ids, rays):
        """Gathered boxes ``ids``, grown by the rays' half-widths."""
        lo, hi = lo[ids], hi[ids]
        if grow is None:
            return lo, hi
        g = grow[rays][:, None]
        return lo - g, hi + g

    def prim_test(r: np.ndarray, p: np.ndarray) -> np.ndarray:
        lo, hi = bounds(prim_lo, prim_hi, p, r)
        if fast_prim_test:
            return aabb_contains(lo, hi, origins[r])
        return ray_aabb_intersect(
            origins[r], directions[r], t_min, t_max, lo, hi
        )

    if max_iterations is None:
        max_iterations = bvh.n_nodes + stack_width + 1

    # Active-set compaction: rays leave the set permanently (a ray pops
    # every round while its stack is non-empty, so activity is one
    # contiguous prefix of rounds).
    act = np.arange(n_rays, dtype=np.int64)
    while len(act):
        if iteration >= max_iterations:
            raise RuntimeError(
                f"traversal exceeded {max_iterations} iterations; "
                "possible cycle in BVH topology"
            )

        # --- step budget (approximate mode) ------------------------------
        # Truncation is deterministic: per-ray work is independent of
        # warp packing and of the other rays, so a larger budget only
        # ever adds candidate pairs (the recall monotonicity the
        # engine's lower bound relies on). Activity is a contiguous
        # prefix of rounds, so every still-active ray has popped
        # exactly ``iteration`` nodes — the whole set exhausts at once.
        if step_budget is not None and iteration >= step_budget:
            budget_exhausted[act] = True
            steps[act] = iteration
            break

        # --- pop (RT core) ---------------------------------------------
        tops = sp[act] - 1
        sp[act] = tops
        nodes = stack[act, tops]
        if hooked:
            feed("on_node_access", iteration, act, nodes)

        # --- ray-AABB test ----------------------------------------------
        # Degenerate short rays reduce the node slab test to the same
        # origin-in-box containment as the prim test. Containment hits
        # are a subset of slab hits, and every prim box lies inside its
        # node box, so no containment-passing primitive is ever lost.
        lo, hi = bounds(node_lo, node_hi, nodes, act)
        if fast_prim_test:
            hit = aabb_contains(lo, hi, origins[act])
        else:
            hit = ray_aabb_intersect(
                origins[act], directions[act], t_min, t_max, lo, hi
            )
        hit_nodes = nodes[hit]
        hit_rays = act[hit]
        internal = node_left[hit_nodes] >= 0

        # --- push children of hit internal nodes -------------------------
        pi = hit_rays[internal]
        if len(pi):
            if (sp[pi] + 2 > stack_width).any():
                raise RuntimeError(
                    "traversal stack overflow exceeded the tree depth; "
                    "possible cycle in BVH topology"
                )
            ni = hit_nodes[internal]
            stack[pi, sp[pi]] = node_right[ni]
            sp[pi] += 1
            stack[pi, sp[pi]] = node_left[ni]
            sp[pi] += 1

        # --- leaf stage ---------------------------------------------------
        leaf_rays = hit_rays[~internal]
        leaf_nodes = hit_nodes[~internal]
        leaf_bulk = None
        if len(leaf_rays) and prune is not None:
            # MBR distance pruning: bound each (ray, leaf) pair by the
            # squared distance from the query to the leaf's tight point
            # MBR. min_d2 above every acceptance bound -> skip the
            # leaf; max_d2 within the bulk bound -> every member point
            # provably passes the per-point tests.
            min_d2, max_d2 = box_sq_dists(
                origins[leaf_rays],
                prune.leaf_lo[leaf_nodes],
                prune.leaf_hi[leaf_nodes],
            )
            thresh = _per_ray(prune.static_t2, leaf_rays)
            if prune.worst is not None:
                thresh = np.minimum(
                    thresh, prune.worst[prune.query_ids[leaf_rays]]
                )
            # Non-strict: a KNN candidate tied with ``worst`` may still
            # enter the queue on its smaller index.
            keep = min_d2 <= thresh
            if not keep.all():
                leaves_pruned += tally(leaf_rays, ~keep)
            if bulk_t2 is not None:
                bulk = keep & (max_d2 <= _per_ray(bulk_t2, leaf_rays))
                if bulk.any():
                    leaves_bulk_accepted += tally(leaf_rays, bulk)
                    leaf_bulk = bulk[keep]
            leaf_rays = leaf_rays[keep]
            leaf_nodes = leaf_nodes[keep]
        if len(leaf_rays):
            # Fused round. Expand every (leaf ray, in-leaf slot) pair
            # once, ray-major with each ray's pairs in slot order (a ray
            # reaches at most one leaf per round), test them all at
            # once, and hand the survivors to the shader in one call.
            starts = node_start[leaf_nodes]
            counts = node_end[leaf_nodes] - starts
            pair_leaf = np.repeat(
                np.arange(len(leaf_rays), dtype=np.int64), counts
            )
            # prim_order position of each pair: starts[pair_leaf] plus
            # the in-leaf slot, folded into one repeat (starts - cum +
            # counts is the start minus the pair index where the run
            # begins).
            pos = np.arange(len(pair_leaf), dtype=np.int64)
            pos += np.repeat(starts - np.cumsum(counts) + counts, counts)
            flat_rays = leaf_rays[pair_leaf]
            flat_prims = prim_order[pos]
            # Pair masks; None means "every pair".
            tested = None if leaf_bulk is None else ~leaf_bulk[pair_leaf]
            inside = None
            if test_prims:
                # Bulk-accepted pairs skip the per-point AABB test.
                if tested is None:
                    inside = prim_test(flat_rays, flat_prims)
                else:
                    inside = ~tested
                    inside[tested] = prim_test(
                        flat_rays[tested], flat_prims[tested]
                    )
            hits = None if inside is None else np.flatnonzero(inside)
            shade_rays = flat_rays if hits is None else flat_rays[hits]
            cut = None
            if len(shade_rays):
                shade_prims = flat_prims if hits is None else flat_prims[hits]
                if fused:
                    cut = hit_handler.flat_hits(shade_rays, shade_prims)
                else:
                    cut = _drive_by_rank(hit_handler, shade_rays, shade_prims)
            # Any-Hit cut: a terminated ray reaches only the pairs up to
            # its terminating slot; later slots are never fetched,
            # tested or shaded. Unterminated rays reach every pair.
            slot = None
            reached = None
            if cut is not None and len(cut[1]):
                ends = cut[1] if hits is None else hits[cut[1]]
                slot = pos - starts[pair_leaf]
                last = np.full(len(leaf_rays), max_leaf, dtype=np.int64)
                last[pair_leaf[ends]] = slot[ends]
                reached = slot <= last[pair_leaf]
                ended = flat_rays[ends]
                alive[ended] = False
                ah_terminations += tally(ended)
            if hooked:
                bound = None
                if slot_major:
                    if slot is None:
                        slot = pos - starts[pair_leaf]
                    # Slot-major within each launch: the launch is
                    # the major key, so the stream splits into
                    # contiguous per-launch runs.
                    key = slot
                    if lid is not None:
                        key = lid[flat_rays] * (max_leaf + 1) + slot
                    top = n_launches * (max_leaf + 1)
                    order = _stable_order(key, top)
                    if reached is not None:
                        order = order[reached[order]]
                    if lid is not None:
                        bound = np.searchsorted(
                            key[order],
                            np.arange(n_launches + 1) * (max_leaf + 1),
                        )
                elif reached is not None:
                    order = np.flatnonzero(reached)
                else:
                    order = slice(None)
                feed(
                    "on_prim_access", iteration,
                    flat_rays[order], flat_prims[order], bound,
                )
            prim_accesses += tally(flat_rays, reached)
            if test_prims:
                prim_tests[leaf_rays] += _per_leaf(
                    pair_leaf, _both(tested, reached), counts
                )
            is_calls[leaf_rays] += _per_leaf(
                pair_leaf, _both(inside, reached), counts
            )

        keep = alive[act] & (sp[act] > 0)
        if not keep.all():
            steps[act[~keep]] = iteration + 1
            act = act[keep]
        iteration += 1

    for t in tracers:
        _finalize_tracer(t)
    # The tallies are ints (one launch) or per-launch arrays.
    prim_accesses, ah_terminations, leaves_pruned, leaves_bulk_accepted = (
        np.broadcast_to(v, n_launches)
        for v in (prim_accesses, ah_terminations, leaves_pruned,
                  leaves_bulk_accepted)
    )
    out = []
    for i in range(n_launches):
        a, b = int(offsets[i]), int(offsets[i + 1])
        s, calls, tests = steps[a:b], is_calls[a:b], prim_tests[a:b]
        exhausted = budget_exhausted[a:b]
        per_warp_steps = _warp_max(s, warp_size)
        out.append(TraceResult(
            steps=s,
            is_calls=calls,
            prim_tests_per_ray=tests,
            # every launch starts at round 0, so its last round is its
            # longest ray's
            iterations=int(s.max()) if b > a else 0,
            warp_traversal_steps=int(per_warp_steps.sum()),
            warp_is_steps=int(_warp_max(calls, warp_size).sum()),
            prim_test_warp_steps=int(_warp_max(tests, warp_size).sum()),
            node_transactions=int(s.sum()),
            # Every pair fed to the leaf stage fetches its primitive
            # record, tested or bulk-accepted alike. Without pruning this
            # equals the historical prim_tests/is_calls totals exactly.
            prim_transactions=int(prim_accesses[i]),
            n_rays=b - a,
            warp_size=warp_size,
            per_warp_steps=per_warp_steps,
            ah_terminations=int(ah_terminations[i]),
            leaves_pruned=int(leaves_pruned[i]),
            leaves_bulk_accepted=int(leaves_bulk_accepted[i]),
            budget_stopped_rays=int(exhausted.sum()),
            budget_exhausted=exhausted,
        ))
    return out
