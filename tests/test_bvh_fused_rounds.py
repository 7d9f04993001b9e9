"""Fused leaf rounds vs the sequential per-slot reference.

``trace_batch`` runs each round's leaf stage as one fused pass and cuts
Any-Hit-terminated rays after their terminating slot.
:func:`reference_trace` below is the sequential formulation it
replaced: a leaf's slots run one after another, each slot's pairs are
fetched, tested and shaded together, and a ray ended in slot j never
reaches slot j + 1. The reference is kept as the oracle the fused stage
is asserted against — results, every ``TraceResult`` field and the
memory tracer's access stream must be identical.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bvh import PruneSpec, TraceResult, trace_batch
from repro.bvh.traverse import _drive_by_rank, _warp_max, rank_batches, run_ranks
from repro.core.queues import CountAccumulator, KnnQueueBatch, RangeAccumulator
from repro.core.shaders import FirstHitShader, KnnShader, RangeShader
from repro.geometry.aabb import aabb_contains, box_sq_dists
from repro.optix import Pipeline, build_gas


def reference_trace(bvh, origins, hit_handler, tracer=None, prune=None,
                    step_budget=None, warp_size=32):
    """Sequential per-slot leaf stage (short rays, NumPy kernels).

    Shaders are invoked in their plain form, once per in-leaf slot with
    that slot's surviving pairs. The tracer sees each slot's live pairs
    as the slot runs (slot-major), except for ``any_hit = False``
    shaders, whose round streams whole in ray-major order.
    """
    n_rays = len(origins)
    stack = np.zeros((n_rays, bvh.depth + 2), dtype=np.int64)
    sp = np.ones(n_rays, dtype=np.int64)
    alive = np.ones(n_rays, dtype=bool)
    steps = np.zeros(n_rays, dtype=np.int64)
    is_calls = np.zeros(n_rays, dtype=np.int64)
    prim_tests = np.zeros(n_rays, dtype=np.int64)
    exhausted = np.zeros(n_rays, dtype=bool)
    ah = pruned = bulked = accesses = 0
    test_prims = bvh.leaf_size > 1
    bulk_t2 = prune.bulk_t2 if prune is not None and test_prims else None
    slot_major = getattr(hit_handler, "any_hit", True)
    act = np.arange(n_rays, dtype=np.int64)
    it = 0
    while len(act):
        if step_budget is not None and it >= step_budget:
            exhausted[act] = True
            steps[act] = it
            break
        tops = sp[act] - 1
        sp[act] = tops
        nodes = stack[act, tops]
        if tracer is not None:
            tracer.on_node_access(it, act, nodes)
        hit = aabb_contains(bvh.node_lo[nodes], bvh.node_hi[nodes], origins[act])
        hit_nodes, hit_rays = nodes[hit], act[hit]
        internal = bvh.node_left[hit_nodes] >= 0
        pi, ni = hit_rays[internal], hit_nodes[internal]
        stack[pi, sp[pi]] = bvh.node_right[ni]
        sp[pi] += 1
        stack[pi, sp[pi]] = bvh.node_left[ni]
        sp[pi] += 1

        leaf_rays, leaf_nodes = hit_rays[~internal], hit_nodes[~internal]
        bulk = np.zeros(len(leaf_rays), dtype=bool)
        if len(leaf_rays) and prune is not None:
            min_d2, max_d2 = box_sq_dists(
                origins[leaf_rays],
                prune.leaf_lo[leaf_nodes],
                prune.leaf_hi[leaf_nodes],
            )
            thresh = prune.static_t2
            if prune.worst is not None:
                thresh = np.minimum(
                    thresh, prune.worst[prune.query_ids[leaf_rays]]
                )
            keep = min_d2 <= thresh
            pruned += int((~keep).sum())
            if bulk_t2 is not None:
                bulk = keep & (max_d2 <= bulk_t2)
                bulked += int(bulk.sum())
            leaf_rays, leaf_nodes, bulk = (
                leaf_rays[keep], leaf_nodes[keep], bulk[keep]
            )
        starts = bvh.node_start[leaf_nodes]
        counts = bvh.node_end[leaf_nodes] - starts
        if tracer is not None and not slot_major and len(leaf_rays):
            lr = np.repeat(leaf_rays, counts)
            lp = np.concatenate(
                [bvh.prim_order[s:s + c] for s, c in zip(starts, counts)]
            )
            tracer.on_prim_access(it, lr, lp)
        for j in range(int(counts.max()) if len(counts) else 0):
            sel = (counts > j) & alive[leaf_rays]
            if not sel.any():
                break
            r = leaf_rays[sel]
            prims = bvh.prim_order[starts[sel] + j]
            if tracer is not None and slot_major:
                tracer.on_prim_access(it, r, prims)
            accesses += len(r)
            if test_prims:
                tested = ~bulk[sel]
                prim_tests[r[tested]] += 1
                ok = bulk[sel].copy()
                ok[tested] = aabb_contains(
                    bvh.prim_lo[prims[tested]],
                    bvh.prim_hi[prims[tested]],
                    origins[r[tested]],
                )
                r, prims = r[ok], prims[ok]
                if not len(r):
                    continue
            is_calls[r] += 1
            term = hit_handler(r, prims)
            if term is not None and len(term):
                alive[np.asarray(term, dtype=np.int64)] = False
                ah += len(term)
        keep = alive[act] & (sp[act] > 0)
        steps[act[~keep]] = it + 1
        act = act[keep]
        it += 1

    if tracer is not None:
        tracer.finalize()
    per_warp = _warp_max(steps, warp_size)
    return TraceResult(
        steps=steps,
        is_calls=is_calls,
        prim_tests_per_ray=prim_tests,
        iterations=it,
        warp_traversal_steps=int(per_warp.sum()),
        warp_is_steps=int(_warp_max(is_calls, warp_size).sum()),
        prim_test_warp_steps=int(_warp_max(prim_tests, warp_size).sum()),
        node_transactions=int(steps.sum()),
        prim_transactions=accesses,
        n_rays=n_rays,
        warp_size=warp_size,
        per_warp_steps=per_warp,
        ah_terminations=ah,
        leaves_pruned=pruned,
        leaves_bulk_accepted=bulked,
        budget_stopped_rays=int(exhausted.sum()),
        budget_exhausted=exhausted,
    )


class RecordingTracer:
    """Concatenated ``(kind, iteration, ray, id)`` access stream."""

    def __init__(self):
        self.rows = []

    def _add(self, kind, it, rays, ids):
        self.rows.append(
            np.stack(
                [np.full(len(rays), kind), np.full(len(rays), it), rays, ids],
                axis=1,
            ).astype(np.int64)
        )

    def on_node_access(self, it, rays, nodes):
        self._add(0, it, rays, nodes)

    def on_prim_access(self, it, rays, prims):
        self._add(1, it, rays, prims)

    def finalize(self):
        pass

    @property
    def stream(self):
        if not self.rows:
            return np.empty((0, 4), dtype=np.int64)
        return np.concatenate(self.rows)


class StopAfter:
    """Plain callable: records each ray's hits, ends a ray at its m-th."""

    def __init__(self, n_rays, m):
        self.m = m
        self.seen = np.zeros(n_rays, dtype=np.int64)
        self.pairs = []

    def __call__(self, ray_ids, prim_ids):
        assert len(np.unique(ray_ids)) == len(ray_ids)
        self.pairs.append((ray_ids.copy(), prim_ids.copy()))
        self.seen[ray_ids] += 1
        return ray_ids[self.seen[ray_ids] == self.m]

    def per_ray_sequence(self):
        r = np.concatenate([p[0] for p in self.pairs] or [np.empty(0, int)])
        p = np.concatenate([p[1] for p in self.pairs] or [np.empty(0, int)])
        order = np.argsort(r, kind="stable")
        return r[order], p[order]


def _world(seed, leaf_size, sphere_test, n_pts=160, n_q=70):
    rng = np.random.default_rng(seed)
    centers = rng.random((4, 3))
    # Tight and loose points: tight runs fill whole leaves inside the
    # query sphere (bulk accept), loose ones keep the per-point tests.
    spread = rng.choice([0.008, 0.05], size=(n_pts, 1))
    pts = centers[rng.integers(0, 4, n_pts)] + spread * rng.standard_normal(
        (n_pts, 3)
    )
    queries = pts[rng.integers(0, n_pts, n_q)] + 0.02 * rng.standard_normal(
        (n_q, 3)
    )
    radius = 0.06
    # Listing 1 (hw = r) lets the MBR bulk-accept fire; the Section 5.1
    # fast path inscribes the AABB in the sphere.
    hw = radius if sphere_test else radius / np.sqrt(3.0)
    gas = build_gas(pts, hw, Pipeline().cost_model, leaf_size=leaf_size)
    return pts, queries, radius, gas


def _make(kind, pts, queries, radius, k, sphere_test):
    n = len(queries)
    ids = np.arange(n, dtype=np.int64)
    if kind == "range":
        return RangeShader(pts, queries, ids, RangeAccumulator(n, k), radius,
                           sphere_test=sphere_test)
    if kind == "count":
        return RangeShader(pts, queries, ids, CountAccumulator(n), radius,
                           sphere_test=sphere_test)
    if kind == "knn":
        return KnnShader(pts, queries, ids, KnnQueueBatch(n, k, radius))
    if kind == "first_hit":
        return FirstHitShader(n, ids)
    return StopAfter(n, k)


def _prune(gas, shader, radius, sphere_test):
    spec = Pipeline()._prune_spec(gas, shader)
    if spec is not None:
        return spec
    # First-hit and plain callables carry no acceptance rule the
    # pipeline could read off; give them the range bounds so bulk
    # acceptance also runs under their terminations.
    hw2 = gas.half_width ** 2
    r2 = radius * radius
    return PruneSpec(
        leaf_lo=gas.mbr.node_lo,
        leaf_hi=gas.mbr.node_hi,
        static_t2=min(3.0 * hw2, r2) if sphere_test else 3.0 * hw2,
        bulk_t2=r2 if sphere_test and hw2 >= r2 else None,
    )


def _outcome(shader):
    if isinstance(shader, RangeShader):
        return shader.acc.idx, shader.acc.count, shader.acc.d2
    if isinstance(shader, KnnShader):
        return shader.queue.finalize()
    if isinstance(shader, FirstHitShader):
        return (shader.first_hit,)
    return shader.seen, *shader.per_ray_sequence()


def _assert_same_trace(got: TraceResult, want: TraceResult):
    for f in dataclasses.fields(TraceResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def _check(kind, seed, leaf_size, k, sphere_test, prune_on, budget):
    pts, queries, radius, gas = _world(seed, leaf_size, sphere_test)
    runs = []
    for fused in (True, False):
        shader = _make(kind, pts, queries, radius, k, sphere_test)
        prune = _prune(gas, shader, radius, sphere_test) if prune_on else None
        tracer = RecordingTracer()
        if fused:
            res = trace_batch(
                gas.bvh, queries, np.zeros_like(queries), 0.0, 1e-16, shader,
                tracer=tracer, prune=prune, step_budget=budget,
            )
        else:
            res = reference_trace(gas.bvh, queries, shader, tracer=tracer,
                                  prune=prune, step_budget=budget)
        runs.append((res, _outcome(shader), tracer.stream))
    (res, out, stream), (ref, ref_out, ref_stream) = runs
    _assert_same_trace(res, ref)
    for a, b in zip(out, ref_out):
        assert np.array_equal(a, b)
    assert np.array_equal(stream, ref_stream)
    return res


KINDS = ["range", "count", "first_hit", "plain", "knn"]


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 10_000),
    leaf_size=st.integers(1, 8),
    k=st.integers(1, 5),
    sphere_test=st.booleans(),
    prune_on=st.booleans(),
    budget=st.one_of(st.none(), st.integers(1, 24)),
)
def test_property_fused_rounds_match_slot_reference(
    kind, seed, leaf_size, k, sphere_test, prune_on, budget
):
    _check(kind, seed, leaf_size, k, sphere_test, prune_on, budget)


@pytest.mark.parametrize("kind", KINDS)
def test_mid_leaf_any_hit_and_bulk_accept_are_exercised(kind):
    """A fixed wide-leaf case where rays end mid-leaf and leaves are
    bulk-accepted, so the property test's cut and bulk paths are live."""
    res = _check(kind, 3, 8, 2, True, True, None)
    if kind in ("range", "first_hit", "plain"):
        assert res.ah_terminations > 0
    if kind != "knn":  # KNN queues compare every distance: no bulk path
        assert res.leaves_bulk_accepted > 0


def test_run_ranks_and_rank_batches():
    rays = np.array([2, 2, 2, 5, 7, 7])
    assert run_ranks(rays).tolist() == [0, 1, 2, 0, 0, 1]
    assert [b.tolist() for b in rank_batches(rays)] == [[0, 3, 4], [1, 5], [2]]
    assert rank_batches(np.array([1, 4, 9])) == [slice(None)]
    assert rank_batches(np.empty(0, dtype=np.int64)) == []


def test_ranked_range_insert_fills_to_k_and_reports_positions():
    acc = RangeAccumulator(3, k=2)
    acc.insert(np.array([1]), np.array([40]), np.array([0.4]))
    qids = np.array([0, 0, 0, 1, 1, 2])
    full = acc.insert(
        qids, np.arange(6), np.arange(6) / 10.0, run_ranks(qids)
    )
    # query 0 fills at its 2nd candidate, query 1 (one held) at its 1st
    assert full.tolist() == [1, 3]
    assert acc.count.tolist() == [2, 2, 1]
    assert acc.idx[0].tolist() == [0, 1]
    assert acc.idx[1].tolist() == [40, 3]
    assert acc.idx[2, 0] == 5


def test_rank_driver_rejects_foreign_terminations():
    def rogue(ray_ids, prim_ids):
        return np.array([99])

    with pytest.raises(ValueError, match="outside the batch"):
        _drive_by_rank(rogue, np.array([0, 0, 1]), np.array([3, 4, 5]))


def test_range_shader_cut_skips_candidates_after_the_kth():
    pts = np.zeros((4, 3))
    origins = np.zeros((2, 3))
    acc = RangeAccumulator(2, k=2)
    shader = RangeShader(pts, origins, np.array([0, 1]), acc, radius=1.0)
    rays, pos = shader.flat_hits(np.array([0, 0, 0, 1]), np.array([0, 1, 2, 3]))
    assert rays.tolist() == [0] and pos.tolist() == [1]
    assert acc.idx[0].tolist() == [0, 1] and acc.count.tolist() == [2, 1]
