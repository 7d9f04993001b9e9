"""One round loop per pass: N launches traced together == N launches.

:func:`~repro.bvh.traverse.trace_forest` traces the bundle launches of
one engine pass in one loop over their shared point-MBR tree, growing
each ray's bounds by its own launch's half-width. Queries are disjoint
across launches, so every launch must see exactly what it saw on its
own: every ``TraceResult`` field, every memory-tracer call (node and
primitive, round by round) and every accumulator row.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bvh import TraceResult, trace_batch
from repro.bvh.traverse import trace_forest
from repro.core.queues import CountAccumulator, KnnQueueBatch, RangeAccumulator
from repro.core.shaders import KnnShader, RangeShader
from repro.geometry.ray import short_rays_from_queries
from repro.gpu.costmodel import IsKind
from repro.optix import Pipeline, build_gas

RADIUS = 0.06
#: half-widths of the launches' GASes, as multiples of the radius: the
#: Listing-1 width, the Section-5.1 inscribed width and two partition
#: widths
WIDTHS = (1.0, 1.0 / np.sqrt(3.0), 0.5, 1.5)


class CallRecorder:
    """Every tracer call, verbatim: ``(hook, round, rays, ids)``."""

    def __init__(self):
        self.calls = []

    def on_node_access(self, it, rays, nodes):
        self.calls.append(("node", it, rays.copy(), nodes.copy()))

    def on_prim_access(self, it, rays, prims):
        self.calls.append(("prim", it, rays.copy(), prims.copy()))


def _assert_same_calls(got: CallRecorder, want: CallRecorder):
    assert len(got.calls) == len(want.calls)
    for a, b in zip(got.calls, want.calls):
        assert a[:2] == b[:2]
        assert np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3])


def _assert_same_trace(got: TraceResult, want: TraceResult):
    for f in dataclasses.fields(TraceResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def _world(seed, leaf_size, n_pts=300):
    rng = np.random.default_rng(seed)
    centers = rng.random((4, 3))
    spread = rng.choice([0.008, 0.05], size=(n_pts, 1))
    pts = centers[rng.integers(0, 4, n_pts)] + spread * rng.standard_normal(
        (n_pts, 3)
    )
    cost = Pipeline().cost_model
    first = build_gas(pts, WIDTHS[0] * RADIUS, cost, leaf_size=leaf_size)
    gases = [first] + [
        build_gas(pts, w * RADIUS, cost, leaf_size=leaf_size, mbr=first.mbr)
        for w in WIDTHS[1:]
    ]
    return rng, pts, gases


def _accumulator(kind, n, k):
    if kind == "knn":
        return KnnQueueBatch(n, k, RADIUS)
    if kind == "count":
        return CountAccumulator(n)
    return RangeAccumulator(n, k)


def _shader(kind, pts, origins, query_ids, acc, sphere_test):
    if kind == "knn":
        return KnnShader(pts, origins, query_ids, acc)
    return RangeShader(
        pts, origins, query_ids, acc, RADIUS, sphere_test=sphere_test
    )


def _rows(acc):
    rows = [acc.idx, acc.count, acc.d2]
    if isinstance(acc, KnnQueueBatch):
        rows += [acc.worst, acc.worst_idx]
    return rows


def _passes(seed, leaf_size, kind, k, sizes, widths, tests, budget, prune_on):
    """The same launches traced one by one and as one forest."""
    rng, pts, gases = _world(seed, leaf_size)
    gases = [gases[w] for w in widths]
    n_q = sum(sizes)
    queries = pts[rng.integers(0, len(pts), n_q)] + 0.02 * rng.standard_normal(
        (n_q, 3)
    )
    # Disjoint accumulator rows, scattered across the launches.
    rows = rng.permutation(n_q)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    pipe = Pipeline(prune_leaves=prune_on)

    acc = _accumulator(kind, n_q, k)
    alone = []
    for i, gas in enumerate(gases):
        ids = rows[bounds[i] : bounds[i + 1]]
        origins = queries[ids]
        shader = _shader(kind, pts, origins, ids, acc, tests[i])
        rec = CallRecorder()
        res = trace_batch(
            gas.bvh, origins, np.zeros_like(origins), 0.0, 1e-16, shader,
            tracer=rec, prune=pipe._prune_spec(gas, shader), step_budget=budget,
        )
        alone.append((res, rec))
    want_rows = _rows(acc)

    acc = _accumulator(kind, n_q, k)
    origins = queries[rows]
    mask = np.repeat(np.asarray(tests, dtype=bool), sizes)
    shader = _shader(kind, pts, origins, rows, acc, mask)
    recs = [CallRecorder() for _ in gases]
    forest = trace_forest(
        gases[0].mbr, [g.half_width for g in gases], sizes, origins,
        np.zeros_like(origins), 0.0, 1e-16, shader, tracers=recs,
        prune=pipe._prune_spec(gases, shader, sizes), step_budget=budget,
    )
    return alone, want_rows, list(zip(forest, recs)), _rows(acc)


def _check(*args):
    alone, want_rows, together, got_rows = _passes(*args)
    assert len(alone) == len(together)
    for (want, want_rec), (got, got_rec) in zip(alone, together):
        _assert_same_trace(got, want)
        _assert_same_calls(got_rec, want_rec)
    for a, b in zip(got_rows, want_rows):
        assert np.array_equal(a, b)
    return [res for res, _ in alone]


#: one launch of 1-3 rays or one of hundreds
_SIZE = st.one_of(st.integers(1, 3), st.integers(100, 260))


@st.composite
def _launches(draw):
    n = draw(st.integers(1, 4))
    return (
        [draw(_SIZE) for _ in range(n)],
        [draw(st.integers(0, len(WIDTHS) - 1)) for _ in range(n)],
        [draw(st.booleans()) for _ in range(n)],
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    leaf_size=st.integers(1, 8),
    kind=st.sampled_from(["knn", "range", "count"]),
    k=st.integers(1, 6),
    launches=_launches(),
    budget=st.one_of(st.none(), st.integers(1, 40)),
    prune_on=st.booleans(),
)
def test_property_forest_equals_separate_launches(
    seed, leaf_size, kind, k, launches, budget, prune_on
):
    sizes, widths, tests = launches
    _check(seed, leaf_size, kind, k, sizes, widths, tests, budget, prune_on)


@pytest.mark.parametrize("kind", ["knn", "range", "count"])
def test_forest_paths_are_exercised(kind):
    """A fixed mixed-width case: Any-Hit cuts (range), bulk acceptance
    (sphere-tested range), live worst pruning (knn), and a budget that
    fires in some launches only, beside a 2-ray launch."""
    sizes, widths, tests = [200, 2, 150], [0, 1, 3], [True, False, True]
    runs = _check(3, 8, kind, 2, sizes, widths, tests, None, True)
    iterations = [r.iterations for r in runs]
    assert len(set(iterations)) > 1
    if kind == "range":
        assert sum(r.ah_terminations for r in runs) > 0
    if kind != "knn":
        assert sum(r.leaves_bulk_accepted for r in runs) > 0
    assert sum(r.leaves_pruned for r in runs) > 0
    budget = sorted(iterations)[1]
    runs = _check(3, 8, kind, 2, sizes, widths, tests, budget, True)
    fired = [r.budget_stopped_rays > 0 for r in runs]
    assert any(fired) and not all(fired)


def test_pipeline_launch_of_a_pass_merges_its_parts():
    """``Pipeline.launch`` over a pass returns one result whose parts
    are the separate launches' results, cost and cache figures included."""
    _, pts, gases = _world(11, 4)
    rng = np.random.default_rng(0)
    queries = pts[rng.integers(0, len(pts), 300)] + 0.01
    sizes, widths = [120, 3, 177], [0, 2, 3]
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    kinds = [IsKind.KNN] * 3
    pipe = Pipeline()

    acc = KnnQueueBatch(len(queries), 4, RADIUS)
    alone = []
    for i, w in enumerate(widths):
        ids = np.arange(bounds[i], bounds[i + 1])
        rays = short_rays_from_queries(queries[ids])
        shader = KnnShader(pts, queries[ids], ids, acc)
        alone.append(pipe.launch(gases[w], rays, shader, kinds[i]))
    want = acc.finalize()

    acc = KnnQueueBatch(len(queries), 4, RADIUS)
    shader = KnnShader(pts, queries, np.arange(len(queries)), acc)
    rays = [
        short_rays_from_queries(queries[bounds[i] : bounds[i + 1]])
        for i in range(3)
    ]
    out = pipe.launch([gases[w] for w in widths], rays, shader, kinds)
    for a, b in zip(acc.finalize(), want):
        assert np.array_equal(a, b)

    assert len(out.parts) == 3 and out.launches == out.parts
    for got, exp in zip(out.parts, alone):
        _assert_same_trace(got.trace, exp.trace)
        assert got.cost == exp.cost
        assert (got.l1_hit_rate, got.l2_hit_rate) == (
            exp.l1_hit_rate, exp.l2_hit_rate
        )
    merged = alone[0].trace.merge(alone[1].trace).merge(alone[2].trace)
    _assert_same_trace(out.trace, merged)
    assert out.modeled_time == (
        alone[0].modeled_time + alone[1].modeled_time + alone[2].modeled_time
    )
    tx = [p.trace.node_transactions + p.trace.prim_transactions for p in alone]
    l1 = sum(p.l1_hit_rate * t for p, t in zip(alone, tx)) / sum(tx)
    assert out.l1_hit_rate == pytest.approx(l1, rel=1e-15)


def test_pass_launches_must_share_one_tree():
    _, pts, gases = _world(2, 4)
    other = build_gas(pts, RADIUS, Pipeline().cost_model, leaf_size=4)
    rays = short_rays_from_queries(pts[:4])
    acc = KnnQueueBatch(8, 2, RADIUS)
    shader = KnnShader(pts, np.vstack([pts[:4]] * 2), np.arange(8), acc)
    with pytest.raises(ValueError, match="one point-MBR tree"):
        Pipeline().launch(
            [gases[0], other], [rays, rays], shader, [IsKind.KNN] * 2
        )
