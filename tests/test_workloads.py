"""The downstream workload pipelines (repro.workloads) and their contracts.

Covers the three pipelines (DBSCAN, directed Hausdorff, SPH stepper)
against their brute-force oracles — exact equality, not tolerances —
the aggregate-only ``count_in_radius`` fast path, the
``with_config`` unknown-field guard, sustained ``update_points``
traffic, and the session-only engine-access discipline of the
workloads package itself.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import hypothesis.extra.numpy as hnp

from repro.api import SearchSession
from repro.core.engine import VARIANTS
from repro.core.queues import CountAccumulator
from repro.obs.tracer import RecordingTracer
from repro.utils.rng import default_rng
from repro.workloads import (
    DBSCANConfig,
    HausdorffConfig,
    SessionClient,
    SPHConfig,
    brute_dbscan,
    brute_hausdorff,
    brute_sph,
    canonical_rows,
    run_dbscan,
    run_hausdorff,
    run_sph,
)
from repro.verify import clustered_cloud

coords = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
clouds = hnp.arrays(
    np.float64, st.tuples(st.integers(4, 40), st.just(3)), elements=coords
)


def _client(points) -> SessionClient:
    return SessionClient(SearchSession(points))


# ----------------------------------------------------------------------
# count_in_radius: the aggregate-only fast path
# ----------------------------------------------------------------------
def test_count_accumulator_protocol():
    acc = CountAccumulator(4)
    assert acc.k == 0
    assert acc.idx.shape == (4, 0)
    assert acc.d2.shape == (4, 0)
    full = acc.insert(
        np.array([0, 0, 2, 0]), np.array([5, 6, 7, 8]), np.zeros(4)
    )
    # Counting never retires rays: no query must ever report "full".
    assert len(full) == 0
    assert acc.count.tolist() == [3, 0, 1, 0]
    assert len(acc.insert(np.empty(0, np.int64), np.empty(0, np.int64),
                          np.empty(0))) == 0


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_count_in_radius_exact_across_variants(variant):
    pts = clustered_cloud(200, 3)
    r = 0.06
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("qnd,qnd->qn", diff, diff)
    exact = (d2 <= r * r).sum(axis=1)
    session = SearchSession(pts, config=VARIANTS[variant])
    res = session.count_in_radius(pts, r)
    assert np.array_equal(res.counts, exact)
    # Aggregate-only: no neighbor rows are materialized.
    assert res.indices.shape == (len(pts), 0)
    assert res.sq_distances.shape == (len(pts), 0)


def test_count_in_radius_matches_uncapped_range():
    pts = clustered_cloud(150, 5)
    r = 0.07
    session = SearchSession(pts)
    counts = session.count_in_radius(pts, r).counts
    rng_res = session.range_search(pts, radius=r, k=int(counts.max()))
    assert np.array_equal(counts, rng_res.counts)


def test_partitioned_range_returns_every_neighbor_at_exact_k():
    # Regression: the uncapped range partitions' AABBs used to span only
    # the megacell width, so a query sitting off-center in its grid cell
    # could miss a counted (in-radius) megacell point and return fewer
    # than k neighbors while k existed within r.
    pts = clustered_cloud(240, 7)
    r = 0.05
    session = SearchSession(pts, config=VARIANTS["sched+part"])
    counts = session.count_in_radius(pts, r).counts
    res = session.range_search(pts, radius=r, k=int(counts.max()))
    assert np.array_equal(res.counts, counts)
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("qnd,qnd->qn", diff, diff)
    for i in range(len(pts)):
        got = set(res.indices[i][res.indices[i] >= 0].tolist())
        assert got == set(np.flatnonzero(d2[i] <= r * r).tolist())


# ----------------------------------------------------------------------
# with_config: unknown fields fail loudly (the CLI's exit-2 contract)
# ----------------------------------------------------------------------
def test_with_config_unknown_field_raises_with_hint():
    session = SearchSession(clustered_cloud(20, 0))
    with pytest.raises(ValueError, match=r"did you mean 'leaf_size'"):
        session.with_config(leaf_sized=32)
    with pytest.raises(ValueError, match="unknown config field"):
        session.with_config(totally_bogus=1, partition=False)
    # A removed field is as unknown as a typo: stale configs fail loudly.
    with pytest.raises(ValueError, match="unknown config field"):
        session.with_config(parallel_bundles=4)
    with pytest.raises(ValueError, match="unknown config field"):
        session.with_config(backend="numba")
    # Valid fields keep working, and the error lists them.
    assert session.with_config(partition=False).config.partition is False
    with pytest.raises(ValueError, match="valid fields:.*partition"):
        session.with_config(nope=0)


# ----------------------------------------------------------------------
# sustained refit traffic (update_points loop)
# ----------------------------------------------------------------------
def test_sustained_refit_traffic_bounds_cache_and_reseeds():
    pts = clustered_cloud(120, 11)
    capacity = 4
    session = SearchSession(pts, cache_capacity=capacity)
    engine = session.engine
    r0_before = engine.seed_radius(4)
    rng = default_rng(0)
    current = pts
    for step in range(8):
        # A fresh radius per step forces a new GAS entry each time.
        session.range_search(current[:16], radius=0.03 + 0.003 * step, k=8)
        assert len(engine.gas_cache) <= capacity
        current = np.clip(
            current + rng.normal(0.0, 1e-3, current.shape), 0.0, 1.0
        )
        session.update_points(current)
        # Motion invalidates the density-seeded radius cache.
        assert engine._seed_cache == {}
    stats = session.cache_stats
    assert stats["evictions"] > 0
    # A genuine density change re-resolves to a different seed radius.
    session.update_points(current * 0.25)
    assert engine.seed_radius(4) != r0_before


# ----------------------------------------------------------------------
# DBSCAN
# ----------------------------------------------------------------------
def test_dbscan_matches_oracle_exactly():
    pts = clustered_cloud(260, 9)
    cfg = DBSCANConfig(eps=0.04, min_pts=5, batch_size=32)
    out = run_dbscan(_client(pts), cfg)
    labels, core, counts, n_clusters = brute_dbscan(pts, cfg)
    assert np.array_equal(out.labels, labels)
    assert np.array_equal(out.core, core)
    assert np.array_equal(out.counts, counts)
    assert out.n_clusters == n_clusters
    # Sanity on the label structure itself.
    assert ((out.labels >= -1) & (out.labels < n_clusters)).all()
    assert out.stats["core_points"] + out.stats["border_points"] + \
        out.stats["noise_points"] == len(pts)


def test_dbscan_on_tied_grid_points():
    # Duplicated coordinates and exact distance ties everywhere.
    g = np.linspace(0.0, 1.0, 4)
    grid = np.array([[x, y, z] for x in g for y in g for z in g])
    pts = np.vstack([grid, grid[:10]])  # exact duplicates on top
    cfg = DBSCANConfig(eps=float(g[1] - g[0]), min_pts=6)
    out = run_dbscan(_client(pts), cfg)
    labels, _, counts, n_clusters = brute_dbscan(pts, cfg)
    assert np.array_equal(out.labels, labels)
    assert np.array_equal(out.counts, counts)
    assert out.n_clusters == n_clusters


@settings(max_examples=10, deadline=None)
@given(pts=clouds, eps=st.floats(0.02, 0.3), min_pts=st.integers(2, 6))
def test_property_dbscan_exact_labels(pts, eps, min_pts):
    cfg = DBSCANConfig(eps=eps, min_pts=min_pts, batch_size=16)
    out = run_dbscan(_client(pts), cfg)
    labels, _, counts, n_clusters = brute_dbscan(pts, cfg)
    # Exact equality subsumes equivalence-up-to-renaming, but assert
    # the weaker contract explicitly too: same partition of the points.
    assert np.array_equal(out.counts, counts)
    assert out.n_clusters == n_clusters
    for cluster in range(n_clusters):
        members = np.flatnonzero(labels == cluster)
        assert len(np.unique(out.labels[members])) == 1
    assert np.array_equal(out.labels == -1, labels == -1)
    assert np.array_equal(out.labels, labels)


def test_dbscan_spans_and_counters():
    pts = clustered_cloud(150, 4)
    tracer = RecordingTracer()
    session = SearchSession(pts, tracer=tracer)
    out = run_dbscan(SessionClient(session), DBSCANConfig(eps=0.05, min_pts=5),
                     tracer=tracer)
    names = [s.name for s in tracer.spans]
    assert "workload.dbscan.count" in names
    rounds = [n for n in names if n.startswith("workload.dbscan.round[")]
    assert len(rounds) == out.rounds > 0
    totals = tracer.total_counters()
    assert totals["dbscan_rounds"] == out.rounds
    assert totals["dbscan_edges"] == out.stats["edges"]
    assert totals["relaunched_queries"] >= out.stats["relaunched"]


# ----------------------------------------------------------------------
# Hausdorff
# ----------------------------------------------------------------------
def test_hausdorff_matches_oracle_exactly():
    b = clustered_cloud(220, 13)
    a = clustered_cloud(90, 14)
    cfg = HausdorffConfig(chunk_size=32)
    out = run_hausdorff(_client(b), a, cfg)
    hd2, ia, ib = brute_hausdorff(a, b)
    assert out.sq_distance == hd2
    assert (out.index_a, out.index_b) == (ia, ib)
    assert out.distance == float(np.sqrt(hd2))


@settings(max_examples=10, deadline=None)
@given(a=clouds, b=clouds, chunk=st.integers(3, 17))
def test_property_hausdorff_exact(a, b, chunk):
    out = run_hausdorff(_client(b), a, HausdorffConfig(chunk_size=chunk))
    hd2, ia, ib = brute_hausdorff(a, b)
    assert out.sq_distance == hd2
    assert (out.index_a, out.index_b) == (ia, ib)


def test_hausdorff_of_subset_is_zero():
    b = clustered_cloud(80, 2)
    out = run_hausdorff(_client(b), b[:20], HausdorffConfig(chunk_size=7))
    assert out.sq_distance == 0.0
    assert out.index_a == 0
    assert out.index_b == 0


# ----------------------------------------------------------------------
# SPH stepper
# ----------------------------------------------------------------------
def test_sph_trajectory_bit_identical_to_brute():
    pts = clustered_cloud(140, 17)
    cfg = SPHConfig(radius=0.06, dt=1e-3, n_steps=4)
    out = run_sph(_client(pts), cfg)
    x, v = brute_sph(pts, cfg)
    assert np.array_equal(out.positions, x)
    assert np.array_equal(out.velocities, v)
    assert out.stats["steps"] == 4
    assert len(out.stats["k_per_step"]) == 4
    assert out.stats["neighbor_pairs"] > 0


def test_sph_honors_initial_velocities_and_validates_shape():
    pts = clustered_cloud(60, 19)
    v0 = default_rng(1).normal(0.0, 1e-2, pts.shape)
    cfg = SPHConfig(radius=0.08, n_steps=2)
    out = run_sph(_client(pts), cfg, velocities=v0)
    x, v = brute_sph(pts, cfg, velocities=v0)
    assert np.array_equal(out.positions, x)
    assert np.array_equal(out.velocities, v)
    with pytest.raises(ValueError, match="shape"):
        run_sph(_client(pts), cfg, velocities=v0[:-1])


def test_sph_spans_record_steps():
    pts = clustered_cloud(80, 23)
    tracer = RecordingTracer()
    session = SearchSession(pts, tracer=tracer)
    out = run_sph(SessionClient(session), SPHConfig(radius=0.07, n_steps=3),
                  tracer=tracer)
    names = [s.name for s in tracer.spans]
    for step in range(3):
        assert f"workload.sph.step[{step}]" in names
    totals = tracer.total_counters()
    assert totals["sph_steps"] == 3
    assert totals["neighbor_pairs"] == out.stats["neighbor_pairs"]


# ----------------------------------------------------------------------
# canonical rows
# ----------------------------------------------------------------------
def test_canonical_rows_sorts_and_pads():
    pts = clustered_cloud(90, 29)
    session = SearchSession(pts)
    counts = session.count_in_radius(pts, 0.06).counts
    k = int(counts.max())
    res = session.range_search(pts, radius=0.06, k=k)
    idx, d2 = canonical_rows(res, k, len(pts))
    assert idx.shape == d2.shape == (len(pts), k)
    for i in range(len(pts)):
        c = counts[i]
        row = idx[i]
        assert (row[:c] >= 0).all() and (row[c:] == -1).all()
        assert (np.diff(row[:c]) > 0).all()  # strictly index-sorted
        assert np.isinf(d2[i, c:]).all()


# ----------------------------------------------------------------------
# engine-access discipline: the workloads package never bypasses the
# session/service surface
# ----------------------------------------------------------------------
def test_workloads_only_touch_the_session_and_service_surface():
    pkg = Path(__file__).resolve().parent.parent / "src" / "repro" / "workloads"
    forbidden = re.compile(
        r"repro\.core\.engine|repro\.serve\.shard"
        r"|RTNNEngine|ShardedEngine|repro\.optix|repro\.bvh"
    )
    offenders = []
    for path in sorted(pkg.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if forbidden.search(line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, (
        "workloads must drive the engine exclusively through "
        "SearchSession/SearchService:\n" + "\n".join(offenders)
    )
