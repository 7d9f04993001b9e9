"""The observability tracer: span trees, rollups, and run reports.

Covers the three guarantees the subsystem advertises: (1) recording is
structurally faithful (nesting, counter deltas, phase inheritance),
(2) the engine's numeric results are bit-identical whether it runs
under the no-op or the recording tracer, and (3) a RunReport survives
a JSON round trip unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import RTNNEngine, VARIANTS
from repro.obs import (
    NULL_TRACER,
    PHASES,
    RecordingTracer,
    RunReport,
    Span,
    render_report,
)


# ----------------------------------------------------------------------
# tracer mechanics (no engine involved)
# ----------------------------------------------------------------------
def test_spans_nest_and_accumulate():
    tr = RecordingTracer()
    with tr.span("outer", phase="traverse") as outer:
        outer.add(steps=3)
        with tr.span("inner") as inner:
            inner.add(steps=4, is_calls=2)
        with tr.span("inner") as inner2:
            inner2.add(steps=5)
            inner2.add(steps=1)  # add() accumulates on repeat keys

    assert [s.name for s in tr.spans] == ["outer"]
    assert [c.name for c in tr.spans[0].children] == ["inner", "inner"]
    assert tr.spans[0].children[1].counters == {"steps": 6}
    assert tr.total_counters() == {"steps": 13, "is_calls": 2}
    assert tr.spans[0].wall_s >= tr.spans[0].children[0].wall_s >= 0.0


def test_phase_rollup_inherits_and_defaults_to_other():
    tr = RecordingTracer()
    with tr.span("a", phase="schedule") as a:
        a.add(n=1)
        with tr.span("child"):  # inherits schedule
            pass
        with tr.span("grandchild") as g:
            g.add(n=10)
    with tr.span("orphan") as o:  # no phase anywhere -> "other"
        o.add(n=100)

    roll = tr.phase_rollup()
    assert roll["schedule"]["counters"] == {"n": 11}
    assert roll["other"]["counters"] == {"n": 100}
    # wall attributed once, at the phase's outermost span
    assert roll["schedule"]["wall_s"] == pytest.approx(tr.spans[0].wall_s)


def test_null_tracer_span_is_inert():
    with NULL_TRACER.span("anything", phase="build") as sp:
        sp.add(steps=1)
        sp.note(label="x")
    assert not NULL_TRACER.enabled
    # the null handle is shared and records nothing
    assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


def test_find_walks_tree_in_order():
    tr = RecordingTracer()
    with tr.span("launch"):
        with tr.span("launch"):
            pass
    with tr.span("launch"):
        pass
    assert len(tr.find("launch")) == 3


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_run(cube_points, cube_queries):
    tracer = RecordingTracer()
    engine = RTNNEngine(
        cube_points, config=VARIANTS["sched+part"], tracer=tracer
    )
    res = engine.knn_search(cube_queries, k=8, radius=0.12)
    return tracer, res


def test_engine_emits_expected_span_tree(traced_run):
    tracer, res = traced_run
    top = [s.name for s in tracer.spans]
    assert top[0] == "transfer"
    assert "partition" in top
    assert "schedule" in top
    # the scheduling pre-pass builds its own GAS and launches through it
    sched = next(s for s in tracer.spans if s.name == "schedule")
    assert [c.name for c in sched.children] == ["build_gas", "launch"]
    # every bundle of the pass runs in one launch under one traverse
    # span, whose counters are the sums over the bundles' launches
    (trav,) = [s for s in tracer.spans if s.name == "traverse"]
    assert trav.phase == "traverse"
    launches = [c for c in trav.children if c.name == "launch"]
    assert len(launches) == 1
    assert all(c.name in ("build_gas", "launch") for c in trav.children)
    (launch,) = launches
    n_bundles = res.report.n_bundles
    assert n_bundles > 1
    assert launch.extras["kind"] == ["knn"] * n_bundles
    assert len(trav.extras["aabb_widths"]) == n_bundles
    assert trav.counters["bundle_queries"] == len(res.counts)
    assert launch.counters["rays"] == len(res.counts)
    assert launch.counters["is_calls"] == res.report.is_calls
    assert launch.counters["traversal_steps"] == res.report.traversal_steps
    assert launch.counters["modeled_s"] == pytest.approx(
        res.report.breakdown.search, rel=1e-12
    )


def test_phase_counters_match_launch_spans(traced_run):
    tracer, res = traced_run
    launches = tracer.find("launch")
    assert launches, "engine must route every traversal through launch spans"
    total_is = sum(s.counters["is_calls"] for s in launches)
    assert tracer.total_counters()["is_calls"] == total_is
    roll = tracer.phase_rollup()
    assert set(roll) <= set(PHASES)  # engine spans never land in "other"
    # rollup preserves every counted IS call
    assert (
        sum(p["counters"].get("is_calls", 0) for p in roll.values())
        == total_is
    )
    # the engine's own report counts the *search* IS calls — exactly the
    # traverse phase; the FS pre-pass launch lands under schedule
    assert roll["traverse"]["counters"]["is_calls"] == res.report.is_calls
    assert total_is == (
        res.report.is_calls + roll["schedule"]["counters"]["is_calls"]
    )


def test_phase_modeled_time_sums_to_breakdown_total(traced_run):
    tracer, res = traced_run
    roll = tracer.phase_rollup()
    modeled = sum(
        p["counters"].get("modeled_s", 0.0) for p in roll.values()
    )
    assert modeled == pytest.approx(res.report.breakdown.total, rel=1e-12)


@pytest.mark.parametrize("variant", ["noopt", "sched", "sched+part"])
def test_results_bit_identical_with_and_without_tracer(
    cube_points, cube_queries, variant
):
    cfg = VARIANTS[variant]
    silent = RTNNEngine(cube_points, config=cfg, tracer=NULL_TRACER)
    traced = RTNNEngine(cube_points, config=cfg, tracer=RecordingTracer())
    a = silent.knn_search(cube_queries, k=8, radius=0.12)
    b = traced.knn_search(cube_queries, k=8, radius=0.12)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.sq_distances, b.sq_distances)
    assert a.report.modeled_time == b.report.modeled_time


# ----------------------------------------------------------------------
# RunReport
# ----------------------------------------------------------------------
def test_run_report_round_trips_through_json(traced_run):
    tracer, res = traced_run
    rep = RunReport.from_run(
        "unit", tracer, result=res, scenario={"k": 8, "radius": 0.12}
    )
    assert rep.device == res.report.device
    assert rep.modeled_s == pytest.approx(res.report.modeled_time)
    again = RunReport.from_json(rep.to_json())
    assert again == rep
    assert again.phase_order()[0] == "data"


def test_run_report_renders_every_phase(traced_run):
    tracer, res = traced_run
    rep = RunReport.from_run("unit", tracer, result=res)
    text = render_report(rep)
    for phase in rep.phase_order():
        assert phase in text
    assert "is_calls" in text


def test_span_round_trip():
    s = Span(name="x", phase="build", wall_s=0.5,
             counters={"n": 2}, extras={"w": 1.5},
             children=[Span(name="y")])
    assert Span.from_dict(s.to_dict()) == s
