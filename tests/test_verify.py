"""The equivalence matrix (repro.verify): its table, its checks, and
that a drift in any one path is caught and named.

The mutation tests wrap one path's runner so that one answer of that
path alone is off by the smallest amount a bug could produce (one
squared distance moved 1 ulp, one count moved by 1), then assert the
matrix fails exactly the cell that answer belongs to.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import verify
from repro.api import SearchSession
from repro.core.engine import RTNNEngine
from repro.core.results import SearchResults, budget_extras
from repro.workloads import service_client

SCENE = verify.make_scene(n_points=150)


def test_matrix_table_covers_every_kind_path_variant_and_refit():
    identity = [c for c in verify.MATRIX if c.expect is None]
    assert len(identity) == 5 * 5 * 2 * 2
    assert {c.kind for c in identity} == set(verify.KINDS)
    assert {c.path for c in identity} == {
        "solo", "fused", "sh1", "sh4", "sh4-killed"
    }
    assert {(c.variant, c.refit) for c in identity} == {
        (v, r) for v in ("noopt", "full") for r in (False, True)
    }
    names = [c.name for c in verify.MATRIX]
    assert len(names) == len(set(names))
    # sharded true kNN under a budget is a rejected combination
    assert verify.Cell(
        "true_knn+budget", "sh4", "full", expect=ValueError
    ) in verify.MATRIX


def test_identity_matrix_passes_on_every_path():
    """Every kind on every path, noopt and full, before and after the
    jitter refit and the watchdog teleport, equals its oracle; sharded
    true kNN under a budget raises on every path."""
    assert verify.run_matrix(SCENE) == {}


def test_true_knn_cells_check_rounds_relaunches_and_schedule():
    """The scene's outliers need several expansion rounds, and the
    true_knn cell check catches each broken invariant."""
    res = RTNNEngine(SCENE.steps[0]).true_knn_search(SCENE.groups[0], k=SCENE.k)
    tk = res.report.extras["true_knn"]
    assert tk["rounds"] > 1
    assert verify._check_true_knn(res.report, [tk["round_radii"]]) == []

    def broken(**changes):
        report = SimpleNamespace(extras={"true_knn": {**tk, **changes}})
        return verify._check_true_knn(report, [tk["round_radii"]])

    assert broken(converged=False)
    assert broken(rounds=verify.MAX_ROUNDS + 1)
    assert broken(relaunched=[tk["relaunched"][0]] * tk["rounds"])
    assert broken(satisfied=[0] * tk["rounds"])
    assert broken(round_radii=[2 * r for r in tk["round_radii"]])


def _row(idx, d2, budget=None):
    idx = np.array([idx], dtype=np.int64)
    d2 = np.array([d2], dtype=np.float64)
    report = SimpleNamespace(extras={"budget": budget})
    return SearchResults(idx, (idx >= 0).sum(axis=1), d2, report)


def test_budgeted_check_enforces_the_step_budget_contract():
    inf = np.inf
    exact = _row([3, 5, 7], [0.01, 0.02, 0.02])  # every in-radius neighbor
    fired = budget_extras(3, 1, 1)
    unfired = budget_extras(1 << 20, 0, 1)

    def check(idx, d2, budget, loose=False, kind="range", unbudgeted=exact):
        row = _row(idx, d2, budget)
        return verify._check_budgeted(kind, row, exact, unbudgeted, loose)

    assert check([7, -1, -1], [0.02, inf, inf], fired) == []
    # a neighbor the exact answer lacks, or holds at another distance
    assert check([9, -1, -1], [0.02, inf, inf], fired)
    assert check([7, -1, -1], [np.nextafter(0.02, 1.0), inf, inf], fired)
    # a neighbor listed twice
    assert check([7, 7, -1], [0.02, 0.02, inf], fired)
    # a budget that never fired must return the exact rows
    assert check([3, 7, 5], [0.01, 0.02, 0.02], unfired, loose=True) == []
    assert check([3, -1, -1], [0.01, inf, inf], unfired, loose=True)
    assert check([3, 7, 5], [0.01, 0.02, 0.02], fired, loose=True)
    bad = {**fired, "recall_lower_bound": 1.5}
    assert check([7, -1, -1], [0.02, inf, inf], bad)

    # knn rows: the same subset rule, in canonical (d2, index) order,
    # and an unfired budget returns the unbudgeted k nearest
    nearest = _row([3, 5], [0.01, 0.02])

    def knn(idx, d2, budget, loose=False):
        return check(idx, d2, budget, loose, kind="knn", unbudgeted=nearest)

    assert knn([5, 7], [0.02, 0.02], fired) == []
    assert knn([7, 5], [0.02, 0.02], fired)       # tie out of index order
    assert knn([5, 3], [0.02, 0.01], fired)       # not distance-sorted
    assert knn([3, 3], [0.01, 0.01], fired)
    assert knn([3, 9], [0.01, 0.03], fired)       # outside the radius
    assert knn([3, 5], [0.01, 0.02], unfired, loose=True) == []
    assert knn([3, 7], [0.01, 0.02], unfired, loose=True)


def test_rejected_cell_fails_when_the_error_is_not_raised():
    cell = verify.Cell("true_knn+budget", "solo", "full", expect=KeyError)
    failures = verify.run_matrix(SCENE, [cell])
    assert list(failures) == [cell.name]


def _drifting(factory, kind, budgeted=False):
    """A runner factory whose ``kind`` answers drift in group 0 (only
    the answers searched under a step budget, if ``budgeted``)."""

    class Drift:
        def __init__(self, points, config):
            self.inner = factory(points, config)

        def search(self, k, groups, *args, **kwargs):
            out = self.inner.search(k, groups, *args, **kwargs)
            budget = args[2] if len(args) > 2 else kwargs.get("budget")
            if k == kind and (budget is not None or not budgeted):
                res = out[0]
                if kind == "count":
                    res.counts[0] += 1
                else:
                    q = int(np.flatnonzero(res.counts)[0])
                    res.sq_distances[q, 0] = np.nextafter(
                        res.sq_distances[q, 0], np.inf
                    )
            return out

        def update(self, points):
            self.inner.update(points)

        def close(self):
            self.inner.close()

    return Drift


@pytest.mark.parametrize("kind", ["knn", "count"])
@pytest.mark.parametrize("path", list(verify.PATH_RUNNERS))
def test_one_ulp_drift_in_one_path_fails_exactly_its_cell(monkeypatch, path, kind):
    cells = [
        c for c in verify.MATRIX
        if c.kind in ("knn", "count") and c.variant == "full" and not c.refit
    ]
    monkeypatch.setitem(
        verify.PATH_RUNNERS, path, _drifting(verify.PATH_RUNNERS[path], kind)
    )
    failures = verify.run_matrix(SCENE, cells)
    assert list(failures) == [f"{kind}/{path}/full"]


def test_one_ulp_drift_in_budgeted_knn_fails_exactly_the_budgeted_cell(monkeypatch):
    cells = [
        c for c in verify.MATRIX
        if c.kind in ("knn", "budgeted") and c.path == "solo"
        and c.variant == "full" and not c.refit
    ]
    monkeypatch.setitem(
        verify.PATH_RUNNERS, "solo",
        _drifting(verify.PATH_RUNNERS["solo"], "knn", budgeted=True),
    )
    assert list(verify.run_matrix(SCENE, cells)) == ["budgeted/solo/full"]


def test_workloads_row_is_exact_on_every_path():
    summary = verify.workloads(n_points=120, n_queries=60, seed=3, sph_steps=3)
    assert "solo/fused/sh4" in summary


def test_service_client_counts_with_one_native_submit_per_chunk():
    pts = verify.clustered_cloud(120, 2)
    session = SearchSession(pts)
    with service_client(session, fan=3) as client:
        kinds = []
        submit = client._service.submit

        async def spy(kind, queries, **kwargs):
            kinds.append(kind)
            return await submit(kind, queries, **kwargs)

        client._service.submit = spy
        counts = client.count(pts, 0.06)
    assert kinds == ["count"] * 3
    assert np.array_equal(counts, session.count_in_radius(pts, 0.06).counts)


def test_main_names_failing_cells_and_rows(monkeypatch, capsys):
    monkeypatch.setattr(
        verify, "run_matrix", lambda: {"count/sh4/full": ["counts != oracle"]}
    )

    def boom():
        raise AssertionError("2 errored requests")

    monkeypatch.setattr(
        verify, "ROWS", (("serve-smoke", boom), ("workloads", lambda: "fine"))
    )
    assert verify.main([]) == 1
    captured = capsys.readouterr()
    assert "FAIL count/sh4/full: counts != oracle" in captured.err
    assert "FAIL serve-smoke: 2 errored requests" in captured.err
    assert "workloads ok: fine" in captured.out

    monkeypatch.setattr(verify, "run_matrix", lambda: {})
    monkeypatch.setattr(verify, "ROWS", ())
    assert verify.main([]) == 0
    assert "identity cells match" in capsys.readouterr().out


def test_main_takes_no_flags():
    with pytest.raises(SystemExit) as ei:
        verify.main(["--check"])
    assert ei.value.code == 2
