"""The perf-regression bench harness: comparator, CLI, and CI wiring."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.obs import bench


def _tiny_suite():
    """A 3-scenario suite small enough for unit tests."""
    return [
        bench.Scenario(family="uniform", n_points=80, n_queries=40,
                       variant="noopt"),
        bench.Scenario(family="uniform", n_points=80, n_queries=40,
                       variant="sched+part"),
        bench.Scenario(family="uniform", n_points=80, n_queries=40,
                       variant="noopt", repeat=2),
    ]


@pytest.fixture(scope="module")
def payload():
    return bench.run_suite(_tiny_suite(), verbose=False)


# ----------------------------------------------------------------------
# comparator
# ----------------------------------------------------------------------
def test_identical_payloads_compare_clean(payload):
    assert bench.compare_records(payload, payload) == []


def test_rerun_is_deterministic(payload):
    again = bench.run_suite(_tiny_suite(), verbose=False)
    assert bench.compare_records(again, payload, check_wall=False) == []


@pytest.mark.parametrize("direction", [+1, -1])
def test_counter_drift_fails_in_both_directions(payload, direction):
    cur = copy.deepcopy(payload)
    name = next(iter(cur["scenarios"]))
    cur["scenarios"][name]["counters"]["is_calls"] += direction
    failures = bench.compare_records(cur, payload, check_wall=False)
    assert len(failures) == 1
    assert "is_calls" in failures[0]


def test_phase_counter_drift_fails(payload):
    cur = copy.deepcopy(payload)
    name = next(iter(cur["scenarios"]))
    phases = cur["scenarios"][name]["phases"]
    phase = next(p for p in phases if phases[p]["counters"])
    key = next(iter(phases[phase]["counters"]))
    phases[phase]["counters"][key] += 1
    failures = bench.compare_records(cur, payload, check_wall=False)
    assert any(f"phase {phase!r}" in f for f in failures)


def test_checksum_drift_fails(payload):
    cur = copy.deepcopy(payload)
    name = next(iter(cur["scenarios"]))
    cur["scenarios"][name]["checksum"] += 1
    failures = bench.compare_records(cur, payload, check_wall=False)
    assert any("checksum" in f for f in failures)


def test_modeled_time_drift_fails(payload):
    cur = copy.deepcopy(payload)
    name = next(iter(cur["scenarios"]))
    cur["scenarios"][name]["modeled_s"] *= 1.001
    failures = bench.compare_records(cur, payload, check_wall=False)
    assert any("modeled_s" in f for f in failures)


def test_wall_clock_tolerance_is_one_sided(payload):
    cur = copy.deepcopy(payload)
    name = next(iter(cur["scenarios"]))
    base_wall = payload["scenarios"][name]["wall_s"]
    # 2x slower: regression beyond +20%
    cur["scenarios"][name]["wall_s"] = base_wall * 2.0
    assert bench.compare_records(cur, payload, check_wall=True)
    assert bench.compare_records(cur, payload, check_wall=False) == []
    assert bench.compare_records(cur, payload, wall_tol=1.5) == []
    # 2x faster: improvements never fail
    cur["scenarios"][name]["wall_s"] = base_wall * 0.5
    assert bench.compare_records(cur, payload, check_wall=True) == []


def test_only_shared_scenarios_are_compared(payload):
    subset = copy.deepcopy(payload)
    name, record = next(iter(payload["scenarios"].items()))
    subset["scenarios"] = {name: copy.deepcopy(record)}
    # smoke-style subset against a full baseline: clean
    assert bench.compare_records(subset, payload, check_wall=False) == []
    # disjoint files have nothing to say
    other = {"scenarios": {"elsewhere": record}}
    assert bench.compare_records(other, payload, check_wall=False) == []


def test_find_baseline_picks_latest(tmp_path):
    assert bench.find_baseline(tmp_path) is None
    (tmp_path / "BENCH_2026-01-01.json").write_text("{}")
    (tmp_path / "BENCH_2026-02-01.json").write_text("{}")
    assert bench.find_baseline(tmp_path).name == "BENCH_2026-02-01.json"
    latest = tmp_path / "BENCH_2026-02-01.json"
    assert (
        bench.find_baseline(tmp_path, exclude=latest).name
        == "BENCH_2026-01-01.json"
    )


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------
def test_smoke_suite_is_subset_of_full_suite():
    smoke = {s.name for s in bench.smoke_suite()}
    full = {s.name for s in bench.full_suite()}
    assert smoke <= full
    assert len(full) >= 6  # the acceptance floor for pinned scenarios


def test_scenario_names_are_unique():
    names = [s.name for s in bench.full_suite()]
    assert len(names) == len(set(names))


def test_repeat_scenario_naming():
    single = bench.Scenario(family="uniform", n_points=80, n_queries=40,
                            variant="noopt")
    repeated = bench.Scenario(family="uniform", n_points=80, n_queries=40,
                              variant="noopt", repeat=2)
    assert single.name == "uniform-80/noopt/knn"
    assert repeated.name == "uniform-80/noopt/knn/x2"


def test_repeat_scenarios_in_smoke_suite():
    repeats = bench.repeat_scenarios()
    assert len(repeats) == 3
    assert all(s.repeat > 1 for s in repeats)
    smoke_names = {s.name for s in bench.smoke_suite()}
    assert {s.name for s in repeats} <= smoke_names


def test_shard_scenario_naming_and_twin():
    sharded = bench.Scenario(family="uniform", n_points=80, n_queries=40,
                             variant="sched+part", shards=4)
    assert sharded.name == "uniform-80/sched+part/knn/sh4"
    assert bench.shard_twin(sharded.name) == "uniform-80/sched+part/knn"
    # variant names containing "sh" must not look like shard suffixes
    assert bench.shard_twin("uniform-80/sched+part/knn") is None
    assert bench.shard_twin("uniform-80/sched+part/knn/x3") is None


def test_smoke_suite_has_a_sharded_twin():
    smoke = bench.smoke_suite()
    sharded = [s for s in smoke if s.shards]
    assert sharded, "smoke suite lost its sharded-topology scenario"
    names = {s.name for s in smoke}
    for s in sharded:
        assert bench.shard_twin(s.name) in names


def test_sharded_scenario_matches_single_engine_twin():
    suite = [
        bench.Scenario(family="uniform", n_points=80, n_queries=40,
                       variant="sched+part"),
        bench.Scenario(family="uniform", n_points=80, n_queries=40,
                       variant="sched+part", shards=3),
    ]
    payload = bench.run_suite(suite, verbose=False)
    assert bench.check_shard_consistency(payload) == []
    rec = payload["scenarios"]["uniform-80/sched+part/knn/sh3"]
    ref = payload["scenarios"]["uniform-80/sched+part/knn"]
    assert rec["neighbors"] == ref["neighbors"]
    assert rec["checksum"] == ref["checksum"]


def test_shard_consistency_catches_divergence_and_missing_twin():
    payload = {
        "scenarios": {
            "uniform-80/noopt/knn": {"neighbors": 10, "checksum": 42},
            "uniform-80/noopt/knn/sh4": {"neighbors": 10, "checksum": 41},
            "kitti-80/noopt/range/sh4": {"neighbors": 5, "checksum": 7},
        }
    }
    failures = bench.check_shard_consistency(payload)
    assert len(failures) == 2
    assert any("checksum" in f for f in failures)
    assert any("missing" in f for f in failures)


def test_budget_twin_is_pinned_in_every_suite():
    name = "uniform-400/sched+part/knn/b12"
    assert bench.budget_twin(name) == "uniform-400/sched+part/knn"
    assert bench.budget_twin("uniform-400/sched+part/knn") is None
    for suite in (bench.smoke_suite(), bench.full_suite()):
        names = {s.name for s in suite}
        assert name in names and bench.budget_twin(name) in names


def _budget_payload(**budgeted):
    exact = {"neighbors": 10, "checksum": 42}
    rec = {
        "neighbors": 8,
        "checksum": 40,
        "budget": {"recall_lower_bound": 0.5, "budget_exhausted": True},
    }
    rec.update(budgeted)
    return {
        "scenarios": {
            "uniform-80/sched+part/knn": exact,
            "uniform-80/sched+part/knn/b12": rec,
        }
    }


def test_budget_consistency_accepts_an_honest_subset():
    assert bench.check_budget_consistency(_budget_payload()) == []
    never_fired = {"recall_lower_bound": 1.0, "budget_exhausted": False}
    payload = _budget_payload(neighbors=10, checksum=42, budget=never_fired)
    assert bench.check_budget_consistency(payload) == []


@pytest.mark.parametrize(
    "budgeted, needle",
    [
        ({"neighbors": 11}, "MORE neighbors"),
        ({"budget": {"recall_lower_bound": 1.5, "budget_exhausted": True}},
         "outside [0, 1]"),
        ({"budget": {"recall_lower_bound": 1.0, "budget_exhausted": False}},
         "budget never fired"),
        ({"budget": {}}, "no budget stats"),
    ],
)
def test_budget_consistency_catches_dishonest_twins(budgeted, needle):
    failures = bench.check_budget_consistency(_budget_payload(**budgeted))
    assert failures and all("/b12" in f for f in failures)
    assert any(needle in f for f in failures)


def test_budget_consistency_catches_missing_twin():
    payload = _budget_payload()
    del payload["scenarios"]["uniform-80/sched+part/knn"]
    failures = bench.check_budget_consistency(payload)
    assert len(failures) == 1 and "missing" in failures[0]


def test_repeat_record_carries_amortization_fields(payload):
    records = payload["scenarios"]
    repeated = records["uniform-80/noopt/knn/x2"]
    single = records["uniform-80/noopt/knn"]
    for key in ("wall_first_s", "wall_warm_s", "warm_speedup", "gas_cache"):
        assert key in repeated
        assert key not in single
    cache = repeated["gas_cache"]
    assert cache["misses"] >= 1  # the cold batch built
    assert cache["hits"] >= 1    # the warm batch reused
    # counters accumulate over batches: exactly 2x the single-batch run
    assert repeated["counters"]["is_calls"] == 2 * single["counters"]["is_calls"]
    assert repeated["checksum"] == single["checksum"]


# ----------------------------------------------------------------------
# CLI driver
# ----------------------------------------------------------------------
@pytest.fixture()
def tiny_main(monkeypatch, tmp_path):
    """bench.main wired to the tiny suite inside an isolated directory."""
    monkeypatch.setattr(bench, "full_suite", _tiny_suite)
    monkeypatch.setattr(bench, "smoke_suite", _tiny_suite)

    def run(*argv):
        return bench.main(["--dir", str(tmp_path), *argv])

    return run, tmp_path


def test_main_writes_then_passes_then_catches_regression(tiny_main, capsys):
    run, tmp_path = tiny_main
    assert run() == 0  # first full run: writes, nothing to compare
    written = list(tmp_path.glob("BENCH_*.json"))
    assert len(written) == 1
    payload = json.loads(written[0].read_text())
    assert len(payload["scenarios"]) == 3
    for record in payload["scenarios"].values():
        assert record["counters"]
        assert record["phases"]

    # second run compares clean against the first (skip wall: shared CI
    # machines make same-file wall times noisy)
    assert run("--no-wall", "--no-write") == 0

    # perturb one counter in the baseline -> regression detected
    name = next(iter(payload["scenarios"]))
    payload["scenarios"][name]["counters"]["is_calls"] += 1
    written[0].write_text(json.dumps(payload))
    assert run("--no-wall", "--no-write") == 1
    assert "is_calls" in capsys.readouterr().err


def test_main_smoke_mode_skips_write_and_wall(tiny_main):
    run, tmp_path = tiny_main
    assert run("--smoke") == 0
    assert list(tmp_path.glob("BENCH_*.json")) == []


def test_main_runs_the_budget_gate(tiny_main, monkeypatch, capsys):
    run, _ = tiny_main
    monkeypatch.setattr(
        bench, "check_budget_consistency", lambda payload: ["x/b12: bad"]
    )
    assert run("--smoke") == 1
    assert "budget divergence" in capsys.readouterr().err


def test_main_missing_baseline_is_usage_error(tiny_main):
    run, tmp_path = tiny_main
    assert run("--smoke", "--baseline", str(tmp_path / "nope.json")) == 2


# ----------------------------------------------------------------------
# CI pipeline wiring
# ----------------------------------------------------------------------
def test_ci_workflow_parses_and_runs_all_gates():
    yaml = pytest.importorskip("yaml")
    path = Path(__file__).resolve().parent.parent / ".github/workflows/ci.yml"
    data = yaml.safe_load(path.read_text())
    jobs = data["jobs"]
    assert {"test", "analyze", "bench"} <= set(jobs)
    matrix = jobs["test"]["strategy"]["matrix"]["python-version"]
    assert {"3.10", "3.12"} <= {str(v) for v in matrix}
    bench_cmds = " ".join(
        step.get("run", "") for step in jobs["bench"]["steps"]
    )
    # CI goes through the Makefile target so local `make bench-check`
    # and the CI gate can never drift apart; the gate compares every
    # pinned scenario, not the smoke subset.
    assert "make bench-check" in bench_cmds
    makefile = (path.parent.parent.parent / "Makefile").read_text()
    assert "repro.obs.bench --no-wall --no-write" in makefile
