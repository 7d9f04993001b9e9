"""Tests of the benchmark itself, at a test-only reduced size.

    python -m pytest bench -q

The reduced sizes (``workloads.SMALL``) keep the whole file to well
under a minute; they are never used for recorded numbers.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run._import_program()

import compare  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def _lines(out: str):
    lines = out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_printed_metrics_match_the_spec(name, trace, capsys, monkeypatch,
                                        tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.run_one(name, seed=0, seconds=0.2, trace=trace, small=True)
    human, result = _lines(capsys.readouterr().out)
    section = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    printed = {}
    for line in human:
        workload, metric, value, unit, n = line.split()
        assert workload == name and n.startswith("(n=")
        printed[metric] = (float(value), unit)
    assert printed.pop("failed_frac") == (0.0, "ratio")
    assert {k: u for k, (_, u) in printed.items()} == units
    if trace:
        assert (tmp_path / f"{name}.trace.json").is_file()
    else:
        assert all(v > 0 for v, _ in printed.values())


def _inputs(name: str, seed: int) -> list[np.ndarray]:
    w = workloads.workload(name, small=True)
    if w.loop == "batch":
        warm, pool = workloads.batch_inputs(w, seed)
        return [warm.queries] + [r.queries for r in pool]
    if w.loop == "serve":
        warm, reqs = workloads.serve_inputs(w, seed)
        kinds = np.array([r.kind for r in reqs])
        return [r.queries for r in warm + reqs] + [kinds]
    warm, steps = workloads.refit_inputs(w, seed)
    return [warm.queries] + [a for s in steps for a in (s.points, s.queries)]


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_inputs(name):
    same = zip(_inputs(name, 0), _inputs(name, 0))
    assert all(np.array_equal(a, b) for a, b in same)
    other = zip(_inputs(name, 0), _inputs(name, 1))
    assert not all(np.array_equal(a, b) for a, b in other)


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_modeled_time(name):
    def modeled(seed):
        r = workloads.run(name, seed, 0.0, small=True)
        return metrics.end_to_end(r)["modeled_gpu_ns_per_query"][0]

    assert modeled(0) == modeled(0)
    assert modeled(0) != modeled(1)


@pytest.mark.parametrize("name", ["knn-nbody", "serve-sharded", "refit-drift"])
def test_self_times_fit_inside_their_parents(name):
    rec = spans.Recorder()
    with spans.patched(rec):
        workloads.run(name, 0, 0.2, rec=rec, small=True)
    by_id = {s.id: s for s in rec.spans}
    selfs = spans.self_times(rec.spans)
    layers = {s.layer for s in rec.spans}
    assert {"engine", "partition", "schedule", "gas", "traverse", "queues",
            "replay"} <= layers
    for s in rec.spans:
        assert 0.0 <= selfs[s.id] <= s.duration
        if s.parent is not None:
            parent = by_id[s.parent]
            assert selfs[s.id] <= parent.duration
            assert s.trace == parent.trace
    if name == "serve-sharded":
        # per-shard engine calls nest under the scatter-gather call
        shard_ids = {s.id for s in rec.spans if s.layer == "shard"}
        inner = [s for s in rec.spans if s.layer == "engine"
                 and s.stage == "timed"]
        assert inner and all(s.parent in shard_ids for s in inner)


def _scale_distance(res):
    res.sq_distances[0, 1] *= 1.0 + 1e-9


def _repeat_index(res):
    res.indices[0, 1] = res.indices[0, 0]


def _next_float(res):
    res.sq_distances[0, 1] = np.nextafter(res.sq_distances[0, 1], np.inf)


@pytest.mark.parametrize("name,kind,spoil", [
    ("knn-nbody", "knn", _scale_distance),
    ("range-kitti", "range", _repeat_index),
    ("serve-mixed", "true_knn", _next_float),
])
def test_oracle_rejects_a_wrong_answer(name, kind, spoil):
    r = workloads.run(name, 0, 0.5, small=True)
    assert oracle.check(r) == {}
    key = next(key for key in r.answers if r.requests[key].kind == kind)
    spoil(r.answers[key])
    assert list(oracle.check(r)) == [key]


def test_a_later_answer_is_checked_against_the_first():
    r = workloads.run("range-kitti", 0, 0.0, small=True)
    key, first = next(iter(r.answers.items()))
    spoiled = dataclasses.replace(first, indices=first.indices.copy())
    _repeat_index(spoiled)
    r.done(key, 0.0, dataclasses.replace(first))
    r.done(key, 0.0, spoiled)
    assert r.ops[-2].error is None and r.ops[-1].error is not None


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("a,b,higher,bound,want", [
    ({s: 100.0 + s for s in range(10)}, {s: 150.0 + s for s in range(10)},
     True, 0.1, "better"),
    ({s: 100.0 + s for s in range(10)}, {s: 80.0 + s for s in range(10)},
     True, 0.1, "worse"),
    ({s: 100.0 + s for s in range(10)}, {s: 100.0 + s for s in range(10)},
     True, 0.1, "unchanged"),
    ({s: 100.0 + 20 * s for s in range(10)}, {s: 98.0 + 20 * s for s in range(10)},
     True, 0.1, "unresolved"),
    ({s: 10.0 - s / 10 for s in range(10)}, {s: 20.0 for s in range(10)},
     False, None, "worse"),
    ({s: 100.0 + s for s in range(5)}, {s: 150.0 + s for s in range(5)},
     True, 0.1, "unchanged"),
])
def test_compare_verdicts(a, b, higher, bound, want):
    assert compare.verdict(a, b, higher, bound)[0] == want
