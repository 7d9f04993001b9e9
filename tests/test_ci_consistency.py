"""`make ci` and `.github/workflows/ci.yml` must describe the same gates.

The Makefile's ``ci`` target is the local mirror of the workflow; they
used to drift every time a job was added. These tests parse both files
(plain text — no YAML dependency) and fail on any divergence:

* the sequence of ``make`` targets the workflow jobs run must equal
  the ``ci`` target's prerequisite list, in order;
* every workflow job must carry ``timeout-minutes``;
* the workflow must cancel superseded runs (``concurrency`` group with
  ``cancel-in-progress``);
* every pip cache must be keyed on ``pyproject.toml``;
* the test matrix must cover Python 3.13 and upload a JUnit artifact.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
MAKEFILE = REPO / "Makefile"


def _workflow_text() -> str:
    return WORKFLOW.read_text()


def _make_targets_in_workflow() -> list[str]:
    """Every `run: make <target>` in the workflow, in file order."""
    return re.findall(
        r"^\s*run:\s*make\s+([A-Za-z0-9_-]+)", _workflow_text(), re.MULTILINE
    )


def _ci_prerequisites() -> list[str]:
    match = re.search(r"^ci:\s*(.+)$", MAKEFILE.read_text(), re.MULTILINE)
    assert match, "Makefile has no `ci:` target"
    return match.group(1).split()


def _job_names() -> list[str]:
    """Top-level job keys (2-space indent under `jobs:`), in order."""
    text = _workflow_text()
    jobs_at = text.index("\njobs:")
    return re.findall(r"^  ([A-Za-z0-9_-]+):\s*$", text[jobs_at:], re.MULTILINE)


def test_make_ci_mirrors_workflow_gates_in_order():
    workflow = _make_targets_in_workflow()
    makefile = _ci_prerequisites()
    assert workflow == makefile, (
        "make ci and ci.yml drifted:\n"
        f"  workflow runs: {workflow}\n"
        f"  make ci runs:  {makefile}"
    )


def test_every_workflow_job_runs_exactly_one_make_gate():
    # One gate per job keeps the mirror mapping unambiguous.
    assert len(_make_targets_in_workflow()) == len(_job_names())


def test_every_job_has_a_timeout():
    text = _workflow_text()
    jobs = _job_names()
    timeouts = re.findall(r"^    timeout-minutes:\s*\d+\s*$", text, re.MULTILINE)
    assert len(timeouts) == len(jobs), (
        f"{len(jobs)} jobs but {len(timeouts)} timeout-minutes entries — "
        "every job must bound its runtime"
    )


def test_workflow_cancels_superseded_runs():
    text = _workflow_text()
    assert re.search(r"^concurrency:", text, re.MULTILINE), (
        "ci.yml needs a top-level concurrency group"
    )
    assert "cancel-in-progress: true" in text


def test_pip_caches_are_keyed_on_pyproject():
    text = _workflow_text()
    caches = len(re.findall(r"^\s*cache:\s*pip\s*$", text, re.MULTILINE))
    keys = len(
        re.findall(
            r"^\s*cache-dependency-path:\s*pyproject\.toml\s*$",
            text,
            re.MULTILINE,
        )
    )
    assert caches > 0
    assert caches == keys, (
        f"{caches} pip caches but {keys} keyed on pyproject.toml — "
        "dependency bumps would not invalidate the others"
    )


def test_matrix_covers_python_313_and_uploads_junit():
    text = _workflow_text()
    matrix = re.search(r"python-version:\s*\[([^\]]+)\]", text)
    assert matrix, "test job has no python-version matrix"
    versions = [v.strip().strip("\"'") for v in matrix.group(1).split(",")]
    assert "3.13" in versions, f"matrix {versions} is missing 3.13"
    assert "--junitxml=" in text, "test job does not produce a JUnit report"
    assert re.search(r"name:\s*pytest-junit", text), (
        "JUnit report is not uploaded as an artifact"
    )
    assert "if: always()" in text, (
        "JUnit upload must run on failure too — that is its entire point"
    )


def _verify_is_wired():
    assert "verify" in _ci_prerequisites()
    assert "verify" in _job_names()
    assert re.search(r"^verify:\n\t\$\(PYTHON\) -m repro\.verify$",
                     MAKEFILE.read_text(), re.MULTILINE)


def test_shard_smoke_gate_is_wired():
    # The shard-smoke row of the verify matrix: 4-shard scaling >= 2.5x.
    import repro.verify as verify

    _verify_is_wired()
    assert ("shard-smoke", verify.shard_smoke) in verify.ROWS
    assert verify.SHARDS == 4
    assert verify.MIN_SCALING == 2.5


def test_true_knn_smoke_gate_is_wired():
    # The true_knn cells: every path, at most 12 expansion rounds.
    import repro.verify as verify

    _verify_is_wired()
    assert verify.MAX_ROUNDS == 12
    assert {c.path for c in verify.MATRIX if c.kind == "true_knn"} == set(
        verify.PATH_RUNNERS
    )
    assert {"sh4", "sh4-killed"} <= set(verify.PATH_RUNNERS)


def test_workloads_smoke_gate_is_wired():
    # The workloads row: oracles + cross-path bit-identity at 4 shards.
    import repro.verify as verify

    _verify_is_wired()
    assert ("workloads", verify.workloads) in verify.ROWS
