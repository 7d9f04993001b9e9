PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint lint-concurrency analyze baseline bench bench-smoke bench-check bench-test verify profile trace-demo ci

# Extra pytest arguments ride in PYTEST_FLAGS (CI passes --junitxml=...).
test:
	$(PYTHON) -m pytest -x -q $(PYTEST_FLAGS)

# Generic lint (ruff, skipped with a notice if not installed) + the
# execution-model static analysis. Fails on any non-baselined finding.
lint:
	$(PYTHON) -m repro.analysis.lint src/repro

# Domain rules only.
analyze:
	$(PYTHON) -m repro.analysis src/repro

# Project-wide concurrency/determinism pass only (CON/DET families):
# cross-module call-graph contexts, lock-guard inference, RNG/clock/
# ordering discipline. Gates the sharded-serving work.
lint-concurrency:
	$(PYTHON) -m repro.analysis src/repro --select CON --select DET

# Accept the current findings as technical debt (use sparingly).
baseline:
	$(PYTHON) -m repro.analysis src/repro --write-baseline

# Full perf-regression suite: compares against the latest committed
# BENCH_*.json and writes a fresh BENCH_<date>.json.
bench:
	$(PYTHON) -m repro.obs.bench

# Quick local subset: counter-exact comparison only (including the
# sharded twin vs its single-engine scenario), writes nothing.
bench-smoke:
	$(PYTHON) -m repro.obs.bench --smoke

# CI gate: the same counter-exact comparison over every pinned
# scenario (wall-clock checks off, writes nothing). About 10 s; it
# covers the range and downstream-workload scenarios the smoke subset
# leaves out, where mid-leaf Any-Hit terminations and bulk accepts
# are densest.
bench-check:
	$(PYTHON) -m repro.obs.bench --no-wall --no-write

# The repository benchmark's own tests (bench/test_bench.py): every
# workload end to end at test-only reduced sizes, the oracle gate and
# compare.py's verdicts. About 40 s; tier-1 testpaths cover tests/ only.
bench-test:
	$(PYTHON) -m pytest bench -q

# The equivalence matrix (python -m repro.verify, ~20 s): every kind
# (knn/range/count/true_knn/budgeted) on every path (solo, fused
# service, 1 and 4 shards, 4 shards with a killed primary) x
# noopt/full x refit-then-search equals its oracle, rejected
# combinations raise their typed error; plus the serving rows: open-loop
# load with zero errors and coalescing batches, modeled-clock scaling
# >= 2.5x at 4 shards, and DBSCAN/Hausdorff/SPH exact on every path.
verify:
	$(PYTHON) -m repro.verify

# cProfile the fully-optimized large scenario (override with
# PROFILE_SCENARIO=<name> to pick another suite entry).
profile:
	$(PYTHON) -m repro.obs.bench --profile $(PROFILE_SCENARIO)

# Render a traced run (span tree + counter tables) on a tiny dataset.
trace-demo:
	$(PYTHON) -m repro.cli trace --dataset KITTI-1M --scale 0.002

# Everything CI gates on, in the same order as .github/workflows/ci.yml
# runs its jobs; tests/test_ci_consistency.py cross-checks the two so
# they cannot drift.
ci: test analyze lint-concurrency bench-check bench-test verify
