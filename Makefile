PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint lint-concurrency analyze baseline bench bench-smoke bench-check bench-test serve-smoke serve-shard-smoke true-knn-smoke workloads-smoke profile trace-demo ci

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

# Serving-tier load check: ~2s of seeded open-loop traffic through the
# micro-batching service; fails on any errored request, on batch
# occupancy never exceeding 1 (no coalescing), or on a non-bit-identical
# spot-check vs direct engine calls.
serve-smoke:
	$(PYTHON) -m repro.cli serve --dataset Bunny-360K --scale 0.03 \
	  --mode knn -k 4 --rps 300 --clients 4 --duration 2 \
	  --window-ms 10 --seed 0 --check

# Sharded-topology scale gate: the same seeded load through 1-shard and
# 4-shard topologies; fails on any errored/expired request, on any
# non-bit-identical cell of the knn/range x full/noopt identity matrix
# (1-shard vs 4-shard vs the raw single engine), or on modeled-clock
# throughput scaling below 2.5x at 4 shards.
serve-shard-smoke:
	$(PYTHON) -m repro.cli serve --dataset Bunny-360K --scale 0.1 \
	  --mode knn -k 8 --radius 0.05 --rps 150 --clients 4 --duration 1 \
	  --window-ms 5 --seed 0 --shards 4 --shard-smoke --min-scaling 2.5

# Unbounded exact-kNN gate: seeded true-knn traffic served by the solo
# engine and by 1-shard and 4-shard topologies; fails on any cell of
# the full/noopt x 1/4-shard identity matrix that is not bit-identical
# to BOTH the solo engine and the brute-force exact-kNN oracle, on a
# diverging radius schedule, on incoherent relaunch counters, or on
# any query taking more than 12 expansion rounds.
true-knn-smoke:
	$(PYTHON) -m repro.cli serve --dataset Bunny-360K --scale 0.1 \
	  --mode true-knn -k 8 --seed 0 --shards 4 --true-knn-smoke \
	  --max-rounds 12

# Downstream-workloads gate: DBSCAN, directed Hausdorff, and a 5-step
# SPH trajectory run on three serving paths (solo session, fused
# service, 4-shard service); fails unless every output is bit-identical
# across paths AND exactly equal to its brute-force oracle (labels,
# witness pair, full trajectory).
workloads-smoke:
	$(PYTHON) -m repro.cli workload --check --shards 4 --seed 7

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
ci: test analyze lint-concurrency bench-check bench-test serve-smoke serve-shard-smoke true-knn-smoke workloads-smoke
