"""Observability: structured run tracing and perf-regression benching.

The subsystem has three layers:

* :mod:`repro.obs.tracer` — cheap, nestable spans (wall time + model
  counter deltas) that the engine, pipeline and GAS builds emit into.
  The default :data:`~repro.obs.tracer.NULL_TRACER` records nothing and
  costs nothing; pass a :class:`~repro.obs.tracer.RecordingTracer` to
  capture a full span tree.
* :mod:`repro.obs.report` — :class:`~repro.obs.report.RunReport`, the
  JSON-serializable record of one run: Fig. 12 breakdown, per-phase
  rollups (data / partition / build / schedule / traverse), total
  counters, and the span tree.
* :mod:`repro.obs.bench` — the pinned perf-regression suite
  (``python -m repro.obs.bench``) that compares against the last
  committed ``BENCH_*.json`` (counters and checksums exact, modeled
  seconds within 1e-9 relative), exiting nonzero on regression;
  ``--out`` writes a new bench file.

``repro trace`` (the CLI verb) renders a recorded run via
:mod:`repro.obs.render`.
"""

from repro.obs.tracer import (
    NULL_TRACER,
    PHASES,
    RecordingTracer,
    Span,
    Tracer,
)
from repro.obs.report import PhaseStats, RunReport
from repro.obs.render import render_counter_table, render_report, render_spans

__all__ = [
    "NULL_TRACER",
    "PHASES",
    "RecordingTracer",
    "Span",
    "Tracer",
    "PhaseStats",
    "RunReport",
    "render_counter_table",
    "render_report",
    "render_spans",
]
