"""Bench-side tracing: one span around every call into a layer.

The program is not edited to be traced. For a traced run,
:func:`patched` swaps a recording wrapper in for each entry point in
:data:`ENTRY_POINTS` and puts the originals back afterwards. Each
wrapper records a :class:`Span` (name, layer, start, end, parent span,
trace id) and, from the call's return value, the counts that the
per-layer metrics divide by.

The span stack lives in a :class:`contextvars.ContextVar`, so every
thread and every asyncio task nests its own calls without seeing the
others'. The service's executor thread starts no context of its own;
its root span (``execute_batch``) lists the request ids it serves,
which links it to the per-request ``submit`` traces.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time

_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "bench_span_stack", default=()
)


class Span:
    """One recorded call into a layer."""

    __slots__ = (
        "id", "name", "layer", "parent", "trace", "stage", "thread",
        "start", "end", "attrs",
    )

    def __init__(self, span_id, name, layer, parent, trace, stage):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.trace = trace
        self.stage = stage
        self.thread = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "parent": self.parent, "trace": self.trace, "stage": self.stage,
            "thread": self.thread, "start": self.start, "end": self.end,
            "attrs": self.attrs,
        }


class Recorder:
    """Holds every span of one traced run in memory.

    Only calls made while :attr:`recording` is true are recorded; spans
    are tagged with the :attr:`stage` (``"setup"`` or ``"timed"``) that
    was current when they opened.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self.stage = "setup"
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)

    def open(self, name: str, layer: str):
        stack = _STACK.get()
        parent = stack[-1] if stack else None
        span = Span(
            next(self._ids),
            name,
            layer,
            parent.id if parent is not None else None,
            parent.trace if parent is not None else next(self._traces),
            self.stage,
        )
        self.spans.append(span)
        token = _STACK.set(stack + (span,))
        span.start = time.perf_counter()
        return span, token

    @staticmethod
    def close(span: Span, token) -> None:
        span.end = time.perf_counter()
        _STACK.reset(token)

    def write(self, path) -> None:
        """Write every span, with its self time, as one JSON document."""
        selfs = self_times(self.spans)
        doc = [dict(s.to_dict(), self=selfs[s.id]) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent, so a self time is never
    negative and never longer than the span itself. Children that ran
    concurrently are counted once where they overlap.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(c.start, reach)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = max(s.duration - covered, 0.0)
    return out


# ----------------------------------------------------------------------
# counts taken from each entry point's return value
# ----------------------------------------------------------------------
def _search_counts(attrs, args, out):
    """Engine / shard search calls: per-call report totals."""
    results = out if isinstance(out, list) else [out]
    report = results[0].report if results else None
    if report is None:
        return
    attrs["queries"] = sum(len(r.counts) for r in results)
    attrs["breakdown"] = report.breakdown.as_dict()
    attrs["steps"] = report.traversal_steps
    attrs["is_calls"] = report.is_calls
    attrs["bundles"] = report.n_bundles
    cache = report.extras.get("gas_cache")
    if cache is not None:
        attrs["gas_hits"] = cache["hits"]
        attrs["gas_misses"] = cache["misses"]
    prune = report.extras.get("prune")
    if prune is not None:
        attrs["leaves_pruned"] = prune["leaves_pruned"]
    tknn = report.extras.get("true_knn")
    if tknn is not None:
        attrs["rounds"] = tknn["rounds"]
        attrs["relaunched"] = list(tknn["relaunched"])


def _megacell_counts(attrs, args, out):
    attrs["growth_steps"] = int(out.total_growth_steps)
    attrs["queries"] = len(args[1])


def _schedule_counts(attrs, args, out):
    attrs["modeled_s"] = out.fs_time + out.sort_time


def _launch_counts(attrs, args, out):
    attrs["tx"] = out.trace.node_transactions + out.trace.prim_transactions
    attrs["l1"] = out.l1_hit_rate
    attrs["l2"] = out.l2_hit_rate


def _batch_counts(attrs, args, out):
    batch = args[1]
    attrs["rids"] = [r.rid for r in batch.requests]


def _submit_counts(attrs, args, out):
    attrs["rid"] = out.rid
    attrs["queue_wait_s"] = out.queue_wait_s


#: (module, class or None, attribute, layer, counts from the return value)
ENTRY_POINTS = [
    ("repro.serve.service", "SearchService", "submit", "serve", _submit_counts),
    ("repro.serve.service", None, "execute_batch", "serve", _batch_counts),
    ("repro.serve.shard", "ShardedEngine", "search_fused", "shard", _search_counts),
    ("repro.core.engine", "RTNNEngine", "knn_search", "engine", _search_counts),
    ("repro.core.engine", "RTNNEngine", "range_search", "engine", _search_counts),
    ("repro.core.engine", "RTNNEngine", "true_knn_search", "engine", _search_counts),
    ("repro.core.engine", "RTNNEngine", "count_in_radius", "engine", _search_counts),
    ("repro.core.engine", "RTNNEngine", "search_fused", "engine", _search_counts),
    ("repro.core.engine", "RTNNEngine", "update_points", "engine", None),
    ("repro.core.engine", None, "compute_megacells", "partition", _megacell_counts),
    ("repro.core.engine", None, "schedule_queries", "schedule", _schedule_counts),
    ("repro.core.engine", None, "build_gas", "gas", None),
    ("repro.core.engine", None, "refit_gas", "refit", None),
    ("repro.optix.pipeline", "Pipeline", "launch", "traverse", _launch_counts),
    ("repro.core.queues", "KnnQueueBatch", "insert", "queues", None),
    ("repro.core.queues", "KnnQueueBatch", "finalize", "queues", None),
    ("repro.core.queues", "RangeAccumulator", "insert", "queues", None),
    ("repro.gpu.cache", "SampledCacheTracer", "finalize", "replay", None),
]


def _wrap(fn, name, layer, rec: Recorder, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.recording:
            return fn(*args, **kwargs)
        span, token = rec.open(name, layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span, token)
        if counts is not None:
            counts(span.attrs, args, out)
        return out

    return wrapper


def _wrap_async(fn, name, layer, rec: Recorder, counts):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not rec.recording:
            return await fn(*args, **kwargs)
        span, token = rec.open(name, layer)
        try:
            out = await fn(*args, **kwargs)
        finally:
            rec.close(span, token)
        if counts is not None:
            counts(span.attrs, args, out)
        return out

    return wrapper


@contextlib.contextmanager
def patched(rec: Recorder):
    """Install the recording wrappers; restore the originals on exit."""
    saved = []
    try:
        for module_name, owner, attr, layer, counts in ENTRY_POINTS:
            target = importlib.import_module(module_name)
            if owner is not None:
                target = getattr(target, owner)
            orig = getattr(target, attr)
            wrap = _wrap_async if inspect.iscoroutinefunction(orig) else _wrap
            name = f"{owner or module_name.rsplit('.', 1)[-1]}.{attr}"
            saved.append((target, attr, orig))
            setattr(target, attr, wrap(orig, name, layer, rec, counts))
        yield rec
    finally:
        for target, attr, orig in reversed(saved):
            setattr(target, attr, orig)
