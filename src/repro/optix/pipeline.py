"""The ray-tracing pipeline: launch rays through a GAS.

``Pipeline.launch`` is the moral equivalent of ``optixLaunch`` +
``optixTrace``: it maps the ray batch onto threads in launch order
(warp = 32 consecutive rays), runs the lockstep traversal on the
simulated RT cores, calls the intersection shader on the SMs, and
returns both the functional outcome (whatever the shader accumulated)
and the hardware picture: a :class:`~repro.bvh.traverse.TraceResult`
plus a :class:`~repro.gpu.costmodel.LaunchCost`.

The bundle launches of one engine pass go through one ``launch`` call
that traces them together in one round loop (``trace_forest``) and
still costs each as its own launch.

This module is the *only* sanctioned caller of ``trace_batch`` and
``trace_forest`` (enforced by COST001): every traversal must flow
through here so the cost model charges it and the observability tracer
sees it. Extra
per-ray observers (e.g. the Fig. 1b timeline recorder) attach to a
launch via ``observers=`` and receive the same node/primitive access
stream as the cache simulator.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.bvh.traverse import PruneSpec, TraceResult, trace_batch, trace_forest
from repro.geometry.ray import RayBatch
from repro.gpu.cache import SampledCacheTracer
from repro.gpu.costmodel import CostModel, IsKind, LaunchCost
from repro.gpu.device import DeviceSpec, RTX_2080
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optix.gas import GeometryAS


@dataclass
class LaunchResult:
    """Everything one launch produced besides the shader's own state.

    A pass of several launches traced together returns one result whose
    ``trace`` merges the launches' traces and whose hit rates are
    weighted by each launch's memory transactions; ``parts`` holds the
    per-launch results, in launch order (empty for a single launch).
    Each launch is costed on its own, so a merged result has no
    ``cost`` of its own: read it per part, or ``modeled_time``.
    """

    trace: TraceResult
    cost: LaunchCost | None
    l1_hit_rate: float | None
    l2_hit_rate: float | None
    parts: tuple["LaunchResult", ...] = ()

    @property
    def modeled_time(self) -> float:
        """The modeled seconds of every launch, summed in launch order."""
        return sum(part.cost.total for part in self.launches)

    @property
    def launches(self) -> tuple["LaunchResult", ...]:
        """The per-launch results: ``parts``, or this one launch."""
        return self.parts or (self,)


def _merged(parts: list[LaunchResult]) -> LaunchResult:
    """One result standing for the launches of a pass."""
    trace = parts[0].trace
    for p in parts[1:]:
        trace = trace.merge(p.trace)
    weight = l1 = l2 = 0.0
    for p in parts:
        tx = p.trace.node_transactions + p.trace.prim_transactions
        if p.l1_hit_rate is not None and tx:
            weight += tx
            l1 += p.l1_hit_rate * tx
            l2 += p.l2_hit_rate * tx
    return LaunchResult(
        trace=trace,
        cost=None,
        l1_hit_rate=(l1 / weight) if weight else None,
        l2_hit_rate=(l2 / weight) if weight else None,
        parts=tuple(parts),
    )


class _FanoutTracer:
    """Broadcast the traversal's access stream to several tracers."""

    def __init__(self, tracers):
        self._tracers = tuple(tracers)

    def on_node_access(self, iteration, ray_ids, node_ids):
        for t in self._tracers:
            t.on_node_access(iteration, ray_ids, node_ids)

    def on_prim_access(self, iteration, ray_ids, prim_ids):
        for t in self._tracers:
            t.on_prim_access(iteration, ray_ids, prim_ids)

    def finalize(self):
        for t in self._tracers:
            fin = getattr(t, "finalize", None)
            if fin is not None:
                fin()


class Pipeline:
    """A configured ray-tracing pipeline bound to one simulated device."""

    def __init__(self, device: DeviceSpec = RTX_2080, cache_sim: bool = True,
                 cache_max_warps: int = 8, tracer: Tracer | None = None,
                 prune_leaves: bool = True):
        self.device = device
        self.cost_model = CostModel(device)
        self.cache_sim = cache_sim
        self.cache_max_warps = cache_max_warps
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.prune_leaves = prune_leaves

    def _cache(self, n_rays: int) -> SampledCacheTracer | None:
        """A launch's sampled cache simulator (``None`` when disabled)."""
        if not self.cache_sim or n_rays == 0:
            return None
        return SampledCacheTracer(
            n_rays=n_rays,
            warp_size=self.device.warp_size,
            max_warps=self.cache_max_warps,
            l1_kb=self.device.l1_kb,
            l2_kb=self.device.l2_kb,
            l2_share=1.0 / self.device.n_sms,
        )

    def _prune_spec(self, gas, is_shader, sizes=None) -> PruneSpec | None:
        """Derive sound leaf-prune bounds for these launches, or ``None``.

        The bounds come from the shader's acceptance rules, discovered
        structurally: a KNN shader exposes its queue (radius bound +
        live per-query worst distances), a range shader its radius and
        whether the sphere test is active (one flag, or one per ray).
        Every accepted point also passed the primitive AABB test, so
        ``3·half_width²`` is always a sound bound regardless of shader
        flavor. One GAS gets scalar bounds; a sequence of GASes with
        their launches' ray counts ``sizes`` gets per-ray bounds, each
        ray's from its own launch's half-width.
        The first-hit scheduling pre-pass is left unpruned — it already
        terminates each ray at its first hit, and its result must
        reflect the raw traversal order.
        """
        if not self.prune_leaves:
            return None
        if sizes is None:
            mbr, hw = gas.mbr, gas.half_width
        else:
            mbr = gas[0].mbr
            hw = np.repeat([g.half_width for g in gas], sizes)
        t2 = 3.0 * hw * hw
        bulk_t2 = None
        worst = None
        query_ids = None
        queue = getattr(is_shader, "queue", None)
        sphere = getattr(is_shader, "sphere_test", None)
        if queue is not None:
            t2 = np.minimum(t2, float(queue.r2))
            worst = queue.worst
            query_ids = is_shader.query_ids
        elif sphere is not None and np.any(sphere):
            r2 = float(is_shader.r2)
            t2 = np.where(sphere, np.minimum(t2, r2), t2)
            # Bulk acceptance needs every MBR member to pass the prim
            # AABB test too: d <= r <= half_width implies L-inf <= hw.
            bulk = np.logical_and(sphere, hw * hw >= r2)
            if np.any(bulk):
                bulk_t2 = np.where(bulk, r2, -np.inf)
        elif not hasattr(is_shader, "acc"):
            return None
        # The point-MBR tree's leaf rows are exact min/max reductions
        # over the member points (not the grown node bounds minus
        # half_width, which can round), so the prune bounds are sound.
        if sizes is None:
            t2 = float(t2)
            bulk_t2 = None if bulk_t2 is None else float(bulk_t2)
        return PruneSpec(
            leaf_lo=mbr.node_lo,
            leaf_hi=mbr.node_hi,
            static_t2=t2,
            bulk_t2=bulk_t2,
            worst=worst,
            query_ids=query_ids,
        )

    def launch(
        self,
        gas: GeometryAS | Sequence[GeometryAS],
        rays: RayBatch | Sequence[RayBatch],
        is_shader,
        kind: IsKind | Sequence[IsKind],
        observers=(),
        step_budget: int | None = None,
    ) -> LaunchResult:
        """Trace ``rays`` through ``gas`` invoking ``is_shader`` on hits.

        ``kind`` selects the IS cost class for the launch's modeled time
        (first-hit pre-pass, range with/without sphere test, or KNN).
        ``observers`` are extra access-stream tracers (``on_node_access``
        / ``on_prim_access``) run alongside the cache simulation; they
        never affect counters, costs, or shader results.
        ``step_budget`` caps node pops per ray (approximate mode); it is
        per-launch state, never pipeline state, so concurrent callers of
        a shared engine cannot race on it.

        ``gas``, ``rays`` and ``kind`` may instead be equal-length
        sequences: the launches of one pass. They run in one round loop
        (:func:`~repro.bvh.traverse.trace_forest`), so they must share
        one point-MBR tree and one ray segment, and ``is_shader`` sees
        their rays concatenated in launch order. Each launch keeps its
        own cache simulation and is costed with its own ``kind``; the
        result merges them and lists them in ``parts``. Observers attach
        to single launches only.
        """
        gases, batches, kinds = (
            ([gas], [rays], [kind]) if isinstance(gas, GeometryAS)
            else (list(gas), list(rays), list(kind))
        )
        single = len(gases) == 1
        if not (len(gases) == len(batches) == len(kinds) >= 1):
            raise ValueError(
                "launch needs one ray batch and one IsKind per GAS"
            )
        with self.tracer.span("launch") as sp:
            sizes = [len(b) for b in batches]
            caches = [self._cache(n) for n in sizes]
            prune = (
                self._prune_spec(gases[0], is_shader) if single
                else self._prune_spec(gases, is_shader, sizes)
            )
            if single:
                hooks = [c for c in caches if c is not None] + list(observers)
                if not hooks:
                    stream = None
                elif len(hooks) == 1:
                    stream = hooks[0]
                else:
                    stream = _FanoutTracer(hooks)
                traces = [trace_batch(
                    gases[0].bvh,
                    batches[0].origins,
                    batches[0].directions,
                    batches[0].t_min,
                    batches[0].t_max,
                    is_shader,
                    warp_size=self.device.warp_size,
                    tracer=stream,
                    prune=prune,
                    step_budget=step_budget,
                )]
            else:
                mbr = gases[0].mbr
                segment = (batches[0].t_min, batches[0].t_max)
                if observers or any(
                    g.mbr is not mbr or (b.t_min, b.t_max) != segment
                    for g, b in zip(gases, batches)
                ):
                    raise ValueError(
                        "the launches of one pass share one point-MBR tree "
                        "and one ray segment, and take no observers"
                    )
                traces = trace_forest(
                    mbr,
                    [g.half_width for g in gases],
                    sizes,
                    np.concatenate([b.origins for b in batches]),
                    np.concatenate([b.directions for b in batches]),
                    segment[0],
                    segment[1],
                    is_shader,
                    warp_size=self.device.warp_size,
                    tracers=caches,
                    prune=prune,
                    step_budget=step_budget,
                )
            parts = []
            for trace, k, cache in zip(traces, kinds, caches):
                cost = self.cost_model.launch_cost(trace, k, tracer=cache)
                sp.add(**trace.counters(), **cost.as_counters())
                if cache is not None:
                    sp.add(**cache.counters())
                parts.append(LaunchResult(
                    trace=trace,
                    cost=cost,
                    l1_hit_rate=cache.l1_hit_rate if cache is not None else None,
                    l2_hit_rate=cache.l2_hit_rate if cache is not None else None,
                ))
            sp.note(kind=kinds[0].value if single else [k.value for k in kinds])
        return parts[0] if single else _merged(parts)
