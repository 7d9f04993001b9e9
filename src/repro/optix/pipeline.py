"""The ray-tracing pipeline: launch rays through a GAS.

``Pipeline.launch`` is the moral equivalent of ``optixLaunch`` +
``optixTrace``: it maps the ray batch onto threads in launch order
(warp = 32 consecutive rays), runs the lockstep traversal on the
simulated RT cores, calls the intersection shader on the SMs, and
returns both the functional outcome (whatever the shader accumulated)
and the hardware picture: a :class:`~repro.bvh.traverse.TraceResult`
plus a :class:`~repro.gpu.costmodel.LaunchCost`.

This module is the *only* sanctioned caller of ``trace_batch``
(enforced by COST001): every traversal must flow through here so the
cost model charges it and the observability tracer sees it. Extra
per-ray observers (e.g. the Fig. 1b timeline recorder) attach to a
launch via ``observers=`` and receive the same node/primitive access
stream as the cache simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bvh.traverse import PruneSpec, TraceResult, trace_batch
from repro.geometry.ray import RayBatch
from repro.gpu.cache import SampledCacheTracer
from repro.gpu.costmodel import CostModel, IsKind, LaunchCost
from repro.gpu.device import DeviceSpec, RTX_2080
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optix.gas import GeometryAS


@dataclass
class LaunchResult:
    """Everything one launch produced besides the shader's own state."""

    trace: TraceResult
    cost: LaunchCost
    l1_hit_rate: float | None
    l2_hit_rate: float | None

    @property
    def modeled_time(self) -> float:
        return self.cost.total


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

    def _prune_spec(self, gas: GeometryAS, is_shader) -> PruneSpec | None:
        """Derive sound leaf-prune bounds for this launch, or ``None``.

        The bounds come from the shader's acceptance rules, discovered
        structurally: a KNN shader exposes its queue (radius bound +
        live per-query worst distances), a range shader its radius and
        whether the sphere test is active. Every accepted point also
        passed the primitive AABB test, so ``3·half_width²`` is always
        a sound launch-constant bound regardless of shader flavor.
        The first-hit scheduling pre-pass is left unpruned — it already
        terminates each ray at its first hit, and its result must
        reflect the raw traversal order.
        """
        if not self.prune_leaves:
            return None
        hw = gas.half_width
        t2 = 3.0 * hw * hw
        bulk_t2 = None
        worst = None
        query_ids = None
        queue = getattr(is_shader, "queue", None)
        if queue is not None:
            t2 = min(t2, float(queue.r2))
            worst = queue.worst
            query_ids = is_shader.query_ids
        elif getattr(is_shader, "sphere_test", None) is True:
            r2 = float(is_shader.r2)
            t2 = min(t2, r2)
            # Bulk acceptance needs every MBR member to pass the prim
            # AABB test too: d <= r <= half_width implies L-inf <= hw.
            if hw * hw >= r2:
                bulk_t2 = r2
        elif not hasattr(is_shader, "acc"):
            return None
        # The point-MBR tree's leaf rows are exact min/max reductions
        # over the member points (not the grown node bounds minus
        # half_width, which can round), so the prune bounds are sound.
        return PruneSpec(
            leaf_lo=gas.mbr.node_lo,
            leaf_hi=gas.mbr.node_hi,
            static_t2=t2,
            bulk_t2=bulk_t2,
            worst=worst,
            query_ids=query_ids,
        )

    def launch(
        self,
        gas: GeometryAS,
        rays: RayBatch,
        is_shader,
        kind: IsKind,
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
        """
        with self.tracer.span("launch") as sp:
            cache = None
            if self.cache_sim and len(rays) > 0:
                cache = SampledCacheTracer(
                    n_rays=len(rays),
                    warp_size=self.device.warp_size,
                    max_warps=self.cache_max_warps,
                    l1_kb=self.device.l1_kb,
                    l2_kb=self.device.l2_kb,
                    l2_share=1.0 / self.device.n_sms,
                )
            hooks = ([cache] if cache is not None else []) + list(observers)
            if not hooks:
                stream = None
            elif len(hooks) == 1:
                stream = hooks[0]
            else:
                stream = _FanoutTracer(hooks)
            trace = trace_batch(
                gas.bvh,
                rays.origins,
                rays.directions,
                rays.t_min,
                rays.t_max,
                is_shader,
                warp_size=self.device.warp_size,
                tracer=stream,
                prune=self._prune_spec(gas, is_shader),
                step_budget=step_budget,
            )
            cost = self.cost_model.launch_cost(trace, kind, tracer=cache)
            l1 = cache.l1_hit_rate if cache is not None else None
            l2 = cache.l2_hit_rate if cache is not None else None
            sp.add(**trace.counters(), **cost.as_counters())
            if cache is not None:
                sp.add(**cache.counters())
            sp.note(kind=kind.value)
        return LaunchResult(trace=trace, cost=cost, l1_hit_rate=l1, l2_hit_rate=l2)
