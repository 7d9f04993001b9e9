"""The asyncio serving tier end to end: coalescing with bit-identical
results, admission control, deadlines, cancellation, retry/backoff,
and graceful degradation to the exact brute baseline.

No async test plugin is assumed: each test drives its scenario with
``asyncio.run`` over a small engine, using the deterministic
:class:`FaultInjector` to provoke the resilience paths on demand.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import SearchSession
from repro.core.engine import RTNNEngine
from repro.obs.tracer import RecordingTracer
from repro.serve import (
    AdmissionError,
    DeadlineExpired,
    Fault,
    FaultInjector,
    SearchService,
    ServeError,
    ServiceConfig,
    ServiceStopped,
)
from repro.utils.rng import default_rng


K, RADIUS = 4, 0.2


@pytest.fixture(scope="module")
def world():
    rng = default_rng(42)
    points = rng.random((500, 3))
    queries = [points[rng.integers(0, 500, 8)] + rng.normal(0, 0.02, (8, 3))
               for _ in range(6)]
    return points, queries


def _service(points, *, faults=None, tracer=None, **cfg_kw):
    cfg_kw.setdefault("batch_window_s", 0.02)
    cfg_kw.setdefault("backoff_base_s", 0.001)
    engine = RTNNEngine(points, tracer=tracer) if tracer else RTNNEngine(points)
    return SearchService(engine, config=ServiceConfig(**cfg_kw), faults=faults)


# ----------------------------------------------------------------------
# coalescing + bit-identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["knn", "range"])
def test_concurrent_submits_coalesce_and_stay_bit_identical(world, kind):
    points, queries = world

    async def scenario():
        async with _service(points) as service:
            return await asyncio.gather(
                *(service.submit(kind, q, k=K, radius=RADIUS) for q in queries[:4])
            )

    served = asyncio.run(scenario())
    assert [r.batch_occupancy for r in served] == [4, 4, 4, 4]
    assert not any(r.degraded for r in served)
    for q, res in zip(queries, served):
        solo = RTNNEngine(points)
        direct = (
            solo.knn_search(q, k=K, radius=RADIUS)
            if kind == "knn"
            else solo.range_search(q, radius=RADIUS, k=K)
        )
        assert np.array_equal(res.indices, direct.indices)
        assert np.array_equal(res.counts, direct.counts)
        assert np.array_equal(res.sq_distances, direct.sq_distances)


def test_session_serve_surface_and_report_extras(world):
    points, queries = world
    tracer = RecordingTracer()
    session = SearchSession(points, tracer=tracer)
    service = session.serve()
    assert isinstance(service, SearchService)
    assert service.engine is session.engine

    async def scenario():
        async with service:
            await asyncio.gather(
                *(service.submit("knn", q, k=K, radius=RADIUS) for q in queries[:3])
            )

    asyncio.run(scenario())
    report = service.report(scenario={"n_points": len(points)})
    svc = report.extras["service"]
    assert svc["requests"]["completed"] == 3
    assert svc["requests"]["rejected"] == 0
    assert svc["batches"]["occupancy_max"] == 3
    assert svc["latency_s"]["p50"] is not None
    assert svc["latency_s"]["p99"] >= svc["latency_s"]["p50"]
    # the serve spans landed on the session tracer
    names = [s.name for s in tracer.spans]
    assert any(n.startswith("serve.batch[") for n in names)


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
def test_admission_reject_carries_retry_hint(world):
    points, queries = world

    async def scenario():
        service = _service(points, max_queue_depth=1, batch_window_s=0.2)
        async with service:
            first = asyncio.ensure_future(
                service.submit("knn", queries[0], k=K, radius=RADIUS)
            )
            await asyncio.sleep(0)            # let it enqueue
            with pytest.raises(AdmissionError) as ei:
                await service.submit("knn", queries[1], k=K, radius=RADIUS)
            assert ei.value.retry_after_s > 0.0
            assert service.metrics.rejected == 1
            res = await first
        return res

    res = asyncio.run(scenario())
    assert res.batch_occupancy == 1 and not res.degraded


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
def test_deadline_expired_while_queued(world):
    points, queries = world

    async def scenario():
        faults = FaultInjector(stall_s=0.08)   # wedge the worker pre-dequeue
        service = _service(points, faults=faults, batch_window_s=0.0)
        async with service:
            with pytest.raises(DeadlineExpired, match="deadline at dequeue"):
                await service.submit(
                    "knn", queries[0], k=K, radius=RADIUS, deadline_s=0.02
                )
            assert service.metrics.expired == 1
            assert service.metrics.failed == 1
            # the engine never saw the request
            assert faults.launches == 0

    asyncio.run(scenario())


def test_zero_query_request_is_served(world):
    points, _ = world

    async def scenario():
        async with _service(points, batch_window_s=0.0) as service:
            return await service.submit(
                "knn", np.empty((0, 3)), k=K, radius=RADIUS
            )

    res = asyncio.run(scenario())
    assert res.results.n_queries == 0
    assert res.indices.shape == (0, K)
    assert not res.degraded


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------
def test_cancel_then_resubmit_same_queries(world):
    points, queries = world

    async def scenario():
        service = _service(points, batch_window_s=0.1)
        async with service:
            task = asyncio.ensure_future(
                service.submit("knn", queries[0], k=K, radius=RADIUS)
            )
            await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert service.metrics.cancelled == 1
            # a duplicate submit after the cancel must serve normally
            res = await service.submit("knn", queries[0], k=K, radius=RADIUS)
        return service, res

    service, res = asyncio.run(scenario())
    assert not res.degraded
    assert service.metrics.completed == 1     # only the resubmission


# ----------------------------------------------------------------------
# retry + degradation
# ----------------------------------------------------------------------
def test_transient_fault_is_retried_to_success(world):
    points, queries = world

    async def scenario():
        faults = FaultInjector(script=[Fault.fail()])   # first launch only
        async with _service(points, faults=faults, max_attempts=3) as service:
            res = await service.submit("knn", queries[0], k=K, radius=RADIUS)
        return service, faults, res

    service, faults, res = asyncio.run(scenario())
    assert res.attempts == 2 and not res.degraded
    assert service.metrics.retries == 1
    assert faults.injected_errors == 1 and faults.launches == 2


def test_retry_exhaustion_degrades_to_exact_brute_fallback(world):
    # Far from the origin the GEMM expansion |q|^2 - 2 q.p + |p|^2
    # cancels catastrophically; the degraded path must still match the
    # healthy engine bit for bit.
    for offset in (0.0, 1e5):
        points = world[0] + offset
        queries = [q + offset for q in world[1][:2]]

        async def scenario():
            faults = FaultInjector(error_rate=1.0, seed=7)
            service = _service(
                points,
                faults=faults,
                max_attempts=2,
                degrade_after=1,
                degrade_cooldown_s=5.0,
            )
            async with service:
                res = await service.submit("knn", queries[0], k=K, radius=RADIUS)
                launches_after_first = faults.launches
                assert service.degraded_mode      # cooldown tripped
                # during the cooldown the engine is skipped entirely
                res2 = await service.submit("knn", queries[1], k=K, radius=RADIUS)
            return service, faults, res, res2, launches_after_first

        service, faults, res, res2, launches = asyncio.run(scenario())
        assert res.degraded and res.attempts == 2
        assert res2.degraded
        assert faults.launches == launches == 2   # no launch during cooldown
        assert service.metrics.fallback_batches == 2
        # degraded answers are the healthy engine's canonical rows
        healthy = RTNNEngine(points)
        for q, r in zip(queries, [res, res2]):
            ref = healthy.knn_search(q, k=K, radius=RADIUS).canonical()
            assert np.array_equal(r.indices, ref.indices), offset
            assert np.array_equal(r.counts, ref.counts), offset
            assert np.array_equal(r.sq_distances, ref.sq_distances), offset


def test_fault_pattern_deterministic_under_fixed_seed(world):
    points, queries = world

    def run_once():
        async def scenario():
            faults = FaultInjector(error_rate=0.5, seed=321)
            service = _service(
                points,
                faults=faults,
                max_attempts=1,
                degrade_after=10_000,         # never trip the cooldown
                batch_window_s=0.0,
            )
            flags = []
            async with service:
                for q in queries:
                    res = await service.submit("knn", q, k=K, radius=RADIUS)
                    flags.append(res.degraded)
            return flags

        return asyncio.run(scenario())

    a, b = run_once(), run_once()
    assert a == b
    assert True in a and False in a


def test_internal_error_fails_batch_but_worker_survives(world):
    points, queries = world

    async def scenario():
        faults = FaultInjector(error_rate=1.0, seed=0)
        service = _service(
            points,
            faults=faults,
            max_attempts=1,
            degrade_after=10_000,
            batch_window_s=0.0,
        )
        real_fallback = service._fallback
        service._fallback = lambda batch: (_ for _ in ()).throw(ValueError("bug"))
        async with service:
            with pytest.raises(ServeError, match="internal service error"):
                await service.submit("knn", queries[0], k=K, radius=RADIUS)
            # the worker is still alive: repair the fallback and serve
            service._fallback = real_fallback
            res = await service.submit("knn", queries[1], k=K, radius=RADIUS)
        return res

    res = asyncio.run(scenario())
    assert res.degraded                       # engine still failing, brute answers


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_stop_without_drain_fails_pending_and_blocks_submits(world):
    points, queries = world

    async def scenario():
        service = _service(points, batch_window_s=0.5)
        await service.start()
        task = asyncio.ensure_future(
            service.submit("knn", queries[0], k=K, radius=RADIUS)
        )
        await asyncio.sleep(0)
        await service.stop(drain=False)
        with pytest.raises(ServiceStopped):
            await task
        with pytest.raises(ServiceStopped):
            await service.submit("knn", queries[1], k=K, radius=RADIUS)

    asyncio.run(scenario())


def test_stop_with_drain_serves_everything_queued(world):
    points, queries = world

    async def scenario():
        service = _service(points, batch_window_s=0.5)
        await service.start()
        tasks = [
            asyncio.ensure_future(service.submit("knn", q, k=K, radius=RADIUS))
            for q in queries[:3]
        ]
        await asyncio.sleep(0)
        await service.stop(drain=True)        # skips the window, serves all
        return await asyncio.gather(*tasks)

    served = asyncio.run(scenario())
    assert len(served) == 3
    assert not any(r.degraded for r in served)


def test_submit_validates_inputs(world):
    points, queries = world

    async def scenario():
        async with _service(points) as service:
            with pytest.raises(ValueError, match="kind"):
                await service.submit("ball", queries[0], k=K, radius=RADIUS)
            with pytest.raises(ValueError, match="radius"):
                await service.submit("knn", queries[0], k=K, radius=-1.0)
            with pytest.raises(ValueError, match="k must"):
                await service.submit("knn", queries[0], k=0, radius=RADIUS)

    asyncio.run(scenario())
