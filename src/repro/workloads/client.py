"""Neighbor-search clients for the downstream workload pipelines.

Workloads never talk to an engine directly (enforced by
``tests/test_workloads.py``): they drive one of two interchangeable
clients, both exposing the same five-method surface —

* :class:`SessionClient` — a thin adapter over a
  :class:`~repro.api.SearchSession` (solo engine, blocking calls);
* :class:`ServiceClient` — an adapter over a **live**
  :class:`~repro.serve.service.SearchService` (solo or sharded). Each
  logical query batch is split into ``fan`` chunks submitted
  concurrently, so the service's micro-batcher genuinely fuses them
  into one engine pass.

Both clients return the engine's exact answers; workloads that consume
row *content* (not just sets/counts) must first pass results through
:func:`canonical_rows`, which re-sorts each row by neighbor index — a
total order on values, so the canonicalized rows are bit-identical
across the solo, fused-serve, and sharded paths.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading

import numpy as np

from repro.core.results import SearchResults


def canonical_rows(
    results: SearchResults, k: int, n_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Width-``k`` rows sorted ascending by neighbor index.

    Returns ``(indices, sq_distances)`` of shape ``(Q, k)`` with each
    row's valid entries first (sorted by point index, which is unique
    within a row) and ``-1``/``inf`` padding after. Because the sort
    key is the neighbor *index*, the result depends only on the
    neighbor set and its (path-independent) distances — never on
    discovery order — which is what makes downstream arithmetic
    bit-stable across serving topologies. Callers pass
    ``k >= counts.max()`` so no valid entry is dropped.
    """
    counts = results.counts
    n_q, k_in = results.indices.shape
    valid = np.arange(k_in)[None, :] < counts[:, None]
    # Invalid slots get an index key beyond every real point id, so the
    # stable argsort pushes them to the tail without reordering ties
    # (there are none: indices are unique within a row).
    keys = np.where(valid, results.indices, n_points)
    order = np.argsort(keys, axis=1, kind="stable")
    rows = np.arange(n_q)[:, None]
    s_valid = valid[rows, order]
    s_idx = np.where(s_valid, results.indices[rows, order], -1)
    s_d2 = np.where(s_valid, results.sq_distances[rows, order], np.inf)
    out_idx = np.full((n_q, k), -1, dtype=np.int64)
    out_d2 = np.full((n_q, k), np.inf, dtype=np.float64)
    w = min(k, k_in)
    out_idx[:, :w] = s_idx[:, :w]
    out_d2[:, :w] = s_d2[:, :w]
    return out_idx, out_d2


class SessionClient:
    """The solo-engine client: direct :class:`SearchSession` calls."""

    kind = "session"

    def __init__(self, session):
        self.session = session

    @property
    def points(self) -> np.ndarray:
        return self.session.points

    def count(self, queries, radius: float) -> np.ndarray:
        """Exact within-radius neighbor counts (aggregate-only path)."""
        return self.session.count_in_radius(queries, radius).counts

    def range(self, queries, radius: float, k: int) -> SearchResults:
        return self.session.range_search(queries, radius=radius, k=k)

    def knn(self, queries, k: int, radius: float) -> SearchResults:
        return self.session.knn_search(queries, k=k, radius=radius)

    def update(self, points) -> float:
        return self.session.update_points(points)


class ServiceClient:
    """A blocking workload client over a live :class:`SearchService`.

    The service's event loop runs on a dedicated background thread;
    every batch is split into ``fan`` chunks submitted concurrently and
    gathered on that loop, then reassembled in chunk order.
    """

    kind = "service"

    def __init__(self, service, loop, points, fan: int = 2):
        self._service = service
        self._loop = loop
        self._points = np.asarray(points, dtype=np.float64)
        self.fan = max(1, int(fan))

    @property
    def points(self) -> np.ndarray:
        return self._points

    def _submit_gather(self, kind, chunks, k, radius) -> list:
        async def _gather():
            tasks = [
                asyncio.ensure_future(
                    self._service.submit(kind, c, k=k, radius=radius)
                )
                for c in chunks
            ]
            return await asyncio.gather(*tasks)

        return asyncio.run_coroutine_threadsafe(_gather(), self._loop).result()

    def _fanned(self, kind, queries, k, radius) -> SearchResults:
        queries = np.asarray(queries, dtype=np.float64)
        n = len(queries)
        if n == 0:
            return SearchResults(
                indices=np.full((0, k), -1, dtype=np.int64),
                counts=np.zeros(0, dtype=np.int64),
                sq_distances=np.full((0, k), np.inf),
            )
        chunks = [c for c in np.array_split(queries, self.fan) if len(c)]
        outs = self._submit_gather(kind, chunks, k, radius)
        return SearchResults(
            indices=np.concatenate([o.indices for o in outs]),
            counts=np.concatenate([o.counts for o in outs]),
            sq_distances=np.concatenate([o.sq_distances for o in outs]),
            report=outs[0].results.report,
        )

    def count(self, queries, radius: float) -> np.ndarray:
        return self._fanned("count", queries, 1, radius).counts

    def range(self, queries, radius: float, k: int) -> SearchResults:
        return self._fanned("range", queries, k, radius)

    def knn(self, queries, k: int, radius: float) -> SearchResults:
        return self._fanned("knn", queries, k, radius)

    def update(self, points) -> float:
        """Move the served point set (no requests may be in flight)."""
        refit_s = self._service.update_points(points)
        self._points = np.asarray(points, dtype=np.float64).copy()
        return refit_s


@contextlib.contextmanager
def service_client(
    session,
    shards: int | None = None,
    fan: int = 2,
    config=None,
    workers: int | None = None,
):
    """A running :class:`ServiceClient` over ``session``'s points.

    Spins up a private event loop on a daemon thread, starts the
    service there (``shards=None`` serves the session's own engine;
    an integer builds the sharded topology), and tears both down on
    exit. The yielded client's blocking calls are safe from the caller
    thread; the loop thread only ever runs service internals.
    """
    service = session.serve(config=config, shards=shards, workers=workers)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_forever, name="workload-serve-loop", daemon=True
    )
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(service.start(), loop).result()
        try:
            yield ServiceClient(service, loop, session.points, fan=fan)
        finally:
            asyncio.run_coroutine_threadsafe(service.stop(), loop).result()
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.close()
