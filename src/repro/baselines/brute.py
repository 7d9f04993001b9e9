"""Exact brute-force neighbor search — the correctness oracles.

O(N·Q) chunked pairwise distances; no hardware modeling. Two kernels:

* :func:`exact_search` computes distances with the IS shader's own
  arithmetic (subtract, then reduce over the coordinate axis), so its
  rows are bit-identical to the engine's canonical rows. The true-kNN
  oracle, the degraded serving paths and the workload oracles all use
  it; :func:`exact_count` tallies the same distances for ``count``.
* :func:`brute_force_range` / :func:`brute_force_knn` use the GEMM
  expansion of :func:`pairwise_sq_distances` — an independent
  reference whose distances differ from the shader's in the last bits
  (and lose precision far from the origin).
"""

from __future__ import annotations

import numpy as np

from repro.core.results import SearchResults, empty_results
from repro.geometry.sphere import pairwise_sq_distances
from repro.utils.validate import as_points, check_positive, check_positive_int

#: queries per chunk, keeps the distance matrix ~tens of MB
_CHUNK = 2048

#: queries per chunk for :func:`exact_search`, whose (Q, N, 3) diff
#: tensor is 3x the distance matrix
_EXACT_CHUNK = 256


def brute_force_range(points, queries, radius: float, k: int) -> SearchResults:
    """All neighbors within ``radius`` (at most ``k``, nearest kept).

    Keeping the *nearest* k (rather than arbitrary k) makes the result
    deterministic and a superset-safe reference for bounded range
    search: any correct bounded implementation must return k neighbors
    all within radius whenever the oracle finds >= k.
    """
    points = as_points(points, "points")
    queries = as_points(queries, "queries")
    radius = check_positive(radius, "radius")
    k = check_positive_int(k, "k")
    return _brute(points, queries, radius, k)


def brute_force_knn(points, queries, k: int, radius: float) -> SearchResults:
    """The exact ``k`` nearest neighbors within ``radius``."""
    points = as_points(points, "points")
    queries = as_points(queries, "queries")
    radius = check_positive(radius, "radius")
    k = check_positive_int(k, "k")
    return _brute(points, queries, radius, k)


def brute_force_true_knn(points, queries, k: int) -> SearchResults:
    """The exact ``k`` nearest neighbors with **no** radius bound.

    Oracle for the engine's ``true_knn`` adaptive-expansion search:
    :func:`exact_search` without a radius. A cloud with fewer than
    ``k`` points yields ``counts < k`` with the usual ``-1`` / ``inf``
    padding.
    """
    return exact_search(points, queries, k)


def _shader_sq_dists(points: np.ndarray, queries: np.ndarray):
    """``(start, d2)`` per query chunk: the IS shader's arithmetic
    (subtract, then reduce over the coordinate axis)."""
    n_q = len(queries)
    for s in range(0, n_q, _EXACT_CHUNK):
        diff = queries[s : s + _EXACT_CHUNK, None, :] - points[None, :, :]
        yield s, np.einsum("qnd,qnd->qn", diff, diff)


def exact_search(points, queries, k: int, radius: float | None = None) -> SearchResults:
    """The nearest ``<= k`` neighbors within ``radius``, shader arithmetic.

    Distances are computed subtract-then-reduce (``(q - p)**2`` summed
    per pair), matching the IS shader bit for bit, and each row is
    stably sorted by distance, which leaves it in canonical
    ``(sq_distance, index)`` order. ``radius=None`` is unbounded (the
    true-kNN oracle). Rows are ``-1`` / ``inf`` padded past ``counts``.
    """
    points = as_points(points, "points")
    queries = as_points(queries, "queries")
    k = check_positive_int(k, "k")
    if radius is not None:
        radius = check_positive(radius, "radius")
        r2 = radius * radius
    indices, counts, sq_d = empty_results(len(queries), k)
    take = min(k, len(points))
    for s, d2 in _shader_sq_dists(points, queries):
        if radius is not None:
            d2 = np.where(d2 <= r2, d2, np.inf)
        order = np.argsort(d2, axis=1, kind="stable")[:, :take]
        best = d2[np.arange(len(d2))[:, None], order]
        valid = np.isfinite(best)
        indices[s : s + _EXACT_CHUNK, :take] = np.where(valid, order, -1)
        sq_d[s : s + _EXACT_CHUNK, :take] = best
        counts[s : s + _EXACT_CHUNK] = valid.sum(axis=1)
    return SearchResults(indices=indices, counts=counts, sq_distances=sq_d, report=None)


def exact_count(points, queries, radius: float) -> SearchResults:
    """Exact within-``radius`` counts, shader arithmetic.

    The oracle and the fallback of ``count`` requests: the
    :func:`exact_search` distances, tallied instead of materialized.
    Rows are zero-width, as :meth:`RTNNEngine.count_in_radius` returns.
    """
    points = as_points(points, "points")
    queries = as_points(queries, "queries")
    radius = check_positive(radius, "radius")
    r2 = radius * radius
    indices, counts, sq_d = empty_results(len(queries), 0)
    for s, d2 in _shader_sq_dists(points, queries):
        counts[s : s + _EXACT_CHUNK] = (d2 <= r2).sum(axis=1)
    return SearchResults(indices=indices, counts=counts, sq_distances=sq_d, report=None)


def _brute(points, queries, radius, k) -> SearchResults:
    n_q = len(queries)
    indices, counts, sq_d = empty_results(n_q, k)
    r2 = radius * radius
    for s in range(0, n_q, _CHUNK):
        block = queries[s : s + _CHUNK]
        d2 = pairwise_sq_distances(block, points)
        d2_masked = np.where(d2 <= r2, d2, np.inf)
        take = min(k, d2.shape[1])
        part = np.argpartition(d2_masked, take - 1, axis=1)[:, :take]
        rows = np.arange(len(block))[:, None]
        pd2 = d2_masked[rows, part]
        order = np.argsort(pd2, axis=1, kind="stable")
        part = part[rows, order]
        pd2 = pd2[rows, order]
        valid = np.isfinite(pd2)
        indices[s : s + _CHUNK, :take] = np.where(valid, part, -1)
        sq_d[s : s + _CHUNK, :take] = pd2
        counts[s : s + _CHUNK] = valid.sum(axis=1)
    return SearchResults(indices=indices, counts=counts, sq_distances=sq_d, report=None)
