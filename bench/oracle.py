"""Checks answers against the brute-force oracle.

Run after the timed loop on the first answer to each distinct request;
every later answer to a request was already checked against the first
one, with the same comparison, as it arrived (:func:`reference`). So
every answer meets the oracle, directly or through the first:

* knn: counts equal :func:`brute_force_knn`'s, and the sorted squared
  distances agree within 1e-12 relative. Both sides' distances are
  taken in the IS shader's subtract-then-reduce arithmetic: the
  oracle's GEMM expansion ``|q|^2 + |p|^2 - 2 q.p`` loses digits to
  cancellation far from the origin, so it picks the neighbors but does
  not supply the distances that are compared;
* range: counts equal ``min(k, oracle in-radius count)``, indices in a
  row are distinct, every one lies within ``r``, and each returned
  squared distance matches the recomputed one;
* true_knn: indices, counts and squared distances bit-identical to
  :func:`brute_force_true_knn`.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.brute import (
    brute_force_knn,
    brute_force_range,
    brute_force_true_knn,
)

#: queries per oracle call, keeps the (Q, N) distance matrix ~60 MB
CHUNK = 128

RTOL = 1e-12


def _chunked(fn, points, queries, **kw):
    parts = [fn(points, queries[s:s + CHUNK], **kw)
             for s in range(0, len(queries), CHUNK)]
    return (
        np.concatenate([p.indices for p in parts]),
        np.concatenate([p.counts for p in parts]),
        np.concatenate([p.sq_distances for p in parts]),
    )


def _shader_d2(points, queries, idx) -> np.ndarray:
    """Subtract-then-reduce squared distances of ``idx`` (-1 -> inf)."""
    valid = idx >= 0
    diff = queries[:, None, :] - points[np.where(valid, idx, 0)]
    d2 = np.einsum("qkd,qkd->qk", diff, diff)
    return np.where(valid, d2, np.inf)


def expected(req):
    """The oracle answer for one request."""
    if req.kind == "knn":
        idx, counts, _ = _chunked(brute_force_knn, req.points, req.queries,
                                  k=req.k, radius=req.radius)
        d2 = np.sort(_shader_d2(req.points, req.queries, idx), axis=1)
        return counts, d2
    if req.kind == "range":
        _, counts, _ = _chunked(brute_force_range, req.points, req.queries,
                                radius=req.radius, k=req.k)
        return counts
    res = brute_force_true_knn(req.points, req.queries, k=req.k)
    return res.indices, res.counts, res.sq_distances


def reference(req, res):
    """What :func:`mismatch` compares with, taken from an earlier answer.

    A later answer to the same request must agree with the first one
    in everything the oracle checks, so the first answer stands in for
    the oracle until the oracle has checked it.
    """
    if req.kind == "knn":
        return res.counts, np.sort(res.sq_distances, axis=1)
    if req.kind == "range":
        return res.counts
    return res.indices, res.counts, res.sq_distances


def mismatch(req, want, res) -> str | None:
    """Why ``res`` is not a correct answer to ``req``, or ``None``."""
    if res.indices.shape != (len(req.queries), req.k):
        return f"result shape {res.indices.shape}"
    if req.kind == "knn":
        counts, d2 = want
        if not np.array_equal(res.counts, counts):
            return "knn counts differ from the oracle"
        got = np.sort(res.sq_distances, axis=1)
        if not np.array_equal(np.isinf(got), np.isinf(d2)):
            return "knn padding differs from the oracle"
        fin = np.isfinite(d2)
        if not np.allclose(got[fin], d2[fin], rtol=RTOL, atol=0.0):
            return "knn distances differ from the oracle"
        return None
    if req.kind == "range":
        if not np.array_equal(res.counts, want):
            return "range counts differ from min(k, oracle count)"
        valid = np.arange(req.k)[None, :] < res.counts[:, None]
        if (res.indices[valid] < 0).any() or (res.indices[~valid] >= 0).any():
            return "range padding is misplaced"
        rows = np.sort(np.where(valid, res.indices, -1), axis=1)
        if ((rows[:, 1:] == rows[:, :-1]) & (rows[:, 1:] >= 0)).any():
            return "range row repeats an index"
        d2 = _shader_d2(req.points, req.queries, res.indices)
        if (d2[valid] > req.radius * req.radius).any():
            return "range returned a point beyond r"
        if not np.allclose(res.sq_distances[valid], d2[valid], rtol=RTOL,
                           atol=0.0):
            return "range distances differ from the points'"
        return None
    idx, counts, d2 = want
    if not (np.array_equal(res.indices, idx)
            and np.array_equal(res.counts, counts)
            and np.array_equal(res.sq_distances, d2)):
        return "true_knn differs from the oracle"
    return None


def check(run) -> dict[int, str]:
    """Request key -> reason, for every kept first answer that is wrong."""
    bad = {}
    for key, res in sorted(run.answers.items()):
        req = run.requests[key]
        why = mismatch(req, expected(req), res)
        if why is not None:
            bad[key] = why
    return bad
