"""Brute-force oracles for the workload pipelines.

Each oracle recomputes its workload from exhaustive neighbor rows of
:func:`~repro.baselines.brute.exact_search`, which uses the *same*
float arithmetic as the engine's shaders (subtract, then reduce over
the coordinate axis — the ``_PairDistance`` contract), and the same
canonical finalization rules as the pipelines. Matches are therefore
exact:

* :func:`brute_dbscan` — labels equal bit-for-bit (not just up to
  renaming);
* :func:`brute_hausdorff` — identical squared distance and witness
  pair;
* :func:`brute_sph` — bit-identical trajectories (shares
  :func:`~repro.workloads.sph.interaction_forces`).

All oracles chunk over queries so memory stays ``O(chunk · N)``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.brute import exact_search
from repro.workloads.dbscan import DBSCANConfig, finalize_labels, _union
from repro.workloads.sph import SPHConfig, interaction_forces

_CHUNK = 256


def _within(points: np.ndarray, radius: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per point, its ``radius``-neighbors (ids ascending) and their
    squared distances, one :func:`exact_search` query chunk at a time."""
    rows = []
    for start in range(0, len(points), _CHUNK):
        res = exact_search(points, points[start : start + _CHUNK], len(points), radius)
        for idx, count, d2 in zip(res.indices, res.counts, res.sq_distances):
            order = np.argsort(idx[:count])
            rows.append((idx[order], d2[order]))
    return rows


def brute_dbscan(
    points, config: DBSCANConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Exhaustive DBSCAN with the pipeline's canonical labeling.

    Returns ``(labels, core, counts, n_clusters)``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    rows = _within(points, config.eps)
    counts = np.array([len(ids) for ids, _ in rows], dtype=np.int64)
    core = counts >= config.min_pts

    # Union order is immaterial: the smaller index always becomes root.
    parent = np.arange(n, dtype=np.int64)
    border_anchor = np.full(n, n, dtype=np.int64)
    for i in np.flatnonzero(core).tolist():
        nbrs = rows[i][0]
        for j in nbrs[core[nbrs]].tolist():
            _union(parent, i, j)
        other = nbrs[~core[nbrs]]
        if len(other):
            np.minimum.at(border_anchor, other, i)
    labels, n_clusters = finalize_labels(parent, core, border_anchor)
    return labels, core, counts, n_clusters


def brute_hausdorff(queries_a, points_b) -> tuple[float, int, int]:
    """Exhaustive directed ``h²(A, B)`` with canonical tie-breaks.

    Returns ``(sq_distance, index_a, index_b)`` — the lowest-index
    maximizer of A (first-occurrence argmax) and, for it, the
    lowest-index minimizer of B (the canonical nearest neighbor),
    matching the pipeline's strict-update and canonical-witness rules.
    """
    a = np.asarray(queries_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    if len(a) == 0:
        return 0.0, -1, -1
    nearest = exact_search(b, a, k=1)
    index_a = int(np.argmax(nearest.sq_distances[:, 0]))
    cmax2 = float(nearest.sq_distances[index_a, 0])
    return max(cmax2, 0.0), index_a, int(nearest.indices[index_a, 0])


def brute_sph(
    points, config: SPHConfig, velocities=None
) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive stepper sharing the pipeline's force function.

    Neighbor rows are rebuilt per step from full pairwise distances in
    natural (ascending) index order — exactly the canonical rows the
    pipeline feeds :func:`interaction_forces` — with the same per-step
    width ``k = counts.max()``. Returns ``(positions, velocities)``.
    """
    x = np.array(points, dtype=np.float64, copy=True)
    n = len(x)
    v = (
        np.zeros_like(x)
        if velocities is None
        else np.array(velocities, dtype=np.float64, copy=True)
    )
    dt = float(config.dt)
    for _ in range(config.n_steps):
        rows = _within(x, config.radius)
        k = max(max(len(ids) for ids, _ in rows), 1)
        cidx = np.full((n, k), -1, dtype=np.int64)
        cd2 = np.full((n, k), np.inf)
        for i, (ids, d2) in enumerate(rows):
            cidx[i, : len(ids)] = ids
            cd2[i, : len(ids)] = d2
        acc = interaction_forces(x, cidx, cd2, config.gravity, config.softening)
        v = v + dt * acc
        x = x + dt * v
    return x, v
