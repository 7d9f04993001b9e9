"""KNN queue / range accumulator tests, incl. hypothesis properties."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.queues import KnnQueueBatch, RangeAccumulator


def test_knn_keeps_smallest():
    q = KnnQueueBatch(1, k=3, radius=10.0)
    for d in [5.0, 1.0, 4.0, 2.0, 3.0]:
        q.insert(np.array([0]), np.array([int(d * 10)]), np.array([d]))
    idx, counts, d2 = q.finalize()
    assert counts[0] == 3
    assert np.allclose(d2[0], [1.0, 2.0, 3.0])
    assert idx[0].tolist() == [10, 20, 30]


def test_knn_radius_bound():
    q = KnnQueueBatch(1, k=4, radius=1.0)
    q.insert(np.array([0]), np.array([7]), np.array([1.0]))      # boundary in
    q.insert(np.array([0]), np.array([8]), np.array([1.0001]))   # out
    idx, counts, _ = q.finalize()
    assert counts[0] == 1 and idx[0, 0] == 7


def test_knn_multiple_queries_independent():
    q = KnnQueueBatch(3, k=2, radius=10.0)
    q.insert(np.array([0, 2]), np.array([1, 2]), np.array([0.5, 0.25]))
    q.insert(np.array([0, 1]), np.array([3, 4]), np.array([0.1, 0.9]))
    idx, counts, d2 = q.finalize()
    assert counts.tolist() == [2, 1, 1]
    assert idx[0].tolist() == [3, 1]


def test_knn_worst_tracking_after_full():
    q = KnnQueueBatch(1, k=2, radius=10.0)
    q.insert(np.array([0]), np.array([1]), np.array([4.0]))
    q.insert(np.array([0]), np.array([2]), np.array([9.0]))
    # now full; a better candidate displaces the 9.0
    q.insert(np.array([0]), np.array([3]), np.array([1.0]))
    idx, counts, d2 = q.finalize()
    assert idx[0].tolist() == [3, 1]
    # a worse one is rejected
    q.insert(np.array([0]), np.array([4]), np.array([8.0]))
    idx, _, _ = q.finalize()
    assert 4 not in idx[0].tolist()


def test_range_terminates_at_k():
    acc = RangeAccumulator(2, k=2)
    full = acc.insert(np.array([0]), np.array([5]), np.array([0.1]))
    assert len(full) == 0
    full = acc.insert(np.array([0]), np.array([6]), np.array([0.2]))
    assert full.tolist() == [0]
    # further inserts on a full query are ignored
    acc.insert(np.array([0]), np.array([7]), np.array([0.05]))
    assert acc.count[0] == 2 and 7 not in acc.idx[0].tolist()


def test_range_empty_insert():
    acc = RangeAccumulator(1, k=2)
    out = acc.insert(np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                     np.array([]))
    assert len(out) == 0


@settings(max_examples=60)
@given(
    k=st.integers(1, 8),
    dists=st.lists(st.floats(0.0, 2.0, allow_nan=False), min_size=1, max_size=40),
    radius=st.floats(0.1, 2.0),
)
def test_property_knn_queue_equals_sorted_topk(k, dists, radius):
    """The queue result equals sorting all offered distances and taking
    the k smallest within the radius — regardless of arrival order."""
    q = KnnQueueBatch(1, k=k, radius=radius)
    for pid, d in enumerate(dists):
        q.insert(np.array([0]), np.array([pid]), np.array([d * d]))
    _, counts, d2 = q.finalize()
    expect = sorted(d * d for d in dists if d * d <= radius * radius)[:k]
    assert counts[0] == len(expect)
    assert np.allclose(d2[0, : len(expect)], expect)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(1, 6),
    n_queries=st.integers(1, 4),
    levels=st.lists(st.integers(0, 3), min_size=1, max_size=40),
    seed=st.integers(0, 10_000),
)
def test_property_knn_rows_follow_the_total_order(k, n_queries, levels, seed):
    """With forced distance ties, every arrival order keeps the same
    row: the k smallest ``(d2, index)`` candidates, in that order."""
    rng = np.random.default_rng(seed)
    qids = rng.integers(0, n_queries, len(levels))
    pids = rng.permutation(len(levels) * 3)[: len(levels)]
    d2 = np.asarray(levels, dtype=np.float64) * 0.25
    rows = []
    for order in (np.arange(len(levels)), rng.permutation(len(levels))):
        q = KnnQueueBatch(n_queries, k=k, radius=1.0)
        # one candidate per query per insert, in this arrival order
        for i in order:
            q.insert(qids[i : i + 1], pids[i : i + 1], d2[i : i + 1])
        rows.append(q.finalize())
    for qi in range(n_queries):
        mine = np.flatnonzero((qids == qi) & (d2 <= 1.0))
        want = sorted(zip(d2[mine].tolist(), pids[mine].tolist()))[:k]
        for idx, counts, dist in rows:
            assert counts[qi] == len(want)
            got = list(zip(dist[qi, : counts[qi]].tolist(),
                           idx[qi, : counts[qi]].tolist()))
            assert got == want


def test_knn_tie_at_the_worst_slot_keeps_the_smaller_index():
    q = KnnQueueBatch(1, k=2, radius=10.0)
    for pid, d in [(9, 1.0), (4, 0.5), (7, 1.0), (3, 1.0), (8, 1.0)]:
        q.insert(np.array([0]), np.array([pid]), np.array([d]))
    idx, counts, d2 = q.finalize()
    assert idx[0].tolist() == [4, 3] and d2[0].tolist() == [0.5, 1.0]
    assert (q.worst[0], q.worst_idx[0]) == (1.0, 3)


def test_validation():
    import pytest

    with pytest.raises(ValueError):
        KnnQueueBatch(1, k=0, radius=1.0)
    with pytest.raises(ValueError):
        RangeAccumulator(1, k=0)
