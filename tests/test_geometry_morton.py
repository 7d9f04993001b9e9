"""Morton code tests, including hypothesis round-trip properties."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import hypothesis.extra.numpy as hnp

from repro.geometry.morton import (
    MORTON_BITS_3D,
    _compact1by2,
    _part1by2,
    morton_decode_3d,
    morton_encode_2d,
    morton_encode_3d,
    morton_order,
    normalize_to_grid,
)

coords = st.integers(0, 2**21 - 1)


@given(st.lists(coords, min_size=1, max_size=64))
def test_part_compact_roundtrip(values):
    x = np.asarray(values, dtype=np.uint64)
    assert (_compact1by2(_part1by2(x)) == x).all()


@given(
    x=coords, y=coords, z=coords,
)
def test_encode_decode_roundtrip_quantized(x, y, z):
    """decode(encode(q)) recovers the quantized integer coordinates."""
    # Build a point whose quantization is exactly (x, y, z) by passing
    # explicit unit-grid bounds.
    q = np.array([[x, y, z]], dtype=np.float64)
    code = morton_encode_3d(q, lo=np.zeros(3), hi=np.full(3, 2**MORTON_BITS_3D - 1))
    out = morton_decode_3d(code)
    assert (out == np.array([[x, y, z]], dtype=np.uint64)).all()


def test_encode_monotone_along_axis():
    """Increasing a single coordinate never decreases the code's bits for it."""
    pts = np.stack(
        [np.linspace(0, 1, 64), np.zeros(64), np.zeros(64)], axis=1
    )
    codes = morton_encode_3d(pts, lo=np.zeros(3), hi=np.ones(3))
    assert (np.diff(codes.astype(np.int64)) >= 0).all()


def test_morton_order_groups_neighbors():
    """Points in the same octant sort adjacently before crossing octants."""
    rng = np.random.default_rng(0)
    a = rng.random((50, 3)) * 0.4            # low octant
    b = rng.random((50, 3)) * 0.4 + 0.6      # high octant
    pts = np.concatenate([a, b])
    order = morton_order(pts)
    labels = (order >= 50).astype(int)
    # one transition between the two groups
    assert (np.diff(labels) != 0).sum() == 1


def test_morton_order_is_permutation(rng=np.random.default_rng(3)):
    pts = rng.random((200, 3))
    order = morton_order(pts)
    assert sorted(order.tolist()) == list(range(200))


def test_morton_2d_shapes():
    pts = np.random.default_rng(0).random((10, 2))
    codes = morton_encode_2d(pts)
    assert codes.shape == (10,) and codes.dtype == np.uint64


def test_morton_rejects_wrong_dim():
    with pytest.raises(ValueError):
        morton_encode_3d(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        morton_encode_2d(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        morton_order(np.zeros((4, 4)))


def test_normalize_degenerate_axis():
    pts = np.array([[0.5, 1.0, 2.0], [0.5, 2.0, 4.0]])
    q = normalize_to_grid(pts, 8)
    assert (q[:, 0] == 0).all()  # zero-extent axis maps to 0


def test_normalize_subnormal_extent_is_degenerate():
    # (2**21 - 1) / 5e-324 overflows: the axis must quantize like a
    # zero-extent one, without NaN casts or overflow warnings.
    pts = np.array([[0.0, 0.0, 0.0], [5e-324, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = normalize_to_grid(pts, MORTON_BITS_3D)
        codes = morton_encode_3d(pts)
    assert (q <= 2**MORTON_BITS_3D - 1).all()
    assert (q == 0).all()
    assert (codes == 0).all()


@settings(max_examples=50)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 40), st.just(3)),
        elements=st.floats(-50, 50, allow_nan=False),
    )
)
def test_property_order_consistent(pts):
    """morton_order is a stable permutation consistent with the codes:
    the codes along the returned order are non-decreasing, and applying
    the order twice is idempotent up to code ties."""
    order = morton_order(pts)
    assert sorted(order.tolist()) == list(range(len(pts)))
    codes = morton_encode_3d(pts)
    assert (np.diff(codes[order].astype(np.int64)) >= 0).all()
