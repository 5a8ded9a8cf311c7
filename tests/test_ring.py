import numpy as np
import pytest

from conftest import msb_array

from skyshare.ring import Ring, default_vmax

R8 = Ring(8)
R64 = Ring(64)


def _signed(ring, values):
    """Two's-complement encoding of signed ints as ring elements."""
    return ring.reduce(np.asarray(values, dtype=np.int64).astype(np.uint64))


def test_wrap_add_identity():
    x = np.array([0, 1, 200, 255], dtype=np.uint64)
    assert (R8.reduce(np.uint64(0) + x) == x).all()


def test_wrap_add_examples():
    a = np.array([200, 255], dtype=np.uint64)
    b = np.array([100, 1], dtype=np.uint64)
    assert R8.reduce(a + b).tolist() == [44, 0]  # 300 mod 256, 256 mod 256


def test_sub_and_neg_consistency():
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, 256, size=(2, 200), dtype=np.uint64)
    assert (R8.reduce(a + R8.reduce(-b)) == R8.reduce(a - b)).all()
    assert not R8.reduce(a - a).any()


def test_msb_examples():
    assert msb_array(R8, np.array([0, 128], dtype=np.uint64)).tolist() == [0, 1]
    assert msb_array(R8, R8.reduce(_signed(R8, [3]) - _signed(R8, [5]))).tolist() == [1]
    assert _signed(R8, [-2]).tolist() == [254]


def test_msb_matches_signed_comparison_exhaustively():
    # for all in-window signed pairs, msb(enc(u)-enc(v)) == (u < v)
    u, v = np.meshgrid(np.arange(-64, 64), np.arange(-64, 64), indexing="ij")
    u, v = u.ravel(), v.ravel()
    inside = np.abs(u - v) < 128
    u, v = u[inside], v[inside]
    d = R8.reduce(_signed(R8, u) - _signed(R8, v))
    assert (msb_array(R8, d) == (u < v)).all()


def test_mul_distributes_over_add():
    rng = np.random.default_rng(1)
    a, b, c = rng.integers(0, 2**64, size=(3, 300), dtype=np.uint64)
    lhs = R64.reduce(a * R64.reduce(b + c))
    rhs = R64.reduce(R64.reduce(a * b) + R64.reduce(a * c))
    assert (lhs == rhs).all()


def test_array_reduce_and_msb():
    arr = np.array([0, 127, 128, 255, 300], dtype=np.uint64)
    assert list(R8.reduce(arr)) == [0, 127, 128, 255, 44]
    assert list(msb_array(R8, R8.reduce(arr))) == [0, 0, 1, 1, 0]


def test_width_bounds_and_vmax():
    with pytest.raises(ValueError):
        Ring(1)
    with pytest.raises(ValueError):
        Ring(65)
    assert default_vmax(64) == (1 << 63) - 1
    assert default_vmax(8) == 127
    assert default_vmax(2) == 1
