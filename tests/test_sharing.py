import struct

import numpy as np
import pytest

from conftest import reconstruct, session_pair

from skyshare.online import not_bits
from skyshare.ring import Ring
from skyshare.sharing import (
    decode_values,
    encode_values,
    read_share_file,
    share_matrix,
    write_share_file,
)

R8 = Ring(8)
R64 = Ring(64)


class ScriptedRng:
    """Deterministic stand-in handing out fixed draws, one array per call."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, low, high=None, size=None, dtype=None):
        return np.full(size, self.values.pop(0), dtype=np.uint64)


def test_share_round_trip_exhaustive_small():
    rng = np.random.default_rng(0)
    values = np.arange(256)
    s1, s2 = share_matrix(values, rng, R8)
    assert (reconstruct(R8, s1, s2) == values).all()


def test_share_round_trip_wide():
    rng = np.random.default_rng(1)
    values = rng.integers(0, 2**64, size=100, dtype=np.uint64)
    s1, s2 = share_matrix(values, rng, R64)
    assert (reconstruct(R64, s1, s2) == values).all()


def test_share_drawn_value_example():
    # share 1 drawn as 200 forces share 2 = 5 - 200 mod 256 = 61
    s1, s2 = share_matrix([5], ScriptedRng([200]), R8)
    assert (s1.tolist(), s2.tolist()) == ([200], [61])


def test_share_of_zero_gives_additive_inverses():
    rng = np.random.default_rng(2)
    s1, s2 = share_matrix(np.zeros(50, dtype=np.uint64), rng, R8)
    assert ((s1 + s2) % 256 == 0).all()


def test_share_marginal_is_uniform_at_l4():
    # over the dealer's randomness, share 1 takes every ring value once
    r4 = Ring(4)
    for secret in (0, 7, 15):
        seen = [int(share_matrix([secret], ScriptedRng([d]), r4)[0][0]) for d in range(16)]
        assert sorted(seen) == list(range(16))


def test_local_linear_ops():
    rng = np.random.default_rng(4)
    x1, x2 = share_matrix([7], rng, R8)
    z1, z2 = share_matrix([0], rng, R8)
    assert reconstruct(R8, R8.reduce(x1 + z1), R8.reduce(x2 + z2)).tolist() == [7]
    assert reconstruct(R8, R8.reduce(3 * x1), R8.reduce(3 * x2)).tolist() == [21]
    assert reconstruct(R8, R8.reduce(x1 - x1), R8.reduce(x2 - x2)).tolist() == [0]
    # a public constant is added by party 1 only
    assert reconstruct(R8, R8.reduce(x1 + np.uint64(5)), x2).tolist() == [12]


def test_linearity_randomized():
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, 256, size=(2, 100), dtype=np.uint64)
    x, y = rng.integers(0, 256, size=(2, 100), dtype=np.uint64)
    x1, x2 = share_matrix(x, rng, R8)
    y1, y2 = share_matrix(y, rng, R8)
    lhs1 = R8.reduce(a * x1 + b * y1)
    lhs2 = R8.reduce(a * x2 + b * y2)
    assert (reconstruct(R8, lhs1, lhs2) == (a * x + b * y) % 256).all()


def test_not_bits_flips_party_one_only():
    ctx1, ctx2 = session_pair(l=8, seed=6)
    bits = np.array([0, 1, 0, 1], dtype=np.uint8)
    b1 = np.array([0, 0, 1, 1], dtype=np.uint8)
    b2 = bits ^ b1
    assert ((b1 ^ b2) == bits).all()
    n1, n2 = not_bits(ctx1, b1), not_bits(ctx2, b2)
    assert (n1 == b1 ^ 1).all() and (n2 == b2).all()
    assert ((n1 ^ n2) == bits ^ 1).all()
    assert ((not_bits(ctx1, n1) ^ not_bits(ctx2, n2)) == bits).all()


def test_matrix_share_round_trip():
    rng = np.random.default_rng(7)
    data = rng.integers(0, 1000, size=(20, 3))
    s1, s2 = share_matrix(data, rng, R64)
    assert (reconstruct(R64, s1, s2) == data).all()


def test_value_codec_widths():
    for l in range(2, 65):
        ring = Ring(l)
        rng = np.random.default_rng(l)
        arr = ring.reduce(rng.integers(0, 2**64, size=17, dtype=np.uint64))
        arr[:2] = (0, ring.mask)
        blob = encode_values(arr, l)
        assert len(blob) == 17 * ((l + 7) // 8), l
        back = decode_values(blob, l)
        assert back.dtype == np.uint64 and (back == arr).all(), l
    with pytest.raises(ValueError):
        decode_values(b"\x00\x01\x02", 16)


def test_share_file_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    shares = rng.integers(0, 2**64, size=(5, 3), dtype=np.uint64)
    path = str(tmp_path / "p1.shares")
    write_share_file(path, 1, shares, 64, scale=10)
    back, meta = read_share_file(path)
    assert (back == shares).all()
    assert meta == {"l": 64, "n": 5, "m": 3, "party": 1, "scale": 10}


def test_share_file_rejects_garbage(tmp_path):
    path = str(tmp_path / "bad.shares")
    with open(path, "wb") as f:
        f.write(b"NOTSKY" + b"\x00" * 30)
    with pytest.raises(ValueError):
        read_share_file(path)
    with open(path, "wb") as f:
        f.write(b"SSKY1")
    with pytest.raises(ValueError):
        read_share_file(path)


def _share_header(l, n=1, m=1, party=1):
    return struct.pack("<5sBQHBI", b"SSKY1", l, n, m, party, 1)


@pytest.mark.parametrize("l", [0, 1, 65, 255])
def test_share_file_rejects_bad_width(tmp_path, l):
    path = tmp_path / "bad.shares"
    path.write_bytes(_share_header(l) + b"\x00" * 8)
    with pytest.raises(ValueError, match="ring width"):
        read_share_file(str(path))


def test_share_file_rejects_bad_party_and_trailing_byte(tmp_path):
    path = tmp_path / "bad.shares"
    path.write_bytes(_share_header(16, party=3) + b"\x00" * 2)
    with pytest.raises(ValueError, match="party"):
        read_share_file(str(path))
    path.write_bytes(_share_header(16) + b"\x00" * 3)
    with pytest.raises(ValueError):
        read_share_file(str(path))
