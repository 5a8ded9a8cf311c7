"""Two-party additive sharing of integer arrays, and the share-upload file.

A secret x in Z_{2^l} is held as <x>_1 + <x>_2 mod 2^l.  Share 1 is drawn
uniformly so either share alone is a uniform ring element.  Addition,
subtraction and public-scalar multiples are local; multiplication is the
online layer's job (see online.py).  Between flights the online phase keeps
shares unreduced in uint64 (Z_{2^64} maps onto Z_{2^l}); encode_values, and
with it every flight and file writer, keeps only the low l bits.

The share-upload file format written by the data owner:

    header  '<5sBQHBI'  magic b"SSKY1", l:u8, n:u64, m:u16, party:u8, scale:u32
    body    n*m little-endian values, ceil(l/8) bytes each, row-major
"""

from __future__ import annotations

import struct

import numpy as np

from .ring import MASKS, MAX_WIDTH, Ring

PARTIES = (1, 2)

SHARE_MAGIC = b"SSKY1"
_SHARE_HEADER = struct.Struct("<5sBQHBI")


def _check_party(party: int):
    if party not in PARTIES:
        raise ValueError(f"party must be 1 or 2, got {party}")


def uniform_values(rng: np.random.Generator, ring: Ring, shape) -> np.ndarray:
    """Uniform ring elements as uint64.

    The low l bits of full-range draws of the narrowest unsigned dtype that
    holds l bits are uniform on the ring, and cheaper to draw than a bounded
    integer.
    """
    bits = max(8, 1 << (ring.l - 1).bit_length())
    values = rng.integers(0, 1 << bits, size=shape, dtype=f"uint{bits}")
    values = values.astype(np.uint64, copy=False)
    if ring.l < bits:
        values &= MASKS[ring.l]
    return values


def share_matrix(values: np.ndarray, rng: np.random.Generator, ring: Ring) -> tuple[np.ndarray, np.ndarray]:
    """Share an integer array element-wise; returns the two parties' arrays."""
    s2 = np.array(values, dtype=np.uint64)
    s1 = uniform_values(rng, ring, s2.shape)
    s2 -= s1
    if ring.l < MAX_WIDTH:  # also reduces values given outside the ring
        s2 &= MASKS[ring.l]
    return s1, s2


# --- share-upload files ----------------------------------------------------


def value_width_bytes(l: int) -> int:
    return (l + 7) // 8


# widths with a native numpy dtype; 3-, 5-, 6- and 7-byte values go through
# 8-byte rows
_NATIVE_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}


def encode_values(arr: np.ndarray, l: int) -> bytes:
    """Little-endian fixed-width encoding of the low l bits of uint64 values.

    Shares travel unreduced between flights, and the bits of an unreduced
    share above l carry borrows of the secret: this mask is what keeps them
    from leaving.
    """
    w = value_width_bytes(l)
    arr = np.asarray(arr, dtype=np.uint64)
    native = _NATIVE_DTYPES.get(w)
    if native is not None:
        out = np.empty(arr.shape, dtype=native)
        np.bitwise_and(arr, MASKS[l], out=out)
        return out.tobytes()
    flat = np.bitwise_and(arr, MASKS[l]).astype("<u8", copy=False)
    return flat.view(np.uint8).reshape(-1, 8)[:, :w].tobytes()


def decode_values(data: bytes, l: int) -> np.ndarray:
    """Decode a little-endian value stream; the returned array is read-only
    for the full-width case (it views the input buffer)."""
    w = value_width_bytes(l)
    if len(data) % w:
        raise ValueError("value stream length is not a multiple of the value width")
    native = _NATIVE_DTYPES.get(w)
    if native is not None:
        values = np.frombuffer(data, dtype=native)
        return values if w == 8 else values.astype(np.uint64)
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, w)
    full = np.zeros((raw.shape[0], 8), dtype=np.uint8)
    full[:, :w] = raw
    return full.view("<u8").ravel()


def check_file_header(path: str, l: int, party: int):
    """Reject a share or pool file header whose ring width or party is invalid."""
    try:
        Ring(l)
        _check_party(party)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_share_file(path: str, party: int, shares: np.ndarray, l: int, scale: int = 1):
    _check_party(party)
    n, m = shares.shape
    with open(path, "wb") as f:
        f.write(_SHARE_HEADER.pack(SHARE_MAGIC, l, n, m, party, scale))
        f.write(encode_values(shares, l))


def read_share_file(path: str) -> tuple[np.ndarray, dict]:
    with open(path, "rb") as f:
        head = f.read(_SHARE_HEADER.size)
        if len(head) != _SHARE_HEADER.size:
            raise ValueError(f"{path}: truncated share file header")
        magic, l, n, m, party, scale = _SHARE_HEADER.unpack(head)
        if magic != SHARE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        check_file_header(path, l, party)
        body = f.read()
    values = decode_values(body, l)
    if values.size != n * m:
        raise ValueError(f"{path}: expected {n * m} values, found {values.size}")
    meta = {"l": l, "n": n, "m": m, "party": party, "scale": scale}
    return values.reshape(n, m), meta
