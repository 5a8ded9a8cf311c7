"""Two-party additive sharing of integer arrays, and the share-upload file.

A secret x in Z_{2^l} is held as <x>_1 + <x>_2 mod 2^l.  Share 1 is drawn
uniformly so either share alone is a uniform ring element.  Addition,
subtraction and public-scalar multiples are local; multiplication is the
online layer's job (see online.py).

The share-upload file format written by the data owner:

    header  '<5sBQHBI'  magic b"SSKY1", l:u8, n:u64, m:u16, party:u8, scale:u32
    body    n*m little-endian values, ceil(l/8) bytes each, row-major
"""

from __future__ import annotations

import struct

import numpy as np

from .ring import Ring

PARTIES = (1, 2)

SHARE_MAGIC = b"SSKY1"
_SHARE_HEADER = struct.Struct("<5sBQHBI")


def _check_party(party: int):
    if party not in PARTIES:
        raise ValueError(f"party must be 1 or 2, got {party}")


def share_matrix(values: np.ndarray, rng: np.random.Generator, ring: Ring) -> tuple[np.ndarray, np.ndarray]:
    """Share an integer array element-wise; returns the two parties' arrays."""
    plain = ring.to_array(values)
    s1 = rng.integers(0, ring.modulus, size=plain.shape, dtype=np.uint64)
    s2 = ring.reduce(plain - s1)
    return s1, s2


# --- share-upload files ----------------------------------------------------


def value_width_bytes(l: int) -> int:
    return (l + 7) // 8


def encode_values(arr: np.ndarray, l: int) -> bytes:
    """Little-endian fixed-width encoding of ring values."""
    w = value_width_bytes(l)
    if w == 8:
        return np.ascontiguousarray(arr, dtype=np.uint64).tobytes()
    flat = np.ascontiguousarray(arr, dtype="<u8")
    return flat.view(np.uint8).reshape(-1, 8)[:, :w].tobytes()


def decode_values(data: bytes, l: int) -> np.ndarray:
    """Decode a little-endian value stream; the returned array is read-only
    for the full-width case (it views the input buffer)."""
    w = value_width_bytes(l)
    if len(data) % w:
        raise ValueError("value stream length is not a multiple of the value width")
    if w == 8:
        return np.frombuffer(data, dtype="<u8")
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, w)
    full = np.zeros((raw.shape[0], 8), dtype=np.uint8)
    full[:, :w] = raw
    return full.view("<u8").ravel()


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
        body = f.read()
    values = decode_values(body, l)
    if values.size != n * m:
        raise ValueError(f"{path}: expected {n * m} values, found {values.size}")
    meta = {"l": l, "n": n, "m": m, "party": party, "scale": scale}
    return values.reshape(n, m), meta
