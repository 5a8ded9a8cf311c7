"""Packed bit vectors: batches of secret bits stored 64 lanes per uint64 word.

The carry circuit and the flag logic run over large batches of independent
bit operations; packing the batch dimension turns each logical AND/XOR level
into a handful of word ops.  Convention: lane i of a vector lives at bit
(i % 64) of word (i // 64), LSB first, matching numpy's little bitorder.
Tail bits past the logical length are kept at zero.  A flight of rows of
up to 64 lanes goes out as each word's low wire_dtype(lanes) bytes.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64
_NARROW = tuple(np.dtype(t) for t in ("u1", "<u2", "<u4"))
_WORD = np.dtype("<u8")


def words_for(nbits: int) -> int:
    return (nbits + WORD_BITS - 1) // WORD_BITS


def wire_dtype(lanes: int) -> np.dtype:
    """The narrowest unsigned type holding a row's lanes: 1, 2 or 4 bytes for
    up to 8, 16 or 32 lanes, a whole word otherwise.  Every gate works lane
    by lane, so a flight need not send the lanes past a row's own."""
    for dtype in _NARROW:
        if lanes <= 8 * dtype.itemsize:
            return dtype
    return _WORD


def row_bytes(lanes: int) -> int:
    """Bytes a packed row of `lanes` lanes takes on the wire."""
    return wire_dtype(lanes).itemsize * words_for(lanes)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a uint8 0/1 array (last axis = lanes) into uint64 words."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    nbits = bits.shape[-1]
    packed = np.packbits(bits, axis=-1, bitorder="little")
    nbytes = words_for(nbits) * 8
    if packed.shape[-1] < nbytes:
        pad = np.zeros(bits.shape[:-1] + (nbytes - packed.shape[-1],), dtype=np.uint8)
        packed = np.concatenate([packed, pad], axis=-1)
    return packed.view("<u8").reshape(bits.shape[:-1] + (words_for(nbits),))

def unpack_bits(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of pack_bits; returns uint8 0/1 with last axis = nbits."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)
    flat = np.unpackbits(
        as_bytes.reshape(words.shape[:-1] + (-1,)), axis=-1, bitorder="little"
    )
    return flat[..., :nbits]


def bits_of_values(values: np.ndarray, positions: int) -> np.ndarray:
    """Bit-decompose uint64 values; rows = bit positions 0..positions-1,
    packed over the batch axis.  Returns shape (positions, words).  Only
    the ceil(positions/8) low bytes of each value are unpacked."""
    n = values.shape[0]
    nbytes = (positions + 7) // 8
    as_bytes = np.ascontiguousarray(values, dtype="<u8").view(np.uint8).reshape(n, 8)
    bits = np.unpackbits(as_bytes[:, :nbytes], axis=1, bitorder="little")  # LSB first
    return pack_bits(np.ascontiguousarray(bits[:, :positions].T))
