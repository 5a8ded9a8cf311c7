"""Packed bit vectors: batches of secret bits stored 64 lanes per uint64 word.

The carry circuit and the flag logic run over large batches of independent
bit operations; packing the batch dimension turns each logical AND/XOR level
into a handful of word ops.  Convention: lane i of a vector lives at bit
(i % 64) of word (i // 64), LSB first, matching numpy's little bitorder.
Tail bits past the logical length are kept at zero.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64


def words_for(nbits: int) -> int:
    return (nbits + WORD_BITS - 1) // WORD_BITS


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
