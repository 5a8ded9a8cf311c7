"""Online two-party primitives: Beaver products, bit conversion, selection.

Every function here is SPMD: both parties run the same code on their own
shares, exchanging one flight per round through the session channel.  All
openings are of uniformly masked values (Beaver e/f, daBit-masked bits);
the single deliberate value opening in the whole protocol is open_bit(),
used once per query loop for the stop flag.

Arithmetic shares stay unreduced in uint64 between flights: Z_{2^64} maps
onto Z_{2^l}, so only the bits that leave (encode_values) or are read as
bits (bits_of_values, msb) need the low l bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitpack import pack_bits, unpack_bits, words_for
from .channel import KIND_OPEN_BIT, ChannelBase
from .correlated import PartyRandomness
from .metering import MODE_DABIT, MODE_MESSAGES
from .ring import Ring
from .sharing import decode_values, encode_values


@dataclass
class Meters:
    secext: int = 0


@dataclass
class PartyContext:
    """One party's view of a query session."""

    party: int
    ring: Ring
    chan: ChannelBase
    rand: PartyRandomness
    mode: str = MODE_DABIT
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    meters: Meters = field(default_factory=Meters)

    def __post_init__(self):
        if self.party not in (1, 2):
            raise ValueError("party must be 1 or 2")
        if self.mode not in (MODE_DABIT, MODE_MESSAGES):
            raise ValueError(f"unknown multiplication mode {self.mode!r}")

    @property
    def is_p1(self) -> bool:
        return self.party == 1


def open_bit(ctx: PartyContext, bit_share: int) -> int:
    """Reveal one shared bit to both parties.  The only value opening."""
    got = ctx.chan.exchange(bytes([bit_share & 1]), kind=KIND_OPEN_BIT)
    if len(got) != 1:
        raise ValueError("malformed bit opening")
    return (bit_share ^ got[0]) & 1


def mul_shares(ctx: PartyContext, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Beaver product of two arithmetic-shared arrays (element-wise)."""
    if x.shape != y.shape:
        raise ValueError("operand shape mismatch")
    n = x.size
    l = ctx.ring.l
    u, v, w = ctx.rand.arith.take(n)
    ef = np.empty((2, n), dtype=np.uint64)
    np.subtract(x.reshape(n), u, out=ef[0])
    np.subtract(y.reshape(n), v, out=ef[1])
    peer = decode_values(ctx.chan.exchange(encode_values(ef, l)), l)
    if peer.size != 2 * n:
        raise ValueError("beaver flight size mismatch")
    ef += peer.reshape(2, n)  # the opened e = x - u and f = y - v
    e = ef[0]
    f = ef[1]
    z = f * u
    if ctx.is_p1:  # e*v + e*f, the public term folded in at party 1
        f += v
        e *= f
    else:
        e *= v
    z += e
    z += w
    return z.reshape(x.shape)


def and_packed(ctx: PartyContext, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Beaver AND over packed bit words (64 independent lanes per word)."""
    if x.shape != y.shape:
        raise ValueError("operand shape mismatch")
    n = x.size
    u, v, w = ctx.rand.bin.take(n)
    ef = np.empty((2, n), dtype=np.uint64)
    np.bitwise_xor(x.reshape(n), u, out=ef[0])
    np.bitwise_xor(y.reshape(n), v, out=ef[1])
    peer = np.frombuffer(ctx.chan.exchange(ef.tobytes()), dtype="<u8")
    if peer.size != 2 * n:
        raise ValueError("beaver flight size mismatch")
    ef ^= peer.reshape(2, n)  # the opened e = x ^ u and f = y ^ v
    e = ef[0]
    f = ef[1]
    z = f & u
    if ctx.is_p1:  # e&v ^ e&f, the public term folded in at party 1
        f ^= v
        e &= f
    else:
        e &= v
    z ^= e
    z ^= w
    return z.reshape(x.shape)


def and_jobs(ctx: PartyContext, jobs: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """AND several independent uint8 bit-array pairs in a single flight.

    Each job is packed to whole words on its own, so triple-word consumption
    is a per-job quantity the budget model can mirror.
    """
    xs, ys, sizes = [], [], []
    for x, y in jobs:
        if x.shape != y.shape:
            raise ValueError("job shape mismatch")
        sizes.append(x.size)
        xs.append(pack_bits(x.ravel()))
        ys.append(pack_bits(y.ravel()))
    z = and_packed(ctx, np.concatenate(xs), np.concatenate(ys))
    out = []
    at = 0
    for (x, _), nbits in zip(jobs, sizes):
        nw = words_for(nbits)
        out.append(unpack_bits(z[at:at + nw], nbits).reshape(x.shape))
        at += nw
    return out


def not_bits(ctx: PartyContext, bits: np.ndarray) -> np.ndarray:
    """Shared-bit complement: party 1 flips, party 2 does nothing."""
    if ctx.is_p1:
        return bits ^ np.uint8(1)
    return bits.copy()


def public_bit_share(ctx: PartyContext, bit: int, n: int) -> np.ndarray:
    return np.full(n, bit if ctx.is_p1 else 0, dtype=np.uint8)


def bits_to_arith(ctx: PartyContext, bits: np.ndarray) -> np.ndarray:
    """Convert XOR-shared bits to arithmetic shares of the same 0/1 values.

    One daBit per bit: open c = x XOR r (uniform), then locally
    x = c + r - 2*c*r with the public c folded in at party 1.
    """
    n = bits.size
    rbits, rvals = ctx.rand.dabits.take(n)
    c = np.packbits(bits.reshape(n) ^ rbits, bitorder="little")
    got = ctx.chan.exchange(c.tobytes())
    if len(got) != c.size:
        raise ValueError("daBit flight size mismatch")
    c ^= np.frombuffer(got, dtype=np.uint8)
    # all ones where c = 1: (r ^ ones) - ones = -r, so r - 2*c*r = (r ^ neg) - neg
    neg = np.negative(np.unpackbits(c, count=n, bitorder="little"), dtype=np.int64)
    neg = neg.view(np.uint64)
    out = rvals ^ neg
    out -= neg
    if ctx.is_p1:
        out -= neg  # + c
    return out.reshape(bits.shape)


def _broadcast_scale(scale: np.ndarray, values: np.ndarray) -> np.ndarray:
    if values.ndim == 2:
        out = np.empty(values.shape, dtype=scale.dtype)
        out[...] = scale[:, None]
        return out
    return scale


def bit_mul_messages(ctx: PartyContext, bits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Message-pair realization of shared-bit-times-shared-value.

    Each party masks both candidate products of its own value share and
    sends the pair; the receiver keeps the one selected by its bit share.
    Single crossing flight.  The discarded message reveals the sender's
    value share up to sign, so this mode is for fidelity experiments only
    (see bit_mul).
    """
    r = ctx.ring
    b = _broadcast_scale(bits.astype(np.uint64), values)
    rnd = ctx.rng.integers(0, r.modulus, size=values.shape, dtype=np.uint64)
    m0 = b * values - rnd
    m1 = (np.uint64(1) - b) * values - rnd
    payload = encode_values(m0, r.l) + encode_values(m1, r.l)
    got = ctx.chan.exchange(payload)
    peer = decode_values(got, r.l)
    half = values.size
    if peer.size != 2 * half:
        raise ValueError("message-pair flight size mismatch")
    pm0 = peer[:half].reshape(values.shape)
    pm1 = peer[half:].reshape(values.shape)
    picked = np.where(b.astype(bool), pm1, pm0)
    return rnd + picked


def bit_mul(ctx: PartyContext, bits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Product of a shared bit and shared value(s): x*y per row.

    values is (n,) or (n, w) with bits of length n.  Default realization
    converts the bit to the arithmetic domain via a daBit and finishes with
    one Beaver product; the message-pair mode is kept behind the session
    flag for protocol-shape comparisons.
    """
    if bits.shape[0] != values.shape[0]:
        raise ValueError("bit/value length mismatch")
    if ctx.mode == MODE_MESSAGES:
        return bit_mul_messages(ctx, bits, values)
    xa = bits_to_arith(ctx, bits)
    return mul_shares(ctx, _broadcast_scale(xa, values), values)


def obliv_select(ctx: PartyContext, bits: np.ndarray, when_true: np.ndarray,
                 when_false: np.ndarray) -> np.ndarray:
    """Row-wise select(bit, u, v) = v + bit*(u - v), both branches touched.

    One bit-by-value product per row; u - v may wrap around the ring, and
    adding v back unwraps it.
    """
    if when_true.shape != when_false.shape:
        raise ValueError("branch shape mismatch")
    return when_false + bit_mul(ctx, bits, when_true - when_false)
