"""Online two-party primitives: compiled AND tree levels and the
level-locked trees over them, one-sided ANDs, the one-flight select.

Every function here is SPMD: both parties run the same code on their own
shares, exchanging one flight per round through the session channel, and
the two flights of a round are always the same size.  All openings are of
uniformly masked values (AND gate inputs and one-sided AND operands under
fresh dealer masks, the select's daBit-masked bits and its y - v under
fresh dealt v); the single deliberate value opening in the whole protocol
is open_bit(), used once per query loop for the stop flag.

Arithmetic shares stay unreduced in uint64 between flights: Z_{2^64} maps
onto Z_{2^l}, so only the bits that leave (encode_values) or are read as
bits (bits_of_values, msb) need the low l bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitpack import wire_dtype
from .channel import KIND_OPEN_BIT, ChannelBase
from .correlated import PartyRandomness
from .ppa import Level
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
    meters: Meters = field(default_factory=Meters)

    def __post_init__(self):
        if self.party not in (1, 2):
            raise ValueError("party must be 1 or 2")

    @property
    def is_p1(self) -> bool:
        return self.party == 1


def open_bit(ctx: PartyContext, bit_share: int) -> int:
    """Reveal one shared bit to both parties.  The only value opening."""
    got = ctx.chan.exchange(bytes([bit_share & 1]), kind=KIND_OPEN_BIT)
    return (bit_share ^ got[0]) & 1


def exchange_rows(ctx: PartyContext, flight: np.ndarray, lanes: int) -> np.ndarray:
    """Swap a flight of packed words of rows of `lanes` lanes with the peer,
    each word sent as its low wire_dtype(lanes) bytes: row_bytes(lanes) a
    row.  Returns the peer's flight in that narrow type; numpy zero-extends
    it against uint64 rows, and the lanes left out are never read."""
    wire = wire_dtype(lanes)
    return np.frombuffer(ctx.chan.exchange(flight.astype(wire, copy=False).tobytes()), dtype=wire)


def and_one_sided(ctx: PartyContext, mine: np.ndarray, lanes: int) -> np.ndarray:
    """XOR shares of x AND y over packed rows of `lanes` lanes, where party 1
    holds x in the clear and party 2 holds y, each passing its own operand
    as mine.

    The dealer gives party 1 a mask r, party 2 a mask s, and XOR shares
    w1 ^ w2 = r & s.  Party 1 sends x ^ r and party 2 sends y ^ s, each
    uniform under its fresh mask; then x & (y ^ s) ^ w1 and (x ^ r) & s ^ w2
    XOR to x & y.  The masked rows go out through exchange_rows.
    """
    n = mine.size
    mask, w = ctx.rand.cross.take(n)
    x = mine.reshape(n)
    peer = exchange_rows(ctx, x ^ mask, lanes)
    z = (x if ctx.is_p1 else mask) & peer
    z ^= w
    return z.reshape(mine.shape)


def and_level(ctx: PartyContext, levels: list[tuple[np.ndarray, Level]], lanes: int
              ) -> list[np.ndarray]:
    """One compiled tree level (ppa.Level) for each (rows, level), rows of
    `lanes` lanes packed as (rows, words): one unit take and one flight
    (exchange_rows) for every gate of every level, then one table per
    level.  Returns each level's next rows.

    Each gate word takes one dealt unit: masks a_i and shares of their
    monomials.  A party sends e_i = x_i ^ a_i for the rows its levels open,
    each uniform under its fresh mask; after the flight every product is
    linear in the opened e and its unit shares.  Taken units are only read.
    """
    (units,) = ctx.rand.bin.take(sum(level.groups * x.shape[1] for x, level in levels))
    shares, sent = [], []
    at = 0
    for x, level in levels:
        words = x.shape[1]
        take = level.groups * words
        a = units[at:at + take].reshape(level.groups, words, -1)[level.reads[0], :, level.reads[1]]
        at += take
        shares.append(a)
        sent.append(x[level.opened] ^ a[:level.opened.size])
    flight = np.concatenate([e.ravel() for e in sent]) if len(sent) > 1 else sent[0].ravel()
    peer = exchange_rows(ctx, flight, lanes)
    out = []
    at = 0
    for (x, level), a, e in zip(levels, shares, sent):
        e ^= peer[at:at + e.size].reshape(e.shape)  # the opened e_i
        at += e.size
        out.append(level.tables[ctx.party - 1](np.concatenate((e, a, x))))
    return out


def and_trees(ctx: PartyContext, trees: list[tuple[np.ndarray, tuple[Level, ...]]], lanes: int
              ) -> list[np.ndarray]:
    """Run AND trees level-locked over packed rows of `lanes` lanes, (rows,
    words) each: at every depth the levels of every tree that still has one
    run as one and_level.  Returns each tree's first row."""
    rows = [x for x, _ in trees]
    for depth in range(max(len(levels) for _, levels in trees)):
        live = [i for i, (_, levels) in enumerate(trees) if depth < len(levels)]
        for i, nxt in zip(live, and_level(ctx, [(rows[i], trees[i][1][depth]) for i in live],
                                         lanes)):
            rows[i] = nxt
    return [x[0] for x in rows]


def not_bits(ctx: PartyContext, bits: np.ndarray) -> np.ndarray:
    """Shared-bit complement: party 1 flips, party 2 does nothing."""
    if ctx.is_p1:
        return bits ^ np.uint8(1)
    return bits.copy()


def public_share(ctx: PartyContext, value: np.generic, n: int) -> np.ndarray:
    """n shares of a public constant, of value's numpy type: party 1 holds
    the value, party 2 holds 0.  No randomness, no flight."""
    return np.full(n, value if ctx.is_p1 else 0, dtype=value.dtype)


def bit_mul(ctx: PartyContext, bits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Product of a shared bit and shared value(s), bit*y per row, in one flight.

    values is (n,) or (n, w) with bits of length n.  Each value y takes one
    select unit: a daBit r with shares of a mask v and of r*v.  With the
    opened c = bit XOR r, bit*y = c*y + (1 - 2c)*(r*y), and with the opened
    f = y - v, r*y = f*r + r*v is linear in the unit's shares.  The flight
    carries the packed c, one bit a value, and f; each c is uniform under
    its own r and each f under its own v, whatever bit and y are.  What
    follows the flight is local.
    """
    n = bits.shape[0]
    if values.shape[0] != n:
        raise ValueError("bit/value length mismatch")
    l = ctx.ring.l
    rbits, r, v, rv = (part.reshape(values.shape) for part in ctx.rand.dabits.take(values.size))
    c = np.packbits((bits if values.ndim == 1 else bits[:, None]) ^ rbits, bitorder="little")
    f = values - v
    got = ctx.chan.exchange(c.tobytes() + encode_values(f, l))
    c ^= np.frombuffer(got, dtype=np.uint8, count=c.size)
    f += decode_values(memoryview(got)[c.size:], l).reshape(f.shape)  # the opened f
    ry = f * r
    ry += rv
    # c is public: the product is r*y where c = 0 and y - r*y where c = 1
    c_bits = np.unpackbits(c, count=values.size, bitorder="little").view(bool)
    return np.where(c_bits.reshape(values.shape), values - ry, ry)


def obliv_select(ctx: PartyContext, bits: np.ndarray, when_true: np.ndarray,
                 when_false: np.ndarray) -> np.ndarray:
    """Row-wise select(bit, u, v) = v + bit*(u - v), both branches touched.

    One bit-by-value product per row; u - v may wrap around the ring, and
    adding v back unwraps it.
    """
    if when_true.shape != when_false.shape:
        raise ValueError("branch shape mismatch")
    return when_false + bit_mul(ctx, bits, when_true - when_false)
