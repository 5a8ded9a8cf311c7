"""Comparison and oblivious-minimum gadgets built on the online primitives.

less_than computes XOR shares of msb(a - b) for a batch of shared pairs.
Each party bit-decomposes its local share of d = a - b; the two bit columns
feed the log-depth carry circuit as binary sharings (party 1 holds the
first addend's bits, party 2 the second's).  The output bit equals
(a < b) under the signed reading whenever a, b and a - b stay inside
(-2^(l-1), 2^(l-1)), which the protocol layer guarantees via its
domain-bound checks; the raw msb identity holds on the full ring.
"""

from __future__ import annotations

import numpy as np

from .bitpack import bits_of_values, unpack_bits
from .online import PartyContext, and_packed, not_bits, obliv_select, public_bit_share
from .ppa import carry_plan, pair_levels


def less_than(ctx: PartyContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """XOR shares of msb(a-b) per element; one batched carry circuit."""
    if a.shape != b.shape:
        raise ValueError("comparison operand shape mismatch")
    l = ctx.ring.l
    n = a.size
    lanes = bits_of_values((a - b).ravel(), l)  # (l, words); reads the low l bits only
    mine = lanes[:l - 1]
    zeros = np.zeros_like(mine)
    # (G, P) of every segment, stacked so each level slices both at once
    gp = np.empty((2,) + mine.shape, dtype=np.uint64)
    # adder inputs: a-bits live at party 1, b-bits at party 2
    gp[0] = and_packed(ctx, mine, zeros) if ctx.is_p1 else and_packed(ctx, zeros, mine)
    gp[1] = mine  # share of a_i XOR b_i is each party's own bit column

    plan = carry_plan(l)
    for pairs in plan.level_pairs[:-1]:
        lo = gp[:, 0:2 * pairs:2]
        hi = gp[:, 1:2 * pairs:2]
        hi_p = hi[1:]
        # one flight: hi_p AND lo_g, hi_p AND lo_p
        z = and_packed(ctx, np.concatenate((hi_p, hi_p)), lo)
        z[0] ^= hi[0]
        gp = np.concatenate((z, gp[:, 2 * pairs:]), axis=1)
    if plan.combine_levels:  # the root combine (always one pair) needs only G
        carry = gp[0, 1] ^ and_packed(ctx, gp[1, 1], gp[0, 0])
    else:
        carry = gp[0, 0]

    out = lanes[l - 1] ^ carry
    ctx.meters.secext += n
    return unpack_bits(out, n).reshape(a.shape)


def min_with_payload(ctx: PartyContext, keys: np.ndarray, payloads: list[np.ndarray]
                     ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Tournament minimum over shared keys, carrying payload rows along.

    Swap strictly on right < left at every level, so among equal keys the
    lowest index survives - the same winner a sequential first-minimum scan
    would keep.  ceil(log2(n)) comparison levels, each one batched flight.

    Also returns XOR shares of the (n, levels) path bits: bit j of row i is
    1 iff row i's entry at level j (entry i >> j) won or sat out that
    level's match, so a row's path bits AND to 1 at the winner only.  At
    n = 1 there is no match and the one column is a public 1.
    """
    n = keys.shape[0]
    if n < 1:
        raise ValueError("minimum of an empty vector")
    widths = [p.shape[1] for p in payloads]
    for p in payloads:
        if p.shape[0] != n:
            raise ValueError("payload row count mismatch")
    rows = np.hstack([keys[:, None]] + payloads) if payloads else keys[:, None]
    levels = pair_levels(n)
    one = public_bit_share(ctx, 1, 1)
    path = np.full((n, max(1, len(levels))), one[0], dtype=np.uint8)
    for j, pairs in enumerate(levels):
        left = rows[0:2 * pairs:2]
        right = rows[1:2 * pairs:2]
        phi = less_than(ctx, right[:, 0], left[:, 0])
        winners = obliv_select(ctx, phi, right, left)
        won = np.empty(rows.shape[0], dtype=np.uint8)
        won[0:2 * pairs:2] = not_bits(ctx, phi)  # phi: the right entry won
        won[1:2 * pairs:2] = phi
        won[2 * pairs:] = one  # an odd tail is carried
        path[:, j] = won.repeat(1 << j)[:n]
        rows = np.concatenate([winners, rows[2 * pairs:]])
    best = rows[0]
    out, at = [], 1
    for w in widths:
        out.append(best[at:at + w])
        at += w
    return best[0:1], out, path
