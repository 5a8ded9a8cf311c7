"""Comparison and oblivious-minimum gadgets built on the online primitives.

less_than computes XOR shares of msb(a - b) for a batch of shared pairs.
Each party bit-decomposes its local share of d = a - b, so party 1 holds
the bits of one addend of d1 + d2 and party 2 those of the other, and the
carry into the top bit is a comparison between two private bit strings
(ppa's plan).  The leaf blocks take one flight of one-sided ANDs: each
party ANDs its bit lanes into its monomial of each one-sided row, and one
table of its plan.leaf maps its lanes and the flight's results to its
shares of every block's G and P.  The combine tree takes one flight of
multi-input AND gates per level, groups of up to 4 segments each.  The
output bit equals (a < b) under the signed reading whenever a, b and
a - b stay inside (-2^(l-1), 2^(l-1)), which the protocol layer
guarantees via its domain-bound checks; the raw msb identity holds on the
full ring.
"""

from __future__ import annotations

import numpy as np

from .bitpack import bits_of_values, unpack_bits
from .online import (
    PartyContext,
    and_one_sided,
    and_trees,
    not_bits,
    obliv_select,
    public_share,
)
from .ppa import carry_plan, pair_levels, path_columns


def less_than(ctx: PartyContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """XOR shares of msb(a-b) per element; one batched carry circuit."""
    if a.shape != b.shape:
        raise ValueError("comparison operand shape mismatch")
    l = ctx.ring.l
    n = a.size
    lanes = bits_of_values((a - b).ravel(), l)  # (l, words); reads the low l bits only
    plan = carry_plan(l)
    cross, out = plan.leaf[ctx.party - 1]
    # rows: each segment's G, then the P of each segment above the lowest
    gp = out(np.concatenate((lanes, and_one_sided(ctx, cross.ands(lanes), n))))
    (carry,) = and_trees(ctx, [(gp, plan.levels)], n)
    msb = lanes[l - 1] ^ carry
    ctx.meters.secext += n
    return unpack_bits(msb, n).reshape(a.shape)


def min_with_payload(ctx: PartyContext, keys: np.ndarray, payloads: list[np.ndarray]
                     ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Tournament minimum over shared keys, carrying payload rows along.

    Swap strictly on right < left at every level, so among equal keys the
    lowest index survives - the same winner a sequential first-minimum scan
    would keep.  ceil(log2(n)) comparison levels, each one batched flight.

    Also returns XOR shares of the path bits, one row per level,
    (path_columns(n), n): bit i of row j is 1 iff key i's entry at level j
    (entry i >> j) won or sat out that level's match, so key i's bits over
    all levels AND to 1 at the winner only.  At n = 1 there is no match and
    the one row is a public 1.
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
    one = public_share(ctx, np.uint8(1), 1)
    path = np.full((path_columns(n), n), one[0], dtype=np.uint8)
    for j, pairs in enumerate(levels):
        left = rows[0:2 * pairs:2]
        right = rows[1:2 * pairs:2]
        phi = less_than(ctx, right[:, 0], left[:, 0])
        winners = obliv_select(ctx, phi, right, left)
        won = np.empty(rows.shape[0], dtype=np.uint8)
        won[0:2 * pairs:2] = not_bits(ctx, phi)  # phi: the right entry won
        won[1:2 * pairs:2] = phi
        won[2 * pairs:] = one  # an odd tail is carried
        path[j] = won.repeat(1 << j)[:n]
        rows = np.concatenate([winners, rows[2 * pairs:]])
    best = rows[0]
    out, at = [], 1
    for w in widths:
        out.append(best[at:at + w])
        at += w
    return best[0:1], out, path
