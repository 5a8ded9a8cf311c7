"""Carry circuit plan for shared-MSB extraction: one flight of leaf blocks,
then a log-depth combine tree.

To compare two shared values we need only the carry into the top bit of
d1 + d2, where d_i is party i's share of the difference: party 1 holds the
bits a_i of d1, party 2 the bits b_i of d2, over positions 0..l-2.

Leaf blocks.  The L = l-1 positions are cut into consecutive blocks of at
most 3, the largest lowest.  A block's generate G and propagate P (ripple
carry over g_i = a_i b_i, p_i = a_i XOR b_i) are polynomials over GF(2) in
the block's a and b bits.  Each is an XOR of a-only monomials (party 1
evaluates them on its own bits), b-only monomials (party 2 likewise) and
cross terms a^S b^T, whose coefficients form the cross matrix M[S, T].
For G and P, M is a partial permutation matrix: each a-monomial meets at
most one b-monomial and each b-monomial at most one a-monomial.  So
rank(M) is its number of terms, M factors as the sum of those terms'
outer products, and each cross term is one product of a monomial party 1
holds and one party 2 holds: one one-sided AND (online.and_one_sided).
G needs 1, 3 and 7 products at widths 1, 2 and 3, P needs 0, 2 and 6,
and the lowest block needs no P.  Every block's products go out in one
flight.

Combine tree.  The segments are then reduced pairwise, adjacent segments
paired left to right per level, odd tail carried:

    (g, p) of [lo..hi] = (g_hi XOR (p_hi AND g_lo), p_hi AND p_lo)

with one Beaver AND flight per level.  The lowest segment never needs its
P, so a level of `pairs` combines issues 2*pairs - 1 AND rows, and the
root combine only G.

Block count: the fewest blocks give the shallowest tree; among the counts
that keep that depth, the plan takes the one that sends the fewest bits
per lane (one per one-sided AND, two per Beaver AND).  total_and_rows
counts both kinds of AND per compared lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

MAX_BLOCK = 3


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("ceil_log2 needs n >= 1")
    return (n - 1).bit_length()


def pair_levels(count: int) -> tuple[int, ...]:
    """Pairs per level when count entries are halved pairwise, odd tail carried."""
    pairs = []
    while count > 1:
        pairs.append(count // 2)
        count = count // 2 + count % 2
    return tuple(pairs)


# --- one leaf block ----------------------------------------------------------
#
# A polynomial is a set of monomials (S, T): S and T are bit masks over the
# block's positions, S of party 1's bits a, T of party 2's bits b.  XOR of
# polynomials is symmetric difference.


def _mul(f: set, g: set) -> set:
    out: set = set()
    for s1, t1 in f:
        for s2, t2 in g:
            out ^= {(s1 | s2, t1 | t2)}
    return out


def _ripple(width: int) -> tuple[set, set]:
    """Generate and propagate of a block of `width` positions."""
    g: set = set()
    p = {(0, 0)}
    for i in range(width):
        bit = 1 << i
        pi = {(bit, 0), (0, bit)}
        g = {(bit, bit)} ^ _mul(pi, g)
        p = _mul(pi, p)
    return g, p


class Output(NamedTuple):
    """One block output as pairs of monomial masks (party 1's S, party 2's T).

    Party 1's share is the XOR of its a^S over the local pairs and of its
    shares of the cross products a^S * b^T, one one-sided AND each; party
    2's likewise with b^T.
    """

    local: tuple
    cross: tuple


def _output(poly: set) -> Output:
    cross = tuple(sorted((s, t) for s, t in poly if s and t))
    if len({s for s, _ in cross}) < len(cross) or len({t for _, t in cross}) < len(cross):
        raise ValueError("cross matrix is not a partial permutation")
    mine = sorted(s for s, t in poly if not t)
    theirs = sorted(t for s, t in poly if not s)
    if (0, 0) in poly or len(mine) != len(theirs) or not poly:
        raise ValueError("block output needs local parts of equal size and no constant")
    return Output(tuple(zip(mine, theirs)), cross)


_BLOCKS: dict[int, tuple[Output, Output]] = {}


def block_outputs(width: int) -> tuple[Output, Output]:
    """G and P of a block of `width` positions, factored; cached per width."""
    outs = _BLOCKS.get(width)
    if outs is None:
        outs = _BLOCKS[width] = tuple(_output(poly) for poly in _ripple(width))
    return outs


def _outputs(blocks: tuple[int, ...]) -> list[tuple[int, Output]]:
    """(block, output) in flight order: every block's G, then the P of every
    block above the lowest."""
    return ([(j, block_outputs(w)[0]) for j, w in enumerate(blocks)]
            + [(j, block_outputs(w)[1]) for j, w in enumerate(blocks) if j])


# --- the whole comparison ----------------------------------------------------


def _split(leaves: int, count: int) -> tuple[int, ...]:
    """leaves cut into count blocks as even as possible, larger ones lowest."""
    q, r = divmod(leaves, count)
    return (q + 1,) * r + (q,) * (count - r)


def _cross_rows(blocks: tuple[int, ...]) -> int:
    return sum(len(out.cross) for _, out in _outputs(blocks))


def _combine_rows(segments: int) -> int:
    return sum(2 * pairs - 1 for pairs in pair_levels(segments))


def _choose_blocks(leaves: int) -> tuple[int, ...]:
    fewest = -(-leaves // MAX_BLOCK)
    counts = range(fewest, min(leaves, 1 << ceil_log2(fewest)) + 1)
    return min((_split(leaves, count) for count in counts),
               key=lambda blocks: _cross_rows(blocks) + 2 * _combine_rows(len(blocks)))


@dataclass(frozen=True)
class LeafTables:
    """The leaf flight as flat tables: a few gathers evaluate every block.

    Row r holds one monomial per party: the AND of bit-lane rows
    factors[party - 1][:, r] (a monomial of fewer positions repeats one).
    Rows run output by output in _outputs order, each output's first row at
    starts; sent marks the cross rows, whose products are the one-sided ANDs.
    """

    factors: tuple      # per party: (widest block, rows) bit-lane rows
    sent: np.ndarray    # (rows,) bool
    starts: np.ndarray  # (2 * blocks - 1,)


def _leaf_tables(blocks: tuple[int, ...]) -> LeafTables:
    span = max(blocks)
    first = np.cumsum((0,) + blocks[:-1])
    outputs = _outputs(blocks)
    factors, sent, starts = [], [], []
    for j, out in outputs:
        starts.append(len(sent))
        for row in out.local + out.cross:
            lanes = [[first[j] + i for i in range(span) if mask >> i & 1] for mask in row]
            factors.append([(rows * span)[:span] for rows in lanes])
        sent += [False] * len(out.local) + [True] * len(out.cross)
    table = np.array(factors, dtype=np.intp).transpose(1, 2, 0)  # (party, span, rows)
    return LeafTables((table[0], table[1]), np.array(sent), np.array(starts))


@dataclass(frozen=True)
class CarryPlan:
    width: int
    # leaf block widths, lowest positions first
    blocks: tuple = field(init=False)
    leaf: LeafTables = field(init=False, repr=False)
    # number of adjacent-segment combines at each reduction level
    level_pairs: tuple = field(init=False)

    def __post_init__(self):
        if self.width < 2:
            raise ValueError("carry plan needs width >= 2")
        blocks = _choose_blocks(self.width - 1)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "leaf", _leaf_tables(blocks))
        object.__setattr__(self, "level_pairs", pair_levels(len(blocks)))

    @property
    def combine_levels(self) -> int:
        return len(self.level_pairs)

    @property
    def and_rounds(self) -> int:
        # one one-sided AND flight for the leaf blocks plus one per combine level
        return 1 + self.combine_levels

    @property
    def cross_rows(self) -> int:
        """One-sided ANDs per compared lane: cross words per 64 lanes."""
        return _cross_rows(self.blocks)

    @property
    def combine_rows(self) -> int:
        """Beaver ANDs per compared lane: AND-triple words per 64 lanes."""
        return _combine_rows(len(self.blocks))

    @property
    def total_and_rows(self) -> int:
        """AND rows per compared lane, the leaf blocks' one-sided ANDs included."""
        return self.cross_rows + self.combine_rows


_PLANS: dict[int, CarryPlan] = {}


def carry_plan(width: int) -> CarryPlan:
    plan = _PLANS.get(width)
    if plan is None:
        plan = _PLANS[width] = CarryPlan(width)
    return plan
