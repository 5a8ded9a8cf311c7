"""Carry circuit plan for shared-MSB extraction: one flight of leaf blocks,
then a radix-4 combine tree of multi-input AND gates.

To compare two shared values we need only the carry into the top bit of
d1 + d2, where d_i is party i's share of the difference: party 1 holds the
bits a_i of d1, party 2 the bits b_i of d2, over positions 0..l-2.

Leaf blocks.  The L = l-1 positions are cut into consecutive blocks of at
most 3, the largest lowest.  Over a block's positions K, ripple carry over
g_i = a_i b_i and p_i = a_i XOR b_i has the closed form

    G = XOR_i a_i b_i prod_{k>i} (a_k ^ b_k),    P = prod_k (a_k ^ b_k),

an XOR of terms a^S b^T: G's are a^(S+i) b^(K_i-S+i) over S within
K_i = {i+1, ..., w-1}, P's are a^S b^(K-S) over S within K.  P's two ends
a^K and b^K are local, each party's own bits.  Every other term is a cross
term whose S and T meet in {i} (G) or not at all (P), so no a^S and no b^T
repeats, and each is one product of a monomial party 1 holds and one party
2 holds: one one-sided AND (online.and_one_sided).  G needs 1, 3 and 7
products at widths 1, 2 and 3, P needs 0, 2 and 6, and the lowest block
needs no P.  Every block's products go out in one flight; CarryPlan.leaf
holds each party's monomial of every one-sided AND row and one table from
its l bit lanes and the flight's results to its G and P shares.

Combine tree.  Each level cuts the segments, lowest first, into groups of
at most 4 and combines each group in one gate; for segments 3..0 of a group

    G = G3 ^ P3 G2 ^ P3 P2 G1 ^ P3 P2 P1 G0,    P = P3 P2 P1 P0

(a group of j < 4 segments uses segments 3..4-j).  The lowest group never
needs its P, and a group of one is carried.  Every gate is a multi-input
AND: it opens each input once, so a group of j segments sends 2(j-1) bits
per lane, and one more for its P.  The gates are sub-families of one dealt
unit, the 4-segment prefix family: masks for its 7 inputs and XOR shares
of the 22 monomials of degree >= 2 its products need (UNIT_WORDS words per
64 lanes).  A 2-, 3- or 4-input AND reads the unit the same way, so every
gate word takes exactly one unit.

Plan choice: the fewest levels first, then the fewest bits sent per lane
(one per one-sided AND, one per opened gate input), then the fewest gates.
That picks both the block count and each level's grouping; the filter's
flag trees are AND trees grouped the same way (and_tree).  Each level is
compiled once into a Level: the rows it opens, the unit words it reads and
one table per party from those to the next rows.  online.and_level runs a
level in one flight, and tree_cost reads a tree's levels, bits sent and
gate units off its compiled levels.  Every flight, the leaf's and each
level's, thus ends in one table per party.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import or_
from typing import NamedTuple

import numpy as np

MAX_BLOCK = 3
RADIX = 4  # the widest gate: segments per combine, inputs per AND


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


# --- XOR-of-ANDs tables ------------------------------------------------------


class Table(NamedTuple):
    """Outputs that are each the XOR of ANDs of source rows.

    Column r of factors lists the source rows product r ANDs (a product of
    fewer rows repeats one); starts holds the first product of each output,
    and every output has one.  Evaluation is an AND step, then an XOR per
    output.
    """

    factors: np.ndarray
    starts: np.ndarray

    def ands(self, src: np.ndarray) -> np.ndarray:
        return np.bitwise_and.reduce(src[self.factors], axis=0)

    def __call__(self, src: np.ndarray) -> np.ndarray:
        return np.bitwise_xor.reduceat(self.ands(src), self.starts, axis=0)


def xor_of_ands(outputs: list[list[list[int]]]) -> Table:
    """The table of outputs given as lists of products, a product as a list
    of source rows."""
    if not all(outputs):
        raise ValueError("every output of a table needs a product")
    products = [product for out in outputs for product in out]
    span = max(map(len, products))
    factors = np.array([(product * span)[:span] for product in products], dtype=np.intp)
    return Table(factors.T, np.cumsum([0] + [len(out) for out in outputs[:-1]], dtype=np.intp))


# --- one leaf block ----------------------------------------------------------
#
# A term is a pair of bit masks (S, T) over the block's positions, S of
# party 1's bits a, T of party 2's bits b.  G's term for position i and S
# within K_i is (S | i, K_i - S | i), P's for S within K is (S, K - S): each
# cross term's S & T is {i} or empty, so each is one one-sided AND.


class Output(NamedTuple):
    """One block output as pairs of monomial masks (party 1's S, party 2's T).

    Party 1's share is the XOR of its a^S over the local pairs and of its
    shares of the cross products a^S * b^T, one one-sided AND each; party
    2's likewise with b^T.
    """

    local: tuple
    cross: tuple


@cache
def block_outputs(width: int) -> tuple[Output, Output]:
    """G and P of a block of `width` positions, factored."""
    full = (1 << width) - 1
    # position i = log2(bit): S within K_i runs over the multiples of 2 * bit,
    # and K_i - S + i is K less S and the positions below i
    g = sorted((s | bit, full ^ (bit - 1) ^ s)
               for bit in (1 << i for i in range(width)) for s in range(0, full + 1, 2 * bit))
    return Output((), tuple(g)), Output(((full, full),), tuple((s, full ^ s) for s in range(1, full)))


def _outputs(blocks: tuple[int, ...]) -> list[tuple[int, Output]]:
    """(block, output) in flight order: every block's G, then the P of every
    block above the lowest."""
    return ([(j, block_outputs(w)[0]) for j, w in enumerate(blocks)]
            + [(j, block_outputs(w)[1]) for j, w in enumerate(blocks) if j])


# --- the gate family ---------------------------------------------------------
#
# A family input is a bit index: P3, P2, P1, P0 are inputs 0..3 and G2, G1,
# G0 inputs 4..6.  A product term is a bit mask over the inputs.


def _p(segment: int) -> int:
    return 1 << (3 - segment)


def _g(segment: int) -> int:
    return 1 << (6 - segment)


def _prefix(segments: range) -> int:
    """The product of the P's of the given segments, as a term."""
    term = 0
    for t in segments:
        term |= _p(t)
    return term


def _submasks(mask: int):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _monomials(terms) -> list[int]:
    """The mask products of degree >= 2 that products of the terms need."""
    return sorted({sub for term in terms for sub in _submasks(term) if sub.bit_count() >= 2})


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class Gate(NamedTuple):
    """One multi-input AND gate: its outputs are XORs of product terms over
    the family inputs.  It opens `inputs` and reads their masks and the
    `monomials` of the unit."""

    outputs: tuple  # per output, its product terms
    inputs: tuple  # family inputs opened, in flight order
    monomials: tuple  # mask products of degree >= 2 read, as terms


def _gate(outputs: tuple) -> Gate:
    terms = [term for out in outputs for term in out]
    return Gate(outputs, tuple(_bits(reduce(or_, terms))), tuple(_monomials(terms)))


@cache
def and_gate(arity: int) -> Gate:
    """x_1 AND ... AND x_arity, the inputs read as P3, P2, ... in turn."""
    if not 2 <= arity <= RADIX:
        raise ValueError(f"an AND gate takes 2..{RADIX} inputs")
    return _gate(((_prefix(range(4 - arity, 4)),),))


@cache
def combine_gate(segments: int, with_p: bool) -> Gate:
    """The combine of `segments` adjacent segments, read as segments 3, 2,
    ... from the top: G less its local top term G3, then P if with_p."""
    if not 2 <= segments <= RADIX:
        raise ValueError(f"a combine takes 2..{RADIX} segments")
    low = RADIX - segments
    g = tuple(_prefix(range(s + 1, 4)) | _g(s) for s in range(2, low - 1, -1))
    return _gate((g, (_prefix(range(low, 4)),)) if with_p else (g,))


# the dealt unit is the widest gate's: P3 G2, P3 P2 G1, P3 P2 P1 G0 and
# P3 P2 P1 P0 open all 7 inputs, and every other gate's terms are among its
# terms' submasks
FAMILY_INPUTS = len(combine_gate(RADIX, True).inputs)
MONOMIALS = combine_gate(RADIX, True).monomials
UNIT_WORDS = FAMILY_INPUTS + len(MONOMIALS)  # per lane word: the masks, then the monomials


def unit_column(term: int) -> int:
    """The unit column holding the mask product of `term`: an input's mask
    for one input, else its monomial."""
    if term.bit_count() == 1:
        return term.bit_length() - 1
    return FAMILY_INPUTS + MONOMIALS.index(term)


# --- tree levels -------------------------------------------------------------


def _level_sizes(count: int, groups: int) -> tuple[int, ...]:
    """count rows cut into `groups` groups of at most RADIX, lowest first,
    with as many groups of one (carried, at the top) as that allows."""
    singles = min(groups - 1, (RADIX * groups - count) // (RADIX - 1))
    q, r = divmod(count - singles, groups - singles)
    return (q + 1,) * r + (q,) * (groups - singles - r) + (1,) * singles


def _gates(sizes: tuple[int, ...], combine: bool) -> dict[int, Gate]:
    """The gate of each group of more than one row, by group: the lowest
    combine needs no P."""
    return {c: combine_gate(j, c > 0) if combine else and_gate(j)
            for c, j in enumerate(sizes) if j > 1}


@cache
def _best_tree(count: int, combine: bool) -> tuple[tuple[int, int, int], tuple]:
    """((levels, bits sent per lane, gates per lane), group sizes per level)
    of the tree reducing `count` rows to one: the fewest levels, then the
    fewest bits, then the fewest gates."""
    if count < 1:
        raise ValueError("a tree needs at least one row")
    if count == 1:
        return (0, 0, 0), ()
    best = None
    for groups in range(-(-count // RADIX), count):
        sizes = _level_sizes(count, groups)
        gates = _gates(sizes, combine).values()
        (depth, bits, units), rest = _best_tree(groups, combine)
        key = (depth + 1, bits + sum(len(gate.inputs) for gate in gates), units + len(gates))
        if best is None or key < best[0]:
            best = (key, (sizes,) + rest)
    return best


class Level(NamedTuple):
    """One compiled tree level.  Each of its `groups` gates takes a unit per
    packed word; it opens the current rows `opened`, group by group, and
    reads column reads[1][r] of group reads[0][r]'s unit for each r, the
    opened rows' masks first.  tables[party - 1] maps the stacked [opened
    e; unit reads; current rows] to the next rows: gate products, a
    combine's top G XORed in, carried rows."""

    groups: int
    opened: np.ndarray
    reads: np.ndarray
    tables: tuple


def _level(sizes: tuple[int, ...], combine: bool) -> Level:
    """Compile one level.  AND tree rows are the columns in order; combine
    rows are the G of each segment, then the P of each segment above the
    lowest: G(i) = i and P(i) = segments - 1 + i, and the next rows are
    laid out the same way, a group a segment.

    A gate's product of the inputs S is XOR over T in S of e^(S-T) a^T,
    from the opened e_i = x_i ^ a_i and the party's shares of the mask
    products a^T; the public e^S (T empty) is party 1's."""
    count = sum(sizes)
    starts = np.cumsum((0,) + sizes[:-1]).tolist()

    def source(c: int, inp: int) -> int:
        lo, j = starts[c], sizes[c]
        if not combine:
            return lo + inp
        seg = lo + (3 - inp if inp < 4 else 6 - inp) - (RADIX - j)  # P(3 - i) or G(6 - i)
        return seg if inp >= 4 else count - 1 + seg

    gates = _gates(sizes, combine)
    flight = [(c, i) for c, gate in gates.items() for i in gate.inputs]
    reads = ([(c, unit_column(1 << i)) for c, i in flight]
             + [(c, unit_column(t)) for c, gate in gates.items() for t in gate.monomials])
    e_row = {key: r for r, key in enumerate(flight)}
    a_row = {key: len(flight) + r for r, key in enumerate(reads)}
    here = len(flight) + len(reads)  # current row x is source row here + x

    def out(c: int, k: int, party: int) -> list[list[int]]:
        return [[e_row[c, i] for i in _bits(term & ~t)] + ([a_row[c, unit_column(t)]] if t else [])
                for term in gates[c].outputs[k] for t in (0, *_submasks(term)) if t or party == 1]

    def next_rows(party: int) -> list[list[list[int]]]:
        rows = []
        for c, j in enumerate(sizes):  # an AND, or a G and its top G; else carried
            own = [[here + starts[c] + j - 1]] if combine or j == 1 else []
            rows.append((out(c, 0, party) if j > 1 else []) + own)
        if combine:  # the P of each group above the lowest, or its carried P
            rows += [out(c, 1, party) if j > 1 else [[here + count - 1 + starts[c]]]
                     for c, j in enumerate(sizes) if c]
        return rows

    slot = {c: g for g, c in enumerate(gates)}
    return Level(len(gates), np.array([source(c, i) for c, i in flight], dtype=np.intp),
                 np.array([[slot[c] for c, _ in reads], [col for _, col in reads]], dtype=np.intp),
                 tuple(xor_of_ands(next_rows(party)) for party in (1, 2)))


def tree_cost(levels: tuple[Level, ...]) -> tuple[int, int, int]:
    """(levels, bits sent per lane, gate units per lane) of a compiled tree."""
    return (len(levels), sum(level.opened.size for level in levels),
            sum(level.groups for level in levels))


@cache
def and_tree(count: int) -> tuple[Level, ...]:
    """The levels ANDing `count` rows down to one, groups of at most RADIX."""
    return tuple(_level(sizes, False) for sizes in _best_tree(count, False)[1])


def path_columns(n: int) -> int:
    """Rows of a tournament's path bits over n entries: one per level, and
    one public 1 at n = 1."""
    return max(1, ceil_log2(n))


# --- the whole comparison ----------------------------------------------------


def _split(leaves: int, count: int) -> tuple[int, ...]:
    """leaves cut into count blocks as even as possible, larger ones lowest."""
    q, r = divmod(leaves, count)
    return (q + 1,) * r + (q,) * (count - r)


def _cross_rows(blocks: tuple[int, ...]) -> int:
    return sum(len(out.cross) for _, out in _outputs(blocks))


def _choose_blocks(leaves: int) -> tuple[int, ...]:
    def key(blocks):
        depth, bits, gates = _best_tree(len(blocks), True)[0]
        return depth, _cross_rows(blocks) + bits, gates

    fewest = -(-leaves // MAX_BLOCK)
    return min((_split(leaves, count) for count in range(fewest, leaves + 1)), key=key)


def _leaf_tables(blocks: tuple[int, ...], party: int) -> tuple[Table, Table]:
    """One party's leaf flight as (cross, out).  cross ANDs its bit lanes
    into its monomial of each one-sided AND row, in flight order; out gives
    every leaf output (_outputs order) from the source rows [its l bit
    lanes; the one-sided results]: its local monomial, if any, and its
    one-sided rows."""
    first = np.cumsum((0,) + blocks[:-1]).tolist()

    def monomial(j: int, pair: tuple) -> list[int]:
        return [first[j] + i for i in range(blocks[j]) if pair[party] >> i & 1]

    cross, out = [], []
    row = sum(blocks) + 1  # the one-sided results follow the l lanes, the top bit's included
    for j, output in _outputs(blocks):
        cross += [[monomial(j, pair)] for pair in output.cross]
        out.append([monomial(j, pair) for pair in output.local]
                   + [[r] for r in range(row, row + len(output.cross))])
        row += len(output.cross)
    return xor_of_ands(cross), xor_of_ands(out)


class CarryPlan(NamedTuple):
    blocks: tuple  # leaf block widths, lowest positions first
    leaf: tuple  # per party, its leaf flight's (cross, out) tables (_leaf_tables)
    tree: tuple  # group sizes per combine level, lowest group first
    levels: tuple

    @property
    def cross_rows(self) -> int:
        """One-sided ANDs per compared lane: cross words per 64 lanes."""
        return _cross_rows(self.blocks)

    @property
    def total_and_rows(self) -> int:
        """AND gates per compared lane, the leaf blocks' one-sided ANDs included."""
        return self.cross_rows + tree_cost(self.levels)[2]


@cache
def carry_plan(width: int) -> CarryPlan:
    if width < 2:
        raise ValueError("carry plan needs width >= 2")
    blocks = _choose_blocks(width - 1)
    tree = _best_tree(len(blocks), True)[1]
    return CarryPlan(blocks, tuple(_leaf_tables(blocks, party) for party in (0, 1)),
                     tree, tuple(_level(sizes, True) for sizes in tree))
