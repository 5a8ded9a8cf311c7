"""Closed-form cost model: one walk per protocol phase.

The protocol's cost is dominated by secure MSB extractions (one per compared
pair).  The exact total for a query over n tuples of m attributes returning
k rows is

    n*m  (mapping)  +  (k+1)*n  (fetch tree n-1 + stop test 1, per loop)
                    +  k*n*(m+1)  (filter comparisons per completed loop)
    = n*m + k*n*(2+m) + n

Each phase's cost is stated once, as a walk over its flights that yields
one RandomnessBudget: rounds, payload bytes each party sends, secure
comparisons and every kind of correlated randomness together.  run_query
checks each session's meters against query_cost field for field, and the
*_rounds and query_bytes readers below are views of the same walks, so
every structural choice (batched comparison levels, level-locked flag
trees, the one-flight select with one opened value per product) is
encoded here and nowhere else.  A comparison's leaf flight comes from
ppa's carry plan, and every AND tree's levels, bits sent and gate units are
read off the compiled levels that online.and_level runs (ppa.tree_cost):
nothing here restates a plan.  A packed row of a batch of `lanes` lanes
goes out as bitpack.row_bytes(lanes) bytes, the low bytes of each word,
while every dealt unit still covers a whole 64-lane word.

Functions that still take a `mode` accept only MODE_DABIT, the one
bit-by-value multiplication the protocol has.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .bitpack import row_bytes, words_for
from .ppa import and_tree, carry_plan, pair_levels, path_columns, tree_cost
from .sharing import value_width_bytes

MODE_DABIT = "dabit"

METRICS_CSV_HEADER = "session,n,m,k,rounds,bytes_tx,bytes_rx,secext,wall_ms"


def msb_invocations(n: int, m: int, k: int) -> int:
    """Exact secure-comparison count for a completed query returning k rows."""
    return n * m + k * n * (2 + m) + n


def check_mode(mode: str):
    """Refuse any multiplication mode but the daBit one."""
    if mode != MODE_DABIT:
        raise ValueError(f"unknown multiplication mode {mode!r}; only {MODE_DABIT!r} exists")


@dataclass
class RandomnessBudget:
    """What one party spends in a session: flights, payload bytes sent,
    secure comparisons, and each kind of correlated randomness consumed.
    The flights are symmetric, so bytes is also what the party receives."""

    rounds: int = 0
    bytes: int = 0
    secext: int = 0
    bin_words: int = 0
    dabits: int = 0
    cross_words: int = 0

    @property
    def arith_triples(self) -> int:
        """The select units under their Beaver name: each unit is a triple
        (r, v, r*v) whose first factor is its daBit r, so the counts are one."""
        return self.dabits

    # vars() holds the fields in declaration order
    def __add__(self, other: "RandomnessBudget") -> "RandomnessBudget":
        return RandomnessBudget(*map(operator.add, vars(self).values(), vars(other).values()))

    def __sub__(self, other: "RandomnessBudget") -> "RandomnessBudget":
        return RandomnessBudget(*map(operator.sub, vars(self).values(), vars(other).values()))

    def scaled(self, times: int) -> "RandomnessBudget":
        return RandomnessBudget(*(value * times for value in vars(self).values()))


def trees_cost(trees: list[tuple], lanes: int) -> RandomnessBudget:
    """Compiled AND trees run level-locked over packed rows of `lanes` lanes
    (online.and_trees): a flight per level of the deepest tree, a row
    (row_bytes(lanes) bytes) sent per gate input opened and a gate unit per
    gate, per word."""
    levels, bits, units = zip(*map(tree_cost, trees))
    return RandomnessBudget(rounds=max(levels), bytes=row_bytes(lanes) * sum(bits),
                            bin_words=words_for(lanes) * sum(units))


def msb_cost(batch: int, l: int) -> RandomnessBudget:
    """One batched comparison of `batch` pairs, rows packed 64 lanes a word:
    one flight with a cross word per one-sided AND row of the leaf blocks,
    each row's masked operand sent as row_bytes(batch) bytes, then the carry
    plan's combine tree."""
    plan = carry_plan(l)
    return (RandomnessBudget(rounds=1, bytes=row_bytes(batch) * plan.cross_rows, secext=batch,
                             cross_words=words_for(batch) * plan.cross_rows)
            + trees_cost([plan.levels], batch))


def select_cost(batch: int, width: int, l: int) -> RandomnessBudget:
    """Oblivious two-way select of `batch` rows, `width` values per row, in
    one flight: a select unit (a daBit r with shares of v and r*v) per
    value, whose c = bit ^ r goes out packed, one bit a value, and whose
    f = y - v takes ceil(l/8) bytes."""
    values = batch * width
    return RandomnessBudget(rounds=1, bytes=(values + 7) // 8 + value_width_bytes(l) * values,
                            dabits=values)


def map_cost(n: int, m: int, l: int, mode: str) -> RandomnessBudget:
    check_mode(mode)
    return msb_cost(n * m, l) + select_cost(n * m, 1, l)


def fetch_cost(n: int, m: int, l: int, mode: str) -> RandomnessBudget:
    check_mode(mode)
    total = RandomnessBudget()
    for pairs in pair_levels(n):
        total = total + msb_cost(pairs, l) + select_cost(pairs, 1 + 2 * m, l)
    return total


def stop_cost(l: int) -> RandomnessBudget:
    # one comparison, then the opened stop bit: one round of one byte
    return msb_cost(1, l) + RandomnessBudget(rounds=1, bytes=1)


def filt_cost(n: int, m: int, l: int, mode: str) -> RandomnessBudget:
    # one fused comparison batch, then the AND tree over the fetch's path
    # bits running level-locked with the one over the m+1 dominance rows,
    # each row's n bits packed on their own; then one overwrite
    check_mode(mode)
    flags = trees_cost([and_tree(path_columns(n)), and_tree(m + 1)], n)
    return msb_cost(n * (m + 1), l) + flags + select_cost(n, 1, l)


def query_cost(n: int, m: int, l: int, k: int, mode: str = MODE_DABIT) -> RandomnessBudget:
    """What a query returning k rows costs: map, k+1 fetches and stop
    tests, k filters."""
    per_loop = fetch_cost(n, m, l, mode) + stop_cost(l)
    return map_cost(n, m, l, mode) + per_loop.scaled(k + 1) + filt_cost(n, m, l, mode).scaled(k)


def budget_for_query(n: int, m: int, l: int, k_max: int, mode: str = MODE_DABIT) -> RandomnessBudget:
    """Randomness to deal so a query returning up to k_max rows cannot starve."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if k_max < 1:
        raise ValueError("k_max must be at least 1: every query runs a fetch round")
    total = query_cost(n, m, l, k_max, mode)
    assert total.secext == msb_invocations(n, m, k_max)
    return total


# --- views of the walks ------------------------------------------------------
# Rounds depend on neither m nor the batch, so the one-column walks give them.


def map_rounds(l: int, mode: str = MODE_DABIT) -> int:
    return map_cost(1, 1, l, mode).rounds


def fetch_rounds(n: int, l: int, mode: str = MODE_DABIT) -> int:
    return fetch_cost(n, 1, l, mode).rounds


def stop_rounds(l: int) -> int:
    return stop_cost(l).rounds


def filt_rounds(n: int, m: int, l: int, mode: str = MODE_DABIT) -> int:
    return filt_cost(n, m, l, mode).rounds


def query_rounds(n: int, m: int, l: int, k: int, mode: str = MODE_DABIT) -> int:
    return query_cost(n, m, l, k, mode).rounds


def query_bytes(n: int, m: int, l: int, k: int) -> int:
    """Payload bytes each party sends in a query returning k rows (and
    receives: the flights are symmetric)."""
    return query_cost(n, m, l, k).bytes


# --- session metrics ---------------------------------------------------------


@dataclass
class SessionMetrics:
    session: int
    n: int
    m: int
    k: int
    rounds: int
    bytes_tx: int
    bytes_rx: int
    secext: int
    wall_ms: float

    @classmethod
    def of_party(cls, session: int, ctx, shape: tuple, k: int, wall_ms: float) -> "SessionMetrics":
        """A session's metrics off one party's channel and meters."""
        return cls(session, *shape, k, ctx.chan.rounds, ctx.chan.bytes_tx, ctx.chan.bytes_rx,
                   ctx.meters.secext, wall_ms)

    def csv_row(self) -> str:
        return (
            f"{self.session},{self.n},{self.m},{self.k},{self.rounds},"
            f"{self.bytes_tx},{self.bytes_rx},{self.secext},{self.wall_ms:.3f}"
        )
