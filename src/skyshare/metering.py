"""Closed-form cost model: comparison counts, round counts, session metrics.

The protocol's cost is dominated by secure MSB extractions (one per compared
pair).  The exact total for a query over n tuples of m attributes returning
k rows is

    n*m  (mapping)  +  (k+1)*n  (fetch tree n-1 + stop test 1, per loop)
                    +  k*n*(m+1)  (filter comparisons per completed loop)
    = n*m + k*n*(2+m) + n

The round forms below are the registry the runtime's meters are checked
against: the implementation must hit them exactly, so every structural
choice (batched comparison levels, merged flag circuits, the one-flight
daBit select) is encoded here and nowhere else.  A comparison's rounds and
its AND counts come from ppa's carry plan: msb_cost charges one cross word
per one-sided AND row of the leaf blocks and one AND-triple word per
combine row, per 64 compared lanes.

Functions that still take a `mode` accept only MODE_DABIT, the one
bit-by-value multiplication the protocol has.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .bitpack import words_for
from .ppa import carry_plan, ceil_log2, msb_rounds, pair_levels
from .sharing import value_width_bytes

MODE_DABIT = "dabit"

METRICS_CSV_HEADER = "session,n,m,k,rounds,bytes_tx,bytes_rx,secext,wall_ms"


def cl2(n: int) -> int:
    """ceil(log2(n)) with cl2(1) = 0."""
    return ceil_log2(n)


def msb_invocations(n: int, m: int, k: int) -> int:
    """Exact secure-comparison count for a completed query returning k rows."""
    return n * m + k * n * (2 + m) + n


def check_mode(mode: str):
    """Refuse any multiplication mode but the daBit one."""
    if mode != MODE_DABIT:
        raise ValueError(f"unknown multiplication mode {mode!r}; only {MODE_DABIT!r} exists")


def select_rounds() -> int:
    # the daBit opening and the Beaver e/f of r*y share one flight
    return 1


def map_rounds(l: int, mode: str = MODE_DABIT) -> int:
    check_mode(mode)
    return msb_rounds(l) + select_rounds()


def fetch_rounds(n: int, l: int, mode: str = MODE_DABIT) -> int:
    check_mode(mode)
    return cl2(n) * (msb_rounds(l) + select_rounds())


def stop_rounds(l: int) -> int:
    return msb_rounds(l) + 1


def path_columns(n: int) -> int:
    """Columns of the fetch's path-bit matrix: one per tournament level, and
    one public 1 at n = 1."""
    return max(1, cl2(n))


def filt_rounds(n: int, m: int, l: int, mode: str = MODE_DABIT) -> int:
    # one fused comparison batch, then the AND tree over the fetch's path
    # bits running level-locked with the one over the m+1 dominance
    # columns, then one overwrite.
    check_mode(mode)
    flag_levels = max(cl2(m + 1), cl2(path_columns(n)))
    return msb_rounds(l) + flag_levels + select_rounds()


def query_rounds(n: int, m: int, l: int, k: int, mode: str = MODE_DABIT) -> int:
    per_loop = fetch_rounds(n, l, mode) + stop_rounds(l)
    return map_rounds(l, mode) + (k + 1) * per_loop + k * filt_rounds(n, m, l, mode)


# --- correlated-randomness accounting ---------------------------------------


@dataclass
class RandomnessBudget:
    """Per-kind correlated randomness needed by one query session."""

    secext: int = 0
    arith_triples: int = 0
    bin_words: int = 0
    dabits: int = 0
    cross_words: int = 0
    # not randomness: the bytes a party sends to open its daBit-masked bits,
    # ceil(batch/8) per select, which query_bytes needs
    b2a_bytes: int = 0

    def __add__(self, other: "RandomnessBudget") -> "RandomnessBudget":
        return RandomnessBudget(*(getattr(self, f.name) + getattr(other, f.name)
                                  for f in fields(self)))

    def scaled(self, times: int) -> "RandomnessBudget":
        return RandomnessBudget(*(getattr(self, f.name) * times for f in fields(self)))


def msb_cost(batch: int, l: int) -> RandomnessBudget:
    """One batched comparison of `batch` pairs: a cross word per one-sided AND
    row of the leaf blocks and an AND-triple word per combine row, each row
    packing the batch into words."""
    plan = carry_plan(l)
    words = words_for(batch)
    return RandomnessBudget(secext=batch, bin_words=plan.combine_rows * words,
                            cross_words=plan.cross_rows * words)


def select_cost(batch: int, width: int) -> RandomnessBudget:
    """Oblivious two-way select of `batch` rows, `width` values per row:
    one daBit per row, one triple per value."""
    return RandomnessBudget(arith_triples=batch * width, dabits=batch,
                            b2a_bytes=(batch + 7) // 8)


def map_cost(n: int, m: int, l: int, mode: str) -> RandomnessBudget:
    check_mode(mode)
    return msb_cost(n * m, l) + select_cost(n * m, 1)


def fetch_cost(n: int, m: int, l: int, mode: str) -> RandomnessBudget:
    check_mode(mode)
    total = RandomnessBudget()
    for pairs in pair_levels(n):
        total = total + msb_cost(pairs, l) + select_cost(pairs, 1 + 2 * m)
    return total


def stop_cost(l: int) -> RandomnessBudget:
    return msb_cost(1, l)


def filt_cost(n: int, m: int, l: int, mode: str) -> RandomnessBudget:
    check_mode(mode)
    total = msb_cost(n * (m + 1), l)
    # the two AND trees, each level's pairs packed as one job of n*pairs bits
    for pairs in pair_levels(path_columns(n)) + pair_levels(m + 1):
        total.bin_words += words_for(n * pairs)
    return total + select_cost(n, 1)


def query_cost(n: int, m: int, l: int, k: int, mode: str = MODE_DABIT) -> RandomnessBudget:
    """What a query returning k rows consumes: map, k+1 fetches and stop
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


def query_bytes(n: int, m: int, l: int, k: int) -> int:
    """Payload bytes each party sends in a query returning k rows (and
    receives: the flights are symmetric).

    16 per AND word (its e and f words), 8 per cross word (its masked
    operand), 2*ceil(l/8) per Beaver product (e and f values), the packed
    daBit openings, and one byte per opened stop bit.
    """
    cost = query_cost(n, m, l, k)
    return (16 * cost.bin_words + 8 * cost.cross_words
            + 2 * value_width_bytes(l) * cost.arith_triples
            + cost.b2a_bytes + (k + 1))


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

    def csv_row(self) -> str:
        return (
            f"{self.session},{self.n},{self.m},{self.k},{self.rounds},"
            f"{self.bytes_tx},{self.bytes_rx},{self.secext},{self.wall_ms:.3f}"
        )
