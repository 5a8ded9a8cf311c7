"""The secret-shared skyline query: mapping, fetching, filtering, main loop.

All inputs and outputs are one party's shares; both servers run the same
code in lockstep.  Per query the servers learn exactly one bit per loop
iteration (the opened stop flag, k+1 openings for k result rows) and
nothing else: fetch and filter touch every row obliviously, so neither the
result indexes, the dominance relations, nor the per-round filter counts
are revealed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .bitpack import pack_bits, unpack_bits
from .correlated import KINDS
from .gadgets import less_than, min_with_payload
from .metering import RandomnessBudget, query_cost
from .online import PartyContext, and_trees, not_bits, obliv_select, open_bit, public_share
from .ppa import and_tree
from .ring import MAX_WIDTH, Ring, default_vmax


class ProtocolError(RuntimeError):
    pass


def check_domain(m: int, bound: int, ring: Ring) -> int:
    """Owner-side guard: attribute sums must stay strictly below the sentinel
    default_vmax(l), which keeps every compared value inside the comparison
    validity window.  Returns the sentinel."""
    vmax = default_vmax(ring.l)
    if bound < 0:
        raise ValueError("attribute bound must be non-negative")
    if not m * bound < vmax:
        raise ValueError(
            f"m*B = {m * bound} must be < vmax = {vmax}; "
            f"raise the ring width or rescale the data"
        )
    return vmax


def check_query(q, m: int, vmax: int) -> np.ndarray:
    """Client-side guard, before any share of q exists: m integer attributes,
    none negative, and m*max(q) < vmax, checked in Python ints so no value
    wraps or truncates.  The owner keeps m*B < vmax and |p - q| <= max(p, q),
    so every distance sum then stays below the sentinel and the result is
    exact.  Returns q as an int64 array."""
    q_arr = np.asarray(q)
    if q_arr.shape != (m,):
        raise ValueError(f"query has {q_arr.size} attributes, the database has {m}")
    try:
        values = [operator.index(v) for v in q_arr.tolist()]
    except TypeError:
        raise ValueError("query attributes must be integers") from None
    if min(values, default=0) < 0:
        raise ValueError("query attributes must be non-negative")
    top = m * max(values, default=0)
    if not top < vmax:
        raise ValueError(
            f"query outside the exact window: m*max(q) = {top} must be < vmax = {vmax}"
        )
    return np.array(values, dtype=np.int64)


def ring_width(m: int, bound: int) -> int:
    """Smallest ring width l in 2..MAX_WIDTH with m*B < default_vmax(l).  The
    width is public to both servers: it reveals ceil(log2(m*B)) unless the
    caller pins l.
    """
    if bound < 0:
        raise ValueError("attribute bound must be non-negative")
    for l in range(2, MAX_WIDTH + 1):
        if m * bound < default_vmax(l):
            return l
    raise ValueError(
        f"m*B = {m * bound} needs a ring wider than the {MAX_WIDTH}-bit maximum; "
        f"rescale the data"
    )


def map_database(ctx: PartyContext, p_shares: np.ndarray, q_shares: np.ndarray) -> np.ndarray:
    """Element-wise |p - q| under sharing: b = (p < q), then
    b*(q-p) + (1-b)*(p-q), one batched comparison over all n*m cells."""
    n, m = p_shares.shape
    if q_shares.shape != (m,):
        raise ValueError(f"query has {q_shares.shape} attributes, database rows have {m}")
    flat_p = p_shares.ravel()
    flat_q = np.tile(q_shares, n)
    below = less_than(ctx, flat_p, flat_q)
    mapped = obliv_select(ctx, below, flat_q - flat_p, flat_p - flat_q)
    return mapped.reshape(n, m)


def attribute_sums(t_shares: np.ndarray) -> np.ndarray:
    """Row sums; local only, shares add."""
    return t_shares.sum(axis=1, dtype=np.uint64)


def fetch_min(ctx: PartyContext, sums: np.ndarray, t_shares: np.ndarray,
              p_shares: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Obliviously pull the first row attaining the minimum attribute sum,
    together with its mapped and original tuples and the tournament's path
    bits, which AND to 1 at that row only."""
    if sums.shape[0] < 1:
        raise ProtocolError("fetch over an empty database")
    key, (t_row, p_row), path = min_with_payload(ctx, sums, [t_shares, p_shares])
    return key, t_row, p_row, path


def filter_round(ctx: PartyContext, t_shares: np.ndarray, t_star: np.ndarray,
                 s_min: np.ndarray, sums: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Overwrite the fetched row's sum and the sums of every row it dominates
    with the sentinel, without revealing which rows (or how many) changed.

    path is the fetch's path bits, rows by level: they AND to 1 at the
    fetched row only, the lowest-index row attaining s_min.
    """
    n, m = t_shares.shape

    # one fused comparison batch, n lanes per flag row: minimum-vs-sum for
    # every row, then each attribute's mapped cells against the fetched
    # row's; dense, since padding each row to whole words sends more bytes
    lhs = np.concatenate([np.broadcast_to(s_min, (n,)), t_shares.T.ravel()])
    rhs = np.concatenate([sums, np.repeat(t_star, n)])
    flags = less_than(ctx, lhs, rhs).reshape(m + 1, n)
    # dominated: s_min < sums[i] and t_star[j] <= t_i[j] on every j, so never
    # a row tied with the minimum, the fetched row included
    flags[1:] = not_bits(ctx, flags[1:])
    # each flag row's n bits packed on their own; both AND trees level-locked
    is_first, is_dominated = and_trees(ctx, [(pack_bits(x), and_tree(x.shape[0]))
                                             for x in (path, flags)], n)
    marked = unpack_bits(is_first ^ is_dominated, n)

    sentinel = public_share(ctx, np.uint64(default_vmax(ctx.ring.l)), n)
    return obliv_select(ctx, marked, sentinel, sums)


@dataclass
class QueryOutcome:
    """One party's end-of-query state: result-row shares in fetch order."""

    rows: np.ndarray  # (k, m) shares, unreduced: mask the sum of both parties' rows
    k: int


def _meters(ctx: PartyContext) -> RandomnessBudget:
    """The session's meters so far, in query_cost's terms."""
    return RandomnessBudget(rounds=ctx.chan.rounds, bytes=ctx.chan.bytes_tx,
                            secext=ctx.meters.secext,
                            **{kind.name: getattr(ctx.rand, kind.attr).consumed for kind in KINDS})


def run_query(ctx: PartyContext, p_shares: np.ndarray, q_shares: np.ndarray) -> QueryOutcome:
    """Full query loop: fetch, stop test (single opened bit), append, filter.

    The session's rounds, bytes, comparisons and randomness must equal
    query_cost exactly; a ProtocolError names every field that drifted.
    """
    n, m = p_shares.shape
    start = _meters(ctx)
    t_shares = map_database(ctx, p_shares, q_shares)
    sums = attribute_sums(t_shares)
    sentinel = public_share(ctx, np.uint64(default_vmax(ctx.ring.l)), 1)

    taken: list[np.ndarray] = []
    while True:
        s_min, t_star, p_star, path = fetch_min(ctx, sums, t_shares, p_shares)
        below_sentinel = less_than(ctx, s_min, sentinel)
        stop = open_bit(ctx, int(not_bits(ctx, below_sentinel)[0]))
        if stop:
            # the fetched row is stale once everything is filtered: drop it
            break
        taken.append(p_star)
        sums = filter_round(ctx, t_shares, t_star, s_min, sums, path)
        if len(taken) > n:
            raise ProtocolError("query loop exceeded the database size")

    k = len(taken)
    rows = np.vstack(taken) if taken else np.zeros((0, m), dtype=np.uint64)
    used = vars(_meters(ctx) - start)
    want = vars(query_cost(n, m, ctx.ring.l, k))
    drift = [f"{name} {used[name]} != {value}" for name, value in want.items() if used[name] != value]
    if drift:
        raise ProtocolError(f"meter drift for n={n} m={m} k={k}: " + ", ".join(drift))
    return QueryOutcome(rows=rows, k=k)
