"""The secret-shared skyline query: mapping, fetching, filtering, main loop.

All inputs and outputs are one party's shares; both servers run the same
code in lockstep.  Per query the servers learn exactly one bit per loop
iteration (the opened stop flag, k+1 openings for k result rows) and
nothing else: fetch and filter touch every row obliviously, so neither the
result indexes, the dominance relations, nor the per-round filter counts
are revealed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gadgets import less_than, min_with_payload
from .metering import msb_invocations
from .online import (
    PartyContext,
    and_jobs,
    not_bits,
    obliv_select,
    open_bit,
    public_bit_share,
)
from .ring import MAX_WIDTH, Ring, default_vmax


class ProtocolError(RuntimeError):
    pass


def check_domain(n: int, m: int, bound: int, ring: Ring, vmax: int | None = None) -> int:
    """Owner-side guard: attribute sums must stay strictly below the sentinel
    and the sentinel below the comparison validity window."""
    vmax = default_vmax(ring.l) if vmax is None else vmax
    if bound < 0:
        raise ValueError("attribute bound must be non-negative")
    if not m * bound < vmax:
        raise ValueError(
            f"m*B = {m * bound} must be < vmax = {vmax}; "
            f"raise the ring width or rescale the data"
        )
    if not vmax <= 1 << (ring.l - 2):
        raise ValueError(f"vmax {vmax} breaks the comparison precondition at l={ring.l}")
    return vmax


def ring_width(m: int, bound: int, vmax: int | None = None) -> int:
    """Smallest ring width l with m*B < vmax <= 2^(l-2).

    The sentinel defaults to default_vmax(l) = 2^(l-2), so l-2 must cover
    the bit length of m*B; an explicit vmax fixes l-2 >= bitlen(vmax-1)
    instead, and check_domain still asserts m*B < vmax.  The width is public
    to both servers: it reveals ceil(log2(m*B)) unless the caller pins l.
    """
    if bound < 0:
        raise ValueError("attribute bound must be non-negative")
    top = m * bound if vmax is None else vmax - 1
    l = max(2, top.bit_length() + 2)
    if l > MAX_WIDTH:
        raise ValueError(
            f"m*B = {m * bound} needs a {l}-bit ring, above the {MAX_WIDTH}-bit maximum; "
            f"rescale the data"
        )
    return l


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
              p_shares: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Obliviously pull the first row attaining the minimum attribute sum,
    together with its mapped and original tuples."""
    if sums.shape[0] < 1:
        raise ProtocolError("fetch over an empty database")
    key, (t_row, p_row) = min_with_payload(ctx, sums, [t_shares, p_shares])
    return key, t_row, p_row


def filter_round(ctx: PartyContext, t_shares: np.ndarray, t_star: np.ndarray,
                 s_min: np.ndarray, sums: np.ndarray,
                 debug_out: dict | None = None) -> np.ndarray:
    """Overwrite the fetched row's sum and the sums of every row it dominates
    with the sentinel, without revealing which rows (or how many) changed.

    debug_out, when given, receives this party's flag shares (test hook for
    the one-first-marker invariant; never used by the protocol itself).
    """
    n, m = t_shares.shape

    # one fused comparison batch: minimum-vs-sum for every row, then every
    # mapped cell against the fetched row's cell
    lhs = np.concatenate([np.broadcast_to(s_min, (n,)), t_shares.ravel()])
    rhs = np.concatenate([sums, np.tile(t_star, n)])
    bits = less_than(ctx, lhs, rhs)
    sigma = not_bits(ctx, bits[:n])              # s_min >= sums[i], i.e. equal-min row
    not_delta = not_bits(ctx, bits[n:]).reshape(n, m)  # t_star[j] <= t_i[j]

    # level-locked circuits: exclusive prefix-AND of the complements of sigma
    # (exactly one first marker) alongside the per-row all-coordinates AND
    scan = not_bits(ctx, sigma)
    cols = not_delta
    level = 0
    while (1 << level) < n or cols.shape[1] > 1:
        jobs = []
        offset = 1 << level
        scan_active = offset < n
        if scan_active:
            jobs.append((scan[offset:], scan[:-offset]))
        tree_active = cols.shape[1] > 1
        if tree_active:
            pairs = cols.shape[1] // 2
            jobs.append((np.ascontiguousarray(cols[:, 0:2 * pairs:2]),
                         np.ascontiguousarray(cols[:, 1:2 * pairs:2])))
        done = and_jobs(ctx, jobs)
        if scan_active:
            scan = np.concatenate([scan[:offset], done[0]])
        if tree_active:
            merged = done[-1]
            cols = np.hstack([merged, cols[:, 2 * pairs:]])
        level += 1

    no_equal_before = np.concatenate([public_bit_share(ctx, 1, 1), scan[:n - 1]])
    all_ge = cols[:, 0]
    finish = and_jobs(ctx, [(
        np.concatenate([sigma, all_ge]),
        np.concatenate([no_equal_before, not_bits(ctx, sigma)]),
    )])[0]
    is_first = finish[:n]
    is_dominated = finish[n:]
    marked = is_first ^ is_dominated
    if debug_out is not None:
        debug_out.update(sigma=sigma, is_first=is_first,
                         is_dominated=is_dominated, marked=marked)

    vmax_col = np.full(n, ctx.rand.vmax_share, dtype=np.uint64)
    return obliv_select(ctx, marked, vmax_col, sums)


@dataclass
class QueryOutcome:
    """One party's end-of-query state: result-row shares in fetch order."""

    rows: np.ndarray  # (k, m) shares, unreduced: mask the sum of both parties' rows
    k: int
    secext: int


def run_query(ctx: PartyContext, p_shares: np.ndarray, q_shares: np.ndarray) -> QueryOutcome:
    """Full query loop: fetch, stop test (single opened bit), append, filter."""
    n, m = p_shares.shape
    start_count = ctx.meters.secext
    t_shares = map_database(ctx, p_shares, q_shares)
    sums = attribute_sums(t_shares)
    vmax_share = np.array([ctx.rand.vmax_share], dtype=np.uint64)

    taken: list[np.ndarray] = []
    while True:
        s_min, t_star, p_star = fetch_min(ctx, sums, t_shares, p_shares)
        below_sentinel = less_than(ctx, s_min, vmax_share)
        stop = open_bit(ctx, int(not_bits(ctx, below_sentinel)[0]))
        if stop:
            # the fetched row is stale once everything is filtered: drop it
            break
        taken.append(p_star)
        sums = filter_round(ctx, t_shares, t_star, s_min, sums)
        if len(taken) > n:
            raise ProtocolError("query loop exceeded the database size")

    k = len(taken)
    rows = np.vstack(taken) if taken else np.zeros((0, m), dtype=np.uint64)
    used = ctx.meters.secext - start_count
    expected = msb_invocations(n, m, k)
    if used != expected:
        raise ProtocolError(
            f"comparison meter drift: {used} != {expected} for n={n} m={m} k={k}"
        )
    return QueryOutcome(rows=rows, k=k, secext=used)
