import re

import numpy as np
import pytest

from conftest import (
    _record_flights,
    reconstruct,
    reconstruct_bits,
    run_two,
    session_pair,
    share_pair,
)

from skyshare.channel import KIND_ROUND_DATA, LocalChannel
from skyshare.correlated import KINDS
from skyshare.datasets import DatasetSpec, generate
from skyshare import metering, online, protocol
from skyshare.bitpack import words_for
from skyshare.metering import (
    budget_for_query,
    msb_invocations,
    query_bytes,
    query_cost,
    query_rounds,
)
from skyshare.plaintext import brute_force_skyline, plaintext_skyline, same_rows
from skyshare.protocol import (
    ProtocolError,
    attribute_sums,
    check_domain,
    check_query,
    fetch_min,
    filter_round,
    map_database,
    ring_width,
    run_query,
)
from skyshare.ring import Ring, default_vmax
from skyshare.runtime import LocalEngine
from skyshare.sharing import decode_values

R64 = Ring(64)


def _shared_instance(database, query, seed=50):
    p1, p2 = share_pair(np.asarray(database), R64, seed=seed)
    q1, q2 = share_pair(np.asarray(query)[None, :], R64, seed=seed + 1)
    return p1, p2, q1[0], q2[0]


def test_check_domain_guards():
    assert check_domain(2, 100, R64) == default_vmax(64)
    assert check_domain(2, 2**62 - 1, R64) == default_vmax(64)  # 2 * B = vmax - 1
    with pytest.raises(ValueError):
        check_domain(2, 2**62, R64)


def test_check_query_admits_exactly_the_window():
    m, vmax = 3, 64  # 3 * 21 < 64 <= 3 * 22
    assert check_query([21, 0, 21], m, vmax).tolist() == [21, 0, 21]
    for q, reason in (([22, 0, 0], "exact window"), ([0, -1, 0], "non-negative"),
                      ([1, 2], "attributes"), ([2**64, 4, 0], "exact window"),
                      ([2**70, 1, 0], "exact window"), ([1.7, 1, 0], "integers")):
        with pytest.raises(ValueError, match=reason):
            check_query(q, m, vmax)


def test_local_queries_fill_the_exact_window():
    """In-process queries above the data maximum but inside m*max(q) < vmax
    are exact, and the first query outside the window is refused, as over
    TCP."""
    rng = np.random.default_rng(160)
    for n, m, bound in ((4, 2, 102), (9, 3, 24), (6, 1, 5)):
        data = rng.integers(0, bound + 1, size=(n, m))
        data[0, 0] = bound
        engine = LocalEngine(data, seed=n)
        top = (engine.vmax - 1) // m  # the largest attribute inside the window
        assert top > bound, (n, m)
        for q in (np.full(m, top), rng.integers(bound + 1, top + 1, size=m),
                  rng.integers(0, top + 1, size=m)):
            rows, _ = engine.query(q)
            assert same_rows(rows, plaintext_skyline(data, q)), (n, m, q)
        with pytest.raises(ValueError, match="exact window"):
            engine.query([top + 1] + [0] * (m - 1))


def test_the_edge_of_the_window_is_exact():
    """At l = 4..8, a database with a row at the largest bound the sentinel
    admits, and queries up to the window's edge: every result equals the
    cleartext skyline.  A sentinel any larger lets compared differences
    leave the signed window, and this sweep then returns wrong rows."""
    rng = np.random.default_rng(6)
    wrong, total = [], 0
    for l in range(4, 9):
        for m in (1, 2, 3):
            top = (default_vmax(l) - 1) // m  # the largest B with m*B < vmax
            data = rng.integers(0, top + 1, size=(6, m))
            data[0] = top
            engine = LocalEngine(data, l=l, seed=l)
            edges = [np.full(m, top), np.zeros(m, np.int64)]
            for q in edges + list(rng.integers(0, top + 1, size=(6, m))):
                rows, _ = engine.query(q)
                total += 1
                if not same_rows(rows, plaintext_skyline(data, q)):
                    wrong.append((l, m, q.tolist()))
    assert not wrong, f"{len(wrong)} of {total} queries wrong, first {wrong[:3]}"


def test_ring_width_is_the_narrowest_safe_width():
    grid = [(1, 0), (6, 0), (1, 1), (4, 100), (3, 100), (2, 1000), (6, 150),
            (2, 511), (2, 512), (3, 340), (3, 341), (5, 2**40 + 3), (1, 2**62 - 1),
            (3, (2**62 - 1) // 3), (1, 2**63 - 2)]
    for m, bound in grid:
        l = ring_width(m, bound)
        check_domain(m, bound, Ring(l))
        with pytest.raises(ValueError):  # Ring(1) itself raises for B = 0
            check_domain(m, bound, Ring(l - 1))
    assert [ring_width(m, b) for m, b in ((4, 100), (3, 100), (2, 1000), (1, 0))] == [10, 10, 12, 2]
    assert ring_width(1, 2**63 - 2) == 64
    for m, bound in ((1, 2**63 - 1), (3, 2**62), (1, -1)):
        with pytest.raises(ValueError):
            ring_width(m, bound)


def _check_engine_query(engine, data, query):
    """Rows, rounds and all four randomness counters, exactly."""
    n, m = data.shape
    l = engine.ring.l
    assert l == ring_width(m, int(data.max()))
    rows, metrics = engine.query(query)
    assert same_rows(rows, plaintext_skyline(data, query)), (n, m)
    assert metrics.rounds == query_rounds(n, m, l, metrics.k), (n, m)
    want = budget_for_query(n, m, l, metrics.k)
    for ctx in engine.last_contexts:
        assert ctx.rand.cursors() == tuple(getattr(want, kind.name) for kind in KINDS), (n, m)


@pytest.mark.parametrize("kind", ["inde", "corr", "anti"])
def test_default_width_engine_is_exact(kind):
    n, m, bound = 40, 3, 100
    data = generate(DatasetSpec(kind, n, m, seed=17, bound=bound))
    engine = LocalEngine(data, seed=5)
    assert engine.ring.l <= 11
    rng = np.random.default_rng(18)
    for _ in range(3):
        _check_engine_query(engine, data, rng.integers(0, int(data.max()) + 1, size=m))
    # the filter's AND trees change shape with n and m: dense ties at every
    # tournament size up to one past a power of two
    for n in (1, 2, 7, 33, 64, 65):
        for m in (1, 2, 5):
            data = generate(DatasetSpec(kind, n, m, seed=n * 10 + m, bound=3))
            engine = LocalEngine(data, seed=n + m)
            _check_engine_query(engine, data, rng.integers(0, int(data.max()) + 1, size=m))


def test_default_width_engine_on_an_all_zero_database():
    engine = LocalEngine(np.zeros((5, 2), dtype=np.int64), seed=1)
    assert engine.ring.l == 2
    rows, _ = engine.query([0, 0])
    assert rows == [(0, 0)] * 5


def test_map_database_walkthrough(table_example):
    database, query, mapped, _ = table_example
    p1, p2, q1, q2 = _shared_instance(database, query)
    ctx1, ctx2 = session_pair(seed=51)
    t1, t2 = run_two(ctx1, ctx2, lambda c: map_database(
        c, p1 if c.party == 1 else p2, q1 if c.party == 1 else q2))
    assert reconstruct(R64, t1, t2).tolist() == mapped.tolist()
    assert ctx1.meters.secext == database.size


def test_map_database_query_on_row_gives_zeros(table_example):
    database, _, _, _ = table_example
    p1, p2, q1, q2 = _shared_instance(database, database[2])
    ctx1, ctx2 = session_pair(seed=52)
    t1, t2 = run_two(ctx1, ctx2, lambda c: map_database(
        c, p1 if c.party == 1 else p2, q1 if c.party == 1 else q2))
    assert reconstruct(R64, t1, t2)[2].tolist() == [0, 0]


def test_map_database_random_vs_oracle():
    rng = np.random.default_rng(53)
    for trial in range(5):
        n, m = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        database = rng.integers(0, 100, size=(n, m))
        query = rng.integers(0, 100, size=m)
        p1, p2, q1, q2 = _shared_instance(database, query, seed=60 + trial)
        ctx1, ctx2 = session_pair(seed=70 + trial)
        t1, t2 = run_two(ctx1, ctx2, lambda c: map_database(
            c, p1 if c.party == 1 else p2, q1 if c.party == 1 else q2))
        assert (reconstruct(R64, t1, t2) == np.abs(database - query)).all()


def test_map_database_dimension_mismatch(table_example):
    database, query, _, _ = table_example
    p1, p2, q1, q2 = _shared_instance(database, query)
    ctx1, _ = session_pair(seed=54)
    with pytest.raises(ValueError):
        map_database(ctx1, p1, q1[:1])


def test_attribute_sums(table_example):
    _, _, mapped, _ = table_example
    t1, t2 = share_pair(mapped, R64, seed=55)
    s = reconstruct(R64, attribute_sums(t1), attribute_sums(t2))
    assert s.tolist() == [3, 5, 5, 4]
    z1, z2 = share_pair(np.zeros((1, 4), dtype=np.int64), R64, seed=56)
    assert reconstruct(R64, attribute_sums(z1), attribute_sums(z2))[0] == 0
    one_col = np.array([[7], [3], [9]])
    c1, c2 = share_pair(one_col, R64, seed=57)
    got = reconstruct(R64, attribute_sums(c1), attribute_sums(c2))
    assert got.tolist() == [7, 3, 9]


def test_fetch_walkthrough_initial_and_filtered(table_example):
    database, _, mapped, _ = table_example
    t1, t2 = share_pair(mapped, R64, seed=58)
    p1, p2 = share_pair(database, R64, seed=59)

    s1, s2 = share_pair(mapped.sum(axis=1), R64, seed=60)
    ctx1, ctx2 = session_pair(seed=61)
    (a1, b1, c1, _), (a2, b2, c2, _) = run_two(ctx1, ctx2, lambda c: fetch_min(
        c, s1 if c.party == 1 else s2, t1 if c.party == 1 else t2,
        p1 if c.party == 1 else p2))
    assert int(reconstruct(R64, a1, a2)[0]) == 3
    assert reconstruct(R64, b1, b2).tolist() == [1, 2]
    assert reconstruct(R64, c1, c2).tolist() == [15, 102]

    # after the first filtering round the mutated sums point at row 4
    vmax = default_vmax(64)
    s1, s2 = share_pair(np.array([vmax, vmax, 5, 4], dtype=np.uint64), R64, seed=62)
    ctx1, ctx2 = session_pair(seed=63)
    (a1, b1, c1, _), (a2, b2, c2, _) = run_two(ctx1, ctx2, lambda c: fetch_min(
        c, s1 if c.party == 1 else s2, t1 if c.party == 1 else t2,
        p1 if c.party == 1 else p2))
    assert int(reconstruct(R64, a1, a2)[0]) == 4
    assert reconstruct(R64, c1, c2).tolist() == [19, 101]


def _fetch_and_filter(ctx1, ctx2, t, p, s):
    """One fetch and one filter round on (party 1, party 2) share pairs;
    returns the rows the fetch's path bits pick and both parties' new sums."""
    (mn1, ts1, _, path1), (mn2, ts2, _, path2) = run_two(ctx1, ctx2, lambda c: fetch_min(
        c, s[c.party - 1], t[c.party - 1], p[c.party - 1]))
    winners = np.flatnonzero(reconstruct_bits(path1, path2).all(axis=0)).tolist()
    new = run_two(ctx1, ctx2, lambda c: filter_round(
        c, t[c.party - 1], (ts1, ts2)[c.party - 1], (mn1, mn2)[c.party - 1],
        s[c.party - 1], (path1, path2)[c.party - 1]))
    return winners, new


def test_filter_round_walkthrough(table_example):
    """Both rounds of the walkthrough: the fetched row and the row it
    dominates get the sentinel, everything else survives verbatim."""
    database, _, mapped, _ = table_example
    vmax = default_vmax(64)
    t = share_pair(mapped, R64, seed=64)
    p = share_pair(database, R64, seed=65)

    s = share_pair(mapped.sum(axis=1), R64, seed=66)   # fetches (1, 2), sum 3
    ctx1, ctx2 = session_pair(seed=68)
    winners, new = _fetch_and_filter(ctx1, ctx2, t, p, s)
    assert winners == [0]
    assert reconstruct(R64, *new).tolist() == [vmax, vmax, 5, 4]

    # round 2: fetched (3, 1) with sum 4 dominates (4, 1)
    s = share_pair(np.array([vmax, vmax, 5, 4], dtype=np.uint64), R64, seed=69)
    ctx1, ctx2 = session_pair(seed=72)
    winners, new = _fetch_and_filter(ctx1, ctx2, t, p, s)
    assert winners == [3]
    assert reconstruct(R64, *new).tolist() == [vmax] * 4


def test_filter_marks_exactly_one_first_per_round():
    """Whatever the tie structure, exactly one row is taken as the round's
    winner and winners never double as dominated rows: a winner flagged
    both ways would keep its sum."""
    rng = np.random.default_rng(73)
    vmax = default_vmax(64)
    for trial in range(8):
        n, m = int(rng.integers(1, 20)), int(rng.integers(1, 4))
        mapped = rng.integers(0, 5, size=(n, m))  # dense ties
        sums = mapped.sum(axis=1)
        idx = int(np.argmin(sums))
        dominated = (mapped >= mapped[idx]).all(axis=1) & (sums > sums[idx])
        t = share_pair(mapped, R64, seed=80 + trial)
        s = share_pair(sums, R64, seed=90 + trial)
        p = share_pair(mapped, R64, seed=100 + trial)
        ctx1, ctx2 = session_pair(seed=120 + trial)
        winners, new = _fetch_and_filter(ctx1, ctx2, t, p, s)
        assert winners == [idx]
        marked = dominated.copy()
        marked[idx] = True
        assert reconstruct(R64, *new).tolist() == np.where(marked, vmax, sums).tolist()


def test_run_query_walkthrough(table_example):
    database, query, _, skyline = table_example
    engine = LocalEngine(database, l=64, seed=7)
    rows, metrics = engine.query(query)
    assert rows == skyline  # fetch order preserved
    assert metrics.k == 2
    assert metrics.secext == msb_invocations(4, 2, 2) == 44
    assert metrics.rounds == query_rounds(4, 2, 64, 2)


def test_run_query_single_row_runs_two_loops():
    engine = LocalEngine([[5, 9]], l=64, seed=8)
    rows, metrics = engine.query([5, 8])
    assert rows == [(5, 9)]
    ctx1, _ = engine.last_contexts
    opened = [k for k, _, _ in ctx1.chan.transcript if k == 4]
    assert len(opened) == 2  # fetch round + stop round
    assert metrics.rounds == query_rounds(1, 2, 64, 1)


def test_run_query_duplicate_rows_all_returned():
    database = [[4, 4], [2, 9], [4, 4], [9, 1]]
    engine = LocalEngine(database, l=64, seed=9)
    rows, metrics = engine.query([4, 4])
    assert rows.count((4, 4)) == 2
    assert same_rows(rows, plaintext_skyline(database, [4, 4]))


def test_run_query_random_vs_brute_force():
    rng = np.random.default_rng(130)
    for trial in range(10):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(1, 7))
        bound = int(rng.integers(1, 60))
        database = rng.integers(0, bound + 1, size=(n, m))
        query = rng.integers(0, bound + 1, size=m)
        engine = LocalEngine(database, l=64, seed=trial)
        rows, metrics = engine.query(query)
        assert same_rows(rows, brute_force_skyline(database, query)), trial
        assert metrics.secext == msb_invocations(n, m, metrics.k)


def test_sentinel_never_collides_and_filtered_rows_stay_filtered():
    """Stepwise run: live sums stay strictly below the sentinel, a fetched
    row is never one that an earlier round already marked, and a row at the
    sentinel stays there."""
    rng = np.random.default_rng(140)
    database = rng.integers(0, 40, size=(12, 3))
    query = rng.integers(0, 40, size=3)
    vmax = default_vmax(64)

    p1, p2, q1, q2 = _shared_instance(database, query, seed=141)
    ctx1, ctx2 = session_pair(seed=142)

    t = run_two(ctx1, ctx2, lambda c: map_database(
        c, p1 if c.party == 1 else p2, q1 if c.party == 1 else q2))
    s = (attribute_sums(t[0]), attribute_sums(t[1]))
    ever_marked = np.zeros(12, dtype=bool)
    for _ in range(13):
        sums = reconstruct(R64, *s)
        live = sums < vmax
        assert (sums[~live] == vmax).all()
        if not live.any():
            break
        fetched = int(np.argmin(np.where(live, sums, np.iinfo(np.int64).max)))
        assert not ever_marked[fetched]
        winners, s = _fetch_and_filter(ctx1, ctx2, t, (p1, p2), s)
        assert winners == [fetched]
        marked_now = reconstruct(R64, *s) == vmax
        assert marked_now[fetched] and marked_now[ever_marked].all()
        ever_marked |= marked_now
    assert ever_marked.all()


def test_run_query_rejects_empty_database():
    with pytest.raises(ValueError):
        LocalEngine(np.zeros((0, 2), dtype=np.int64), l=64, seed=1)


def test_bytes_match_closed_form():
    # query_bytes against the meters; l=64 takes 8-byte values.  At (130, 7)
    # both flag trees have a level of two 4-input gates and n is not a
    # multiple of 64, so each packed flag column pads its own last word
    rng = np.random.default_rng(23)
    for n, m, bound, l in ((12, 2, 50, None), (33, 1, 900, None), (20, 3, 50, 64), (9, 4, 7, 24),
                           (130, 7, 30, None)):
        data = rng.integers(0, bound + 1, size=(n, m))
        engine = LocalEngine(data, l=l, seed=n)
        _, metrics = engine.query(rng.integers(0, bound + 1, size=m))
        want = query_bytes(n, m, engine.ring.l, metrics.k)
        assert metrics.bytes_tx == metrics.bytes_rx == want, (n, m, engine.ring.l)


def test_closed_forms_at_the_benchmark_points():
    """Bytes each party sends and rounds of a query at each benchmark
    workload's (n, m, l) and typical k: inde_loop, wide_scan, tcp_1ms."""
    for point, sent, rounds in (((128, 4, 10, 28), 165_444, 839),
                                ((4096, 2, 12, 5), 887_016, 262),
                                ((16, 3, 10, 6), 4_525, 132)):
        cost = query_cost(*point)
        assert (cost.bytes, cost.rounds) == (sent, rounds), point


def test_narrow_rows_change_only_the_bytes_and_never_raise_them(monkeypatch):
    """Against rows priced as whole words, over l = 2..64 and batches both
    narrower and wider than a word: every field of query_cost but bytes is
    the same, and bytes is never higher."""
    points = [(n, m, l, 2) for l in range(2, 65) for n in (1, 9, 65, 130) for m in (1, 3)]
    narrow = [query_cost(*point) for point in points]
    monkeypatch.setattr(metering, "row_bytes", lambda lanes: 8 * words_for(lanes))
    for point, cost in zip(points, narrow):
        whole = query_cost(*point)
        assert cost.bytes <= whole.bytes, point
        assert vars(cost) | {"bytes": 0} == vars(whole) | {"bytes": 0}, point


def test_flight_values_stay_below_the_ring_modulus(monkeypatch):
    """Shares are kept unreduced between flights, so the high bits of a share
    carry borrows of the secret: every ring value a party sends must be
    masked to l bits.  Values travel only in the selects' flights, after
    the packed daBit openings, one bit a value; the other flights carry
    bits."""
    value_flights = []

    def recording(fn):
        def wrapped(ctx, bits, values):
            before = len(ctx.chan.flights)
            out = fn(ctx, bits, values)
            opened = (values.size + 7) // 8  # the packed c, one bit a value
            value_flights.extend((ctx.ring.l, payload[opened:], values.size)
                                 for _, payload in ctx.chan.flights[before:])
            return out
        return wrapped

    monkeypatch.setattr(online, "bit_mul", recording(online.bit_mul))
    rng = np.random.default_rng(29)
    for l, m, bound in ((4, 2, 1), (11, 3, 100), (13, 2, 1000), (64, 2, 1000)):
        ring = Ring(l)
        data = rng.integers(0, bound + 1, size=(10, m))
        q = rng.integers(0, bound + 1, size=m)
        p1, p2 = share_pair(data, ring, seed=l)
        q1, q2 = share_pair(q[None, :], ring, seed=l + 1)
        value_flights.clear()
        ctx1, ctx2 = session_pair(l=l, seed=l, record=True)
        out1, out2 = run_two(ctx1, ctx2, lambda c: run_query(
            c, p1 if c.party == 1 else p2, (q1 if c.party == 1 else q2)[0]))
        got = sorted(map(tuple, reconstruct(ring, out1.rows, out2.rows).tolist()))
        assert same_rows(got, plaintext_skyline(data, q))
        assert value_flights, l
        for width, payload, count in value_flights:
            values = decode_values(payload, width)
            assert values.size == count and int(values.max()) < 1 << width, l


@pytest.mark.parametrize("field", ["rounds", "bytes", "secext", *(k.name for k in KINDS)])
def test_run_query_names_each_drifted_meter(monkeypatch, field):
    """Drift one meter at every stop opening, identically at both parties
    so the query itself stays exact: run_query refuses the session and
    names that meter and no other."""
    pools = {kind.name: kind.attr for kind in KINDS}
    open_bit = protocol.open_bit

    def drifting(ctx, bit):
        if field == "rounds":
            ctx.chan.rounds += 1
        elif field == "bytes":
            ctx.chan.bytes_tx += 1
        elif field == "secext":
            ctx.meters.secext += 1
        else:
            getattr(ctx.rand, pools[field]).take(1)
        return open_bit(ctx, bit)

    monkeypatch.setattr(protocol, "open_bit", drifting)
    p1, p2, q1, q2 = _shared_instance([[3, 1], [1, 3], [2, 2], [4, 4]], [0, 0])
    ctx1, ctx2 = session_pair(seed=150)
    with pytest.raises(ProtocolError) as err:
        run_two(ctx1, ctx2, lambda c: run_query(
            c, p1 if c.party == 1 else p2, q1 if c.party == 1 else q2))
    assert re.findall(r"(\w+) \d+ != \d+", str(err.value)) == [field]


AUDIT_INPUTS = (([[0, 3], [1, 1], [3, 0], [2, 2]], [0, 0]),  # k = 3 each
                ([[2, 0], [0, 0], [3, 2], [1, 1]], [0, 3]))
AUDIT_SESSIONS = 500


def _audited_bits(flights):
    """A session's audited bits: every bit of every flight, then every bit
    of the XOR of each two bytes of one flight.  Every byte sent is masked
    on its own, so each such bit is uniform or a constant format bit; a
    mask reused inside a flight shows as a bias that depends on the input."""
    parts = []
    for payload in flights:
        got = np.frombuffer(payload, dtype=np.uint8)
        i, j = np.triu_indices(got.size, 1)
        parts += [got, got[i] ^ got[j]]
    return np.unpackbits(np.concatenate(parts))


def test_every_flight_of_a_session_is_independent_of_the_input(monkeypatch):
    """Party 2's view of whole sessions at n = 4, m = 2, l = 4 over two
    databases and queries with the same k, each owner sharing fixed and
    every session dealt afresh: the round-data flights have the same kinds
    and sizes round for round, every audited bit (_audited_bits) is a
    constant of both inputs or within 5 sigma of 1/2 at each, and the two
    inputs' frequencies agree within a two-sample 5 sigma bound.  So the
    stop bits are the only thing a session opens."""
    received = []
    pair = LocalChannel.pair

    def recording_pair(*args):
        chan1, chan2 = pair(*args)
        _record_flights(chan2)
        received.append(chan2.flights)
        return chan1, chan2

    monkeypatch.setattr(LocalChannel, "pair", recording_pair)
    views = []
    for seed, (data, query) in enumerate(AUDIT_INPUTS):
        engine = LocalEngine(data, l=4, seed=seed)
        shapes, bits = set(), []
        for _ in range(AUDIT_SESSIONS):
            received.clear()
            _, metrics = engine.query(query)
            assert metrics.k == 3
            (flights,) = received
            rounds = [payload for kind, payload in flights if kind == KIND_ROUND_DATA]
            shapes.add(tuple(map(len, rounds)))
            bits.append(_audited_bits(rounds))
        assert len(shapes) == 1
        views.append((shapes.pop(), np.mean(bits, axis=0)))
    (shape_a, freq_a), (shape_b, freq_b) = views
    assert shape_a == shape_b
    constant = (freq_a == freq_b) & ((freq_a == 0) | (freq_a == 1))
    sigma = np.sqrt(0.25 / AUDIT_SESSIONS)
    near_half = (np.abs(freq_a - 0.5) <= 5 * sigma) & (np.abs(freq_b - 0.5) <= 5 * sigma)
    assert (constant | near_half).all(), np.flatnonzero(~(constant | near_half))[:10]
    pooled = (freq_a + freq_b) / 2
    bound = 5 * np.sqrt(pooled * (1 - pooled) * 2 / AUDIT_SESSIONS)
    assert (np.abs(freq_a - freq_b) <= bound).all()
