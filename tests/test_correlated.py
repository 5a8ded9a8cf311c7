import struct
import sys
import threading

import numpy as np
import pytest

from conftest import reconstruct, run_two, session_pair

from skyshare import correlated
from skyshare.correlated import (
    KINDS,
    Dealer,
    PoolExhausted,
    StreamPool,
    deal_streaming,
    deal_strict,
    read_pool_file,
    write_pool_file,
)
from skyshare.metering import RandomnessBudget, budget_for_query, msb_invocations
from skyshare.plaintext import plaintext_skyline
from skyshare.ppa import FAMILY_INPUTS, MONOMIALS, UNIT_WORDS
from skyshare.ring import Ring, default_vmax

R64 = Ring(64)
R4 = Ring(4)
WIDTHS = (4, 11, 13, 64)  # exhaustive, the two benchmark widths, and full width


def _select_triples(ring, first, second):
    """A select unit's arithmetic parts, reconstructed: the triple (r, v,
    r*v) whose first factor is the unit's daBit r."""
    return tuple(reconstruct(ring, a, b) for a, b in zip(first[1:], second[1:]))


def test_dealt_arith_triples_reconstruct():
    for l in WIDTHS:
        ring = Ring(l)
        r, v, w = _select_triples(ring, *Dealer(ring, l).dabits(500))
        assert (w == ring.reduce(r * v)).all(), l
        assert set(np.unique(r)) == {0, 1} and len(np.unique(v)) >= min(1 << l, 400), l


def test_dealt_arith_triples_exhaustive_small_ring():
    r, v, w = _select_triples(R4, *Dealer(R4, 1).dabits(2000))
    assert (w == R4.reduce(r * v)).all()
    # every (r, v) pair of the ring is dealt
    assert len(set(zip(r.tolist(), v.tolist()))) == 32


def _unit_holds_its_monomials(unit):
    """Each monomial column is the AND of the mask columns it multiplies."""
    for c, term in enumerate(MONOMIALS):
        want = np.bitwise_and.reduce(unit[:, [i for i in range(FAMILY_INPUTS) if term >> i & 1]],
                                     axis=1)
        assert (unit[:, FAMILY_INPUTS + c] == want).all(), term


def test_dealt_binary_triples_are_and_triples():
    """bin units: (words, 29) per party, XOR to 7 masks and the 22 monomials
    of degree >= 2 over them; each party's shares alone are uniform."""
    for l in WIDTHS:
        dealer = Dealer(Ring(l), 2)
        (first,), (second,) = dealer.bin_triple_words(200)
        assert first.shape == second.shape == (200, UNIT_WORDS) == (200, 29)
        _unit_holds_its_monomials(first ^ second)
        for share in (first, second):
            ones = float(np.unpackbits(share.view(np.uint8)).mean())
            assert abs(ones - 0.5) < 0.01, l
        (r, w1), (s, w2) = dealer.cross_words(200)  # party 1's mask, party 2's
        assert (r & s == w1 ^ w2).all(), l


def test_dealt_dabits_agree_across_domains():
    for l in WIDTHS:
        ring = Ring(l)
        dealer = Dealer(ring, 3)
        (b1, a1, _, _), (b2, a2, _, _) = dealer.dabits(1000)
        bits = b1 ^ b2
        assert set(np.unique(bits)) <= {0, 1}
        assert 400 < int(bits.sum()) < 600, l  # fair bits, not a constant
        assert (reconstruct(ring, a1, a2) == bits).all(), l


def test_dealt_values_are_uniform_ring_elements():
    """Every dealt arithmetic value lies in the ring, and each share on its
    own is uniform: at l=4 every residue appears about equally often, and at
    every width each of bits 0, l/2 and l-1 is set about half the time."""
    count = 16000
    for l in WIDTHS:
        ring = Ring(l)
        dealer = Dealer(ring, 9)
        first, second = dealer.dabits(count)
        for values in (*first[1:], *second[1:]):
            if l < 64:
                assert int(values.max()) < 1 << l, l
            for bit in (0, l // 2, l - 1):
                ones = int(((values >> np.uint64(bit)) & np.uint64(1)).sum())
                assert abs(ones - count / 2) < 5 * np.sqrt(count / 4), (l, bit)
            if l == 4:
                hist = np.bincount(values.astype(np.int64), minlength=16)
                expected = count / 16
                chi2 = float(((hist - expected) ** 2 / expected).sum())
                assert chi2 < 50, chi2  # 15 degrees of freedom: p < 1e-5


def test_zero_count_deals_empty():
    dealer = Dealer(R64, 4)
    first, second = dealer.dabits(0)
    assert all(part.size == 0 for part in first + second)


def test_budget_matches_comparison_formula():
    # worked example: 4*2 + 2*4*(2+2) + 4 = 44 comparisons
    assert msb_invocations(4, 2, 2) == 44
    budget = budget_for_query(4, 2, 64, 2)
    assert budget.secext == 44


def test_budget_rejects_zero_kmax():
    with pytest.raises(ValueError):
        budget_for_query(4, 2, 64, 0)


def test_budget_linear_in_n():
    b1 = budget_for_query(100, 3, 64, 5)
    b2 = budget_for_query(200, 3, 64, 5)
    b3 = budget_for_query(300, 3, 64, 5)
    assert b3.secext - b2.secext == b2.secext - b1.secext


def test_strict_pool_exhaustion_raises():
    pool = StreamPool((np.arange(10, dtype=np.uint64),))
    pool.take(8)
    with pytest.raises(PoolExhausted, match="requested 3, have 2"):
        pool.take(3)


def test_a_take_the_tail_cannot_cover_refills_by_the_whole_take():
    """A take past the tail asks the refill for the whole take and is served
    as views of that one chunk; the dropped tail never comes back."""
    asked, chunks = [], []

    def refill(need):
        asked.append(need)
        start = 100 * len(asked)
        chunks.append(np.arange(start, start + max(need, 6), dtype=np.uint64))
        return (chunks[-1],)

    pool = StreamPool((np.arange(5, dtype=np.uint64),), refill)
    taken = [pool.take(count)[0] for count in (3, 4, 2, 9, 0)]
    assert asked == [4, 9]  # the 4 past the tail [3, 4], then the 9 past nothing
    for got, chunk in zip(taken[1:4], (0, 0, 1)):
        assert np.shares_memory(got, chunks[chunk])
    values = np.concatenate(taken).tolist()
    assert values == [0, 1, 2, *range(100, 106), *range(200, 209)]
    assert pool.consumed == len(values)


def test_streaming_pools_extend_and_match(monkeypatch):
    monkeypatch.setattr(correlated, "STREAM_CHUNK", 16)
    r1, r2 = deal_streaming(R64, 7)
    a = reconstruct(R64, r1.dabits.take(100)[1], r2.dabits.take(100)[1])
    assert a.size == 100


def test_streaming_pools_stay_in_lockstep_across_threads(monkeypatch):
    """Party threads take the same sequence from streaming pools without
    waiting for each other, across hundreds of chunk boundaries, two
    sessions at once (more threads than cores): the pieces still pair up,
    so every select unit and cross word reconstructs and every daBit agrees."""
    ring = Ring(13)
    monkeypatch.setattr(correlated, "STREAM_CHUNK", 7)
    sessions = [deal_streaming(ring, seed) for seed in (31, 32)]
    sizes = np.random.default_rng(5).integers(0, 20, size=(400, len(KINDS))).tolist()
    taken = {(s, i): [] for s in range(len(sessions)) for i in (0, 1)}

    def party(s, i):
        rand = sessions[s][i]
        for row in sizes:
            taken[s, i].append({kind.name: getattr(rand, kind.attr).take(count)
                                for kind, count in zip(KINDS, row)})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=party, args=key) for key in taken]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    total = tuple(sum(col) for col in zip(*sizes))
    for s, rand in enumerate(sessions):
        for one, two in zip(taken[s, 0], taken[s, 1]):
            r, v, w = _select_triples(ring, one["dabits"], two["dabits"])
            assert (w == ring.reduce(r * v)).all()
            assert (r == (one["dabits"][0] ^ two["dabits"][0])).all()
            _unit_holds_its_monomials(one["bin_words"][0] ^ two["bin_words"][0])
            (r, w1), (mask, w2) = one["cross_words"], two["cross_words"]
            assert (r & mask == w1 ^ w2).all()
        for r in rand:
            assert r.cursors() == total


def test_budget_is_sufficient_for_worst_case_query():
    # strict pools sized by the budget must never starve at k_max = n, and a
    # query consumes exactly the budget at its actual k
    from skyshare.protocol import run_query
    from skyshare.sharing import share_matrix

    rng = np.random.default_rng(11)
    for trial in range(4):
        n, m = int(rng.integers(2, 14)), int(rng.integers(1, 4))
        data = rng.integers(0, 6, size=(n, m))
        q = rng.integers(0, 6, size=m)
        p1, p2 = share_matrix(data, rng, R64)
        q1, q2 = share_matrix(q[None, :], rng, R64)
        budget = budget_for_query(n, m, 64, n)
        ctx1, ctx2 = session_pair(l=64, seed=trial, budget=budget)
        out1, out2 = run_two(ctx1, ctx2, lambda c: run_query(
            c, p1 if c.party == 1 else p2, (q1 if c.party == 1 else q2)[0]))
        assert out1.k == out2.k
        exact = budget_for_query(n, m, 64, out1.k)
        for rand in (ctx1.rand, ctx2.rand):
            for kind, used in zip(KINDS, rand.cursors()):
                assert used == getattr(exact, kind.name) <= getattr(budget, kind.name)


def test_a_pool_one_cross_word_short_fails_without_rows():
    """A strict pool dealt one cross word below what the query consumes
    raises PoolExhausted; the query returns no rows."""
    from skyshare.protocol import run_query
    from skyshare.sharing import share_matrix

    rng = np.random.default_rng(12)
    data = rng.integers(0, 6, size=(9, 2))
    q = rng.integers(0, 6, size=2)
    ring = Ring(11)
    p1, p2 = share_matrix(data, rng, ring)
    q1, q2 = share_matrix(q[None, :], rng, ring)
    k = len(plaintext_skyline(data, q))
    budget = budget_for_query(9, 2, 11, k)
    budget.cross_words -= 1
    ctx1, ctx2 = session_pair(l=11, seed=3, budget=budget)
    returned = []
    with pytest.raises(PoolExhausted):
        returned.append(run_two(ctx1, ctx2, lambda c: run_query(
            c, p1 if c.party == 1 else p2, (q1 if c.party == 1 else q2)[0])))
    assert returned == []


def test_a_pool_dealt_for_two_queries_serves_them_in_either_order():
    """Strict pools dealt for budget(k = a) + budget(k = b) serve the k = b
    query and then the k = a query, each exact, and end empty: every gate
    word takes one unit whatever its shape, so no query's share of a kind
    depends on the order."""
    from skyshare.online import PartyContext
    from skyshare.protocol import run_query
    from skyshare.runtime import LocalChannel
    from skyshare.sharing import share_matrix

    rng = np.random.default_rng(14)
    ring = Ring(10)
    data = rng.integers(0, 40, size=(12, 3))
    queries = {}
    while len(queries) < 2:
        q = rng.integers(0, 40, size=3)
        queries.setdefault(len(plaintext_skyline(data, q)), q)
    (ka, qa), (kb, qb) = sorted(queries.items())
    budget = budget_for_query(12, 3, 10, ka) + budget_for_query(12, 3, 10, kb)
    rands = deal_strict(ring, 15, budget, default_vmax(10))
    p1, p2 = share_matrix(data, rng, ring)
    for k, q in ((kb, qb), (ka, qa)):
        q1, q2 = share_matrix(q[None, :], rng, ring)
        chans = LocalChannel.pair()
        ctxs = [PartyContext(party, ring, chan, rand)
                for party, chan, rand in zip((1, 2), chans, rands)]
        out1, out2 = run_two(*ctxs, lambda c: run_query(
            c, p1 if c.party == 1 else p2, (q1 if c.party == 1 else q2)[0]))
        assert out1.k == out2.k == k
        rows = [tuple(int(x) for x in row) for row in ring.reduce(out1.rows + out2.rows)]
        assert rows == plaintext_skyline(data, q)
    for rand in rands:
        assert rand.cursors() == tuple(getattr(budget, kind.name) for kind in KINDS)
        for kind in KINDS:
            with pytest.raises(PoolExhausted):
                getattr(rand, kind.attr).take(1)


def test_pool_file_parts_are_read_only_views(tmp_path):
    """Every part but the ring values comes back as a read-only view of the
    file's bytes: a stray write raises instead of corrupting the pool."""
    path, _ = _pool_blob(tmp_path)
    back, meta = read_pool_file(str(path))
    for kind in KINDS:
        parts = getattr(back, kind.attr).take(meta[kind.name])
        for codec, part in zip(kind.codecs, parts):
            if codec == correlated.RING:
                continue
            assert not part.flags.writeable and part.base is not None, kind.name
            with pytest.raises(ValueError, match="read-only"):
                part[...] = 0


def test_pool_file_round_trip(tmp_path):
    for l in (13, 64):
        _check_pool_file_round_trip(tmp_path, l)


def _check_pool_file_round_trip(tmp_path, l):
    ring = Ring(l)
    budget = RandomnessBudget(secext=0, dabits=9, bin_words=4, cross_words=5)
    dealt = deal_strict(ring, 21, budget, default_vmax(l))
    again = deal_strict(ring, 21, budget, default_vmax(l))
    backs = []
    for party in (1, 2):
        path = str(tmp_path / f"l{l}party{party}.pool")
        write_pool_file(path, party, l, dealt[party - 1], budget)
        back, meta = read_pool_file(path)
        assert meta == {"l": l, "party": party, "dabits": 9, "bin_words": 4, "cross_words": 5}
        want = again[party - 1]
        # every part of every kind comes back exactly as the same seed deals it
        for kind in KINDS:
            count = getattr(budget, kind.name)
            got_parts = getattr(back, kind.attr).take(count)
            want_parts = getattr(want, kind.attr).take(count)
            assert len(got_parts) == len(want_parts) == len(kind.codecs)
            for got, exp in zip(got_parts, want_parts):
                assert got.dtype == exp.dtype and np.array_equal(got, exp), (l, kind.name)
            with pytest.raises(PoolExhausted):
                getattr(back, kind.attr).take(1)
        backs.append(read_pool_file(path)[0])
    # the two parties' files still reconstruct to select units
    first, second = (back.dabits.take(9) for back in backs)
    r, v, w = _select_triples(ring, first, second)
    assert (w == ring.reduce(r * v)).all() and (r == first[0] ^ second[0]).all()


@pytest.mark.parametrize("l", [13, 64])
def test_pool_file_layout_is_sskr6(tmp_path, l):
    """Known arrays in every part, written and compared with the documented
    layout built from struct; no dealer runs, so no RNG stream is pinned."""
    mask, width = (1 << l) - 1, (l + 7) // 8

    def ring_values(*xs):
        return np.array([x & mask for x in xs], dtype=np.uint64)

    def le(values):
        return b"".join(int(x).to_bytes(width, "little") for x in values)

    select = (np.array([1, 0, 1], dtype=np.uint8), ring_values(1, 0, mask),
              ring_values(3, mask, 2), ring_values(0x1234, 0x5A5A5A5A, 0))
    units = (np.array([[0x0123456789ABCDEF, 2**64 - 1, 7] + list(range(26))],
                      dtype=np.uint64),)  # one unit of 29 words
    cross = (np.array([5, 2**63], dtype=np.uint64),
             np.array([0xFEDCBA9876543210, 1], dtype=np.uint64))
    rand, _ = deal_strict(Ring(l), 0, RandomnessBudget(), default_vmax(l))
    for attr, parts in (("dabits", select), ("bin", units), ("cross", cross)):
        setattr(rand, attr, StreamPool(parts))
    budget = RandomnessBudget(dabits=3, bin_words=1, cross_words=2)
    path = tmp_path / "p.pool"
    write_pool_file(str(path), 2, l, rand, budget)
    expected = (struct.pack("<5sBB", b"SSKR6", l, 2) + struct.pack("<QQQ", 3, 1, 2)
                + bytes(select[0].tolist()) + b"".join(le(part) for part in select[1:])
                + struct.pack("<29Q", *(int(w) for w in units[0][0]))
                + b"".join(struct.pack("<QQ", *(int(w) for w in part)) for part in cross))
    assert path.read_bytes() == expected
    back, meta = read_pool_file(str(path))
    assert meta == {"l": l, "party": 2, "dabits": 3, "bin_words": 1, "cross_words": 2}
    for got, want in zip(back.dabits.take(3) + back.bin.take(1) + back.cross.take(2),
                         select + units + cross):
        assert np.array_equal(got, want)


def test_pool_file_refuses_the_sskr2_layout(tmp_path):
    path, blob = _pool_blob(tmp_path)
    # an SSKR3 file, which carried the sentinel and its sharing, as dealt then
    sskr3 = (struct.pack("<5sBBQ", b"SSKR3", 16, 1, 1 << 14) + blob[7:7 + 8 * len(KINDS)]
             + bytes(2) + blob[7 + 8 * len(KINDS):])
    # an SSKR4 file, whose AND triples were three words each, and an SSKR5
    # file, whose Beaver triples and daBits were two kinds
    for old in (b"SSKR2" + blob[5:], sskr3, b"SSKR4" + blob[5:], b"SSKR5" + blob[5:]):
        path.write_bytes(old)
        with pytest.raises(ValueError, match="bad magic"):
            read_pool_file(str(path))


def test_pool_file_rejects_truncation(tmp_path):
    # a cut at any byte, section boundaries included, is a ValueError
    budget = RandomnessBudget(secext=0, dabits=5, bin_words=2, cross_words=2)
    r1, _ = deal_strict(R64, 5, budget, default_vmax(64))
    path = str(tmp_path / "p.pool")
    write_pool_file(path, 1, 64, r1, budget)
    blob = open(path, "rb").read()
    for cut in range(len(blob)):
        with open(path, "wb") as f:
            f.write(blob[:cut])
        with pytest.raises(ValueError, match="truncated"):
            read_pool_file(path)


def _pool_blob(tmp_path, l=16):
    budget = RandomnessBudget(secext=0, dabits=3, bin_words=1, cross_words=2)
    r1, _ = deal_strict(Ring(l), 6, budget, default_vmax(l))
    path = tmp_path / "p.pool"
    write_pool_file(str(path), 1, l, r1, budget)
    return path, path.read_bytes()


@pytest.mark.parametrize("l", [0, 1, 65, 255])
def test_pool_file_rejects_bad_width(tmp_path, l):
    path, blob = _pool_blob(tmp_path)
    path.write_bytes(blob[:5] + bytes([l]) + blob[6:])  # byte 5 is the ring width
    with pytest.raises(ValueError, match="ring width"):
        read_pool_file(str(path))


def test_pool_file_rejects_a_trailing_byte(tmp_path):
    path, blob = _pool_blob(tmp_path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        read_pool_file(str(path))


def test_deal_strict_refuses_another_sentinel():
    budget = RandomnessBudget(dabits=1)
    for l in (4, 11, 64):
        assert len(deal_strict(Ring(l), 6, budget, default_vmax(l))) == 2
        for vmax in (0, 300, 1 << (l - 2), default_vmax(l) + 1):
            with pytest.raises(ValueError, match="sentinel"):
                deal_strict(Ring(l), 6, budget, vmax)
