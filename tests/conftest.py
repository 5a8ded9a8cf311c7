"""Shared two-party test harness."""

import numpy as np
import pytest

from skyshare.channel import KIND_ROUND_DATA, LocalChannel
from skyshare.correlated import StreamPool, deal_streaming, deal_strict
from skyshare.online import PartyContext, bit_mul
from skyshare.ring import Ring, default_vmax
from skyshare.runtime import run_pair
from skyshare.sharing import share_matrix


def _record_flights(chan):
    """Keep every flight chan receives from its peer, as (kind, payload), in
    chan.flights."""
    chan.flights = []
    exchange = chan.exchange

    def recorded(payload, kind=KIND_ROUND_DATA):
        got = exchange(payload, kind)
        chan.flights.append((kind, got))
        return got

    chan.exchange = recorded


def session_pair(l=64, seed=0, budget=None, record=False):
    """Build linked party contexts with streaming (or strict) randomness;
    with record, each channel keeps the flights it receives (_record_flights)."""
    ring = Ring(l)
    dealer_seed = np.random.SeedSequence(seed).spawn(1)[0]
    if budget is None:
        r1, r2 = deal_streaming(ring, dealer_seed)
    else:
        r1, r2 = deal_strict(ring, dealer_seed, budget, default_vmax(l))
    c1, c2 = LocalChannel.pair()
    if record:
        _record_flights(c1)
        _record_flights(c2)
    ctx1 = PartyContext(1, ring, c1, r1)
    ctx2 = PartyContext(2, ring, c2, r2)
    return ctx1, ctx2


def run_two(ctx1, ctx2, fn):
    """Run fn(ctx) for both parties in lockstep; returns both results."""
    return run_pair((lambda: fn(ctx1), ctx1.chan), (lambda: fn(ctx2), ctx2.chan))


def share_pair(values, ring, seed=1234):
    return share_matrix(np.asarray(values), np.random.default_rng(seed), ring)


def reconstruct(ring, a, b):
    return ring.reduce(np.asarray(a, dtype=np.uint64) + np.asarray(b, dtype=np.uint64))


def msb_array(ring, arr):
    """The top bit of each ring element: the cleartext comparison oracle."""
    return ((arr >> np.uint64(ring.l - 1)) & np.uint64(1)).astype(np.uint8)


def reconstruct_bits(a, b):
    return np.asarray(a, dtype=np.uint8) ^ np.asarray(b, dtype=np.uint8)


def select_openings(bit, ys):
    """bit_mul at l = 4 over one row per assignment of the row's select
    units, a daBit r and a mask v for each of its len(ys) values, with party
    1's unit shares fixed.  Every row's bit and values are the same, bit and
    ys.  Returns the products, then the c = bit ^ r and f = y - v that party
    1 opens from party 2's flight, each (rows, len(ys)) in value order."""
    width = len(ys)
    grids = np.meshgrid(*[np.arange(2)] * width, *[np.arange(16)] * width, indexing="ij")
    r, v = (np.stack([g.ravel() for g in grids[i:i + width]], axis=1).astype(np.uint64)
            for i in (0, width))
    rows = r.shape[0]
    rx1, ra1, v1, rv1, y1 = (np.full((rows, width), s, dtype=np.uint64) for s in (1, 3, 1, 4, 9))
    units = {1: (rx1, ra1, v1, rv1), 2: (r ^ rx1, r - ra1, v - v1, r * v - rv1)}
    y = np.array(ys, dtype=np.uint64)
    b1 = np.zeros(rows, dtype=np.uint8)
    ctx1, ctx2 = session_pair(l=4, record=True)
    for ctx in (ctx1, ctx2):
        ctx.rand.dabits = StreamPool((part.ravel() & 15).astype(np.uint8 if i == 0 else np.uint64)
                                     for i, part in enumerate(units[ctx.party]))
    z1, z2 = run_two(ctx1, ctx2, lambda c: bit_mul(
        c, b1 if c.party == 1 else b1 ^ bit, y1 if c.party == 1 else (y - y1) & 15))
    assert ctx1.chan.rounds == 1 and ctx1.rand.dabits.consumed == rows * width
    _, flight = ctx1.chan.flights[0]  # party 2's packed c, then its f values
    opened = (rows * width + 7) // 8
    c2 = np.unpackbits(np.frombuffer(flight[:opened], dtype=np.uint8), count=rows * width,
                       bitorder="little").reshape(rows, width)
    f2 = np.frombuffer(flight[opened:], dtype=np.uint8).reshape(rows, width)
    c = b1[:, None] ^ rx1.astype(np.uint8) ^ c2
    f = (y1 - v1 + f2) & 15
    return reconstruct(Ring(4), z1, z2), c, f


def audit_select_openings():
    """The select's openings at l = 4 (select_openings), for one and two
    values a row: every joint (c per value, f per value) occurs exactly
    once over the rows, identically for bit in {0, 1} and every y, and each
    product is exact."""
    for inputs in ([(5,), (12,)], [(5, 12), (12, 5)]):
        histograms = []
        for bit in (0, 1):
            for ys in inputs:
                got, c, f = select_openings(bit, ys)
                counts = np.zeros((2,) * len(ys) + (16,) * len(ys), dtype=int)
                np.add.at(counts, (*c.T, *f.T.astype(np.intp)), 1)
                assert (counts == 1).all(), (bit, ys)
                assert (got == bit * np.array(ys, dtype=np.uint64)).all(), (bit, ys)
                histograms.append(counts)
        assert all((h == histograms[0]).all() for h in histograms)


def peer_addr(server):
    """The (host, port) a party-2 Server bound for its peer link.  Started
    with peer port 0, it takes a free port at bind time: no probe-then-bind
    window in which another socket could take the port."""
    return server._peer_sock.getsockname()


def start_server_pair(make):
    """Start party 2 with peer port 0, then party 1 dialling the port party 2
    bound; make(party, peer_endpoint) builds each Server.  Returns
    [party 1, party 2]."""
    second = make(2, "127.0.0.1:0")
    second.start()
    first = make(1, f"127.0.0.1:{peer_addr(second)[1]}")
    first.start()
    return [first, second]


@pytest.fixture
def table_example():
    """The four-row two-attribute walkthrough instance."""
    database = np.array([[15, 102], [14, 97], [20, 99], [19, 101]])
    query = np.array([16, 100])
    mapped = np.array([[1, 2], [2, 3], [4, 1], [3, 1]])
    skyline = [(15, 102), (19, 101)]
    return database, query, mapped, skyline
