"""Shared two-party test harness."""

import numpy as np
import pytest

from skyshare.channel import KIND_ROUND_DATA, LocalChannel
from skyshare.correlated import deal_streaming, deal_strict
from skyshare.online import PartyContext
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


def reconstruct_bits(a, b):
    return np.asarray(a, dtype=np.uint8) ^ np.asarray(b, dtype=np.uint8)


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
