"""Acceptance gate: one test per criterion, each printing its pass line.

The heavy accuracy sweep (criterion 2) forks two worker processes; everything
else runs in-process.  Zero-tolerance criteria assert exact equality.
"""

import multiprocessing
import queue
import time

import numpy as np

from conftest import (
    audit_select_openings,
    msb_array,
    reconstruct,
    reconstruct_bits,
    run_two,
    session_pair,
    share_pair,
    start_server_pair,
)

from skyshare.channel import KIND_OPEN_BIT, KIND_ROUND_DATA
from skyshare.datasets import DatasetSpec, generate
from skyshare.gadgets import less_than
from skyshare.metering import msb_invocations, query_rounds
from skyshare.online import bit_mul
from skyshare.plaintext import brute_force_skyline, plaintext_skyline, same_rows
from skyshare.protocol import map_database
from skyshare.ring import Ring
from skyshare.runtime import LocalEngine, Server, tcp_query
from skyshare.sharing import share_matrix

ACCURACY_BOUND = 150
ACCURACY_SEEDS = {"corr": 1, "inde": 2, "anti": 3}
ACCURACY_QUERIES = 100


def _pass(line: str):
    print(f"ACCEPTANCE {line}: PASS", flush=True)


def test_criterion_1_worked_example_regression(table_example):
    database, query, mapped, skyline = table_example
    started = time.perf_counter()

    # intermediate mapped database reconstructs exactly
    ring = Ring(64)
    p1, p2 = share_pair(database, ring, seed=1)
    q1, q2 = share_pair(query[None, :], ring, seed=2)
    ctx1, ctx2 = session_pair(seed=3)
    t1, t2 = run_two(ctx1, ctx2, lambda c: map_database(
        c, p1 if c.party == 1 else p2, (q1 if c.party == 1 else q2)[0]))
    assert reconstruct(ring, t1, t2).tolist() == mapped.tolist()

    # full query returns the two skyline rows in fetch order
    engine = LocalEngine(database, l=64, seed=4)
    rows, metrics = engine.query(query)
    assert rows == skyline
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"worked example took {elapsed:.3f}s"
    _pass("1 worked-example regression (mapped table + fetch order, <1s)")


def _accuracy_worker(jobs, out):
    engines = {}
    failures = []
    done = 0
    for kind, query in jobs:
        if kind not in engines:
            data = generate(DatasetSpec(kind=kind, n=1000, m=6,
                                        seed=ACCURACY_SEEDS[kind], bound=ACCURACY_BOUND))
            engines[kind] = (LocalEngine(data, l=64, seed=ACCURACY_SEEDS[kind]), data)
        engine, data = engines[kind]
        rows, _ = engine.query(query)
        if not same_rows(rows, plaintext_skyline(data, query)):
            failures.append((kind, query))
        done += 1
    out.put((done, failures))


def test_criterion_2_accuracy_reproduction():
    """100 random queries per dataset kind at n=1000, m=6: exact set match."""
    jobs = []
    for kind, seed in ACCURACY_SEEDS.items():
        data = generate(DatasetSpec(kind=kind, n=1000, m=6, seed=seed,
                                    bound=ACCURACY_BOUND))
        rng = np.random.default_rng(1000 + seed)
        for _ in range(ACCURACY_QUERIES):
            # queries shaped like stored records, the service's use case
            row = data[int(rng.integers(0, data.shape[0]))]
            jitter = rng.integers(-ACCURACY_BOUND // 20, ACCURACY_BOUND // 20 + 1, size=6)
            jobs.append((kind, [int(x) for x in np.clip(row + jitter, 0, ACCURACY_BOUND)]))

    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    workers = [
        ctx.Process(target=_accuracy_worker, args=(jobs[i::2], out))
        for i in range(2)
    ]
    for w in workers:
        w.start()
    done, failures = 0, []
    deadline = time.monotonic() + 3600
    for _ in workers:
        while True:  # a worker that raises exits non-zero without a result: fail at once
            try:
                d, f = out.get(timeout=1.0)
                break
            except queue.Empty:
                crashed = [w.exitcode for w in workers if w.exitcode]
                assert not crashed, f"accuracy worker exited with code {crashed}"
                assert time.monotonic() < deadline, "accuracy workers timed out"
        done += d
        failures += f
    for w in workers:
        w.join()
    assert done == 3 * ACCURACY_QUERIES
    assert not failures, f"mismatches: {failures[:3]}"
    _pass(f"2 accuracy reproduction ({done}/{done} exact matches on corr/inde/anti)")


def test_criterion_3_oracle_cross_validation():
    rng = np.random.default_rng(33)
    mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(1, 501))
        m = int(rng.integers(1, 7))
        bound = int(rng.integers(1, 80))
        data = rng.integers(0, bound + 1, size=(n, m))
        if n >= 4:
            # salt with duplicate rows and forced duplicate distance sums
            data[int(rng.integers(0, n))] = data[int(rng.integers(0, n))]
            i, j = rng.integers(0, n, size=2)
            data[i] = np.roll(data[j], 1)  # same multiset, usually same sum
        query = rng.integers(0, bound + 1, size=m)
        if not same_rows(plaintext_skyline(data, query), brute_force_skyline(data, query)):
            mismatches += 1
    assert mismatches == 0
    _pass("3 oracle cross-validation (1000 instances, incl. duplicates, 0 mismatches)")


def test_criterion_4_gadget_exhaustiveness():
    ring = Ring(8)
    # every comparison pair at width 8
    a = np.repeat(np.arange(256, dtype=np.uint64), 256)
    b = np.tile(np.arange(256, dtype=np.uint64), 256)
    a1, a2 = share_pair(a, ring, seed=44)
    b1, b2 = share_pair(b, ring, seed=45)
    ctx1, ctx2 = session_pair(l=8, seed=46)
    r1, r2 = run_two(ctx1, ctx2, lambda c: less_than(
        c, a1 if c.party == 1 else a2, b1 if c.party == 1 else b2))
    got = reconstruct_bits(r1, r2)
    want = msb_array(ring, ring.reduce(a - b))
    assert (got == want).all()

    # every (bit, value) product, 256 fresh share decompositions each
    reps = 256
    bits = np.repeat(np.array([0, 1], dtype=np.uint8), 256 * reps)
    values = np.tile(np.arange(256, dtype=np.uint64), 2 * reps)
    rng = np.random.default_rng(47)
    b1 = rng.integers(0, 2, size=bits.size, dtype=np.uint8)
    b2 = bits ^ b1
    v1, v2 = share_pair(values, ring, seed=48)
    ctx1, ctx2 = session_pair(l=8, seed=49)
    z1, z2 = run_two(ctx1, ctx2, lambda c: bit_mul(
        c, b1 if c.party == 1 else b2, v1 if c.party == 1 else v2))
    got = reconstruct(ring, z1, z2)
    assert (got == values * bits).all()
    _pass("4 gadget exhaustiveness (65536 comparisons; 131072 products)")


def _random_complexity_instances(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(np.exp(rng.uniform(np.log(16), np.log(512))))
        m = int(rng.integers(2, 7))
        out.append((n, m, int(rng.integers(0, 1 << 31))))
    return out


def test_criterion_5_complexity_instrumentation():
    for n, m, seed in _random_complexity_instances(50, seed=55):
        rng = np.random.default_rng(seed)
        bound = 60
        data = rng.integers(0, bound + 1, size=(n, m))
        row = data[int(rng.integers(0, n))]
        query = np.clip(row + rng.integers(-6, 7, size=m), 0, bound)
        engine = LocalEngine(data, l=64, seed=seed)
        rows, metrics = engine.query([int(x) for x in query])
        assert metrics.secext == msb_invocations(n, m, metrics.k), (n, m, metrics.k)
        assert metrics.k == len(rows)
    _pass("5 comparison-count instrumentation (50 instances, exact)")


def test_criterion_6_round_complexity():
    cases = [
        (1, 2, 64, 0),
        (2, 1, 64, 1),
        (7, 3, 64, 2),
        (16, 2, 8, 3),
        (33, 4, 64, 4),
        (12, 2, 64, 5),
        (64, 3, 64, 6),
        (100, 5, 64, 7),
    ]
    for n, m, l, seed in cases:
        rng = np.random.default_rng(seed)
        bound = 5 if l == 8 else 40
        data = rng.integers(0, bound + 1, size=(n, m))
        query = rng.integers(0, bound + 1, size=m)
        engine = LocalEngine(data, l=l, seed=seed)
        _, metrics = engine.query([int(x) for x in query])
        predicted = query_rounds(n, m, l, metrics.k)
        assert metrics.rounds == predicted, (n, m, l, metrics.k)
    _pass("6 round-complexity closed forms (8 shapes, exact)")


def test_criterion_7_leakage_audit():
    # (a) full-query transcript: the stop bit is the only opening, k+1 times
    rng = np.random.default_rng(77)
    data = rng.integers(0, 40, size=(37, 3))
    engine = LocalEngine(data, l=64, seed=7)
    rows, metrics = engine.query([int(x) for x in rng.integers(0, 41, size=3)])
    for ctx in engine.last_contexts:
        kinds = [kind for kind, _, _ in ctx.chan.transcript]
        opened = [entry for entry in ctx.chan.transcript if entry[0] == KIND_OPEN_BIT]
        assert set(kinds) <= {KIND_ROUND_DATA, KIND_OPEN_BIT}
        assert len(opened) == metrics.k + 1
        assert all(tx == 1 and rx == 1 for _, tx, rx in opened)

    # (b) the select's openings, c = bit ^ r per value and f = y - v, at
    # l=4: one row per assignment of its values' daBits and masks; every
    # joint opening exactly once, per value and across a row's two values,
    # identically for every bit and y
    audit_select_openings()

    # (c) share marginals at l=4: uniform over the dealer's randomness
    class OneDraw:
        def __init__(self, value):
            self.value = value

        def integers(self, low, high=None, size=None, dtype=None):
            return np.full(size, self.value, dtype=np.uint64)

    for secret in (0, 9):
        seen = sorted(int(share_matrix([secret], OneDraw(d), Ring(4))[0][0]) for d in range(16))
        assert seen == list(range(16))
    _pass("7 leakage audit (k+1 stop bits only; masked openings exactly uniform)")


def test_criterion_8_transport_equivalence(tmp_path):
    from test_runtime import _deal_to_dir

    rng = np.random.default_rng(88)
    for trial in range(20):
        n = int(rng.integers(2, 28))
        m = int(rng.integers(1, 5))
        bound = 30
        data = rng.integers(0, bound + 1, size=(n, m))
        query = [int(x) for x in rng.integers(0, bound + 1, size=m)]

        engine = LocalEngine(data, l=64, seed=trial)
        local_rows, local_metrics = engine.query(query)

        sub = tmp_path / f"i{trial}"
        sub.mkdir()
        paths = _deal_to_dir(sub, data, seed=trial)
        servers = start_server_pair(lambda party, peer: Server.from_files(
            party, "127.0.0.1:0", peer, *paths[party], latency_ms=1.0, handshake_timeout=5.0))
        try:
            endpoints = [f"127.0.0.1:{servers[0].port}", f"127.0.0.1:{servers[1].port}"]
            tcp_rows = tcp_query(endpoints, query, l=64, seed=trial)
            assert tcp_rows == local_rows, trial
            tcp_metrics = servers[0].completed[0]
            for field in ("n", "m", "k", "rounds", "bytes_tx", "bytes_rx", "secext"):
                assert getattr(tcp_metrics, field) == getattr(local_metrics, field), \
                    (trial, field)
        finally:
            for s in servers:
                s.stop()
    _pass("8 transport equivalence (20 instances, metrics identical up to wall time)")


def test_criterion_9_scalability_smoke():
    n, m = 200_000, 2
    data = generate(DatasetSpec(kind="corr", n=n, m=m, seed=11, bound=1000))
    rng = np.random.default_rng(13)
    query = [int(x) for x in rng.integers(0, 1001, size=m)]
    engine = LocalEngine(data, l=64, seed=3)
    started = time.perf_counter()
    rows, metrics = engine.query(query)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"large instance took {elapsed:.1f}s"
    assert metrics.secext == msb_invocations(n, m, metrics.k)
    assert same_rows(rows, plaintext_skyline(data, query))
    _pass(f"9 scalability smoke (n=200000 in {elapsed:.1f}s, count formula exact)")
