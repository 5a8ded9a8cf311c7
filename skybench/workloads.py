"""Benchmark workloads: a fixed dataset per workload and a seeded query set.

Every workload is a closed loop with one client: a query is sent only after
the previous one returned.  The dataset is part of the workload definition
(generated from DATA_SEED); the run's --seed picks the queries.

A query's cost is a function of its skyline size k alone, since rounds,
bytes and comparisons are closed forms of (n, m, l, k).  So a run uses a
query set stratified on k: it draws CANDIDATES_PER_QUERY * distinct queries
uniformly from [0, B]^m, ranks them by k (computed with the cleartext
engine), and keeps the one at the middle of each of `distinct` equal-width
rank strata.  Each kept query is a uniform draw, and the set's mix of k
matches the population's quantiles whatever the seed, so a run of a few
dozen distinct queries reports medians that repeat across seeds.  The run
then cycles through the set in a seeded order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from skyshare.datasets import DatasetSpec, generate
from skyshare.plaintext import plaintext_skyline

DATA_SEED = 7
CANDIDATES_PER_QUERY = 16


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str  # "local": LocalEngine in this process; "tcp": two Server processes
    kind: str
    n: int
    m: int
    bound: int
    distinct: int  # queries per run; odd, so traced runs alternate per cycle
    why: str

    def data(self) -> np.ndarray:
        return generate(DatasetSpec(self.kind, self.n, self.m, seed=DATA_SEED, bound=self.bound))

    def queries(self, data: np.ndarray, seed: int) -> list[tuple[list[int], int]]:
        """The run's (query, k) pairs, reproducible from seed."""
        # a child of the seed, so no seed replays the dataset's own stream
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        pool = rng.integers(0, self.bound + 1, size=(CANDIDATES_PER_QUERY * self.distinct, self.m))
        ranked = sorted(((len(plaintext_skyline(data, q)), i) for i, q in enumerate(pool)))
        width = len(ranked) / self.distinct
        picked = [ranked[int((s + 0.5) * width)] for s in range(self.distinct)]
        order = rng.permutation(self.distinct)
        return [([int(x) for x in pool[picked[j][1]]], picked[j][0]) for j in order]

    def resized(self, **sizes) -> "Workload":
        return replace(self, **sizes)


WORKLOADS = {w.name: w for w in (
    Workload(
        "inde_loop", "local", "inde", n=128, m=4, bound=100, distinct=25,
        why="in-process, k~28 loop iterations of narrow flights per query: "
            "per-call overhead in online/gadgets and the party-thread handoff dominate",
    ),
    Workload(
        "wide_scan", "local", "inde", n=4096, m=2, bound=1000, distinct=25,
        why="in-process, 32x wider flights and k~5: per-element kernels "
            "(bitpack, Beaver arithmetic, codec, dealer RNG) dominate, rounds do not",
    ),
    Workload(
        "tcp_1ms", "tcp", "inde", n=16, m=3, bound=100, distinct=25,
        why="two server processes over loopback TCP at 1 ms one-way delay: "
            "rounds x delay is the floor; exercises transport, framing and pool files",
    ),
)}


def schedule(count: int, seconds: float, traced: bool):
    """Executions of one run as (execution number, query index, traced).

    Execution 0 is the untimed warm-up on query 0.  Then the query set is
    cycled until `seconds` have passed and every query ran, twice in a traced
    run: there odd executions are traced, so with an odd set size each query
    alternates between a traced and an untraced cycle.
    """
    yield 0, 0, False
    need = count * (2 if traced else 1)
    started = time.perf_counter()
    i = 1
    while i <= need or time.perf_counter() - started < seconds:
        yield i, (i - 1) % count, traced and i % 2 == 1
        i += 1
