"""Correctness gate applied to every benchmark query.

A query passes only if its rows equal the cleartext engine's and every
counter equals its closed form in skyshare.metering: comparisons, rounds,
opened stop bits (k+1) and each kind of correlated randomness consumed.
Traced queries are additionally checked phase by phase (map, fetch, stop,
filter) for rounds and randomness.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from skyshare.channel import KIND_OPEN_BIT
from skyshare.metering import (
    budget_for_query,
    fetch_cost,
    fetch_rounds,
    filt_cost,
    filt_rounds,
    map_cost,
    map_rounds,
    msb_invocations,
    query_rounds,
    stop_cost,
    stop_rounds,
)
from skyshare.plaintext import plaintext_skyline, same_rows

PHASES = ("map", "fetch", "stop", "filter")


@dataclass
class PartyCounts:
    """One party's meters for one query session."""

    party: int
    k: int
    rounds: int
    bytes_tx: int
    secext: int
    open_bits: int
    arith: int
    bin_words: int
    dabits: int

    def to_dict(self) -> dict:
        return asdict(self)


def party_counts(party: int, k: int, chan, secext: int, used: tuple[int, int, int]) -> PartyCounts:
    """used: (arith triples, AND words, daBits) the session consumed."""
    open_bits = sum(1 for kind, _, _ in chan.transcript if kind == KIND_OPEN_BIT)
    return PartyCounts(party, k, chan.rounds, chan.bytes_tx, secext, open_bits, *used)


def consumed(rand) -> tuple[int, int, int]:
    return rand.arith.consumed, rand.bin.consumed, rand.dabits.consumed


def context_counts(ctx, k: int) -> PartyCounts:
    return party_counts(ctx.party, k, ctx.chan, ctx.meters.secext, consumed(ctx.rand))


@dataclass
class Verdict:
    problems: list[str]
    rounds_gap: int
    randomness_gap: int
    oracle_s: float


def check_query(data, q, rows, parties: list[PartyCounts], l: int, mode: str) -> Verdict:
    """Compare one query's rows with the oracle and its meters with metering."""
    started = time.perf_counter()
    want = plaintext_skyline(data, q)
    oracle_s = time.perf_counter() - started
    problems = []
    if not same_rows(rows, want):
        problems.append(f"rows differ from plaintext_skyline ({len(rows)} vs {len(want)} rows)")
    n, m = data.shape
    k = len(want)
    budget = budget_for_query(n, m, l, k, mode)
    want_rounds = query_rounds(n, m, l, k, mode)
    expected = {
        "k": k,
        "secext": msb_invocations(n, m, k),
        "rounds": want_rounds,
        "open_bits": k + 1,
        "arith": budget.arith_triples,
        "bin_words": budget.bin_words,
        "dabits": budget.dabits,
    }
    rounds_gap = randomness_gap = 0
    if len(parties) != 2:
        problems.append(f"meters from {len(parties)} parties, expected 2")
    for p in parties:
        got = p.to_dict()
        for key, value in expected.items():
            if got[key] != value:
                problems.append(f"party {p.party}: {key} = {got[key]}, closed form {value}")
        rounds_gap += p.rounds - want_rounds
        randomness_gap += sum(got[key] - expected[key] for key in ("arith", "bin_words", "dabits"))
    return Verdict(problems, rounds_gap, randomness_gap, oracle_s)


def phase_expectations(n: int, m: int, l: int, k: int, mode: str) -> dict[str, tuple[int, int, int, int]]:
    """Per-phase (rounds, arith triples, AND words, daBits) of one query."""
    loops = k + 1
    shapes = {
        "map": (map_rounds(l, mode), map_cost(n, m, l, mode), 1),
        "fetch": (fetch_rounds(n, l, mode), fetch_cost(n, m, l, mode), loops),
        "stop": (stop_rounds(l), stop_cost(l), loops),
        "filter": (filt_rounds(n, m, l, mode), filt_cost(n, m, l, mode), k),
    }
    return {
        phase: (rounds * times, cost.arith_triples * times, cost.bin_words * times,
                cost.dabits * times)
        for phase, (rounds, cost, times) in shapes.items()
    }


def check_phases(phases: dict, n: int, m: int, l: int, k: int, mode: str, party: int) -> list[str]:
    """phases maps phase -> [seconds, rounds, bytes_tx, arith, bin_words, dabits]."""
    problems = []
    for phase, want in phase_expectations(n, m, l, k, mode).items():
        _, rounds, _, arith, bin_words, dabits = phases.get(phase, (0.0, 0, 0, 0, 0, 0))
        got = (rounds, arith, bin_words, dabits)
        if got != want:
            problems.append(
                f"party {party}: {phase} phase (rounds, triples, AND words, daBits) = "
                f"{got}, closed form {want}"
            )
    return problems
