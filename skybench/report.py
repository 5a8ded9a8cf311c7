"""Run records and the metrics derived from them.

END_TO_END and PER_LAYER name every metric with its unit, in the order the
report prints them; BENCHMARK.json lists the same names (the self-test keeps
the two in step).
"""

from __future__ import annotations

import statistics
import traceback
from dataclasses import dataclass, field

from skyshare.ppa import carry_plan

from gate import PHASES

END_TO_END = (
    ("query_ms_p50", "ms"),
    ("query_ms_tail", "ms"),
    ("loop_ms_p50", "ms"),
    ("rows_per_s", "1/s"),
    ("rounds_per_query", "count"),
    ("mb_per_query", "MB"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("channel.rounds", "count"),
    ("channel.mb_tx", "MB"),
    ("channel.exchange_s", "s"),
    ("channel.us_per_round", "us"),
    ("online.and_packed_s", "s"),
    ("online.and_words", "count"),
    ("online.mul_shares_s", "s"),
    ("online.mul_elems", "count"),
    ("online.bits_to_arith_s", "s"),
    ("online.b2a_bits", "count"),
    ("online.obliv_select_s", "s"),
    ("online.select_rows", "count"),
    ("gadgets.less_than_s", "s"),
    ("gadgets.compares", "count"),
    ("gadgets.min_with_payload_s", "s"),
    *((f"protocol.{phase}_{what}", unit) for phase in PHASES
      for what, unit in (("s", "s"), ("rounds", "count"), ("mb", "MB"))),
    ("correlated.refill_s", "s"),
    ("correlated.arith_triples", "count"),
    ("correlated.and_words", "count"),
    ("correlated.dabits", "count"),
    ("correlated.deal_s", "s"),
    ("correlated.pool_write_s", "s"),
    ("correlated.pool_read_s", "s"),
    ("correlated.pool_mb", "MB"),
    ("sharing.codec_s", "s"),
    ("sharing.codec_mb", "MB"),
    ("sharing.share_s", "s"),
    ("bitpack.s", "s"),
    ("ring.reduce_calls", "count"),
    ("ring.reduce_s", "s"),
    ("ppa.and_rows_per_compare", "count"),
    ("runtime.party_busy_ratio", "ratio"),
    ("runtime.client_overhead_ms", "ms"),
    ("metering.rounds_gap", "count"),
    ("metering.randomness_gap", "count"),
    ("plaintext.query_ms", "ms"),
    ("trace.overhead_ms_per_loop", "ms"),
    ("trace.overhead_pct", "%"),
)

SCALED = ("query_ms_p50", "query_ms_tail", "loop_ms_p50", "rows_per_s", "setup_s")

TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it


@dataclass
class QueryRecord:
    """One execution of a query from the run's set (index into it)."""

    index: int
    q: list[int]
    wall_s: float
    k: int
    rounds: int
    bytes_tx: int
    problems: list[str]
    traced: bool = False
    rounds_gap: int = 0
    randomness_gap: int = 0
    oracle_s: float = 0.0
    layers: dict | None = None

    @property
    def loop_s(self) -> float:
        return self.wall_s / (self.k + 1)


@dataclass
class RunResult:
    workload: str
    seed: int
    l: int
    mode: str
    traced: bool
    setup_s: list[float]
    warmup: list[QueryRecord]
    records: list[QueryRecord]
    peak_rss_mb: float
    time_scale: float = 1.0  # reference speed / this run's speed (in-process runs)
    setup_layers: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def all_records(self) -> list[QueryRecord]:
        return self.warmup + self.records

    @property
    def failed(self) -> list[QueryRecord]:
        return [r for r in self.all_records if r.problems]


def describe(exc: BaseException) -> str:
    """One-line account of a query that raised, with the innermost frame."""
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {last[0].filename}:{last[0].lineno}" if last else ""
    return f"raised {type(exc).__name__}: {exc}{where}"


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that
    leaves at least TAIL_BEYOND samples beyond it; the maximum when there
    are too few samples for that."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def best_latencies(run: RunResult, traced: bool | None = None) -> list[QueryRecord]:
    """The fastest completed execution of each distinct query, optionally
    only among traced (or untraced) executions."""
    best: dict[int, QueryRecord] = {}
    for r in run.records:
        if r.wall_s > 0 and traced in (None, r.traced):
            if r.index not in best or r.wall_s < best[r.index].wall_s:
                best[r.index] = r
    return list(best.values())


def end_to_end(run: RunResult, scaled: bool = True) -> dict[str, float]:
    best = best_latencies(run)
    walls = [r.wall_s * 1000.0 for r in best]
    scale = run.time_scale if scaled else 1.0
    return {
        "query_ms_p50": statistics.median(walls) * scale,
        "query_ms_tail": tail(walls)[0] * scale,
        "loop_ms_p50": statistics.median(r.loop_s * 1000.0 for r in best) * scale,
        "rows_per_s": sum(r.k for r in best) / sum(r.wall_s for r in best) / scale,
        "rounds_per_query": statistics.mean(r.rounds for r in best),
        "mb_per_query": statistics.mean(r.bytes_tx for r in best) / 1e6,
        "setup_s": statistics.median(run.setup_s) * scale,
        "peak_rss_mb": run.peak_rss_mb,
    }


def query_layers(parties: dict[int, dict], wall_s: float, party1) -> dict[str, float]:
    """Per-layer numbers of one traced query, mostly from party 1's spans.

    parties maps party (0 = client side) to {"stats", "phases"} as produced
    by spans.merge_by_party; party1 is party 1's gate.PartyCounts.
    """
    empty = {"stats": {}, "phases": {}}
    p1 = parties.get(1, empty)

    def stat(party: dict, name: str, i: int) -> float:
        return party["stats"].get(name, (0, 0.0, 0.0, 0))[i]

    def self_s(*names: str) -> float:
        return sum(stat(p1, name, 2) for name in names)

    def elems(*names: str) -> float:
        return sum(stat(p1, name, 3) for name in names)

    exchange_s = stat(p1, "channel.exchange", 1)
    out = {
        "channel.rounds": party1.rounds,
        "channel.mb_tx": party1.bytes_tx / 1e6,
        "channel.exchange_s": exchange_s,
        "channel.us_per_round": exchange_s / party1.rounds * 1e6,
        "online.and_packed_s": self_s("online.and_packed"),
        "online.and_words": elems("online.and_packed"),
        "online.mul_shares_s": self_s("online.mul_shares"),
        "online.mul_elems": elems("online.mul_shares"),
        "online.bits_to_arith_s": self_s("online.bits_to_arith"),
        "online.b2a_bits": elems("online.bits_to_arith"),
        "online.obliv_select_s": self_s("online.obliv_select"),
        "online.select_rows": elems("online.obliv_select"),
        "gadgets.less_than_s": self_s("gadgets.less_than"),
        "gadgets.compares": party1.secext,
        "gadgets.min_with_payload_s": self_s("gadgets.min_with_payload"),
        "correlated.refill_s": sum(stat(p, "correlated.dealer", 1) for p in parties.values()),
        "correlated.arith_triples": party1.arith,
        "correlated.and_words": party1.bin_words,
        "correlated.dabits": party1.dabits,
        "sharing.codec_s": self_s("sharing.encode_values", "sharing.decode_values"),
        "sharing.codec_mb": elems("sharing.encode_values", "sharing.decode_values") / 1e6,
        "bitpack.s": self_s("bitpack.pack_bits", "bitpack.unpack_bits", "bitpack.bits_of_values"),
        "ring.reduce_calls": stat(p1, "ring.reduce", 0),
        "ring.reduce_s": stat(p1, "ring.reduce", 1),
        "runtime.party_busy_ratio": sum(
            stat(parties.get(p, empty), "protocol.run_query", 1)
            - stat(parties.get(p, empty), "channel.exchange", 1) for p in (1, 2)) / wall_s,
        "runtime.client_overhead_ms": (wall_s - stat(p1, "protocol.run_query", 1)) * 1000.0,
    }
    for phase in PHASES:
        seconds, rounds, sent = p1["phases"].get(phase, (0.0, 0, 0, 0, 0, 0))[:3]
        out[f"protocol.{phase}_s"] = seconds
        out[f"protocol.{phase}_rounds"] = rounds
        out[f"protocol.{phase}_mb"] = sent / 1e6
    return out


def per_layer(run: RunResult) -> dict[str, float]:
    traced = [r for r in run.records if r.traced and r.layers is not None]
    out = {name: statistics.median(r.layers[name] for r in traced)
           for name in traced[0].layers} if traced else {}
    out.update(run.setup_layers)
    out["ppa.and_rows_per_compare"] = carry_plan(run.l).total_and_rows
    out["metering.rounds_gap"] = sum(r.rounds_gap for r in run.all_records)
    out["metering.randomness_gap"] = sum(r.randomness_gap for r in run.all_records)
    out["plaintext.query_ms"] = statistics.median(r.oracle_s * 1000.0 for r in run.all_records)
    with_trace = {r.index: r for r in best_latencies(run, traced=True)}
    without = {r.index: r for r in best_latencies(run, traced=False)}
    both = sorted(with_trace.keys() & without.keys())
    if both:
        out["trace.overhead_ms_per_loop"] = statistics.median(
            (with_trace[i].loop_s - without[i].loop_s) * 1000.0 for i in both)
        out["trace.overhead_pct"] = statistics.median(
            100.0 * (with_trace[i].wall_s / without[i].wall_s - 1.0) for i in both)
    return out


def metric_block(values: dict[str, float], names) -> dict[str, dict]:
    missing = [name for name, _ in names if name not in values]
    if missing:
        raise RuntimeError(f"run produced no value for {missing}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in names}
