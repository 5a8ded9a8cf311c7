"""skyshare benchmark: one workload, one seed, a fixed measuring time.

    python3 skybench/run.py --workload inde_loop --seed 1 --seconds 30 --trace 0

Runs closed-loop queries against the public API (LocalEngine in-process, or
two Server processes queried with tcp_query), checks every query against the
cleartext engine and the closed forms in skyshare.metering, and prints a
human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run cycles through its query set (see workloads.schedule); a query's
latency is the best of its executions, which keeps bursts of load from
other processes on the machine out of the medians.  In-process runs are
pinned to one CPU (see pin_to_one_cpu) and their times are reported at a
reference machine speed (see calibrate.py); the report also prints them as
observed.

--trace 0 reports the end-to-end metrics (report.END_TO_END).  --trace 1
alternates traced and untraced executions and reports the per-layer metrics
(report.PER_LAYER), including the tracing overhead between the two.  The
program is imported from src/ next to this directory; without it the
benchmark exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS_PER_QUERY = 2  # LocalEngine constructions timed after each query; setup_s is their median


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import skyshare
    except ImportError as exc:
        raise SystemExit(f"skybench: cannot import skyshare from {SRC}: {exc}") from None
    if Path(skyshare.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"skybench: skyshare resolved to {skyshare.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))


def pin_to_one_cpu() -> int:
    """Restrict this process's future threads to one of its allowed CPUs.

    In-process sessions run both parties as threads under one GIL, so a
    second CPU buys little compute, but it makes every round's GIL handoff
    a cross-CPU wake-up whose cost varies several-fold with the load other
    tenants put on a shared machine.  Returns the CPU chosen."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_local(workload, seed: int, seconds: float, traced: bool):
    """In-process workload: LocalEngine with the program's default width and
    mode, both parties pinned to one CPU."""
    from skyshare import LocalEngine

    from calibrate import REFERENCE_MS, reference_seconds
    from gate import check_phases, check_query, context_counts
    from report import QueryRecord, RunResult, describe, query_layers
    from spans import Tracer, merge_by_party, share_seconds, write_spans
    from workloads import schedule

    data = workload.data()
    queries = workload.queries(data, seed)
    cpu = pin_to_one_cpu()
    tracer = Tracer() if traced else None
    setups, share_s = [], []

    def set_up() -> LocalEngine:
        if tracer:
            tracer.install()
        started = time.perf_counter()
        engine = LocalEngine(data, seed=seed)
        setups.append(time.perf_counter() - started)
        if tracer:
            tracer.uninstall()
            share_s.append(share_seconds(tracer))
        return engine

    engine = set_up()
    l, mode = engine.ring.l, engine.mode
    n, m = data.shape
    kept_spans = []
    records = []
    reference = []
    peak = 0.0

    for execution, index, trace_this in schedule(len(queries), seconds, traced):
        q = queries[index][0]
        if trace_this:
            tracer.keep_spans = not kept_spans
            tracer.install()
        started = time.perf_counter()
        try:
            rows, metrics = engine.query(q)
            wall = time.perf_counter() - started
            error = None
        except Exception as exc:  # a raising query is a failed query; the run goes on
            error = describe(exc)
        finally:
            if trace_this:
                tracer.uninstall()
        threads = tracer.drain() if trace_this else []
        reference.append(reference_seconds())
        for _ in range(SETUPS_PER_QUERY):
            set_up()  # spread over the run, so one burst of load cannot move the median
        if execution == 0:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if error is not None:
            records.append(QueryRecord(index, q, 0.0, 0, 0, 0, [error], trace_this))
            continue
        counts = [context_counts(ctx, metrics.k) for ctx in engine.last_contexts]
        verdict = check_query(data, q, rows, counts, l, mode)
        rec = QueryRecord(index, q, wall, metrics.k, counts[0].rounds, counts[0].bytes_tx,
                          verdict.problems, trace_this, verdict.rounds_gap,
                          verdict.randomness_gap, verdict.oracle_s)
        if trace_this:
            if tracer.keep_spans:
                kept_spans.append((metrics.session, threads))
            parties = merge_by_party(threads)
            for c in counts:
                rec.problems += check_phases(parties.get(c.party, {}).get("phases", {}),
                                             n, m, l, metrics.k, mode, c.party)
            rec.layers = query_layers(parties, wall, counts[0])
        records.append(rec)

    run = RunResult(workload.name, seed, l, mode, traced, setups, records[:1], records[1:], peak,
                    time_scale=REFERENCE_MS / (statistics.median(reference) * 1000.0))
    run.notes.append(f"both parties pinned to CPU {cpu}")
    run.notes.append(
        f"peak_rss_mb is taken after the warm-up query; after all {len(records)} queries it is "
        f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB")
    if traced:
        run.setup_layers = {
            "sharing.share_s": statistics.median(share_s),
            "correlated.deal_s": 0.0, "correlated.pool_write_s": 0.0,
            "correlated.pool_read_s": 0.0, "correlated.pool_mb": 0.0,
        }
        run.notes.append(write_spans(workload.name, seed, kept_spans))
        run.notes += tracer.notes()
    return run


def print_report(run, block: dict):
    import numpy as np

    from report import SCALED, best_latencies, end_to_end, tail

    walls = [best.wall_s for best in best_latencies(run)]
    _, pct, count = tail(walls) if walls else (0.0, 0.0, 0)
    attempted = len(run.all_records)
    print(f"workload {run.workload}  seed {run.seed}  traced {int(run.traced)}")
    print(f"ring width l={run.l}  mode={run.mode}  nproc={os.cpu_count()}  "
          f"python {platform.python_version()}  numpy {np.__version__}")
    print(f"executions: 1 warm-up + {len(run.records)} measured over {count} distinct queries; "
          f"query_ms_tail = p{pct:.1f} of {count} per-query best latencies")
    print(f"fail_ratio {len(run.failed) / attempted:.4f} ({len(run.failed)}/{attempted})")
    for rec in run.failed:
        for problem in rec.problems:
            print(f"FAILED query {rec.q}: {problem}")
    for name, entry in block.items():
        print(f"{name:32s} {entry['value']:14.6g} {entry['unit']}")
    if not run.traced and run.time_scale != 1.0:
        observed = end_to_end(run, scaled=False)
        print(f"times above are scaled by {run.time_scale:.4f} to the reference speed; observed: "
              + ", ".join(f"{name} {observed[name]:.6g}" for name in SCALED))
    for line in run.notes:
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    from report import END_TO_END, PER_LAYER, end_to_end, metric_block, per_layer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    if workload.transport == "tcp":
        from tcp import run_tcp
        run = run_tcp(workload, args.seed, args.seconds, bool(args.trace))
    else:
        run = run_local(workload, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        block = metric_block(per_layer(run), PER_LAYER)
    else:
        block = metric_block(end_to_end(run), END_TO_END)
    print_report(run, block)
    print(json.dumps({
        "correct": not run.failed,
        "attempted": len(run.all_records),
        "failed": len(run.failed),
        "metrics": block,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
