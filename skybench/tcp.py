"""tcp_1ms harness: owner set-up, two server processes, one closed-loop client.

Set-up (timed as setup_s, repeated TCP_SETUPS times) is what an operator
does before the first query: share the database (LocalEngine with the
program's default width and mode), deal strict pools that cover exactly the
planned executions, write share and pool files, and start both servers
until they listen with their pools read.  The plan follows the run's
schedule until its round floor (rounds x 1 ms) passes the measuring time,
so no run can exhaust the pools; each query's k is known in advance from
plaintext_skyline.  Pool files are removed when the run ends.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import subprocess
import sys
import tempfile
import time
from itertools import count
from pathlib import Path

import numpy as np
from skyshare import LocalEngine, tcp_query
from skyshare.correlated import deal_strict, write_pool_file
from skyshare.metering import RandomnessBudget, budget_for_query, query_rounds
from skyshare.sharing import read_share_file, write_share_file

from gate import PartyCounts, check_phases, check_query
from report import QueryRecord, RunResult, describe, query_layers
from server import LATENCY_MS
from spans import WORK, Tracer, share_seconds, write_spans
from workloads import schedule

SERVER = Path(__file__).resolve().parent / "server.py"
TCP_SETUPS = 5
DELAY_S = LATENCY_MS / 1000.0  # one-way delay the servers inject per flight
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Cluster:
    """Share/pool files and the two server processes of one set-up."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.procs: list[subprocess.Popen] = []
        self.endpoints: list[str] = []
        self.reports = [workdir / "party1.json", workdir / "party2.json"]
        self.timing: dict[str, float] = {}

    def start(self, engine: LocalEngine, budget: RandomnessBudget, seed: int, traced: bool):
        l = engine.ring.l
        for path in self.reports:
            path.unlink(missing_ok=True)
        started = time.perf_counter()
        rands = deal_strict(engine.ring, np.random.SeedSequence(seed), budget, engine.vmax)
        dealt = time.perf_counter()
        for party, shares, rand in zip((1, 2), (engine.p1_shares, engine.p2_shares), rands):
            write_share_file(str(self.workdir / f"party{party}.shares"), party, shares, l)
            write_pool_file(str(self.workdir / f"party{party}.pool"), party, l, rand, budget)
        written = time.perf_counter()
        self.timing.update(deal_s=dealt - started, pool_write_s=written - dealt,
                           pool_mb=os.path.getsize(self.workdir / "party1.pool") / 1e6)
        # party 2 binds the peer port; party 1 learns it from party 2's ready line
        self.procs = []
        for party in (2, 1):
            self.procs.append(self._spawn(party, engine.mode, traced))
        p2_port, p2_peer, p2_read = self._ready(self.procs[0])
        self.procs[1].stdin.write(f"peer 127.0.0.1:{p2_peer}\n")
        self.procs[1].stdin.flush()
        p1_port, _, p1_read = self._ready(self.procs[1])
        self.endpoints = [f"127.0.0.1:{p1_port}", f"127.0.0.1:{p2_port}"]
        self.timing["pool_read_s"] = max(p1_read, p2_read)

    def _spawn(self, party: int, mode: str, traced: bool) -> subprocess.Popen:
        cmd = [sys.executable, str(SERVER), "--party", str(party),
               "--shares", str(self.workdir / f"party{party}.shares"),
               "--pool", str(self.workdir / f"party{party}.pool"),
               "--mode", mode, "--report", str(self.reports[party - 1])]
        if traced:
            cmd.append("--trace")
        return subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    @staticmethod
    def _ready(proc: subprocess.Popen) -> tuple[int, int, float]:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(START_TIMEOUT_S):
                raise RuntimeError(f"server process {proc.args[3]} not ready in {START_TIMEOUT_S} s")
        words = proc.stdout.readline().split()
        if len(words) != 4 or words[0] != "ready":
            raise RuntimeError(f"server process {proc.args[3]} failed to start: {words}")
        return int(words[1]), int(words[2]), float(words[3])

    def stop(self) -> list[dict]:
        """Stop both servers, wait for them, and return their reports."""
        for proc in self.procs:
            try:
                proc.stdin.write("stop\n")
                proc.stdin.close()
            except OSError:
                pass  # already gone; wait() below reaps it
        for proc in self.procs:
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs = []
        return [load_report(path) for path in self.reports if path.exists()]


def load_report(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def plan_executions(queries, n: int, m: int, l: int, mode: str, seconds: float, traced: bool):
    """Query indexes of the executions workloads.schedule can reach: the
    schedule's minimum, extended until the round floor passes `seconds`."""
    plan, floor_s = [], 0.0
    need = len(queries) * (2 if traced else 1)
    for execution in count():
        index = 0 if execution == 0 else (execution - 1) % len(queries)
        plan.append(index)
        if execution > 0:
            floor_s += query_rounds(n, m, l, queries[index][1], mode) * DELAY_S
            if execution >= need and floor_s >= seconds:
                return plan


def run_tcp(workload, seed: int, seconds: float, traced: bool) -> RunResult:
    data = workload.data()
    n, m = data.shape
    queries = workload.queries(data, seed)
    probe = LocalEngine(data, seed=seed)
    l, mode = probe.ring.l, probe.mode
    plan = plan_executions(queries, n, m, l, mode, seconds, traced)
    budget = RandomnessBudget()
    for index in plan:
        budget = budget + budget_for_query(n, m, l, queries[index][1], mode)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tcp-", dir=WORK))
    cluster = Cluster(workdir)
    tracer = Tracer() if traced else None
    setups, timings = [], []
    try:
        for attempt in range(TCP_SETUPS):
            if tracer:
                tracer.install()
            started = time.perf_counter()
            engine = LocalEngine(data, seed=seed)
            if tracer:
                tracer.uninstall()
            cluster.start(engine, budget, seed, traced)
            setups.append(time.perf_counter() - started)
            timings.append(dict(cluster.timing, share_s=share_seconds(tracer) if tracer else 0.0))
            if attempt < TCP_SETUPS - 1:
                cluster.stop()
        _, meta = read_share_file(str(workdir / "party1.shares"))
        executed = _client_loop(cluster.endpoints, meta["l"], queries, len(plan), seed,
                                seconds, traced)
        reports = cluster.stop()
    finally:
        cluster.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    by_party = {rep["party"]: rep for rep in reports}
    records = [_check(data, queries, execution, index, trace_this, wall, rows, by_party, l, mode)
               for execution, index, trace_this, wall, rows in executed]
    run = RunResult(workload.name, seed, meta["l"], mode, traced, setups, records[:1],
                    records[1:], max((rep["peak_rss_mb"] for rep in reports), default=0.0))
    if traced:
        def median_of(key: str) -> float:
            return float(np.median([t[key] for t in timings]))

        run.setup_layers = {
            "sharing.share_s": median_of("share_s"),
            "correlated.deal_s": median_of("deal_s"),
            "correlated.pool_write_s": median_of("pool_write_s"),
            "correlated.pool_read_s": median_of("pool_read_s"),
            "correlated.pool_mb": median_of("pool_mb"),
        }
        kept = [(s["session"], s["spans"]) for rep in reports for s in rep["sessions"]
                if "spans" in s]
        run.notes.append(write_spans(workload.name, seed, kept))
        run.notes += tracer.notes()
    return run


def _client_loop(endpoints, l: int, queries, planned: int, seed: int, seconds: float,
                 traced: bool):
    executed = []
    for execution, index, trace_this in schedule(len(queries), seconds, traced):
        if execution >= planned:
            break
        begin = time.perf_counter()
        try:
            rows = tcp_query(endpoints, queries[index][0], l, seed=seed * 100_003 + execution)
        except Exception as exc:  # a raising query is a failed query; the run goes on
            rows = exc
        executed.append((execution, index, trace_this, time.perf_counter() - begin, rows))
    return executed


def _check(data, queries, execution, index, trace_this, wall, rows, by_party, l, mode
           ) -> QueryRecord:
    """Gate one execution with the meters both servers recorded for its session;
    sessions are matched by order, as the client runs them one at a time."""
    q = queries[index][0]
    if isinstance(rows, Exception):
        return QueryRecord(index, q, 0.0, 0, 0, 0, [describe(rows)], trace_this)
    n, m = data.shape
    sessions = [by_party.get(p, {}).get("sessions", []) for p in (1, 2)]
    if any(len(s) <= execution or "counts" not in s[execution] for s in sessions):
        return QueryRecord(index, q, wall, len(rows), 0, 0, ["no server record for this session"],
                           trace_this)
    counts = [PartyCounts(**s[execution]["counts"]) for s in sessions]
    verdict = check_query(data, q, rows, counts, l, mode)
    rec = QueryRecord(index, q, wall, counts[0].k, counts[0].rounds, counts[0].bytes_tx,
                      verdict.problems, trace_this, verdict.rounds_gap, verdict.randomness_gap,
                      verdict.oracle_s)
    if trace_this:
        parties = {}
        for party, s in zip((1, 2), sessions):
            parties[party] = s[execution].get("trace") or {"stats": {}, "phases": {}}
            rec.problems += check_phases(parties[party]["phases"], n, m, l, counts[0].k, mode, party)
        rec.layers = query_layers(parties, wall, counts[0])
    return rec
