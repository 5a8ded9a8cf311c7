"""Self-test of the benchmark at tiny sizes:

    python3 -m pytest -q skybench/test_bench.py

Shows that every workload runs clean on the program as it is, and that the
gate is live: a corrupted result row and a shifted round count both count
as failed queries, in-process and over TCP.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from skyshare.plaintext import plaintext_skyline  # noqa: E402
from skyshare.runtime import LocalEngine  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import tcp  # noqa: E402
from report import END_TO_END, PER_LAYER, end_to_end, per_layer, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "inde_loop": dict(n=16, m=3, bound=20, distinct=5),
    "wide_scan": dict(n=64, m=2, bound=100, distinct=5),
    "tcp_1ms": dict(n=8, m=2, bound=20, distinct=3),
}


def _run(name: str, traced: bool = False, seconds: float = 0.4):
    workload = WORKLOADS[name].resized(**TINY[name])
    runner = tcp.run_tcp if workload.transport == "tcp" else run.run_local
    return runner(workload, 3, seconds, traced)


def _bump_first_row(rows):
    return [tuple(x + 1 for x in rows[0])] + list(rows[1:])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_clean_untraced_and_traced(name):
    plain = _run(name)
    assert plain.failed == []
    assert plain.records
    values = end_to_end(plain)
    assert [metric for metric, _ in END_TO_END] == list(values)
    assert all(v > 0 for v in values.values()), values

    traced = _run(name, traced=True)
    assert traced.failed == []
    assert any(r.traced for r in traced.records)
    layers = per_layer(traced)
    assert {metric for metric, _ in PER_LAYER} <= set(layers)
    assert layers["metering.rounds_gap"] == 0
    assert layers["metering.randomness_gap"] == 0
    assert all(layers[f"protocol.{phase}_rounds"] > 0 for phase in gate.PHASES)


def test_local_gate_catches_corrupted_row(monkeypatch):
    query = LocalEngine.query

    def corrupted(self, q):
        rows, metrics = query(self, q)
        return _bump_first_row(rows), metrics

    monkeypatch.setattr(LocalEngine, "query", corrupted)
    result = _run("inde_loop")
    assert len(result.failed) == len(result.all_records)
    assert all(any("rows differ" in p for p in r.problems) for r in result.failed)


def test_local_gate_catches_shifted_round_count(monkeypatch):
    query = LocalEngine.query

    def shifted(self, q):
        out = query(self, q)
        self.last_contexts[0].chan.rounds += 1
        return out

    monkeypatch.setattr(LocalEngine, "query", shifted)
    result = _run("inde_loop")
    assert len(result.failed) == len(result.all_records)
    assert all(any("party 1: rounds" in p for p in r.problems) for r in result.failed)
    assert per_layer(result)["metering.rounds_gap"] == len(result.all_records)


def test_local_phase_gate_catches_shifted_phase(monkeypatch):
    expectations = gate.phase_expectations

    def shifted(*args):
        out = expectations(*args)
        rounds, *rest = out["fetch"]
        out["fetch"] = (rounds + 1, *rest)
        return out

    monkeypatch.setattr(gate, "phase_expectations", shifted)
    result = _run("inde_loop", traced=True)
    traced = [r for r in result.records if r.traced]
    assert traced and all(r in result.failed for r in traced)
    assert all(any("fetch phase" in p for p in r.problems) for r in traced)


def test_tcp_gate_catches_corrupted_row_and_shifted_rounds(monkeypatch):
    query = tcp.tcp_query
    monkeypatch.setattr(tcp, "tcp_query", lambda *a, **kw: _bump_first_row(query(*a, **kw)))
    load = tcp.load_report

    def shifted(path):
        report = load(path)
        for session in report["sessions"]:
            session["counts"]["rounds"] += 1
        return report

    monkeypatch.setattr(tcp, "load_report", shifted)
    result = _run("tcp_1ms")
    assert len(result.failed) == len(result.all_records)
    for rec in result.failed:
        assert any("rows differ" in p for p in rec.problems)
        assert any("party 1: rounds" in p for p in rec.problems)
        assert any("party 2: rounds" in p for p in rec.problems)


def test_query_set_is_seeded_in_range_and_carries_its_skyline_size():
    workload = WORKLOADS["inde_loop"].resized(**TINY["inde_loop"])
    data = workload.data()
    first = workload.queries(data, 5)
    assert first == workload.queries(data, 5)
    assert first != workload.queries(data, 6)
    assert len(first) == workload.distinct
    for q, k in first:
        assert len(q) == workload.m and all(0 <= x <= workload.bound for x in q)
        assert k == len(plaintext_skyline(data, q))


def test_tail_keeps_ten_samples_beyond():
    assert tail([float(x) for x in range(1, 101)]) == (90.0, 90.0, 100)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "skybench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", "inde_loop", "--seed", "1", "--seconds", "1",
                             "--trace", "0"]
    cmd[0] = sys.executable
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
