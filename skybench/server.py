"""One skyshare server process for the tcp_1ms workload.

    python3 skybench/server.py --party 2 --shares P2.shares --pool P2.pool \
        --mode dabit --report OUT.json [--trace]

Loads its share and pool files with Server.from_files, listens on free
loopback ports and prints `ready <client port> <peer port> <read seconds>`.
Party 1 first reads `peer <host:port>` (party 2's peer endpoint) from stdin.
On `stop` or end of stdin it writes OUT.json and exits: the
Server.completed metrics, per-session meters for the correctness gate, peak
RSS, and, with --trace, per-session span statistics (every second session
is traced, counting from 0) plus the spans of the first traced session.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from skyshare import runtime  # noqa: E402
from skyshare.runtime import Server  # noqa: E402

from gate import consumed, party_counts  # noqa: E402
from spans import Tracer, merge_by_party  # noqa: E402

LATENCY_MS = 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--party", type=int, choices=(1, 2), required=True)
    parser.add_argument("--shares", required=True)
    parser.add_argument("--pool", required=True)
    parser.add_argument("--mode", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    sessions: list[dict] = []
    channels: list = []

    class KeptChannel(runtime.TcpChannel):
        """Keeps the session's channel so its transcript can be read afterwards."""

        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            channels.append(self)

    runtime.TcpChannel = KeptChannel
    run_session = Server._run_session

    def metered_session(server, peer_conn, session, q_share):
        ordinal = len(sessions)
        traced = tracer is not None and ordinal % 2 == 1
        before = consumed(server.rand)
        if traced:
            tracer.keep_spans = ordinal == 1
            tracer.install()
        try:
            outcome, metrics = run_session(server, peer_conn, session, q_share)
        except Exception as exc:
            sessions.append({"session": session, "error": f"{type(exc).__name__}: {exc}"})
            raise
        finally:
            if traced:
                tracer.uninstall()
        used = tuple(a - b for a, b in zip(consumed(server.rand), before))
        counts = party_counts(server.party, outcome.k, channels[-1], metrics.secext, used)
        channels.clear()
        record = {"session": session, "counts": counts.to_dict()}
        if traced:
            threads = tracer.drain()
            record["trace"] = merge_by_party(threads).get(server.party)
            if tracer.keep_spans:
                record["spans"] = [t for t in threads if t["spans"]]
        sessions.append(record)
        return outcome, metrics

    Server._run_session = metered_session

    peer = "127.0.0.1:0"
    if args.party == 1:
        line = sys.stdin.readline().split()
        if len(line) != 2 or line[0] != "peer":
            raise SystemExit(f"server 1: expected 'peer host:port' on stdin, got {line}")
        peer = line[1]
    started = time.perf_counter()
    server = Server.from_files(args.party, "127.0.0.1:0", peer, args.shares, args.pool,
                               latency_ms=LATENCY_MS, mode=args.mode)
    read_s = time.perf_counter() - started
    server.start()
    peer_port = server._peer_sock.getsockname()[1] if args.party == 2 else 0
    print(f"ready {server.port} {peer_port} {read_s!r}", flush=True)
    for line in sys.stdin:
        if line.strip() == "stop":
            break
    # No server.stop(): closing a listening socket does not wake a thread
    # blocked in accept() on Linux, so stop() would wait out its 5 s join
    # timeout per accept thread.  The daemon threads end with this process.
    report = {
        "party": args.party,
        "completed": [dataclasses.asdict(m) for m in server.completed],
        "sessions": sessions,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pool_read_s": read_s,
    }
    with open(args.report, "w", encoding="utf-8") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
