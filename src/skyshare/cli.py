"""Operator commands: gen, deal, serve, query, verify, bench.

Global flags (before the subcommand): --l, --latency-ms, --seed.  The
filtering sentinel is not a flag: it is ring.default_vmax of the ring width.
Dataset parameters may come from a key = value config file, with
command-line flags taking precedence.  Every command is deterministic under
--seed apart from wall-clock fields, deal's shares and pools, and the TCP
client's query sharing, which draw fresh entropy on every run (a query's
printed rows stay deterministic).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .datasets import DatasetSpec, dataset_bound, generate, load_csv, parse_config, save_csv
from .metering import METRICS_CSV_HEADER, budget_for_query, msb_invocations
from .plaintext import plaintext_skyline, same_rows
from .protocol import check_domain, ring_width
from .ring import Ring
from .runtime import LocalEngine, Server, tcp_query
from .sharing import share_matrix, write_share_file
from .correlated import KINDS, deal_strict, write_pool_file


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _dataset_from_args(args) -> DatasetSpec:
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config(args.config))
    for key in ("kind", "n", "m", "bound"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    kind = str(values.get("kind", "inde")).lower()
    return DatasetSpec(
        kind=kind,
        n=int(values.get("n", 0) or 0),
        m=int(values.get("m", 0) or 0),
        seed=args.seed,
        bound=int(values.get("bound", 1000)),
        scale=int(values.get("scale", 1)),
        path=values.get("path"),
    )


def cmd_gen(args) -> int:
    spec = _dataset_from_args(args)
    data = generate(spec)
    save_csv(args.out, data)
    print(f"wrote {spec.kind} dataset n={data.shape[0]} m={data.shape[1]} to {args.out}")
    return 0


def cmd_deal(args) -> int:
    columns = args.columns.split(",") if args.columns else None
    data, _ = load_csv(args.data, columns=columns, scale=args.scale or 1)
    n, m = data.shape
    bound = dataset_bound(data)
    l = ring_width(m, bound) if args.l is None else args.l
    ring = Ring(l)
    vmax = check_domain(m, bound, ring)
    k_max = args.kmax if args.kmax else n
    if args.sessions < 1:
        return _fail("--sessions must be at least 1")
    budget = budget_for_query(n, m, l, k_max).scaled(args.sessions)
    # fresh OS entropy, never --seed: two dealings under one seed would hand
    # party 2 shares whose difference is the data's, and both servers the
    # same masks for sessions of either dealing
    share_seed, pool_seed = np.random.SeedSequence().spawn(2)
    s1, s2 = share_matrix(data, np.random.default_rng(share_seed), ring)
    rand1, rand2 = deal_strict(ring, pool_seed, budget, vmax)
    os.makedirs(args.out_dir, exist_ok=True)
    for party, shares, rand in ((1, s1, rand1), (2, s2, rand2)):
        share_path = os.path.join(args.out_dir, f"party{party}.shares")
        pool_path = os.path.join(args.out_dir, f"party{party}.pool")
        write_share_file(share_path, party, shares, l, args.scale or 1)
        write_pool_file(pool_path, party, l, rand, budget)
        print(f"party {party}: {share_path} + {pool_path}")
    counts = ", ".join(f"{getattr(budget, kind.name)} {kind.name}" for kind in KINDS)
    print(f"dealt for n={n} m={m} bound={bound} l={l} k_max={k_max} ({counts})")
    return 0


def cmd_serve(args) -> int:
    server = Server.from_files(args.party, args.listen, args.peer, args.shares, args.pool,
                               latency_ms=args.latency_ms)
    server.start()
    print(f"server {args.party} listening on {args.listen} (peer link {args.peer})", flush=True)
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        server.stop()
    return 0


def cmd_query(args) -> int:
    q = [int(x) for x in args.q.split(",")]
    rows = tcp_query(args.servers.split(","), q, args.l, scale=args.scale or 1)
    for row in rows:
        print(",".join(str(x) for x in row))
    print(f"{len(rows)} skyline rows", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if args.queries < 1:
        return _fail("--queries must be at least 1")
    spec = _dataset_from_args(args)
    data = generate(spec)
    bound = max(dataset_bound(data), 1)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed).spawn(1)[0])
    queries = rng.integers(0, bound + 1, size=(args.queries, data.shape[1]))
    if args.servers:
        run = lambda q: tcp_query(args.servers.split(","), q, args.l)
    else:
        engine = LocalEngine(data, l=args.l, seed=args.seed, latency_ms=args.latency_ms)
        run = lambda q: engine.query(q)[0]
    matched = 0
    for i, q in enumerate(queries):
        got = run([int(x) for x in q])
        want = plaintext_skyline(data, q)
        if same_rows(got, want):
            matched += 1
        else:
            print(f"mismatch on query {i}: {list(q)}", file=sys.stderr)
    rate = 100.0 * matched / args.queries
    print(f"matched {matched}/{args.queries} ({rate:.1f}%)")
    return 0 if matched == args.queries else 1


def cmd_bench(args) -> int:
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    m_list = [int(x) for x in args.m_list.split(",") if x.strip()]
    if not kinds or not n_list or not m_list:
        return _fail("empty sweep: need at least one kind, one n and one m")
    lines = [METRICS_CSV_HEADER + ",dataset"]
    for kind in kinds:
        for n in n_list:
            for m in m_list:
                spec = DatasetSpec(kind=kind, n=n, m=m, seed=args.seed, bound=args.bound or 1000)
                data = generate(spec)
                engine = LocalEngine(data, l=args.l, seed=args.seed, latency_ms=args.latency_ms)
                rng = np.random.default_rng(np.random.SeedSequence(args.seed).spawn(2)[1])
                for _ in range(args.queries):
                    q = rng.integers(0, spec.bound + 1, size=m)
                    _, metrics = engine.query([int(x) for x in q])
                    if metrics.secext != msb_invocations(n, m, metrics.k):
                        return _fail(f"comparison-count model broken at kind={kind} n={n} m={m}")
                    lines.append(metrics.csv_row() + f",{kind}")
    body = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(body)
        print(f"wrote {len(lines) - 1} metric rows to {args.out}")
    else:
        print(body, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="skyshare",
                                  description="secret-shared skyline queries over two servers")
    top.add_argument("--l", type=int, default=None,
                     help="ring width in bits (default: the narrowest the data bound "
                          "admits; the query client learns it from the servers)")
    top.add_argument("--latency-ms", type=float, default=None,
                     help="injected one-way channel latency "
                          "(default: 1 for serve, 0 elsewhere)")
    top.add_argument("--seed", type=int, default=0,
                     help="root seed for gen, verify and bench; deal and query draw "
                          "fresh OS entropy for every share and pool")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    gen.add_argument("--kind", choices=("inde", "corr", "anti"))
    gen.add_argument("--n", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--bound", type=int)
    gen.add_argument("--config", help="key = value dataset config file")
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=cmd_gen)

    deal = sub.add_parser("deal", help="share a CSV database and deal randomness pools")
    deal.add_argument("--data", required=True)
    deal.add_argument("--columns", help="comma-separated column subset")
    deal.add_argument("--scale", type=int)
    deal.add_argument("--kmax", type=int, default=0,
                      help="randomness budget in result rows (default n)")
    deal.add_argument("--sessions", type=int, default=1,
                      help="number of query sessions the pools must cover")
    deal.add_argument("--out-dir", required=True)
    deal.set_defaults(fn=cmd_deal)

    serve = sub.add_parser("serve", help="run one server role")
    serve.add_argument("--party", type=int, required=True, choices=(1, 2))
    serve.add_argument("--listen", required=True, help="client endpoint host:port")
    serve.add_argument("--peer", required=True,
                       help="peer link endpoint (party 1 dials it, party 2 binds it)")
    serve.add_argument("--shares", required=True)
    serve.add_argument("--pool", required=True)
    serve.set_defaults(fn=cmd_serve)

    query = sub.add_parser("query", help="issue one skyline query against two servers")
    query.add_argument("--servers", required=True, help="host:port,host:port")
    query.add_argument("--q", required=True, help="comma-separated attributes")
    query.add_argument("--scale", type=int)
    query.set_defaults(fn=cmd_query)

    verify = sub.add_parser("verify", help="cross-check the engine against the cleartext oracle")
    verify.add_argument("--kind", choices=("inde", "corr", "anti"))
    verify.add_argument("--n", type=int)
    verify.add_argument("--m", type=int)
    verify.add_argument("--bound", type=int)
    verify.add_argument("--config")
    verify.add_argument("--queries", type=int, default=100)
    verify.add_argument("--servers", help="use running servers instead of in-process")
    verify.set_defaults(fn=cmd_verify)

    bench = sub.add_parser("bench", help="sweep (dataset, n, m) cells and emit metrics CSV")
    bench.add_argument("--kinds", default="corr,inde,anti")
    bench.add_argument("--n-list", required=True)
    bench.add_argument("--m-list", required=True)
    bench.add_argument("--bound", type=int)
    bench.add_argument("--queries", type=int, default=1)
    bench.add_argument("--out")
    bench.set_defaults(fn=cmd_bench)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.latency_ms is None:
        # servers mirror the evaluated 1 ms network delay; in-process runs don't
        args.latency_ms = 1.0 if args.command == "serve" else 0.0
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
