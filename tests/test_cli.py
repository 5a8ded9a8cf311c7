import socket

import numpy as np
import pytest

from conftest import start_server_pair

from skyshare.cli import main
from skyshare.datasets import save_csv
from skyshare.metering import METRICS_CSV_HEADER, msb_invocations
from skyshare.protocol import ring_width
from skyshare.ring import Ring
from skyshare.runtime import Server
from skyshare.sharing import read_share_file


def test_gen_is_deterministic(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["--seed", "7", "gen", "--kind", "corr", "--n", "200", "--m", "2", "--out", a]) == 0
    assert main(["--seed", "7", "gen", "--kind", "corr", "--n", "200", "--m", "2", "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gen_from_config(tmp_path):
    cfg = tmp_path / "ds.cfg"
    cfg.write_text("kind = anti\nn = 50\nm = 3\nbound = 40\n")
    out = str(tmp_path / "cfg.csv")
    assert main(["--seed", "1", "gen", "--config", str(cfg), "--out", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 51


def test_deal_writes_share_and_pool_files(tmp_path, table_example):
    database, _, _, _ = table_example
    csv = tmp_path / "db.csv"
    csv.write_text("R,H\n" + "\n".join(f"{r},{h}" for r, h in database) + "\n")
    out = tmp_path / "dealt"
    assert main(["--seed", "3", "deal", "--data", str(csv), "--out-dir", str(out)]) == 0
    for party in (1, 2):
        assert (out / f"party{party}.shares").exists()
        assert (out / f"party{party}.pool").exists()


@pytest.mark.parametrize("cell", ["inf", "nan", "1e300"])
def test_deal_refuses_a_cell_outside_int64(tmp_path, capsys, cell):
    """A cell that is not finite or whose scaled value overflows int64 ends
    deal with one error line naming its row and column, and no files."""
    csv = tmp_path / "db.csv"
    csv.write_text(f"R,H\n1,2\n3,{cell}\n")
    out = tmp_path / "dealt"
    assert main(["deal", "--data", str(csv), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {csv}:3: column 'H': "), err
    assert not out.exists()


def test_gen_has_no_scale_flag(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--kind", "inde", "--n", "4", "--m", "2", "--scale", "100",
              "--out", str(tmp_path / "x.csv")])
    assert "unrecognized arguments: --scale 100" in capsys.readouterr().err


def test_redealing_a_changed_database_draws_fresh_shares(tmp_path, capsys):
    """Two databases one row apart, dealt at one --seed: party 1's shares
    differ, party 2's differ by something other than the data's change, and
    servers on either dealing answer exactly."""
    first = np.array([[3, 5], [7, 1], [2, 2], [6, 6]])
    second = first.copy()
    second[1] = [4, 6]  # the same bound, so the same ring width
    ring = Ring(ring_width(2, 7))
    dealt = []
    for name, data in (("a", first), ("b", second)):
        csv = tmp_path / f"{name}.csv"
        save_csv(str(csv), data)
        out = tmp_path / name
        assert main(["--seed", "0", "deal", "--data", str(csv), "--sessions", "2",
                     "--out-dir", str(out)]) == 0
        dealt.append({party: read_share_file(str(out / f"party{party}.shares"))[0]
                      for party in (1, 2)})
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"kind = csv\npath = {csv}\n")
        servers = start_server_pair(lambda party, peer: Server.from_files(
            party, "127.0.0.1:0", peer,
            str(out / f"party{party}.shares"), str(out / f"party{party}.pool"),
            latency_ms=0.0, handshake_timeout=2.0))
        capsys.readouterr()
        try:
            endpoints = f"127.0.0.1:{servers[0].port},127.0.0.1:{servers[1].port}"
            assert main(["verify", "--config", str(cfg), "--queries", "2",
                         "--servers", endpoints]) == 0
            assert "matched 2/2" in capsys.readouterr().out
        finally:
            for s in servers:
                s.stop()
    assert (dealt[0][1] != dealt[1][1]).any()
    change = ring.reduce((second - first).astype(np.uint64))
    assert (ring.reduce(dealt[1][2] - dealt[0][2]) != change).any()


def _free_port():
    """A port nothing listens on, for the unreachable-server test only:
    another socket may take it after the probe, so servers bind port 0."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_full_pipeline_over_tcp(tmp_path, capsys, table_example):
    """gen-equivalent CSV -> deal -> two servers -> client query."""
    database, query, _, skyline = table_example
    csv = tmp_path / "db.csv"
    csv.write_text("R,H\n" + "\n".join(f"{r},{h}" for r, h in database) + "\n")
    out = tmp_path / "dealt"
    assert main(["--seed", "5", "deal", "--data", str(csv), "--out-dir", str(out)]) == 0
    capsys.readouterr()  # drop the deal command's report

    servers = start_server_pair(lambda party, peer: Server.from_files(
        party, "127.0.0.1:0", peer,
        str(out / f"party{party}.shares"), str(out / f"party{party}.pool"),
        latency_ms=1.0, handshake_timeout=2.0))
    try:
        endpoints = f"127.0.0.1:{servers[0].port},127.0.0.1:{servers[1].port}"
        code = main(["--seed", "9", "query", "--servers", endpoints,
                     "--q", ",".join(str(x) for x in query)])
        assert code == 0
        got = capsys.readouterr().out.strip().splitlines()
        assert got == [",".join(str(x) for x in row) for row in skyline]
    finally:
        for s in servers:
            s.stop()


def test_query_with_unreachable_server_fails(capsys):
    dead = _free_port()
    code = main(["query", "--servers", f"127.0.0.1:{dead},127.0.0.1:{dead}",
                 "--q", "1,2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_verify_local_matches_oracle(capsys):
    code = main(["--seed", "11", "verify", "--kind", "corr", "--n", "60",
                 "--m", "2", "--bound", "30", "--queries", "8"])
    assert code == 0
    assert "matched 8/8 (100.0%)" in capsys.readouterr().out


def test_verify_rejects_zero_queries(capsys):
    assert main(["verify", "--kind", "corr", "--n", "10", "--m", "2",
                 "--queries", "0"]) == 1


def test_verify_against_running_servers(tmp_path, capsys):
    gen_args = ["--seed", "21", "gen", "--kind", "corr", "--n", "12", "--m", "2",
                "--bound", "9", "--out", str(tmp_path / "db.csv")]
    assert main(gen_args) == 0
    out = tmp_path / "dealt"
    assert main(["--seed", "21", "deal", "--data", str(tmp_path / "db.csv"),
                 "--sessions", "2", "--out-dir", str(out)]) == 0
    servers = start_server_pair(lambda party, peer: Server.from_files(
        party, "127.0.0.1:0", peer,
        str(out / f"party{party}.shares"), str(out / f"party{party}.pool"),
        latency_ms=0.0, handshake_timeout=2.0))
    capsys.readouterr()
    try:
        endpoints = f"127.0.0.1:{servers[0].port},127.0.0.1:{servers[1].port}"
        code = main(["--seed", "21", "verify", "--kind", "corr", "--n", "12",
                     "--m", "2", "--bound", "9", "--queries", "2",
                     "--servers", endpoints])
        assert code == 0
        assert "matched 2/2" in capsys.readouterr().out
    finally:
        for s in servers:
            s.stop()


def test_bench_sweep_metrics(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    code = main(["--seed", "13", "bench", "--kinds", "corr", "--n-list", "32",
                 "--m-list", "2,3,4", "--bound", "20", "--out", out])
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == METRICS_CSV_HEADER + ",dataset"
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 3
    for row in rows:
        n, m, k = int(row["n"]), int(row["m"]), int(row["k"])
        assert int(row["secext"]) == msb_invocations(n, m, k)
    # communication grows with the dimension count
    bytes_by_m = [int(r["bytes_tx"]) for r in rows]
    assert bytes_by_m == sorted(bytes_by_m) and bytes_by_m[0] < bytes_by_m[-1]


def test_bench_rejects_empty_sweep(capsys):
    assert main(["bench", "--kinds", "", "--n-list", "8", "--m-list", "2"]) == 1
