import queue
import socket
import struct
import threading
import time

import numpy as np
import pytest

from conftest import peer_addr, start_server_pair

from skyshare import runtime
from skyshare.channel import (
    KIND_HELLO,
    KIND_NAMES,
    KIND_OPEN_BIT,
    KIND_QUERY,
    KIND_RESULT,
    KIND_ROUND_DATA,
    ConnectionClosed,
    FrameError,
    LocalChannel,
    decode_frame,
    encode_frame,
    read_bounded_frame,
    read_body,
    write_frame,
)
from skyshare.correlated import KINDS, deal_streaming, deal_strict, write_pool_file
from skyshare.metering import budget_for_query, query_bytes, query_rounds
from skyshare.plaintext import plaintext_skyline, same_rows
from skyshare.protocol import ring_width
from skyshare.ring import Ring, default_vmax
from skyshare.runtime import LocalEngine, Server, parse_endpoint, run_pair, tcp_query
from skyshare.sharing import share_matrix, write_share_file

FRESH = (0,) * len(KINDS)  # the pool cursors a fake peer reports in its hello
HELLO = runtime._SERVER_HELLO.size  # the payload of a server hello, read by fake clients


def _query_size(l, m):
    """The payload of a query frame of m values at width l."""
    return len(runtime._encode_query_payload(l, np.zeros(m, np.uint64)))


def test_frame_round_trip_all_kinds():
    for kind in KIND_NAMES:
        frame = encode_frame(kind, 0xDEADBEEF, b"payload")
        got_kind, session, payload = decode_frame(frame[4:])
        assert (got_kind, session, payload) == (kind, 0xDEADBEEF, b"payload")


def test_frame_rejects_bad_kind_and_truncation():
    with pytest.raises(FrameError):
        encode_frame(99, 1, b"")
    with pytest.raises(FrameError):
        decode_frame(b"\x03")  # shorter than the fixed header
    with pytest.raises(FrameError):
        decode_frame(b"\x63" + b"\x00" * 8)  # unknown kind 0x63


def test_frame_socket_fuzz():
    """Truncated and oversized frames must fail loudly, never hang or parse."""
    rng = np.random.default_rng(0)
    limit = 10  # the longest payload an honest frame of the fuzz carries
    for case in range(40):
        a, b = socket.socketpair()
        try:
            if case % 4 == 0:
                a.sendall(b"\x00\x00\x00\x02\x03")  # length below header size
            elif case % 4 == 1:
                a.sendall(b"\x7f\xff\xff\xff" + b"\x03")  # oversized declaration
                a.close()
            elif case % 4 == 2:
                frame = encode_frame(KIND_ROUND_DATA, 5, bytes(rng.integers(0, 256, size=10, dtype=np.uint8)))
                a.sendall(frame[:int(rng.integers(1, len(frame)))])
                a.close()
            else:
                blob = bytes(rng.integers(0, 256, size=12, dtype=np.uint8))
                a.sendall(b"\x00\x00\x00\x0c" + blob)
            b.settimeout(2.0)
            with pytest.raises((FrameError, OSError)):
                read_bounded_frame(b, limit)
        finally:
            a.close()
            b.close()


def test_read_body_tells_a_clean_close_from_a_torn_frame():
    limit = 4  # admits the 9-byte declaration (4 bytes of payload), so it is torn
    for sent, closed_cleanly in ((b"", True), (b"\x00\x00", False), (b"\x00\x00\x00\x09\x03", False)):
        a, b = socket.socketpair()
        try:
            a.sendall(sent)
            a.close()
            b.settimeout(2.0)
            with pytest.raises(FrameError) as caught:
                read_body(b, limit)
            assert isinstance(caught.value, ConnectionClosed) == closed_cleanly, sent
        finally:
            b.close()


def test_local_channel_round_and_kind_discipline():
    c1, c2 = LocalChannel.pair(7)
    out = [None, None]
    run_pair(
        (lambda: out.__setitem__(0, c1.exchange(b"alpha")), c1),
        (lambda: out.__setitem__(1, c2.exchange(b"omega")), c2),
    )
    assert out == [b"omega", b"alpha"]
    assert c1.rounds == c2.rounds == 1
    assert c1.bytes_tx == 5 and c1.bytes_rx == 5

    with pytest.raises(FrameError):
        run_pair(
            (lambda: c1.exchange(b"x", kind=KIND_ROUND_DATA), c1),
            (lambda: c2.exchange(b"y", kind=KIND_OPEN_BIT), c2),
        )

    # the two flights of a round are the same size; anything else is refused
    c1, c2 = LocalChannel.pair(8)
    with pytest.raises(FrameError, match="peer flight of [45] bytes, ours has [45]"):
        run_pair((lambda: c1.exchange(b"alpha"), c1), (lambda: c2.exchange(b"beta"), c2))

    # a frame of another session is refused
    q12, q21 = queue.SimpleQueue(), queue.SimpleQueue()
    c1, c2 = LocalChannel(q12, q21, 7), LocalChannel(q21, q12, 8)
    with pytest.raises(FrameError, match="session mismatch"):
        run_pair((lambda: c1.exchange(b"x"), c1), (lambda: c2.exchange(b"y"), c2))


def test_poisoned_peer_unblocks():
    # whichever party fails, run_pair raises its error, not the survivor's
    # "peer aborted the session" that the poison causes
    for failing_party in (1, 2):
        c1, c2 = LocalChannel.pair(1)

        def failing():
            raise RuntimeError(f"party {failing_party} fell over")

        tasks = [(lambda: c1.exchange(b"z"), c1), (lambda: c2.exchange(b"z"), c2)]
        tasks[failing_party - 1] = (failing, tasks[failing_party - 1][1])
        with pytest.raises(RuntimeError, match=f"party {failing_party} fell over"):
            run_pair(*tasks)


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
    with pytest.raises(ValueError):
        parse_endpoint("no-port")


def _deal_to_dir(tmp_path, data, l=64, seed=0, k_max=None):
    ring = Ring(l)
    n, m = data.shape
    k_max = n if k_max is None else k_max
    budget = budget_for_query(n, m, l, k_max)
    rng = np.random.default_rng(seed)
    s1, s2 = share_matrix(data, rng, ring)
    r1, r2 = deal_strict(ring, seed + 1, budget, default_vmax(l))
    paths = {}
    for party, shares, rand in ((1, s1, r1), (2, s2, r2)):
        sp = str(tmp_path / f"party{party}.shares")
        pp = str(tmp_path / f"party{party}.pool")
        write_share_file(sp, party, shares, l)
        write_pool_file(pp, party, l, rand, budget)
        paths[party] = (sp, pp)
    return paths


def _start_servers(tmp_path, data, latency_ms=0.0, seed=0, l=64):
    paths = _deal_to_dir(tmp_path, data, l=l, seed=seed)
    return start_server_pair(lambda party, peer: Server.from_files(
        party, "127.0.0.1:0", peer, *paths[party], latency_ms=latency_ms, handshake_timeout=2.0))


def test_tcp_query_matches_oracle_and_local_metrics(tmp_path, table_example):
    database, query, _, skyline = table_example
    servers = _start_servers(tmp_path, np.asarray(database), latency_ms=1.0)
    try:
        endpoints = [f"127.0.0.1:{servers[0].port}", f"127.0.0.1:{servers[1].port}"]
        rows = tcp_query(endpoints, query, l=64, seed=4)
        assert rows == skyline
    finally:
        for s in servers:
            s.stop()


def test_a_tcp_query_from_read_pools_is_exact(tmp_path, table_example):
    """Servers whose pools are the read-only views read_pool_file returns
    answer a query at a narrow width exactly, with the closed-form rounds."""
    database, query, _, skyline = table_example
    servers = _start_servers(tmp_path, np.asarray(database), l=10)
    try:
        for server in servers:
            (units,) = server.rand.bin.take(0)
            assert not units.flags.writeable
        endpoints = [f"127.0.0.1:{s.port}" for s in servers]
        assert tcp_query(endpoints, query, l=10, seed=4) == skyline
        for server in servers:
            (metrics,) = server.completed
            assert metrics.rounds == query_rounds(4, 2, 10, len(skyline))
    finally:
        for s in servers:
            s.stop()


def test_server_keeps_only_the_most_recent_sessions(tmp_path, table_example, monkeypatch):
    monkeypatch.setattr(runtime, "COMPLETED_KEPT", 2)
    database, query, _, skyline = table_example
    paths = _deal_to_dir(tmp_path, np.asarray(database), k_max=16)  # pools for three queries
    servers = start_server_pair(lambda party, peer: Server.from_files(
        party, "127.0.0.1:0", peer, *paths[party], latency_ms=0.0, handshake_timeout=2.0))
    try:
        endpoints = [f"127.0.0.1:{s.port}" for s in servers]
        kept = []
        for seed in range(3):
            assert tcp_query(endpoints, query, l=64, seed=seed) == skyline
            kept.append([list(s.completed) for s in servers])
        assert [[len(done) for done in seen] for seen in kept] == [[1, 1], [2, 2], [2, 2]]
        for before, after in zip(kept[1], kept[2]):
            assert after[0] is before[1]  # the oldest went, the rest moved up
            assert type(after[1]).__name__ == "SessionMetrics" and after[1].k == len(skyline)
    finally:
        for s in servers:
            s.stop()


def test_transport_equivalence_on_random_instances(tmp_path):
    rng = np.random.default_rng(50)
    for trial in range(3):
        n, m = int(rng.integers(2, 24)), int(rng.integers(1, 4))
        data = rng.integers(0, 30, size=(n, m))
        query = rng.integers(0, 30, size=m)
        engine = LocalEngine(data, l=64, seed=trial)
        local_rows, local_metrics = engine.query(query)

        sub = tmp_path / f"t{trial}"
        sub.mkdir()
        servers = _start_servers(sub, data, latency_ms=1.0, seed=trial)
        try:
            endpoints = [f"127.0.0.1:{servers[0].port}", f"127.0.0.1:{servers[1].port}"]
            rows = tcp_query(endpoints, query, l=64, seed=trial)
            assert rows == local_rows
            chan = None
            # compare against the party-1 channel of the TCP session
            # (server keeps no registry; re-run in-process for the meters)
            assert local_metrics.rounds == query_rounds(n, m, 64, local_metrics.k)
        finally:
            for s in servers:
                s.stop()


def test_server_survives_client_disconnect(tmp_path, table_example):
    database, query, _, skyline = table_example
    servers = _start_servers(tmp_path, np.asarray(database))
    try:
        endpoints = [f"127.0.0.1:{servers[0].port}", f"127.0.0.1:{servers[1].port}"]
        # a client that sends garbage and vanishes
        sock = socket.create_connection(parse_endpoint(endpoints[0]))
        sock.sendall(b"\x00\x00\x00\x05\x03\x00\x00\x00\x07")
        sock.close()
        # a client that opens a real session but never reads the result
        sock1 = socket.create_connection(parse_endpoint(endpoints[0]))
        sock2 = socket.create_connection(parse_endpoint(endpoints[1]))
        ring = Ring(64)
        s1, s2 = share_matrix(np.asarray(query)[None, :], np.random.default_rng(1), ring)
        from skyshare.runtime import _encode_query_payload
        write_frame(sock1, KIND_QUERY, 77, _encode_query_payload(64, s1[0]))
        sock1.close()
        sock2.close()
        time.sleep(0.3)
        # the servers still answer a well-formed session
        rows = tcp_query(endpoints, query, l=64, seed=9)
        assert rows == skyline
    finally:
        for s in servers:
            s.stop()


def test_server_rejects_width_mismatch(tmp_path, table_example):
    database, query, _, _ = table_example
    servers = _start_servers(tmp_path, np.asarray(database))
    try:
        endpoints = [f"127.0.0.1:{servers[0].port}", f"127.0.0.1:{servers[1].port}"]
        with pytest.raises((FrameError, OSError)):
            tcp_query(endpoints, query, l=16, seed=3, timeout=3.0)
        rows = tcp_query(endpoints, query, l=64, seed=4)  # servers still fine
        assert len(rows) == 2
    finally:
        for s in servers:
            s.stop()


def _server_lines(capsys, text: str, count: int, timeout: float = 5.0) -> str:
    """Server output until it holds count lines containing text (the server
    threads print after the client has gone)."""
    out = ""
    deadline = time.monotonic() + timeout
    while out.count(text) < count and time.monotonic() < deadline:
        time.sleep(0.02)
        out += capsys.readouterr().out
    return out


def test_client_refuses_out_of_window_query(tmp_path, table_example, monkeypatch, capsys):
    database, query, _, skyline = table_example
    bound = int(np.max(database))
    l = ring_width(2, bound)  # 9: vmax = 255 against m*B = 204
    servers = _start_servers(tmp_path, np.asarray(database), l=l)
    sent = []
    write = runtime.write_frame
    monkeypatch.setattr(runtime, "write_frame",
                        lambda sock, kind, *rest: (sent.append(kind), write(sock, kind, *rest)))
    try:
        endpoints = [f"127.0.0.1:{servers[0].port}", f"127.0.0.1:{servers[1].port}"]
        with pytest.raises(ValueError, match="exact window"):
            tcp_query(endpoints, [3 * bound, 0], seed=1)
        with pytest.raises(ValueError, match="attributes"):
            tcp_query(endpoints, [1, 2, 3], seed=1)
        with pytest.raises(FrameError, match=f"client expects l=64, servers use l={l}"):
            tcp_query(endpoints, query, 64, seed=1)
        # scaled in int64, 2**62 * 4 would wrap to 0 and ask another query
        with pytest.raises(ValueError, match="exact window"):
            tcp_query(endpoints, [2**62, 1], seed=1, scale=4)
        with pytest.raises(ValueError, match="exact window"):
            tcp_query(endpoints, [2**70, 1], seed=1)
        with pytest.raises(ValueError, match="integers"):
            tcp_query(endpoints, [1.7, 1], seed=1)
        assert KIND_QUERY not in sent  # no query share and no peer hello left a socket
        # each server logs the six refusals as clients that left, not as faults
        out = _server_lines(capsys, "client left without a query", 12)
        for party in (1, 2):
            assert out.count(f"server {party}: client left without a query") == 6
        assert "aborted" not in out
        # the pools cover one session: had a refused query run, this one would starve
        assert tcp_query(endpoints, query, seed=2) == skyline
    finally:
        for s in servers:
            s.stop()


def test_server_refuses_a_frame_longer_than_it_can_hold(tmp_path, table_example, capsys):
    # a query frame holds m values and a peer hello three bytes; a length
    # prefix one byte over either is refused before any body is buffered
    database, query, _, skyline = table_example
    m = len(query)
    servers = _start_servers(tmp_path, np.asarray(database))
    longest = {
        "query": encode_frame(KIND_QUERY, 0, runtime._encode_query_payload(64, np.zeros(m, np.uint64))),
        "hello": encode_frame(KIND_QUERY, 0, bytes(runtime._PEER_HELLO.size)),
    }
    try:
        endpoints = [f"127.0.0.1:{servers[0].port}", f"127.0.0.1:{servers[1].port}"]
        for kind, addr in (("query", parse_endpoint(endpoints[0])),
                           ("hello", peer_addr(servers[1]))):
            with socket.create_connection(addr) as sock:
                sock.settimeout(5.0)
                if kind == "query":
                    read_bounded_frame(sock, HELLO)  # the server hello
                declared = len(longest[kind]) - 4 + 1
                sock.sendall(declared.to_bytes(4, "big"))
                assert sock.recv(1) == b"", kind  # dropped at once, not left waiting
        out = _server_lines(capsys, "exceeds the limit", 2)
        assert "server 1: refused a query frame" in out
        assert "server 2: rejected peer link" in out
        assert tcp_query(endpoints, query, l=64, seed=6) == skyline
    finally:
        for s in servers:
            s.stop()


@pytest.mark.parametrize("party", [1, 2])
def test_stalled_peer_aborts_the_session_and_frees_the_server(party, capsys):
    """A fake peer acks each session and then says nothing: the handshake
    timeout ends the session, and the next session still reaches the peer."""
    l = 16
    ring = Ring(l)
    shares, _ = share_matrix(np.array([[3, 1], [1, 3], [2, 2]]), np.random.default_rng(0), ring)
    rand, _ = deal_streaming(ring, 1)
    dialled = socket.create_server(("127.0.0.1", 0))  # where server 1 dials its peer
    peer_port = dialled.getsockname()[1] if party == 1 else 0
    server = Server(party, "127.0.0.1:0", f"127.0.0.1:{peer_port}", shares, rand, l,
                    latency_ms=0.0, handshake_timeout=0.5)
    server.start()
    held = [dialled]
    try:
        dialled.settimeout(5.0)
        for session in (11, 12):
            client = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
            held.append(client)
            read_bounded_frame(client, HELLO)  # the server hello
            if party == 2:  # the fake party 1 binds its link to the session first
                link = socket.create_connection(peer_addr(server), timeout=5.0)
                runtime._write_peer_hello(link, session, l, 1, FRESH)
            write_frame(client, KIND_QUERY, session,
                        runtime._encode_query_payload(l, np.zeros(2, np.uint64)))
            # the dial (party 1) or the ack (party 2) comes only once the lock is free
            if party == 1:
                link, _ = dialled.accept()
                link.settimeout(5.0)
                assert runtime._read_peer_hello(link, l, 1)[0] == session
                runtime._write_peer_hello(link, session, l, 2, FRESH)
            else:
                assert runtime._read_peer_hello(link, l, 2)[0] == session
            held.append(link)  # and then the fake peer stalls
            out = _server_lines(capsys, f"session {session} aborted", 1)
            assert f"server {party}: session {session} aborted" in out
            assert client.recv(1) == b""  # the client is let go, not left waiting
    finally:
        for sock in held:
            sock.close()
        server.stop()


def test_an_unclaimed_peer_link_is_closed_and_dropped(capsys):
    """A fake party 1 binds a peer link to a session that no client opens:
    a second link for that session is closed at once, party 2 closes the
    first after the handshake timeout and forgets it, and the threads of
    finished connections are not kept."""
    l = 16
    ring = Ring(l)
    shares, _ = share_matrix(np.array([[3, 1], [1, 3]]), np.random.default_rng(0), ring)
    rand, _ = deal_streaming(ring, 1)
    server = Server(2, "127.0.0.1:0", "127.0.0.1:0", shares, rand, l,
                    latency_ms=0.0, handshake_timeout=0.5)
    server.start()
    try:
        with socket.create_connection(peer_addr(server), timeout=5.0) as link:
            runtime._write_peer_hello(link, 99, l, 1, FRESH)
            deadline = time.monotonic() + 5.0
            while 99 not in server._pending_peers and time.monotonic() < deadline:
                time.sleep(0.01)
            with socket.create_connection(peer_addr(server), timeout=5.0) as second:
                runtime._write_peer_hello(second, 99, l, 1, FRESH)
                assert second.recv(1) == b""
            assert "session 99 already has one" in _server_lines(capsys, "already has one", 1)
            assert 99 in server._pending_peers  # the first link is still parked
            assert link.recv(1) == b""  # closed by the server, not left open
        assert "server 2: dropped the peer link of session 99" in _server_lines(
            capsys, "dropped the peer link", 1)
        assert server._pending_peers == {}
        accept = server._threads[0]
        for _ in range(4):  # clients that leave at once, one after another
            socket.create_connection(("127.0.0.1", server.port), timeout=5.0).close()
            assert "server 2: client left without a query" in _server_lines(
                capsys, "client left without a query", 1)
            for t in server._threads[1:]:
                t.join(timeout=5.0)
        assert server._threads[0] is accept and len(server._threads) == 2
    finally:
        server.stop()


@pytest.mark.parametrize("extra", [1, -1])
def test_peer_flight_of_another_size_aborts_the_session(extra, capsys):
    """A fake party 1 answers the server's first flight with one byte more
    (refused from its length prefix) or one byte less: a FrameError aborts
    the session and the client is let go."""
    l, session = 16, 21
    ring = Ring(l)
    shares, _ = share_matrix(np.array([[3, 1], [1, 3], [2, 2]]), np.random.default_rng(0), ring)
    rand, _ = deal_streaming(ring, 1)
    server = Server(2, "127.0.0.1:0", "127.0.0.1:0", shares, rand, l,
                    latency_ms=0.0, handshake_timeout=5.0)
    server.start()
    held = []
    try:
        client = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
        held.append(client)
        read_bounded_frame(client, HELLO)  # the server hello
        link = socket.create_connection(peer_addr(server), timeout=5.0)
        held.append(link)
        runtime._write_peer_hello(link, session, l, 1, FRESH)
        write_frame(client, KIND_QUERY, session,
                    runtime._encode_query_payload(l, np.zeros(2, np.uint64)))
        assert runtime._read_peer_hello(link, l, 2)[0] == session
        # no flight is longer than all that a query sends
        kind, got_session, flight = read_bounded_frame(link, query_bytes(3, 2, l, 3))
        assert (kind, got_session) == (KIND_ROUND_DATA, session) and flight
        write_frame(link, KIND_ROUND_DATA, session, bytes(len(flight) + extra))
        out = _server_lines(capsys, f"session {session} aborted", 1)
        reason = "exceeds the limit" if extra > 0 else "peer flight of"
        assert f"server 2: session {session} aborted: " in out and reason in out
        assert client.recv(1) == b""
    finally:
        for sock in held:
            sock.close()
        server.stop()


def test_an_aborted_session_leaves_the_next_query_exact(tmp_path, table_example, capsys):
    """A fake party 1 completes one flight with the real party-2 server and
    closes, leaving that server's pools ahead of its real peer's: the next
    query through both real servers is still exact."""
    database, query, _, _ = table_example
    l, session = 64, 31
    servers = _start_servers(tmp_path, np.asarray(database))
    held = []
    try:
        client = socket.create_connection(("127.0.0.1", servers[1].port), timeout=5.0)
        held.append(client)
        read_bounded_frame(client, HELLO)  # the server hello
        link = socket.create_connection(peer_addr(servers[1]), timeout=5.0)
        held.append(link)
        runtime._write_peer_hello(link, session, l, 1, FRESH)
        write_frame(client, KIND_QUERY, session,
                    runtime._encode_query_payload(l, np.zeros(2, np.uint64)))
        assert runtime._read_peer_hello(link, l, 2) == (session, FRESH)
        n, m = np.shape(database)
        kind, _, flight = read_bounded_frame(link, query_bytes(n, m, l, n))
        assert kind == KIND_ROUND_DATA
        write_frame(link, KIND_ROUND_DATA, session, bytes(len(flight)))
        link.close()
        assert f"server 2: session {session} aborted" in _server_lines(
            capsys, f"session {session} aborted", 1)
        assert client.recv(1) == b""
        assert servers[1].rand.cursors() != servers[0].rand.cursors()
        endpoints = [f"127.0.0.1:{s.port}" for s in servers]
        assert same_rows(tcp_query(endpoints, query, l=l, seed=3), plaintext_skyline(database, query))
        assert servers[1].rand.cursors() == servers[0].rand.cursors()
    finally:
        for sock in held:
            sock.close()
        for s in servers:
            s.stop()


def test_a_burn_past_the_pool_end_aborts_cleanly(capsys):
    """A peer whose hello claims more randomness consumed than the pool
    holds: the server aborts the session with PoolExhausted."""
    l, session = 16, 41
    ring = Ring(l)
    shares, _ = share_matrix(np.array([[3, 1], [1, 3]]), np.random.default_rng(0), ring)
    budget = budget_for_query(2, 2, l, 2)
    rand, _ = deal_strict(ring, 1, budget, default_vmax(l))
    server = Server(2, "127.0.0.1:0", "127.0.0.1:0", shares, rand, l,
                    latency_ms=0.0, handshake_timeout=5.0)
    server.start()
    held = []
    try:
        client = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
        held.append(client)
        read_bounded_frame(client, HELLO)  # the server hello
        link = socket.create_connection(peer_addr(server), timeout=5.0)
        held.append(link)
        beyond = tuple(getattr(budget, kind.name) + 1 for kind in KINDS)
        runtime._write_peer_hello(link, session, l, 1, beyond)
        write_frame(client, KIND_QUERY, session,
                    runtime._encode_query_payload(l, np.zeros(2, np.uint64)))
        assert runtime._read_peer_hello(link, l, 2) == (session, FRESH)
        out = _server_lines(capsys, f"session {session} aborted", 1)
        assert f"server 2: session {session} aborted: pool exhausted" in out
        assert link.recv(1) == b"" and client.recv(1) == b""
    finally:
        for sock in held:
            sock.close()
        server.stop()


def _lone_server(party, peer_port=0, handshake_timeout=5.0):
    """A started l = 16 server over three rows, with streaming pools, whose
    peer a test fakes (party 1 dials peer_port)."""
    ring = Ring(16)
    shares, _ = share_matrix(np.array([[3, 1], [1, 3], [2, 2]]), np.random.default_rng(0), ring)
    rand, _ = deal_streaming(ring, 1)
    server = Server(party, "127.0.0.1:0", f"127.0.0.1:{peer_port}", shares, rand, 16,
                    latency_ms=0.0, handshake_timeout=handshake_timeout)
    server.start()
    return server


def _send_query(server, session):
    """A fake client: read the server hello and send a zero query share."""
    client = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
    read_bounded_frame(client, HELLO)
    write_frame(client, KIND_QUERY, session, runtime._encode_query_payload(16, np.zeros(2, np.uint64)))
    return client


def test_a_client_that_resets_before_its_query_left_without_one(capsys):
    """A client that closes with a reset (SO_LINGER (1, 0)) instead of a FIN,
    after the server hello or before reading it, is logged as a client
    that left without a query, not as an aborted session."""
    server = _lone_server(2)
    try:
        for read_hello in (True, False, True, False):
            client = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
            if read_hello:
                read_bounded_frame(client, HELLO)
            client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            client.close()
        out = _server_lines(capsys, "client left without a query", 4)
        assert out.count("server 2: client left without a query") == 4
        assert "aborted" not in out
    finally:
        server.stop()


def test_party_1_refuses_an_ack_for_another_session(capsys):
    """A fake party 2 acks another session with cursors ahead of party 1's:
    party 1 aborts before any burn, closes the link and lets the client go
    without a result."""
    session = 51
    with socket.create_server(("127.0.0.1", 0)) as dialled:
        server = _lone_server(1, dialled.getsockname()[1])
        before = server.rand.cursors()
        try:
            dialled.settimeout(5.0)
            with _send_query(server, session) as client, dialled.accept()[0] as link:
                link.settimeout(5.0)
                assert runtime._read_peer_hello(link, 16, 1) == (session, before)
                runtime._write_peer_hello(link, session + 1, 16, 2, (7,) * len(KINDS))
                out = _server_lines(capsys, f"session {session} aborted", 1)
                assert (f"server 1: session {session} aborted: "
                        "peer acknowledged another session") in out
                assert link.recv(1) == b"" and client.recv(1) == b""
            assert server.rand.cursors() == before
        finally:
            server.stop()


def test_party_2_aborts_a_query_whose_peer_link_never_arrives(capsys):
    """No party 1 parks a link for the session within the handshake timeout:
    party 2 aborts it, lets the client go without a result and touches no
    pool."""
    session = 61
    server = _lone_server(2, handshake_timeout=0.5)
    before = server.rand.cursors()
    try:
        with _send_query(server, session) as client:
            out = _server_lines(capsys, f"session {session} aborted", 1)
            assert (f"server 2: session {session} aborted: "
                    f"peer link for session {session} never arrived") in out
            assert client.recv(1) == b""
        assert server.rand.cursors() == before
    finally:
        server.stop()


def test_client_caps_the_server_hello():
    # a hello one byte longer than a hello can be is refused before its body
    declared = len(encode_frame(KIND_HELLO, 0, bytes(runtime._SERVER_HELLO.size))) - 4 + 1
    fake = socket.create_server(("127.0.0.1", 0))
    accepted = []

    def greet():
        for _ in range(2):
            conn, _ = fake.accept()
            accepted.append(conn)
            conn.sendall(declared.to_bytes(4, "big"))

    greeter = threading.Thread(target=greet, daemon=True)
    greeter.start()
    endpoint = f"127.0.0.1:{fake.getsockname()[1]}"
    try:
        started = time.monotonic()
        with pytest.raises(FrameError, match="exceeds the limit"):
            tcp_query([endpoint, endpoint], [1, 2], timeout=5.0)
        assert time.monotonic() - started < 2.0
        greeter.join(timeout=5.0)
    finally:
        for sock in accepted + [fake]:
            sock.close()


def test_client_refuses_a_v3_server_hello_by_version():
    """A v3 hello, which also carried the sentinel as a u64, and a v4 hello,
    which did not carry n, are refused by their version byte, whole or cut
    to another hello's size, not misread."""
    v3 = struct.pack("<BBHQ", 3, 11, 2, 1 << 9)
    v4 = struct.pack("<BBH", 4, 11, 2)
    for version, old in ((3, v3), (4, v4)):
        for hello in (old, old[:runtime._SERVER_HELLO.size], old + bytes(4)):
            with pytest.raises(FrameError, match=f"version mismatch: server speaks {version}"):
                runtime._decode_server_hello(hello)
    v5 = struct.pack("<BBHI", runtime.PROTOCOL_VERSION, 11, 2, 6)
    assert runtime._decode_server_hello(v5) == (11, 2, 6)


def _fake_servers(hellos, answer):
    """Two listeners that each greet one client with their (l, m, n) hello,
    read its query frame and hand the socket and session to answer."""
    listeners = [socket.create_server(("127.0.0.1", 0)) for _ in range(2)]

    def serve(listener, hello):
        conn, _ = listener.accept()
        with conn:
            write_frame(conn, KIND_HELLO, 0, runtime._encode_server_hello(*hello))
            try:
                _, session, _ = read_bounded_frame(conn, _query_size(hello[0], hello[1]))
            except (ConnectionClosed, OSError):  # the client refused the hellos
                return
            answer(conn, session, hello)
            try:
                conn.recv(1)  # hold the link open until the client lets go
            except OSError:
                pass

    threads = [threading.Thread(target=serve, args=pair, daemon=True)
               for pair in zip(listeners, hellos)]
    for t in threads:
        t.start()
    return [f"127.0.0.1:{sock.getsockname()[1]}" for sock in listeners], listeners, threads


def test_client_caps_the_result_at_n_rows():
    """The hello carries n, so the client reads a result of at most n rows:
    hellos that disagree on n are refused, a full n-row result is read, and
    a result frame one byte longer is refused from its length prefix, before
    its body is buffered."""
    l, m, n = 10, 2, 5
    full = runtime._RESULT_HEAD.size + n * m * 2  # n rows of m two-byte values

    def zero_rows(conn, session, hello):
        write_frame(conn, KIND_RESULT, session,
                    runtime._encode_result(np.zeros((n, m), dtype=np.uint64), l))

    def one_byte_over(conn, session, hello):
        conn.sendall((len(encode_frame(KIND_RESULT, session, bytes(full))) - 4 + 1)
                     .to_bytes(4, "big"))

    cases = [([(l, m, n), (l, m, n + 1)], zero_rows, "disagree on \\(l, m, n\\)"),
             ([(l, m, n)] * 2, one_byte_over, "exceeds the limit"),
             ([(l, m, n)] * 2, zero_rows, None)]
    for hellos, answer, refusal in cases:
        endpoints, listeners, threads = _fake_servers(hellos, answer)
        try:
            started = time.monotonic()
            if refusal is None:
                assert tcp_query(endpoints, [1, 2], timeout=5.0) == [(0, 0)] * n
            else:
                with pytest.raises(FrameError, match=refusal):
                    tcp_query(endpoints, [1, 2], timeout=5.0)
            assert time.monotonic() - started < 2.0
            for t in threads:
                t.join(timeout=5.0)
        finally:
            for sock in listeners:
                sock.close()


def test_unseeded_queries_draw_fresh_masks_and_session_ids():
    """Two fake servers capture the query frames of two unseeded queries:
    the shares and session ids differ, so no server sees the two queries
    under one mask (whose share difference would be q - q')."""
    l, m, queries = 10, 2, ([100, 7], [3, 250])
    listeners = [socket.create_server(("127.0.0.1", 0)) for _ in range(2)]
    captured = [[], []]

    def serve(listener, frames):
        for _ in queries:
            conn, _ = listener.accept()
            with conn:
                write_frame(conn, KIND_HELLO, 0, runtime._encode_server_hello(l, m, 4))
                _, session, payload = read_bounded_frame(conn, _query_size(l, m))
                frames.append((session, runtime._decode_query_payload(payload, l)))
                write_frame(conn, KIND_RESULT, session,
                            runtime._encode_result(np.zeros((0, m), dtype=np.uint64), l))

    threads = [threading.Thread(target=serve, args=pair, daemon=True)
               for pair in zip(listeners, captured)]
    for t in threads:
        t.start()
    endpoints = [f"127.0.0.1:{sock.getsockname()[1]}" for sock in listeners]
    try:
        for q in queries:
            assert tcp_query(endpoints, q) == []
        for t in threads:
            t.join(timeout=5.0)
    finally:
        for sock in listeners:
            sock.close()
    for frames in captured:
        (first, a), (second, b) = frames
        assert first != second and (a != b).any()
    for i, q in enumerate(queries):
        assert captured[0][i][0] == captured[1][i][0]  # one session id per query
        assert list(Ring(l).reduce(captured[0][i][1] + captured[1][i][1])) == q


def test_bytes_grow_with_database_size():
    # identical k (the first row dominates everything), growing n
    sizes = []
    for n in (8, 32):
        data = np.stack([np.arange(1, n + 1), np.arange(1, n + 1)], axis=1)
        engine = LocalEngine(data, l=64, seed=1)
        _, metrics = engine.query([1, 1])
        assert metrics.k == 1
        sizes.append(metrics.bytes_tx)
    assert sizes[0] < sizes[1]


def test_server_stop_is_prompt(tmp_path, table_example):
    database, query, _, skyline = table_example
    servers = _start_servers(tmp_path, np.asarray(database))
    endpoints = [f"127.0.0.1:{servers[0].port}", f"127.0.0.1:{servers[1].port}"]
    assert tcp_query(endpoints, query, l=64, seed=5) == skyline
    for s in servers:
        started = time.perf_counter()
        s.stop()
        assert time.perf_counter() - started < 1.0
        assert not any(t.is_alive() for t in s._threads)


def test_query_with_one_server_down_fails_cleanly(tmp_path, table_example):
    database, query, _, _ = table_example
    servers = _start_servers(tmp_path, np.asarray(database))
    endpoints = [f"127.0.0.1:{servers[0].port}", f"127.0.0.1:{servers[1].port}"]
    for s in servers:
        s.stop()
    with pytest.raises(OSError):
        tcp_query(endpoints, query, l=64, seed=2, timeout=2.0)


def test_injected_latency_bounds_wall_time(table_example):
    database, query, _, _ = table_example
    fast = LocalEngine(database, l=64, seed=3, latency_ms=0.0)
    slow = LocalEngine(database, l=64, seed=3, latency_ms=2.0)
    _, m_fast = fast.query(query)
    _, m_slow = slow.query(query)
    assert m_slow.rounds == m_fast.rounds
    assert m_slow.wall_ms >= m_slow.rounds * 2.0  # rounds x one-way delay floor
    assert m_slow.wall_ms > m_fast.wall_ms
