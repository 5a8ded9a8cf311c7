"""Role execution: the in-process two-party engine and the TCP server/client.

Both transports run each party through one runner (_run_party); only the
channel differs.  The client talks to each server with hello/query/result
frames (the server's hello publishes the session parameters the client
checks its query against before sharing it).  The servers talk over one
peer link per session, which Server._handle_client owns: one unmetered
hello each way binds it to the session and carries the sender's pool
cursors, then round-data/open-bit frames follow (metrics cover protocol
flights only, so in-process and TCP sessions report identical numbers).
"""

from __future__ import annotations

import selectors
import socket
import struct
import threading
import time

import numpy as np

from .channel import (
    KIND_HELLO,
    KIND_QUERY,
    KIND_RESULT,
    ConnectionClosed,
    FrameError,
    LocalChannel,
    TcpChannel,
    read_bounded_frame,
    write_frame,
)
from .correlated import KINDS, PartyRandomness, deal_streaming, read_pool_file
from .metering import MODE_DABIT, SessionMetrics, check_mode
from .online import PartyContext
from .protocol import check_domain, check_query, ring_width, run_query
from .ring import Ring, default_vmax
from .sharing import decode_values, encode_values, read_share_file, share_matrix, value_width_bytes

PROTOCOL_VERSION = 6
# version, ring width, attribute count: a query's head
_HEAD = struct.Struct("<BBH")
# the query head's fields, then the row count n: the server hello
_SERVER_HELLO = struct.Struct("<BBHI")
_RESULT_HEAD = struct.Struct("<I")   # row count
# version, ring width, sender's party, its pool cursor per kind
_PEER_HELLO = struct.Struct("<BBB" + "Q" * len(KINDS))
# Server.completed keeps the metrics of this many most recent sessions
COMPLETED_KEPT = 1024


def parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be host:port, got {text!r}")
    return host, int(port)


def run_pair(task1, task2):
    """Run the two party closures in lockstep threads.

    Each task is (fn, LocalChannel); a failing party poisons its peer's
    channel so the survivor unblocks instead of waiting forever.  The error
    raised is that of the party that failed first.
    """
    results = [None, None]
    errors: list[BaseException] = []  # in the order the parties failed

    def runner(i, fn, chan):
        try:
            results[i] = fn()
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)  # before the poison: the peer's own error comes later
            chan.poison_peer()

    threads = [
        threading.Thread(target=runner, args=(i, fn, chan), daemon=True)
        for i, (fn, chan) in enumerate((task1, task2))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]  # the root cause, not the peer's "aborted" echo
    return results[0], results[1]


def _check_version(payload: bytes, sender: str):
    """Refuse a frame of another protocol version by its first byte, before
    its size: another version's frame may have another size."""
    ver = payload[0] if payload else "nothing"
    if ver != PROTOCOL_VERSION:
        raise FrameError(f"version mismatch: {sender} speaks {ver}, we speak {PROTOCOL_VERSION}")


def _encode_server_hello(l: int, m: int, n: int) -> bytes:
    return _SERVER_HELLO.pack(PROTOCOL_VERSION, l, m, n)


def _decode_server_hello(payload: bytes) -> tuple[int, int, int]:
    """Check a server hello, its version first; returns (l, m, n)."""
    _check_version(payload, "server")
    if len(payload) != _SERVER_HELLO.size:
        raise FrameError("malformed server hello")
    _, l, m, n = _SERVER_HELLO.unpack(payload)
    Ring(l)  # rejects a width outside [2, 64]
    if m < 1 or n < 1:
        raise FrameError(f"server hello declares an empty database ({n} x {m})")
    return l, m, n


def _encode_query_payload(l: int, q_share: np.ndarray) -> bytes:
    return _HEAD.pack(PROTOCOL_VERSION, l, q_share.size) + encode_values(q_share, l)


def _decode_query_payload(payload: bytes, l: int) -> np.ndarray:
    _check_version(payload, "client")
    if len(payload) < _HEAD.size:
        raise FrameError("query frame too short")
    _, got_l, m = _HEAD.unpack_from(payload)
    if got_l != l:
        raise FrameError(f"ring width mismatch: query uses l={got_l}, server uses l={l}")
    values = decode_values(payload[_HEAD.size:], l)
    if values.size != m:
        raise FrameError(f"query declares {m} attributes but carries {values.size}")
    return values


def _write_peer_hello(sock: socket.socket, session: int, l: int, party: int, cursors):
    """Bind a peer link to a session (party 1's hello, party 2's ack) and
    tell the peer how far each of the sender's pools has been consumed."""
    write_frame(sock, KIND_QUERY, session, _PEER_HELLO.pack(PROTOCOL_VERSION, l, party, *cursors))


def _read_peer_hello(sock: socket.socket, l: int, party: int) -> tuple[int, tuple[int, ...]]:
    """Read and check the peer's hello or ack; returns its session id and
    the peer's pool cursors."""
    kind, session, payload = read_bounded_frame(sock, _PEER_HELLO.size)
    _check_version(payload, "peer")
    if kind != KIND_QUERY or len(payload) != _PEER_HELLO.size:
        raise FrameError("bad peer hello")
    _, peer_l, peer_party, *cursors = _PEER_HELLO.unpack(payload)
    if peer_l != l or peer_party != party:
        raise FrameError("peer hello does not match this server's ring width or peer party")
    return session, tuple(cursors)


def _encode_result(rows: np.ndarray, l: int) -> bytes:
    return _RESULT_HEAD.pack(rows.shape[0]) + encode_values(rows, l)


def _decode_result(payload: bytes, l: int, m: int) -> np.ndarray:
    if len(payload) < _RESULT_HEAD.size:
        raise FrameError("result frame too short")
    (k,) = _RESULT_HEAD.unpack_from(payload)
    values = decode_values(payload[_RESULT_HEAD.size:], l)
    if values.size != k * m:
        raise FrameError(f"result declares {k} rows but carries {values.size} values")
    return values.reshape(k, m)


def _run_party(party: int, ring: Ring, chan, rand: PartyRandomness, shares: np.ndarray,
               q_share: np.ndarray, session: int):
    """Run one party's half of a session on chan; returns its context, its
    outcome and its metrics, timed around run_query."""
    ctx = PartyContext(party, ring, chan, rand)
    started = time.perf_counter()
    outcome = run_query(ctx, shares, q_share)
    wall_ms = (time.perf_counter() - started) * 1000.0
    return ctx, outcome, SessionMetrics.of_party(session, ctx, shares.shape, outcome.k, wall_ms)


def _merge(ring: Ring, rows1: np.ndarray, rows2: np.ndarray) -> list[tuple[int, ...]]:
    """Reconstruct the result rows from the two parties' shares of them."""
    if rows1.shape != rows2.shape:
        raise FrameError("the parties disagree on the result size")
    return [tuple(int(x) for x in row) for row in ring.reduce(rows1 + rows2)]


class LocalEngine:
    """Owner, dealer, both servers and the client folded into one process.

    The code path above the channel layer is identical to the TCP one; it
    exists so tests, verification sweeps and benchmarks can run thousands
    of sessions without sockets.
    """

    def __init__(self, data, l: int | None = None, seed: int = 0, latency_ms: float = 0.0):
        """l defaults to the narrowest width the data maximum admits (ring_width)."""
        plain = np.asarray(data, dtype=np.int64)
        if plain.ndim != 2 or plain.shape[0] < 1:
            raise ValueError("database must be a non-empty n x m array")
        if (plain < 0).any():
            raise ValueError("attributes must be non-negative integers")
        self.n, self.m = plain.shape
        bound = int(plain.max(initial=0))
        self.ring = Ring(ring_width(self.m, bound) if l is None else l)
        self.vmax = check_domain(self.m, bound, self.ring)
        self.mode = MODE_DABIT  # the only one; benchmark reports print it
        self.latency_s = latency_ms / 1000.0
        self._seeds = np.random.SeedSequence(seed)
        owner_rng = np.random.default_rng(self._seeds.spawn(1)[0])
        self.p1_shares, self.p2_shares = share_matrix(plain, owner_rng, self.ring)
        self._sessions = 0
        self.last_contexts: tuple[PartyContext, PartyContext] | None = None

    def _next_session_seeds(self):
        self._sessions += 1
        return self._seeds.spawn(1)[0].spawn(2)

    def query(self, q) -> tuple[list[tuple[int, ...]], SessionMetrics]:
        """Run one full query session in-process; returns rows in fetch order.

        The query must lie in the exact window that tcp_query admits
        (check_query)."""
        q_arr = check_query(q, self.m, self.vmax)
        dealer_seed, client_seed = self._next_session_seeds()
        rand1, rand2 = deal_streaming(self.ring, dealer_seed)
        q1, q2 = share_matrix(q_arr[None, :], np.random.default_rng(client_seed), self.ring)
        session_id = self._sessions
        chan1, chan2 = LocalChannel.pair(session_id, self.latency_s)
        (ctx1, out1, metrics), (ctx2, out2, _) = run_pair(
            (lambda: _run_party(1, self.ring, chan1, rand1, self.p1_shares, q1[0], session_id), chan1),
            (lambda: _run_party(2, self.ring, chan2, rand2, self.p2_shares, q2[0], session_id), chan2),
        )
        self.last_contexts = (ctx1, ctx2)
        return _merge(self.ring, out1.rows, out2.rows), metrics


# --- TCP roles ---------------------------------------------------------------


class Server:
    """One cloud server: answers client query sessions against its share.

    Every session takes one path, _handle_client: the client's hello and
    query, one handshake on a peer link that a `with` there owns (party 1
    dials and writes its hello, party 2 claims the link party 1 parked and
    acks), a burn of each pool to the larger cursor, and _run_session,
    which records the session's metrics in self.completed.
    """

    def __init__(self, party: int, listen: str, peer: str, shares: np.ndarray,
                 rand: PartyRandomness, l: int, latency_ms: float = 1.0,
                 handshake_timeout: float = 15.0):
        self.party = party
        self.listen_addr = parse_endpoint(listen)
        self.peer_addr = parse_endpoint(peer)
        self.shares = shares
        self.rand = rand
        self.ring = Ring(l)
        self.latency_s = latency_ms / 1000.0
        self.handshake_timeout = handshake_timeout
        self._stop = threading.Event()
        self._exec_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._client_sock: socket.socket | None = None
        self._peer_sock: socket.socket | None = None
        self._pending_peers: dict[int, socket.socket] = {}
        self._peer_ready = threading.Condition()
        self.completed: list[SessionMetrics] = []

    @classmethod
    def from_files(cls, party: int, listen: str, peer: str, share_path: str,
                   pool_path: str, latency_ms: float = 1.0, mode: str = MODE_DABIT,
                   handshake_timeout: float = 15.0) -> "Server":
        check_mode(mode)
        shares, meta = read_share_file(share_path)
        if meta["party"] != party:
            raise ValueError(
                f"share file {share_path} belongs to party {meta['party']}, not {party}"
            )
        l = meta["l"]
        rand, pool_meta = read_pool_file(pool_path)
        if pool_meta["party"] != party or pool_meta["l"] != l:
            raise ValueError(f"pool file {pool_path} does not match the share file")
        return cls(party, listen, peer, shares, rand, l, latency_ms, handshake_timeout)

    @property
    def port(self) -> int:
        return self._client_sock.getsockname()[1]

    def start(self):
        self._client_sock = _listener(self.listen_addr)
        if self.party == 2:
            self._peer_sock = _listener(self.peer_addr)
        self._spawn(self._accept)

    def stop(self):
        self._stop.set()
        with self._peer_ready:  # parked peer links are closed at once
            self._peer_ready.notify_all()
        listeners = [sock for sock in (self._client_sock, self._peer_sock) if sock is not None]
        for sock in listeners:
            # shutdown() wakes the accept loop's select on Linux; closing the
            # listener before the loop has woken drops it from the selector unseen
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for t in self._threads:
            t.join(timeout=5)
        for sock in listeners:
            sock.close()

    def _spawn(self, fn, *args):
        t = threading.Thread(target=fn, args=args, daemon=True)
        t.start()
        # only finished threads are dropped: stop() still joins every live one
        self._threads = [x for x in self._threads if x.is_alive()] + [t]

    def _accept(self):
        """One loop accepts on both listeners: client connections, and on
        party 2 the peer links."""
        with selectors.DefaultSelector() as ready:
            ready.register(self._client_sock, selectors.EVENT_READ, self._handle_client)
            if self._peer_sock is not None:
                ready.register(self._peer_sock, selectors.EVENT_READ, self._register_peer)
            while not self._stop.is_set():
                for key, _ in ready.select():
                    try:
                        conn, _ = key.fileobj.accept()
                    except OSError:  # stop() shut the listener down
                        return
                    self._spawn(key.data, conn)

    def _register_peer(self, conn: socket.socket):
        """Park a peer link until its session's client claims it; a link no
        client claims within the handshake timeout is closed and dropped."""
        conn.settimeout(self.handshake_timeout)  # the deadline of every read on the link
        try:
            session, cursors = _read_peer_hello(conn, self.ring.l, 1)
        except (FrameError, OSError) as exc:
            print(f"server {self.party}: rejected peer link: {exc}", flush=True)
            conn.close()
            return
        with self._peer_ready:
            if session in self._pending_peers:
                print(f"server {self.party}: rejected peer link: session {session} "
                      f"already has one", flush=True)
                conn.close()
                return
            parked = self._pending_peers[session] = conn, cursors
            self._peer_ready.notify_all()
            self._peer_ready.wait_for(  # until a session claims it
                lambda: self._pending_peers.get(session) is not parked or self._stop.is_set(),
                self.handshake_timeout)
            if self._pending_peers.get(session) is parked:
                del self._pending_peers[session]
                print(f"server {self.party}: dropped the peer link of session {session}: "
                      f"no client claimed it", flush=True)
                conn.close()

    def _wait_peer(self, session: int) -> tuple[socket.socket, tuple]:
        """Claim session's parked peer link; returns it and the peer's cursors."""
        with self._peer_ready:
            self._peer_ready.wait_for(
                lambda: session in self._pending_peers or self._stop.is_set(),
                self.handshake_timeout)
            if session not in self._pending_peers:
                raise FrameError(f"peer link for session {session} never arrived")
            self._peer_ready.notify_all()  # wakes the link's parking thread
            return self._pending_peers.pop(session)

    def _run_session(self, link: socket.socket, session: int, q_share: np.ndarray):
        """Run one session on a peer link the caller closes; its metrics go to
        self.completed, which keeps the COMPLETED_KEPT most recent."""
        chan = TcpChannel(link, session, self.latency_s)
        try:
            _, outcome, metrics = _run_party(self.party, self.ring, chan, self.rand,
                                             self.shares, q_share, session)
        finally:
            chan.close()
        self.completed.append(metrics)
        del self.completed[:-COMPLETED_KEPT]
        return outcome, metrics

    def _handle_client(self, conn: socket.socket):
        """Serve one client session: hello, query, handshake, session, result."""
        session = -1
        n, m = self.shares.shape
        try:
            try:
                write_frame(conn, KIND_HELLO, 0, _encode_server_hello(self.ring.l, m, n))
                kind, session, payload = read_bounded_frame(
                    conn, _HEAD.size + m * value_width_bytes(self.ring.l))
            except (ConnectionClosed, ConnectionError):  # e.g. tcp_query refused the query itself
                print(f"server {self.party}: client left without a query", flush=True)
                return
            except FrameError as exc:  # torn, or longer than a query can be
                print(f"server {self.party}: refused a query frame: {exc}", flush=True)
                return
            if kind != KIND_QUERY:
                raise FrameError(f"expected a query frame, got kind {kind}")
            q_share = _decode_query_payload(payload, self.ring.l)
            if q_share.size != m:
                raise FrameError(f"query has {q_share.size} attributes, database has {m}")
            if self.party == 2:  # outside the lock: a link that never comes holds up no other
                link, peer_cursors = self._wait_peer(session)
            with self._exec_lock:
                if self.party == 1:  # under the lock: the hello carries the last session's cursors
                    link = socket.create_connection(self.peer_addr, timeout=self.handshake_timeout)
                with link:  # the handshake timeout stays the deadline of every read on it
                    # party 1's hello, then party 2's ack.  No randomness is touched before
                    # the ack: a session the peer never joins leaves both cursors as they were
                    _write_peer_hello(link, session, self.ring.l, self.party, self.rand.cursors())
                    if self.party == 1:
                        acked, peer_cursors = _read_peer_hello(link, self.ring.l, 2)
                        if acked != session:
                            raise FrameError("peer acknowledged another session")
                    # both burn to the larger cursor of each kind, so a session that aborted
                    # after either side consumed randomness leaves the next one aligned
                    self.rand.burn_to(peer_cursors)  # past a pool's end: PoolExhausted
                    outcome, _ = self._run_session(link, session, q_share)
            write_frame(conn, KIND_RESULT, session, _encode_result(outcome.rows, self.ring.l))
        except (FrameError, OSError, ValueError, RuntimeError) as exc:
            print(f"server {self.party}: session {session} aborted: {exc}", flush=True)
        finally:
            conn.close()


def _listener(addr: tuple[str, int]) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(addr)
    sock.listen(16)
    return sock


def tcp_query(servers: list[str], q, l: int | None = None, seed: int | None = None,
              scale: int = 1, timeout: float = 120.0) -> list[tuple[int, ...]]:
    """Client role: learn the session parameters from both servers' hellos,
    check the query against them, share it, and reconstruct the result.

    l, when given, must match the servers' ring width.  The scaled query
    must lie in the exact window (check_query); one outside it is refused
    before any share leaves the client.  The query's sharing mask and
    session id come from fresh OS entropy unless a seed is given; two
    queries under one seed share one mask, so their difference leaks.
    """
    if len(servers) != 2:
        raise ValueError("exactly two server endpoints are required")
    # connect to both before sending anything: no partial sessions
    socks = []
    try:
        for endpoint in servers:
            socks.append(socket.create_connection(parse_endpoint(endpoint), timeout=timeout))
        hellos = []
        for sock in socks:
            kind, _, payload = read_bounded_frame(sock, _SERVER_HELLO.size)
            if kind != KIND_HELLO:
                raise FrameError(f"expected a server hello, got kind {kind}")
            hellos.append(_decode_server_hello(payload))
        if hellos[0] != hellos[1]:
            raise FrameError(f"servers disagree on (l, m, n): {hellos[0]} vs {hellos[1]}")
        ring_l, m, n = hellos[0]
        if l is not None and l != ring_l:
            raise FrameError(f"ring width mismatch: client expects l={l}, servers use l={ring_l}")
        # scaled as Python ints, so a large attribute cannot wrap into the window
        q_arr = check_query(np.asarray(q, dtype=object) * scale, m, default_vmax(ring_l))
        ring = Ring(ring_l)
        rng = np.random.default_rng(seed)
        session = int(rng.integers(0, 1 << 32))
        s1, s2 = share_matrix(q_arr[None, :], rng, ring)
        for sock, share in zip(socks, (s1, s2)):
            write_frame(sock, KIND_QUERY, session, _encode_query_payload(ring_l, share[0]))
        results = []
        for sock in socks:  # at most k = n rows of m values
            kind, got_session, payload = read_bounded_frame(
                sock, _RESULT_HEAD.size + n * m * value_width_bytes(ring_l))
            if kind != KIND_RESULT or got_session != session:
                raise FrameError("unexpected frame while waiting for the result")
            results.append(payload)
    finally:
        for sock in socks:
            sock.close()
    return _merge(ring, *(_decode_result(payload, ring_l, m) for payload in results))
