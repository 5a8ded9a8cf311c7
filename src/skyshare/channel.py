"""Ordered duplex channels between the two servers, with metering.

Wire frame (both transports carry identical bytes):

    4 bytes  big-endian length of the rest (kind + session + payload)
    1 byte   kind
    4 bytes  big-endian session id
    payload  little-endian value/bit streams, structured by the caller

One protocol round = both parties have sent and received one flight; the
round counter increments on every completed exchange.  The two flights of
a round are the same size, so a peer flight of any other length is a
FrameError, and the TCP transport refuses a longer one before reading it.
Byte meters count application payload only (frame headers excluded), per
direction.  Injected latency is one sleep in exchange, after the peer's
flight arrives, so crossing flights of one round overlap and the round
floor is one one-way delay.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time

KIND_QUERY = 2
KIND_ROUND_DATA = 3
KIND_OPEN_BIT = 4
KIND_RESULT = 5
KIND_HELLO = 6
KIND_NAMES = {
    KIND_QUERY: "query",
    KIND_ROUND_DATA: "round-data",
    KIND_OPEN_BIT: "open-bit",
    KIND_RESULT: "result",
    KIND_HELLO: "hello",
}

_LEN = struct.Struct(">I")
_HEAD = struct.Struct(">BI")


class FrameError(ValueError):
    pass


def encode_frame(kind: int, session: int, payload: bytes) -> bytes:
    if kind not in KIND_NAMES:
        raise FrameError(f"unknown frame kind {kind}")
    body = _HEAD.pack(kind, session) + payload
    return _LEN.pack(len(body)) + body


def decode_frame(body: bytes) -> tuple[int, int, bytes]:
    """Decode the post-length portion of a frame."""
    if len(body) < _HEAD.size:
        raise FrameError("frame body shorter than its fixed header")
    kind, session = _HEAD.unpack_from(body)
    if kind not in KIND_NAMES:
        raise FrameError(f"unknown frame kind {kind}")
    return kind, session, body[_HEAD.size:]


class ConnectionClosed(FrameError):
    """The peer closed the connection cleanly between two frames."""


def recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        piece = sock.recv(min(n - got, 1 << 20))
        if not piece:
            raise FrameError("connection closed mid-frame")
        chunks.append(piece)
        got += len(piece)
    return b"".join(chunks)


def _read_length(sock: socket.socket, limit: int) -> int:
    """Read one frame's length prefix and check it against [header, limit].

    A close before the frame's first byte is a ConnectionClosed; a close
    anywhere later tears the frame.
    """
    first = sock.recv(_LEN.size)
    if not first:
        raise ConnectionClosed("connection closed before a frame")
    (length,) = _LEN.unpack(first + recv_exact(sock, _LEN.size - len(first)))
    if length < _HEAD.size:
        raise FrameError(f"declared frame length {length} below minimum")
    if length > limit:
        raise FrameError(f"declared frame length {length} exceeds the limit of {limit}")
    return length


def read_body(sock: socket.socket, max_payload: int) -> bytes:
    """Read one frame's length prefix, check it, and return the rest.

    A declared length longer than a frame of max_payload bytes of payload
    is refused before any of the body is buffered.
    """
    return recv_exact(sock, _read_length(sock, _HEAD.size + max_payload))


def read_bounded_frame(sock: socket.socket, max_payload: int) -> tuple[int, int, bytes]:
    """Read and decode one frame whose payload can hold at most max_payload bytes."""
    return decode_frame(read_body(sock, max_payload))


def write_frame(sock: socket.socket, kind: int, session: int, payload: bytes):
    sock.sendall(encode_frame(kind, session, payload))


class ChannelBase:
    """Common metering and validation; subclasses move the bytes."""

    def __init__(self, session: int, latency_s: float = 0.0):
        self.session = session
        self.latency_s = latency_s
        self.rounds = 0
        self.bytes_tx = 0
        self.bytes_rx = 0
        self.transcript: list[tuple[int, int, int]] = []  # (kind, tx bytes, rx bytes)

    def _send_frame(self, frame: bytes):
        raise NotImplementedError

    def _recv_frame(self, max_payload: int) -> bytes:
        """The next frame's body; a frame whose payload exceeds max_payload
        may be refused before its body is read."""
        raise NotImplementedError

    def exchange(self, payload: bytes, kind: int = KIND_ROUND_DATA) -> bytes:
        """Send one flight, receive the peer's of the same size, count one round."""
        self._send_frame(encode_frame(kind, self.session, payload))
        got_kind, got_session, got = decode_frame(self._recv_frame(len(payload)))
        if got_session != self.session:
            raise FrameError(f"session mismatch: {got_session} != {self.session}")
        if got_kind != kind:
            raise FrameError(
                f"round desync: expected {KIND_NAMES[kind]}, got {KIND_NAMES[got_kind]}"
            )
        if len(got) != len(payload):
            raise FrameError(f"peer flight of {len(got)} bytes, ours has {len(payload)}")
        if self.latency_s > 0:
            time.sleep(self.latency_s)
        self.rounds += 1
        self.bytes_tx += len(payload)
        self.bytes_rx += len(got)
        self.transcript.append((kind, len(payload), len(got)))
        return got

    def close(self):
        pass


class LocalChannel(ChannelBase):
    """In-process transport over a pair of queues; frames are real bytes so
    the framing layer is exercised identically to TCP.

    The queues are SimpleQueues: their put and get run in C, so a round's
    handoff between the two party threads costs one lock release and one
    wake-up, not a Python-level condition variable.
    """

    def __init__(self, outbox, inbox, session, latency_s=0.0):
        super().__init__(session, latency_s)
        self._outbox = outbox
        self._inbox = inbox

    @classmethod
    def pair(cls, session: int = 0, latency_s: float = 0.0):
        q12: queue.SimpleQueue = queue.SimpleQueue()
        q21: queue.SimpleQueue = queue.SimpleQueue()
        return cls(q12, q21, session, latency_s), cls(q21, q12, session, latency_s)

    def _send_frame(self, frame: bytes):
        self._outbox.put(frame)

    def poison_peer(self):
        """Unblock a peer whose counterpart died mid-protocol."""
        self._outbox.put(None)

    def _recv_frame(self, max_payload: int) -> bytes:
        frame = self._inbox.get()
        if frame is None:
            raise FrameError("peer aborted the session")
        # the sender framed it itself: the length prefix covers the rest
        return frame[_LEN.size:]


class TcpChannel(ChannelBase):
    """Socket transport with a writer thread so simultaneous large flights
    from both parties cannot deadlock on full send buffers."""

    def __init__(self, sock: socket.socket, session, latency_s=0.0):
        super().__init__(session, latency_s)
        self._sock = sock
        self._outq: queue.SimpleQueue = queue.SimpleQueue()
        self._writer_err = None
        self._writer = threading.Thread(target=self._write_loop, daemon=True)
        self._writer.start()

    def _write_loop(self):
        while True:
            frame = self._outq.get()
            if frame is None:
                return
            try:
                self._sock.sendall(frame)
            except OSError as exc:  # surfaced on the next exchange
                self._writer_err = exc
                return

    def _send_frame(self, frame: bytes):
        if self._writer_err is not None:
            raise FrameError(f"peer link write failed: {self._writer_err}")
        self._outq.put(frame)

    def _recv_frame(self, max_payload: int) -> bytes:
        return read_body(self._sock, max_payload)

    def close(self):
        """Stop the writer once it has sent every queued frame.  The socket
        stays open: its owner closes it, after this returns."""
        self._outq.put(None)
        self._writer.join(timeout=5)
