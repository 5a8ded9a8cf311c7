"""Fuzzing of every decoder that reads bytes from outside the process.

Each may only raise FrameError or ValueError (FrameError is a ValueError):
a malformed frame, payload or file must never surface as an arbitrary
exception, hang, or allocate by a size the input merely declares.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyshare.channel import decode_frame
from skyshare.correlated import deal_strict, read_pool_file, write_pool_file
from skyshare.metering import RandomnessBudget
from skyshare.ring import Ring, default_vmax
from skyshare.runtime import PROTOCOL_VERSION, _decode_query_payload, _decode_server_hello
from skyshare.sharing import read_share_file, write_share_file

FUZZ = settings(max_examples=300, deadline=None)


def _valid_pool() -> bytes:
    budget = RandomnessBudget(secext=0, dabits=4, bin_words=2)
    r1, _ = deal_strict(Ring(13), 1, budget, default_vmax(13))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "p.pool"
        write_pool_file(str(path), 1, 13, r1, budget)
        return path.read_bytes()


def _valid_shares() -> bytes:
    shares = np.arange(6, dtype=np.uint64).reshape(3, 2)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "p.shares"
        write_share_file(str(path), 2, shares, 11)
        return path.read_bytes()


def _mutations(valid: bytes):
    """Random bytes after the magic, a valid file with any ring width (byte
    5 in both headers), and single-byte edits, cuts and extensions of it."""
    magic = valid[:5]

    def edit(at, value):
        return valid[:at] + bytes([value]) + valid[at + 1:]

    return st.one_of(
        st.binary(max_size=80).map(lambda tail: magic + tail),
        st.integers(0, 255).map(lambda l: edit(5, l)),
        st.builds(edit, st.integers(0, len(valid) - 1), st.integers(0, 255)),
        st.integers(0, len(valid)).map(lambda cut: valid[:cut]),
        st.binary(min_size=1, max_size=16).map(lambda extra: valid + extra),
    )


def _read_file(reader, blob: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f"
        path.write_bytes(blob)
        try:
            reader(str(path))
        except ValueError:
            pass


@FUZZ
@given(st.binary(max_size=64))
def test_decode_frame_fuzz(body):
    try:
        decode_frame(body)
    except ValueError:
        pass


@FUZZ
@given(st.binary(max_size=64), st.integers(2, 64))
def test_query_payload_fuzz(payload, l):
    try:
        _decode_query_payload(payload, l)
    except ValueError:
        pass


@FUZZ
@given(st.one_of(st.binary(max_size=24),
                 st.tuples(st.just(PROTOCOL_VERSION) | st.integers(0, 255), st.integers(0, 255),
                           st.integers(0, 2**16 - 1))
                 .map(lambda t: struct.pack("<BBH", *t)),
                 st.tuples(st.just(PROTOCOL_VERSION) | st.integers(0, 255), st.integers(0, 255),
                           st.integers(0, 2**16 - 1), st.integers(0, 2**32 - 1))
                 .map(lambda t: struct.pack("<BBHI", *t))))
def test_server_hello_fuzz(payload):
    try:
        l, m, n = _decode_server_hello(payload)
    except ValueError:
        return
    assert payload[0] == PROTOCOL_VERSION and len(payload) == 8
    assert 2 <= l <= 64 and m >= 1 and n >= 1
    assert (l, m, n) == struct.unpack("<BBHI", payload)[1:]


@pytest.mark.parametrize("reader, valid", [(read_pool_file, _valid_pool()),
                                           (read_share_file, _valid_shares())],
                         ids=["pool", "shares"])
def test_file_reader_fuzz(reader, valid):
    @FUZZ
    @given(_mutations(valid))
    def fuzz(blob):
        _read_file(reader, blob)

    fuzz()
