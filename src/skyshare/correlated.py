"""Offline dealer for the correlated randomness the online phase consumes.

Kinds: select units (a daBit r, held both as an XOR sharing and as an
arithmetic sharing, with arithmetic shares of a uniform mask v and of r*v:
the Beaver pair whose first factor is the daBit itself, one unit per
selected value), AND gate units (ppa's gate family, packed 64 lanes per
word: XOR shares of 7 input masks and of the 22 monomials of degree >= 2
that the 4-segment combine's products need; every multi-input AND gate
reads a sub-family of one unit per word), and cross words for one-sided
ANDs (packed likewise: party 1 holds a mask r, party 2 a mask s, and each
an XOR share of r & s).  Every arithmetic sharing goes through
sharing.share_matrix.  The filtering sentinel is not dealt: it is the
public ring.default_vmax(l), which each server holds as a public sharing.

The dealer is trusted in the semi-honest two-server model and is run by the
owner-side tooling.  Pools are either strict (pre-dealt to an exact budget,
exhaustion raises) or streaming (a take the pool cannot cover gets a fresh
chunk of at least STREAM_CHUNK elements that covers the whole take, dealt
for both parties at once by a seeded dealer, and the unused tail is
dropped; both parties take the same sequence because the online protocol
is deterministic, so both drop the same tails).

Pool file format (strict pools, one file per party), walked from KINDS:

    header '<5sBB'   magic b"SSKR6", l:u8, party:u8
    counts '<Q'      one count per kind
    kind blocks      per kind, its parts in turn, each `count` elements in the
                     part's codec: ring values ceil(l/8) bytes LE, '<u8',
                     'u1', or a unit of UNIT_WORDS '<u8' words

Kinds and parts go in KINDS order, which is consumption order, and nothing
follows the last block.  The magic names this layout: change it whenever
KINDS changes.  read_pool_file keeps every part but the ring values as a
read-only view of the file's bytes; the online code only reads what it
takes.
"""

from __future__ import annotations

import struct
import threading
from typing import NamedTuple

import numpy as np

from .metering import RandomnessBudget
from .ppa import FAMILY_INPUTS, MONOMIALS, UNIT_WORDS, unit_column
from .ring import Ring, default_vmax
from .sharing import (
    check_file_header,
    decode_values,
    encode_values,
    share_matrix,
    uniform_values,
    value_width_bytes,
)

RING = "ring"  # the codec of a part of ring values: encode_values/decode_values

# each monomial as the unit columns of two factors: the monomial (or mask)
# of its inputs but the lowest, which MONOMIALS lists first, and that mask
_MONOMIAL_STEPS = tuple((unit_column(term & (term - 1)), unit_column(term & -term))
                        for term in MONOMIALS)


class Kind(NamedTuple):
    name: str     # the RandomnessBudget field counting it, and read_pool_file's meta key
    attr: str     # the PartyRandomness attribute holding its pool
    deal: str     # the Dealer method dealing both parties' parts, looked up per call
    codecs: tuple  # one per part, in pool order: RING or a numpy dtype string


# dealing order, which is also the pool file's order
KINDS = (
    Kind("dabits", "dabits", "dabits", ("u1", RING, RING, RING)),
    Kind("bin_words", "bin", "bin_triple_words", (f"({UNIT_WORDS},)<u8",)),
    Kind("cross_words", "cross", "cross_words", ("<u8", "<u8")),
)

POOL_MAGIC = b"SSKR6"
_POOL_HEADER = struct.Struct("<5sBB")
_POOL_COUNTS = struct.Struct("<" + "Q" * len(KINDS))

# the least a streaming refill deals: chunks this small stay in cache while
# they are dealt, and a query that needs only part of a chunk wastes little
STREAM_CHUNK = 1 << 12


class PoolExhausted(RuntimeError):
    """A gadget asked for more correlated randomness than was dealt."""


class StreamPool:
    """Parallel arrays read through a cursor; take() never reuses an element.

    take() returns a slice of each part (views, not copies) and bumps the
    cursor.  A take the arrays cannot cover raises PoolExhausted in a strict
    pool (no refill); a streaming pool instead replaces its arrays with
    refill(count), a chunk that covers the whole take, and drops the unused
    tail.  Both parties take the same sequence of counts, so both drop the
    same tails and their chunks stay paired.  A pool belongs to one party
    thread, which alone takes from it and refills it.
    """

    def __init__(self, parts, refill=None):
        self._arrays = tuple(parts)
        self._at = 0
        self._refill = refill
        self.consumed = 0

    def take(self, count: int) -> list:
        if count < 0:
            raise ValueError("negative take")
        at = self._at
        end = at + count
        if end > len(self._arrays[0]):
            if self._refill is None:
                raise PoolExhausted(f"pool exhausted: requested {count}, "
                                    f"have {len(self._arrays[0]) - at}")
            self._arrays = tuple(self._refill(count))
            at, end = 0, count
        self._at = end
        self.consumed += count
        return [a[at:end] for a in self._arrays]


class Dealer:
    """Generates matching per-party randomness chunks from one seed."""

    def __init__(self, ring: Ring, seed):
        self.ring = ring
        self.rng = np.random.default_rng(seed)

    def _bits(self, count: int) -> np.ndarray:
        raw = self.rng.integers(0, 256, size=(count + 7) // 8, dtype=np.uint8)
        return np.unpackbits(raw, count=count, bitorder="little")

    def bin_triple_words(self, nwords: int) -> tuple[tuple, tuple]:
        """nwords gate units, (nwords, UNIT_WORDS) per party: the masks, then
        their monomials, each XOR-shared.  Built in place, column by column,
        so dealing holds little beyond the two parties' shares."""
        first = self.rng.integers(0, 1 << 64, size=(nwords, UNIT_WORDS), dtype=np.uint64)
        unit = np.empty_like(first)
        unit[:, :FAMILY_INPUTS] = self.rng.integers(0, 1 << 64, size=(nwords, FAMILY_INPUTS),
                                                    dtype=np.uint64)
        for column, (rest, low) in enumerate(_MONOMIAL_STEPS, FAMILY_INPUTS):
            np.bitwise_and(unit[:, rest], unit[:, low], out=unit[:, column])
        unit ^= first
        return (first,), (unit,)

    def cross_words(self, nwords: int) -> tuple[tuple, tuple]:
        r, s, w1 = (self.rng.integers(0, 1 << 64, size=nwords, dtype=np.uint64)
                    for _ in range(3))
        return (r, w1), (s, (r & s) ^ w1)

    def dabits(self, count: int) -> tuple[tuple, tuple]:
        """count select units per party: XOR and arithmetic shares of a
        daBit r, then arithmetic shares of a uniform v and of r*v."""
        r = self._bits(count)
        x1 = self._bits(count)
        v = uniform_values(self.rng, self.ring, count)
        first, second = share_matrix(np.stack((r, v, r * v)), self.rng, self.ring)
        return (x1, *first), (r ^ x1, *second)


class _PairedFeeder:
    """Deals both parties' chunks of one kind under one lock.

    Whichever party runs short first deals the next pair and keeps the other
    party's half aside; each party's pool only ever receives its own chunks,
    in dealing order, so both pools hold the same sequence.
    """

    def __init__(self, generate, chunk: int):
        self._generate = generate
        self._chunk = chunk
        self._lock = threading.Lock()
        self._pending: tuple[list, list] = ([], [])

    def refill_for(self, index: int):
        mine, theirs = self._pending[index], self._pending[1 - index]

        def refill(need: int) -> tuple:
            with self._lock:
                if not mine:
                    pair = self._generate(max(need, self._chunk))
                    mine.append(pair[index])
                    theirs.append(pair[1 - index])
                return mine.pop(0)
        return refill


class PartyRandomness:
    """One party's correlated-randomness hand for a session: one pool per
    kind, at the kind's attribute (.dabits, .bin, .cross)."""

    def __init__(self, pools):
        for kind, pool in zip(KINDS, pools, strict=True):
            setattr(self, kind.attr, pool)

    @property
    def arith(self) -> StreamPool:
        """The select units' pool under its Beaver name: one take per select
        serves both its daBits and its triples."""
        return self.dabits

    def cursors(self) -> tuple[int, ...]:
        """How far each kind's pool has been consumed, in KINDS order."""
        return tuple(getattr(self, kind.attr).consumed for kind in KINDS)

    def burn_to(self, cursors):
        """Skip each kind's pool forward to the given cursor (never back);
        past the end of a strict pool this raises PoolExhausted."""
        for kind, at in zip(KINDS, cursors, strict=True):
            pool = getattr(self, kind.attr)
            pool.take(max(0, at - pool.consumed))


def deal_strict(ring: Ring, seed, budget: RandomnessBudget, vmax: int
                ) -> tuple[PartyRandomness, PartyRandomness]:
    """Pre-deal an exact budget; pools raise on exhaustion.  The sentinel is
    public and not dealt: vmax must be default_vmax(ring.l), else ValueError."""
    if vmax != default_vmax(ring.l):
        raise ValueError(f"the sentinel at l={ring.l} is {default_vmax(ring.l)}, not {vmax}")
    dealer = Dealer(ring, seed)
    pairs = [getattr(dealer, kind.deal)(getattr(budget, kind.name)) for kind in KINDS]
    return tuple(
        PartyRandomness([StreamPool(pair[i]) for pair in pairs])
        for i in (0, 1)
    )


def deal_streaming(ring: Ring, seed) -> tuple[PartyRandomness, PartyRandomness]:
    """Lazily dealt pools that never exhaust; a refill deals both parties a
    chunk of max(take, STREAM_CHUNK) elements."""
    dealer = Dealer(ring, seed)
    feeders = [_PairedFeeder(getattr(dealer, kind.deal), STREAM_CHUNK) for kind in KINDS]
    return tuple(
        PartyRandomness([StreamPool([np.empty(0, dtype=np.uint64)] * len(kind.codecs),
                                    feeder.refill_for(i))
                         for kind, feeder in zip(KINDS, feeders)])
        for i in (0, 1)
    )


def write_pool_file(path: str, party: int, l: int, rand: PartyRandomness,
                    budget: RandomnessBudget):
    """Serialize a strict pool (single un-consumed chunk per kind)."""
    counts = [getattr(budget, kind.name) for kind in KINDS]
    taken = [getattr(rand, kind.attr).take(count) for kind, count in zip(KINDS, counts)]
    with open(path, "wb") as f:
        f.write(_POOL_HEADER.pack(POOL_MAGIC, l, party))
        f.write(_POOL_COUNTS.pack(*counts))
        for kind, parts in zip(KINDS, taken):
            for codec, part in zip(kind.codecs, parts):
                f.write(encode_values(part, l) if codec == RING
                        else np.ascontiguousarray(part, dtype=np.dtype(codec).base).data)


def read_pool_file(path: str) -> tuple[PartyRandomness, dict]:
    with open(path, "rb") as f:
        blob = memoryview(f.read())
    at = 0

    def take(size: int) -> memoryview:
        nonlocal at
        if at + size > len(blob):
            raise ValueError(f"{path}: truncated pool file")
        at += size
        return blob[at - size:at]

    def part(codec: str, count: int) -> np.ndarray:
        if codec == RING:
            return decode_values(take(count * value_width_bytes(l)), l)
        return np.frombuffer(take(count * np.dtype(codec).itemsize), dtype=codec)  # read-only

    magic, l, party = _POOL_HEADER.unpack(take(_POOL_HEADER.size))
    if magic != POOL_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    check_file_header(path, l, party)
    counts = _POOL_COUNTS.unpack(take(_POOL_COUNTS.size))
    pools = [StreamPool([part(codec, count) for codec in kind.codecs])
             for kind, count in zip(KINDS, counts)]
    if at != len(blob):
        raise ValueError(f"{path}: {len(blob) - at} trailing bytes after the last section")
    meta = {"l": l, "party": party, **{kind.name: count for kind, count in zip(KINDS, counts)}}
    return PartyRandomness(pools), meta
