"""Spans around skyshare's layer functions, installed from outside the package.

skyshare modules import their collaborators by name (`from .gadgets import
less_than`), so a call resolves through the caller's module, not the defining
one.  SITES therefore lists every binding site a query goes through, and
install() replaces each with a timing wrapper; uninstall() restores them, so
untraced queries run the unmodified functions.

Each thread keeps its own span stack, so the two party threads of an
in-process session never interleave their spans.  A span's self time is its
duration minus the time its child spans cover.  Phase spans (map, fetch,
stop, filter) also record how far the party's round, byte and randomness
meters moved, for the per-phase closed-form check.  Spans stay in memory
until drain(); the harness writes them out when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from skyshare import channel, correlated, gadgets, online, protocol, ring, runtime

WORK = Path(__file__).resolve().parent.parent / ".skybench"  # run files; ignored by git
RUN_QUERY = "protocol.run_query"
STOP_IF_DIRECT = "stop-if-direct"  # a comparison run_query calls itself is the stop test


def _size(i):
    return lambda args, result: args[i].size


def _rows(i):
    return lambda args, result: args[i].shape[0]


def _out_bytes(args, result):
    return len(result)


def _in_bytes(args, result):
    return len(args[0])


# (owner, attribute, span name, phase, element counter)
SITES = (
    (runtime, "run_query", RUN_QUERY, None, None),
    (protocol, "map_database", "protocol.map", "map", None),
    (protocol, "fetch_min", "protocol.fetch", "fetch", None),
    (protocol, "filter_round", "protocol.filter", "filter", None),
    (protocol, "less_than", "gadgets.less_than", STOP_IF_DIRECT, _size(1)),
    (protocol, "open_bit", "online.open_bit", "stop", None),
    (protocol, "min_with_payload", "gadgets.min_with_payload", None, _size(1)),
    (protocol, "obliv_select", "online.obliv_select", None, _rows(1)),
    (protocol, "and_jobs", "online.and_jobs", None, None),
    (gadgets, "less_than", "gadgets.less_than", None, _size(1)),
    (gadgets, "and_packed", "online.and_packed", None, _size(1)),
    (gadgets, "obliv_select", "online.obliv_select", None, _rows(1)),
    (gadgets, "bits_of_values", "bitpack.bits_of_values", None, _size(0)),
    (gadgets, "unpack_bits", "bitpack.unpack_bits", None, None),
    (online, "and_packed", "online.and_packed", None, _size(1)),
    (online, "mul_shares", "online.mul_shares", None, _size(1)),
    (online, "bits_to_arith", "online.bits_to_arith", None, _size(1)),
    (online, "bit_mul_messages", "online.bit_mul_messages", None, _size(2)),
    (online, "pack_bits", "bitpack.pack_bits", None, None),
    (online, "unpack_bits", "bitpack.unpack_bits", None, None),
    (online, "encode_values", "sharing.encode_values", None, _out_bytes),
    (online, "decode_values", "sharing.decode_values", None, _in_bytes),
    (runtime, "encode_values", "sharing.encode_values", None, _out_bytes),
    (runtime, "decode_values", "sharing.decode_values", None, _in_bytes),
    (runtime, "share_matrix", "sharing.share_matrix", None, None),
    (runtime, "deal_streaming", "correlated.deal_streaming", None, None),
    (runtime, "read_pool_file", "correlated.read_pool_file", None, None),
    (correlated, "encode_values", "sharing.encode_values", None, _out_bytes),
    (correlated, "decode_values", "sharing.decode_values", None, _in_bytes),
    (correlated.Dealer, "arith_triples", "correlated.dealer", None, None),
    (correlated.Dealer, "bin_triple_words", "correlated.dealer", None, None),
    (correlated.Dealer, "dabits", "correlated.dealer", None, None),
    (channel.ChannelBase, "exchange", "channel.exchange", None, None),
    (ring.Ring, "reduce", "ring.reduce", None, None),
)


def _meters(ctx) -> tuple:
    rand = ctx.rand
    return (ctx.chan.rounds, ctx.chan.bytes_tx, rand.arith.consumed, rand.bin.consumed,
            rand.dabits.consumed)


class _ThreadState:
    __slots__ = ("generation", "party", "stack", "stats", "phases", "spans", "next_id")

    def __init__(self, generation: int):
        self.generation = generation
        self.party = 0  # 0 until the thread enters run_query: the client side
        self.stack: list[list] = []  # frames: [name, child seconds, span id]
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds, elements]
        self.phases: dict[str, list] = {}  # phase -> [seconds, rounds, bytes, arith, AND words, daBits]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.next_id = 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._generation = 0
        self._states: list[_ThreadState] = []
        self._installed: list[tuple] = []
        self.keep_spans = False
        self.missing = sorted({
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, *_ in SITES if attr not in vars(owner)
        })

    def notes(self) -> list[str]:
        if not self.missing:
            return []
        return [f"not traced, absent from the program: {', '.join(self.missing)}"]

    def install(self):
        if self._installed:
            return
        for owner, attr, name, phase, counter in SITES:
            original = vars(owner).get(attr)
            if original is None:
                continue  # binding removed from the program; listed in self.missing
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, phase, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def drain(self) -> list[dict]:
        """Hand over everything recorded since the last drain, one entry per thread."""
        with self._lock:
            states, self._states = self._states, []
            self._generation += 1
        return [{"party": s.party, "stats": s.stats, "phases": s.phases, "spans": s.spans}
                for s in states]

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None or st.generation != self._generation:
            with self._lock:
                st = _ThreadState(self._generation)
                self._states.append(st)
            self._local.state = st
        return st

    def _wrap(self, fn, name, phase, counter):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            span_phase = phase
            if phase == STOP_IF_DIRECT:
                span_phase = "stop" if parent is not None and parent[0] == RUN_QUERY else None
            if name == RUN_QUERY:
                st.party = args[0].party
            before = _meters(args[0]) if span_phase else None
            span_id = st.next_id
            st.next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            took = end - start
            if parent is not None:
                parent[1] += took
            agg = st.stats.get(name)
            if agg is None:
                agg = st.stats[name] = [0, 0.0, 0.0, 0]
            agg[0] += 1
            agg[1] += took
            agg[2] += took - frame[1]
            if counter is not None:
                agg[3] += counter(args, result)
            if before is not None:
                after = _meters(args[0])
                acc = st.phases.get(span_phase)
                if acc is None:
                    acc = st.phases[span_phase] = [0.0, 0, 0, 0, 0, 0]
                acc[0] += took
                for i in range(5):
                    acc[i + 1] += after[i] - before[i]
            if tracer.keep_spans:
                st.spans.append((span_id, parent[2] if parent is not None else -1, name,
                                 start, end))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def merge_by_party(threads: list[dict]) -> dict[int, dict]:
    """Sum the per-thread records of one session into one record per party."""
    out: dict[int, dict] = {}
    for rec in threads:
        party = out.setdefault(rec["party"], {"stats": {}, "phases": {}})
        for key in ("stats", "phases"):
            for name, values in rec[key].items():
                acc = party[key].setdefault(name, [0] * len(values))
                for i, v in enumerate(values):
                    acc[i] += v
    return out


def share_seconds(tracer: Tracer) -> float:
    """Client-side seconds in share_matrix since the last drain."""
    client = merge_by_party(tracer.drain()).get(0)
    return client["stats"].get("sharing.share_matrix", (0, 0.0))[1] if client else 0.0


def write_spans(workload: str, seed: int, sessions) -> str:
    """Write kept spans, one JSON object a line; sessions holds
    (session id, drained thread records).  Returns a note naming the file."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{workload}-{seed}.jsonl"
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        for session, threads in sessions:
            for thread in threads:
                for span_id, parent, name, start, end in thread["spans"]:
                    f.write(json.dumps({"session": session, "party": thread["party"],
                                        "id": span_id, "parent": parent, "name": name,
                                        "start": start, "end": end}) + "\n")
                    count += 1
    traced = len({session for session, _ in sessions})
    return f"spans: {count} spans of {traced} traced session(s) written to {path.name} in {WORK.name}/"
