import numpy as np
import pytest

from conftest import (
    audit_select_openings,
    msb_array,
    reconstruct,
    reconstruct_bits,
    run_two,
    session_pair,
    share_pair,
)

from skyshare import gadgets
from skyshare.bitpack import (
    bits_of_values,
    pack_bits,
    row_bytes,
    unpack_bits,
    wire_dtype,
    words_for,
)
from skyshare.correlated import StreamPool
from skyshare.gadgets import less_than, min_with_payload
from skyshare.metering import msb_cost, query_rounds, select_cost
from skyshare.online import (
    and_level,
    and_one_sided,
    and_trees,
    bit_mul,
    not_bits,
    obliv_select,
    open_bit,
)
from skyshare.ppa import (
    FAMILY_INPUTS,
    MONOMIALS,
    UNIT_WORDS,
    and_gate,
    _level,
    and_tree,
    block_outputs,
    carry_plan,
    ceil_log2,
    combine_gate,
    tree_cost,
    unit_column,
    xor_of_ands,
)
from skyshare.ring import Ring

R8 = Ring(8)
R64 = Ring(64)


def _compare_all_pairs(l, a_vals, b_vals, seed=0):
    ring = Ring(l)
    ctx1, ctx2 = session_pair(l=l, seed=seed)
    a1, a2 = share_pair(a_vals, ring, seed=seed + 1)
    b1, b2 = share_pair(b_vals, ring, seed=seed + 2)
    r1, r2 = run_two(ctx1, ctx2, lambda c: less_than(
        c, a1 if c.party == 1 else a2, b1 if c.party == 1 else b2))
    return reconstruct_bits(r1, r2)


def _gf2_rank(rows):
    """Rank over GF(2) of a matrix given as int bit-mask rows."""
    rank = 0
    rows = [r for r in rows if r]
    while rows:
        pivot = max(rows)
        top = 1 << (pivot.bit_length() - 1)
        rows = [r ^ pivot if r & top else r for r in rows if r != pivot]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def _monomial(mask, bits):
    """The AND of the bits that mask selects."""
    return int(bits & mask == mask)


def test_block_factoring_matches_ripple_carry_exhaustively():
    """For w = 1..3, over all 2^(2w) bit inputs, each factored output equals
    the ripple-carry G and P, and its one-sided AND count is rank(M) of its
    cross-term matrix: 1, 3, 7 for G and 0, 2, 6 for P."""
    for w, ranks in ((1, (1, 0)), (2, (3, 2)), (3, (7, 6))):
        outputs = block_outputs(w)
        for out, rank in zip(outputs, ranks):
            matrix = {}  # the cross matrix's row of a^S, as a bit mask over T
            for s, t in out.cross:
                matrix[s] = matrix.get(s, 0) ^ (1 << t)
            assert len(out.cross) == _gf2_rank(list(matrix.values())) == rank, w
        for a in range(1 << w):
            for b in range(1 << w):
                g, p = 0, 1
                for i in range(w):
                    ai, bi = a >> i & 1, b >> i & 1
                    g = (ai & bi) | ((ai ^ bi) & g)
                    p &= ai ^ bi
                for out, want in zip(outputs, (g, p)):
                    got = 0
                    for s, t in out.local:
                        got ^= _monomial(s, a) ^ _monomial(t, b)
                    for s, t in out.cross:
                        got ^= _monomial(s, a) & _monomial(t, b)
                    assert got == want, (w, a, b)


def test_every_plans_leaf_tables_give_ripple_carry_g_and_p():
    """For l = 2..64, each party's compiled leaf flight over random bit
    lanes (the top bit's included), with the one-sided products computed in
    the clear and split at random: the parties' outputs XOR to every
    block's ripple-carry G, then the P of every block above the lowest."""
    rng = np.random.default_rng(25)
    for l in range(2, 65):
        plan = carry_plan(l)
        (cross1, out1), (cross2, out2) = plan.leaf
        a, b = rng.integers(0, 2**64, size=(2, l, 2), dtype=np.uint64)
        products = cross1.ands(a) & cross2.ands(b)
        assert products.shape == (plan.cross_rows, 2), l
        z1 = rng.integers(0, 2**64, size=products.shape, dtype=np.uint64)
        got = out1(np.concatenate((a, z1))) ^ out2(np.concatenate((b, z1 ^ products)))
        g, p, at = [], [], 0
        for w in plan.blocks:
            carry, prop = np.zeros(2, dtype=np.uint64), ~np.zeros(2, dtype=np.uint64)
            for i in range(at, at + w):
                carry = (a[i] & b[i]) ^ ((a[i] ^ b[i]) & carry)
                prop &= a[i] ^ b[i]
            g.append(carry)
            p.append(prop)
            at += w
        assert (got == np.array(g + p[1:])).all(), l


def test_xor_of_ands_refuses_an_output_without_products():
    assert (xor_of_ands([[[0, 1]], [[1], [0]]])(np.array([[3], [5]], dtype=np.uint64))
            == [[1], [6]]).all()
    with pytest.raises(ValueError):
        xor_of_ands([[[0, 1]], []])


def _compositions(count):
    """Every cut of count rows into consecutive groups of 1..4, lowest first."""
    if count == 0:
        yield ()
        return
    for j in range(1, min(4, count) + 1):
        for rest in _compositions(count - j):
            yield (j,) + rest


def _combine_bits(sizes):
    """Bits a combine level sends per lane: 2(j-1) per group of j > 1, and
    one more for its P above the lowest group."""
    return sum(2 * (j - 1) + (c > 0) for c, j in enumerate(sizes) if j > 1)


def _brute_tree(count):
    """(levels, bits) of the best combine tree over every grouping."""
    if count == 1:
        return 0, 0
    return min((depth + 1, bits + _combine_bits(sizes))
               for sizes in _compositions(count) if len(sizes) < count
               for depth, bits in [_brute_tree(len(sizes))])


def test_carry_plan_shape():
    # l = 8, 10, 11, 12, 13: 4 blocks and one radix-4 root combine, G only,
    # opening P3 P2 P1 and G2 G1 G0; l = 64: 61 blocks, levels of 16, 4, 1
    # groups, all but the top one of 4 segments
    for l, blocks, tree, cross, bits, gates in (
            (8, (2, 2, 2, 1), ((4,),), 14, 6, 1), (10, (3, 2, 2, 2), ((4,),), 22, 6, 1),
            (11, (3, 3, 2, 2), ((4,),), 30, 6, 1), (12, (3, 3, 3, 2), ((4,),), 38, 6, 1),
            (13, (3, 3, 3, 3), ((4,),), 46, 6, 1),
            (64, (2, 2) + (1,) * 59, ((4,) * 15 + (1,), (4,) * 4, (4,)), 67, 137, 20)):
        plan = carry_plan(l)
        assert (plan.blocks, plan.tree) == (blocks, tree), l
        assert tree_cost(plan.levels) == (len(tree), bits, gates) and msb_cost(1, l).rounds == 1 + len(tree)
        assert plan.cross_rows == cross and plan.total_and_rows == cross + gates
    # at every width: G-only lowest block, G and P above it; the tree reduces
    # the blocks to one in as few levels as groups of 4 allow, sending as
    # few bits as any grouping of those levels; and the block count is the
    # one with the fewest levels, then the fewest bits
    for l in range(2, 65):
        plan = carry_plan(l)
        segments = len(plan.blocks)
        assert sum(plan.blocks) == l - 1 and max(plan.blocks) <= 3, l
        assert list(plan.blocks) == sorted(plan.blocks, reverse=True), l
        fewest = -(-(l - 1) // 3)
        assert msb_cost(1, l).rounds == 1 + _ceil_log4(fewest) == 1 + _ceil_log4(segments), l
        assert plan.cross_rows == ({1: 1, 2: 3, 3: 7}[plan.blocks[0]]
                                   + sum({1: 1, 2: 5, 3: 13}[w] for w in plan.blocks[1:])), l
        count = segments
        for sizes in plan.tree:
            assert sum(sizes) == count and max(sizes) <= 4, l
            count = len(sizes)
        assert count == 1
        depth, bits, gates = tree_cost(plan.levels)
        assert bits == sum(map(_combine_bits, plan.tree)), l
        assert gates == sum(j > 1 for sizes in plan.tree for j in sizes), l
        if segments <= 10:
            assert (depth, bits) == _brute_tree(segments), l
    assert carry_plan(2).total_and_rows == 1
    with pytest.raises(ValueError):
        carry_plan(1)


def _ceil_log4(n):
    return (ceil_log2(n) + 1) // 2


def test_msb_rounds_never_exceed_the_leaf_and_tree():
    # never above the radix-2 tree's 1 + ceil(log2(blocks)), fewest blocks
    for l in range(2, 65):
        assert msb_cost(1, l).rounds <= 1 + ceil_log2(-(-(l - 1) // 3)), l
    assert [msb_cost(1, l).rounds for l in range(8, 14)] == [2] * 6
    assert msb_cost(1, 64).rounds == 4
    # whole queries at the benchmark shapes and typical k: 180, 1,128 and 356 before
    assert query_rounds(16, 3, 11, 6) == query_rounds(16, 3, 10, 6) == 132
    assert query_rounds(128, 4, 11, 28) == query_rounds(128, 4, 10, 28) == 839
    assert query_rounds(4096, 2, 13, 5) == query_rounds(4096, 2, 12, 5) == 262


def _gate_shapes():
    return ([and_gate(k) for k in (2, 3, 4)]
            + [combine_gate(j, with_p) for j in (2, 3, 4) for with_p in (False, True)])


def _clear_level(rows, sizes, combine):
    """A level's next rows in the clear: each group's AND, or its combined G
    and, above the lowest group, its P; a group of one carried."""
    count, out, p_out = sum(sizes), [], []
    at = 0
    for c, j in enumerate(sizes):
        if not combine:
            out.append(np.bitwise_and.reduce(rows[at:at + j], axis=0))
        else:
            g = rows[at]
            for s in range(at + 1, at + j):
                g = rows[s] ^ (rows[count - 1 + s] & g)
            out.append(g)
            if c:
                p_out.append(np.bitwise_and.reduce(rows[count - 1 + at:count - 1 + at + j], axis=0))
        at += j
    return np.array(out + p_out)


def test_and_level_truth_tables_and_masked_flights():
    """Every gate shape the plans use, carried rows beside them, over every
    assignment of each group's rows, each lane with a fresh random share
    split, four compiled levels in one flight: every next row (ANDs, G's,
    P's and carried rows) XORs to its clear value, a unit per gate per word
    is taken, and each party sends exactly its opened rows XOR their masks:
    for a combine group, every G but the top one and every P but the
    lowest segment's, which the lowest group skips."""
    rng = np.random.default_rng(71)
    lanes = np.arange(256)  # 4 words: bit t of a lane feeds a group's t-th row
    specs = [((2, 3, 4, 1), False), ((2, 3, 4, 1), True), ((3, 2), True), ((4, 1, 2), True)]
    shapes = set()
    ctx1, ctx2 = session_pair(l=8, seed=72, record=True)
    levels, shares, want = [], {1: [], 2: []}, []
    for sizes, combine in specs:
        count = sum(sizes)
        level = _level(sizes, combine)
        at, local = 0, []
        for j in sizes:
            local += [at + t for t in range(j)]
            at += j
        if combine:  # P rows feed bits 4.., a P per segment above the lowest
            local += [4 + t for t in local[1:]]
        bits = ((lanes >> np.array(local)[:, None]) & 1).astype(np.uint8)
        split = rng.integers(0, 2, size=bits.shape, dtype=np.uint8)
        shares[1].append((pack_bits(split), level))
        shares[2].append((pack_bits(bits ^ split), level))
        levels.append((sizes, combine, level))
        want.append(_clear_level(bits, sizes, combine))
        shapes |= {(j, combine and c > 0, combine) for c, j in enumerate(sizes) if j > 1}
    assert len(shapes) == 9  # AND of 2..4, combines of 2..4 with and without P
    groups = sum(level.groups for *_, level in levels)
    assert groups == sum(j > 1 for sizes, *_ in levels for j in sizes)
    peeked = [ctx.rand.bin.take(4 * groups)[0].copy() for ctx in (ctx1, ctx2)]
    for ctx, unit in zip((ctx1, ctx2), peeked):
        ctx.rand.bin = StreamPool((unit,))
    z1, z2 = run_two(ctx1, ctx2, lambda c: and_level(c, shares[c.party], lanes.size))
    for a, b, w in zip(z1, z2, want):
        assert a.shape == (len(w), 4)
        assert (np.array([unpack_bits(row, 256) for row in a ^ b]) == w).all()
    assert ctx1.chan.rounds == 1 and ctx1.rand.bin.consumed == 4 * groups
    for ctx, other, party in ((ctx1, ctx2, 1), (ctx2, ctx1, 2)):
        sent = np.frombuffer(other.chan.flights[0][1], dtype="<u8")  # what party sent
        at = first = 0
        for (sizes, combine, level), (x, _) in zip(levels, shares[party]):
            count, starts = sum(sizes), np.cumsum((0,) + sizes[:-1])
            opened = []
            for c, j in enumerate(sizes):
                if j > 1 and combine:
                    lo = starts[c]
                    opened += [lo + t for t in range(j - 1)]  # G's but the top
                    opened += [count - 1 + lo + t for t in range(j) if t or c]  # P's
                elif j > 1:
                    opened += [starts[c] + t for t in range(j)]
            assert sorted(level.opened) == sorted(opened)
            k = level.opened.size
            units = peeked[party - 1][first:first + 4 * level.groups].reshape(level.groups, 4, -1)
            masks = units[level.reads[0][:k], :, level.reads[1][:k]]
            assert (sent[at:at + x[level.opened].size].reshape(k, 4)
                    == x[level.opened] ^ masks).all()
            at += k * 4
            first += 4 * level.groups
        assert at == sent.size


def _gate_columns(gate):
    """The unit columns a gate reads: its inputs' masks, then its monomials."""
    return [unit_column(1 << i) for i in gate.inputs] + [unit_column(t) for t in gate.monomials]


def test_gate_shapes_are_sub_families_of_one_unit():
    """The unit holds the masks of P3 P2 P1 P0 G2 G1 G0 and the 22 monomials
    the 4-segment combine with P needs; every shape reads inside it, and the
    root combine reads 6 masks and 15 monomials."""
    assert (FAMILY_INPUTS, len(MONOMIALS), UNIT_WORDS) == (7, 22, 29)
    full = combine_gate(4, True)
    assert full.inputs == tuple(range(7)) and sorted(_gate_columns(full)) == list(range(29))
    root = combine_gate(4, False)
    assert len(root.inputs) == 6 and len(_gate_columns(root)) == 6 + 15
    for gate in _gate_shapes():
        cols = _gate_columns(gate)
        assert set(cols) <= set(range(UNIT_WORDS)) and len(set(cols)) == len(cols)
        assert cols[:len(gate.inputs)] == list(gate.inputs)
        assert all(t.bit_count() >= 2 for t in gate.monomials)


def test_and_one_sided_every_input_pair_and_masked_flights():
    """Every (x, y) bit pair, party 1 holding x and party 2 holding y in the
    clear: the shares XOR to x AND y, and each party's flight is exactly its
    operand XOR its dealt mask."""
    x = pack_bits(np.array([0, 0, 1, 1] * 32, dtype=np.uint8))  # two words
    y = pack_bits(np.array([0, 1, 0, 1] * 32, dtype=np.uint8))
    r, s, w1 = np.random.default_rng(41).integers(0, 2**64, size=(3, 2), dtype=np.uint64)
    ctx1, ctx2 = session_pair(l=8, seed=41, record=True)
    for ctx, parts in ((ctx1, (r, w1)), (ctx2, (s, (r & s) ^ w1))):
        ctx.rand.cross = StreamPool(parts)
    z1, z2 = run_two(ctx1, ctx2, lambda c: and_one_sided(c, x if c.party == 1 else y, 128))
    assert (z1 ^ z2 == x & y).all()
    assert (unpack_bits(x & y, 128) == np.array([0, 0, 0, 1] * 32)).all()
    sent_by_2 = np.frombuffer(ctx1.chan.flights[0][1], dtype="<u8")
    sent_by_1 = np.frombuffer(ctx2.chan.flights[0][1], dtype="<u8")
    assert (sent_by_1 == x ^ r).all() and (sent_by_2 == y ^ s).all()
    assert ctx1.chan.rounds == 1 and ctx1.chan.bytes_tx == ctx2.chan.bytes_tx == 16


WIRE_LANES = [1, 7, 8, 9, 16, 17, 32, 33, 63, 64, 65, 130]


def _random_words(rng, *shape):
    return rng.integers(0, 2**64, size=shape, dtype=np.uint64)


@pytest.mark.parametrize("lanes", WIRE_LANES)
def test_and_one_sided_sends_the_low_bytes_of_its_lanes(lanes):
    """Operands with random bits in every lane, the lanes past `lanes`
    included: the used lanes of the shares XOR to x AND y, and each party's
    flight is its rows XOR their masks, each word's low wire_dtype(lanes)
    bytes, row_bytes(lanes) a row."""
    rng = np.random.default_rng(lanes)
    rows, words = 3, words_for(lanes)
    x, y, r, s, w1 = _random_words(rng, 5, rows, words)
    ctx1, ctx2 = session_pair(l=8, seed=lanes, record=True)
    for ctx, parts in ((ctx1, (r, w1)), (ctx2, (s, (r & s) ^ w1))):
        ctx.rand.cross = StreamPool(part.ravel() for part in parts)
    z1, z2 = run_two(ctx1, ctx2, lambda c: and_one_sided(c, x if c.party == 1 else y, lanes))
    assert (unpack_bits(z1 ^ z2, lanes) == unpack_bits(x & y, lanes)).all()
    for receiver, sent in ((ctx2, x ^ r), (ctx1, y ^ s)):
        ((_, flight),) = receiver.chan.flights
        assert len(flight) == rows * row_bytes(lanes)
        assert flight == sent.astype(wire_dtype(lanes)).tobytes()


@pytest.mark.parametrize("lanes", WIRE_LANES)
def test_and_level_sends_the_low_bytes_of_its_lanes(lanes):
    """A plain and a combine level in one flight over rows with random bits
    in every lane: the used lanes of every next row are exact, and each
    party's flight is its opened rows XOR their masks, each word's low
    wire_dtype(lanes) bytes, row_bytes(lanes) a row."""
    rng = np.random.default_rng(100 + lanes)
    words = words_for(lanes)
    specs = [((2, 3, 4, 1), False), ((3, 2), True)]
    ctx1, ctx2 = session_pair(l=8, seed=lanes, record=True)
    levels, shares, want = [], {1: [], 2: []}, []
    for sizes, combine in specs:
        level = _level(sizes, combine)
        count = sum(sizes) * (2 if combine else 1) - combine  # a combine's G's, then P's
        bits = rng.integers(0, 2, size=(count, 64 * words), dtype=np.uint8)
        split = rng.integers(0, 2, size=bits.shape, dtype=np.uint8)
        shares[1].append((pack_bits(split), level))
        shares[2].append((pack_bits(bits ^ split), level))
        levels.append(level)
        want.append(_clear_level(bits[:, :lanes], sizes, combine))
    groups = sum(level.groups for level in levels)
    peeked = [ctx.rand.bin.take(words * groups)[0].copy() for ctx in (ctx1, ctx2)]
    for ctx, unit in zip((ctx1, ctx2), peeked):
        ctx.rand.bin = StreamPool((unit,))
    z1, z2 = run_two(ctx1, ctx2, lambda c: and_level(c, shares[c.party], lanes))
    for a, b, w in zip(z1, z2, want):
        assert (unpack_bits(a ^ b, lanes) == w).all()
    for receiver, party in ((ctx2, 1), (ctx1, 2)):
        sent, first = [], 0
        for level, (x, _) in zip(levels, shares[party]):
            units = peeked[party - 1][first:first + words * level.groups]
            first += words * level.groups
            k = level.opened.size
            masks = units.reshape(level.groups, words, -1)[level.reads[0][:k], :, level.reads[1][:k]]
            sent.append(x[level.opened] ^ masks)
        ((_, flight),) = receiver.chan.flights
        assert len(flight) == sum(e.shape[0] for e in sent) * row_bytes(lanes)
        assert flight == np.concatenate(sent).astype(wire_dtype(lanes)).tobytes()


@pytest.mark.parametrize("lanes", WIRE_LANES)
def test_less_than_flights_carry_row_bytes_of_its_batch(lanes, monkeypatch):
    """A batch of `lanes` comparisons whose bit rows both parties fill with
    random bits past the batch: every result is exact, and each flight is
    row_bytes(lanes) per row, the leaf flight's cross rows and then each
    combine level's opened rows."""
    def noisy_bits(values, positions):
        packed = bits_of_values(values, positions)
        past = ~pack_bits(np.ones(values.size, dtype=np.uint8))
        noise = _random_words(np.random.default_rng(int(values[0])), *packed.shape)
        return packed | (noise & past)

    monkeypatch.setattr(gadgets, "bits_of_values", noisy_bits)
    l, ring = 10, Ring(10)
    rng = np.random.default_rng(lanes)
    a, b = rng.integers(0, 1 << (l - 2), size=(2, lanes), dtype=np.uint64)
    a1, a2 = share_pair(a, ring, seed=lanes)
    b1, b2 = share_pair(b, ring, seed=lanes + 1)
    ctx1, ctx2 = session_pair(l=l, seed=lanes, record=True)
    r1, r2 = run_two(ctx1, ctx2, lambda c: less_than(
        c, a1 if c.party == 1 else a2, b1 if c.party == 1 else b2))
    assert (reconstruct_bits(r1, r2) == (a < b)).all()
    plan = carry_plan(l)
    rows = [plan.cross_rows] + [level.opened.size for level in plan.levels]
    for ctx in (ctx1, ctx2):
        assert [len(flight) for _, flight in ctx.chan.flights] == [
            row * row_bytes(lanes) for row in rows]


def test_less_than_equal_inputs_give_zero():
    vals = np.arange(32, dtype=np.uint64)
    assert not _compare_all_pairs(8, vals, vals.copy()).any()


def test_less_than_small_examples():
    got = _compare_all_pairs(8, np.array([3, 5], dtype=np.uint64),
                             np.array([5, 3], dtype=np.uint64))
    assert list(got) == [1, 0]


def test_less_than_exhaustive_l8():
    # every (a, b) pair at width 8 against the cleartext msb oracle
    a = np.repeat(np.arange(256, dtype=np.uint64), 256)
    b = np.tile(np.arange(256, dtype=np.uint64), 256)
    got = _compare_all_pairs(8, a, b, seed=5)
    want = msb_array(R8, R8.reduce(a - b))
    assert (got == want).all()


def test_less_than_random_l64():
    rng = np.random.default_rng(9)
    a = rng.integers(0, 1 << 62, size=500, dtype=np.uint64)
    b = rng.integers(0, 1 << 62, size=500, dtype=np.uint64)
    got = _compare_all_pairs(64, a, b, seed=6)
    assert (got == (a < b)).all()


def test_bits_of_values_every_width():
    rng = np.random.default_rng(60)
    values = rng.integers(0, 2**64, size=131, dtype=np.uint64)
    values[:2] = (0, 2**64 - 1)
    for positions in range(1, 65):
        want = (values[None, :] >> np.arange(positions, dtype=np.uint64)[:, None]) & np.uint64(1)
        got = bits_of_values(values, positions)
        assert (got == pack_bits(want.astype(np.uint8))).all(), positions


def test_less_than_round_count():
    ctx1, ctx2 = session_pair(l=64, seed=3)
    a1, a2 = share_pair(np.arange(10, dtype=np.uint64), R64, seed=1)
    run_two(ctx1, ctx2, lambda c: less_than(c, a1 if c.party == 1 else a2,
                                            a1 if c.party == 1 else a2))
    assert ctx1.chan.rounds == msb_cost(1, 64).rounds
    assert ctx1.meters.secext == 10


def test_and_trees_run_level_locked_over_packed_rows():
    """AND trees of 1..10 columns, over every assignment of their bits at
    1,024 lanes and random ones at 5, and one carry combine tree over random
    G and P rows, all under random share splits in one runner: each tree's
    first row is its AND (the carry tree's, its prefix G), the rounds are
    the deepest tree's, and each tree takes a unit per gate per packed word
    of its rows."""
    rng = np.random.default_rng(8)
    for lanes in (1024, 5):
        assignments = np.arange(1024) if lanes == 1024 else rng.integers(0, 1024, size=lanes)
        trees, want, units = [], [], 0
        for count in range(1, 11):
            bits = ((assignments >> np.arange(count)[:, None]) & 1).astype(np.uint8)
            trees.append((bits, and_tree(count)))
            want.append(np.bitwise_and.reduce(bits, axis=0))
            units += words_for(lanes) * tree_cost(and_tree(count))[2]
        plan = carry_plan(64)
        segments = len(plan.blocks)
        gp = rng.integers(0, 2, size=(2 * segments - 1, lanes), dtype=np.uint8)  # G's, then P's
        g = gp[0]
        for i in range(1, segments):
            g = gp[i] ^ (gp[segments - 1 + i] & g)
        trees.append((gp, plan.levels))
        want.append(g)
        units += words_for(lanes) * tree_cost(plan.levels)[2]
        shares = {1: [], 2: []}
        for bits, levels in trees:
            split = rng.integers(0, 2, size=bits.shape, dtype=np.uint8)
            shares[1].append((pack_bits(split), levels))
            shares[2].append((pack_bits(bits ^ split), levels))
        ctx1, ctx2 = session_pair(l=8, seed=7)
        z1, z2 = run_two(ctx1, ctx2, lambda c: and_trees(c, shares[c.party], lanes))
        for a, b, w in zip(z1, z2, want):
            assert (unpack_bits(a ^ b, w.size) == w).all()
        depths = sorted({len(levels) for _, levels in trees})
        assert depths[0] == 0 and len(depths) > 2
        assert ctx1.chan.rounds == depths[-1] == len(plan.levels)
        assert ctx1.rand.bin.consumed == ctx2.rand.bin.consumed == units


def test_bit_mul_annihilator_identity_and_products():
    rng = np.random.default_rng(11)
    n = 300
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    bits[:10] = 0
    bits[10:20] = 1
    values = rng.integers(0, 1 << 60, size=n, dtype=np.uint64)
    b1 = rng.integers(0, 2, size=n, dtype=np.uint8)
    b2 = bits ^ b1
    v1, v2 = share_pair(values, R64, seed=12)
    ctx1, ctx2 = session_pair(l=64, seed=13)
    z1, z2 = run_two(ctx1, ctx2, lambda c: bit_mul(
        c, b1 if c.party == 1 else b2, v1 if c.party == 1 else v2))
    got = reconstruct(R64, z1, z2)
    assert (got == values * bits.astype(np.uint64)).all()


def test_bit_mul_vector_payload():
    # one bit scales a whole row: (1, (1,2)) -> (1,2); (0, ...) -> zeros
    bits = np.array([1, 0], dtype=np.uint8)
    values = np.array([[1, 2], [7, 9]], dtype=np.uint64)
    b1 = np.array([1, 1], dtype=np.uint8)
    b2 = bits ^ b1
    v1, v2 = share_pair(values, Ring(8), seed=14)
    ctx1, ctx2 = session_pair(l=8, seed=15)
    z1, z2 = run_two(ctx1, ctx2, lambda c: bit_mul(
        c, b1 if c.party == 1 else b2, v1 if c.party == 1 else v2))
    got = reconstruct(Ring(8), z1, z2)
    assert got.tolist() == [[1, 2], [0, 0]]


def test_bit_mul_openings_are_uniform_and_input_independent_l4():
    # one select row per assignment of its values' daBits r and masks v,
    # party 1's shares fixed: the opened c = bit ^ r and f = y - v take every
    # joint value exactly once, per value and across a row's two values, and
    # the same way for every bit and y
    audit_select_openings()


def _select(l, bits, u, v, seed):
    ring = Ring(l)
    rng = np.random.default_rng(seed)
    b1 = rng.integers(0, 2, size=bits.shape, dtype=np.uint8)
    b2 = bits ^ b1
    u1, u2 = share_pair(u, ring, seed=seed + 1)
    v1, v2 = share_pair(v, ring, seed=seed + 2)
    ctx1, ctx2 = session_pair(l=l, seed=seed + 3)
    z1, z2 = run_two(ctx1, ctx2, lambda c: obliv_select(
        c, b1 if c.party == 1 else b2,
        u1 if c.party == 1 else u2, v1 if c.party == 1 else v2))
    width = u.shape[1] if u.ndim == 2 else 1
    want = select_cost(bits.size, width, l)
    for ctx in (ctx1, ctx2):
        assert (ctx.chan.rounds, ctx.chan.bytes_tx) == (want.rounds, want.bytes) == \
            (1, (bits.size * width + 7) // 8 + ((l + 7) // 8) * bits.size * width)
        assert (ctx.rand.arith.consumed, ctx.rand.dabits.consumed) == \
            (want.arith_triples, want.dabits) == (bits.size * width,) * 2
    return reconstruct(ring, z1, z2)


def test_obliv_select_branches():
    u = np.array([[10, 11], [20, 21], [30, 31]], dtype=np.uint64)
    v = np.array([[50, 51], [60, 61], [30, 31]], dtype=np.uint64)
    bits = np.array([1, 0, 1], dtype=np.uint8)
    got = _select(64, bits, u, v, seed=19)
    assert got.tolist() == [[10, 11], [60, 61], [30, 31]]


def test_obliv_select_exhaustive_l8():
    # every (bit, u, v) at width 8 where u - v wraps around the ring
    bit, u, v = (g.ravel() for g in np.meshgrid(
        np.arange(2, dtype=np.uint8), np.arange(256, dtype=np.uint64),
        np.arange(256, dtype=np.uint64), indexing="ij"))
    wraps = u < v
    bit, u, v = bit[wraps], u[wraps], v[wraps]
    got = _select(8, bit, u, v, seed=40)
    assert (got == np.where(bit == 1, u, v)).all()


def test_not_bits_and_open_bit():
    ctx1, ctx2 = session_pair(l=8, seed=22)
    b1 = np.array([1], dtype=np.uint8)
    b2 = np.array([0], dtype=np.uint8)
    n1, n2 = not_bits(ctx1, b1), not_bits(ctx2, b2)
    assert (n1 ^ n2)[0] == 0
    got1, got2 = run_two(ctx1, ctx2, lambda c: open_bit(
        c, int((n1 if c.party == 1 else n2)[0])))
    assert got1 == got2 == 0


def _min_oracle(keys):
    idx = int(np.argmin(keys))
    return idx


def _path_winners(path1, path2):
    """Rows whose tournament path bits all reconstruct to 1."""
    return np.flatnonzero(reconstruct_bits(path1, path2).all(axis=0)).tolist()


def test_min_with_payload_walkthrough(table_example):
    database, _, mapped, _ = table_example
    sums = mapped.sum(axis=1)  # (3, 5, 5, 4)
    k1, k2 = share_pair(sums, R64, seed=23)
    t1, t2 = share_pair(mapped, R64, seed=24)
    p1, p2 = share_pair(database, R64, seed=25)
    ctx1, ctx2 = session_pair(l=64, seed=26)
    (kk1, pay1, _), (kk2, pay2, _) = run_two(ctx1, ctx2, lambda c: min_with_payload(
        c, k1 if c.party == 1 else k2,
        [t1 if c.party == 1 else t2, p1 if c.party == 1 else p2]))
    assert int(reconstruct(R64, kk1, kk2)[0]) == 3
    assert reconstruct(R64, pay1[0], pay2[0]).tolist() == [1, 2]
    assert reconstruct(R64, pay1[1], pay2[1]).tolist() == [15, 102]


@pytest.mark.parametrize("l", [8, 64])
def test_min_with_payload_random_instances(l):
    """Random sizes, then n = 1, 2 and odd 9 with its minimum last; the path
    bits AND to a one-hot vector at the lowest-index minimum."""
    ring = Ring(l)
    rng = np.random.default_rng(27)
    for trial in range(15):
        n = int(rng.integers(1, 65)) if trial < 12 else (1, 2, 9)[trial - 12]
        keys = rng.integers(0, 50, size=n, dtype=np.uint64)
        if trial % 3 == 0 and n > 2:
            keys[rng.integers(0, n)] = keys.min()  # force duplicate minima
        if trial == 14:  # the minimum sits in the odd tail three levels carry
            keys[:-1] += 1
            keys[-1] = 0
        payload = rng.integers(0, 50, size=(n, 2), dtype=np.uint64)
        k1, k2 = share_pair(keys, ring, seed=100 + trial)
        p1, p2 = share_pair(payload, ring, seed=200 + trial)
        ctx1, ctx2 = session_pair(l=l, seed=300 + trial)
        (m1, pay1, path1), (m2, pay2, path2) = run_two(ctx1, ctx2, lambda c: min_with_payload(
            c, k1 if c.party == 1 else k2, [p1 if c.party == 1 else p2]))
        idx = _min_oracle(keys)
        assert int(reconstruct(ring, m1, m2)[0]) == keys[idx]
        assert reconstruct(ring, pay1[0], pay2[0]).tolist() == payload[idx].tolist()
        assert path1.shape == path2.shape == (max(1, ceil_log2(n)), n)
        assert _path_winners(path1, path2) == [idx], (n, keys.tolist())
        assert ctx1.meters.secext == n - 1
        # a level is one comparison and one select round
        assert ctx1.chan.rounds == ceil_log2(n) * (msb_cost(1, l).rounds + 1)


def test_min_with_payload_all_equal_takes_first():
    for n, seed in ((7, 28), (8, 32), (2, 35), (1, 38)):
        keys = np.full(n, 9, dtype=np.uint64)
        payload = np.arange(2 * n, dtype=np.uint64).reshape(n, 2)
        k1, k2 = share_pair(keys, R64, seed=seed)
        p1, p2 = share_pair(payload, R64, seed=seed + 1)
        ctx1, ctx2 = session_pair(l=64, seed=seed + 2)
        (_, pay1, path1), (_, pay2, path2) = run_two(ctx1, ctx2, lambda c: min_with_payload(
            c, k1 if c.party == 1 else k2, [p1 if c.party == 1 else p2]))
        assert reconstruct(R64, pay1[0], pay2[0]).tolist() == [0, 1]
        assert _path_winners(path1, path2) == [0], n


def test_min_with_payload_rejects_empty():
    ctx1, ctx2 = session_pair(l=64, seed=31)
    with pytest.raises(ValueError):
        min_with_payload(ctx1, np.array([], dtype=np.uint64), [])
