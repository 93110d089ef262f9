"""Oracle suites, verification reports, and counterexample contents."""

from __future__ import annotations

import dataclasses
import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_simulate import unpack

from gatelab import simulate, verify
from gatelab.core import ONE, ZERO, CircuitBuilder, GateKind, NetlistError
from gatelab.generators import COMPRESSOR_INPUTS, REGISTRY, BlockSpec, build_block
from gatelab.simulate import _pack, _run, evaluate_batch, exhaustive_columns, vector_at
from gatelab.verify import (
    EXHAUSTIVE_INPUT_BOUND,
    ORACLES,
    RANDOM_CHUNK_BITS,
    RANDOM_CHUNK_ROWS,
    ExhaustiveBoundError,
    resolve_oracle,
    structured_rows,
    verify_cout_independence,
    verify_exhaustive,
    verify_random,
)


def broken_full_adder():
    """Majority carry replaced by AND: wrong on exactly (0,1,1) and (1,0,1)."""
    b = CircuitBuilder("traditional_fa", ["A", "B", "C"])
    a, x, c = (b.input(p) for p in ("A", "B", "C"))
    b.set_output("Carry", b.and_(a, x, name="carry"))
    b.set_output("Sum", b.xor(b.xor(a, x), c, name="sum"))
    return b.seal()


def with_kind(circuit, net_name, kind):
    """``circuit`` with the cell driving ``net_name`` turned into ``kind``."""
    net = circuit.net(net_name)
    cells = tuple(
        dataclasses.replace(cell, kind=kind) if cell.out == net else cell
        for cell in circuit.cells
    )
    return dataclasses.replace(circuit, cells=cells)


_SWAPS = {
    GateKind.AND2: GateKind.OR2,
    GateKind.OR2: GateKind.AND2,
    GateKind.NAND2: GateKind.NOR2,
    GateKind.NOR2: GateKind.NAND2,
}


def mutants(circuit):
    """Each single-cell AND<->OR and NAND<->NOR swap of ``circuit``."""
    return [
        with_kind(circuit, circuit.net_names[cell.out], _SWAPS[cell.kind])
        for cell in circuit.cells
        if cell.kind in _SWAPS
    ]


def bits(word, count):
    """The indices below ``count`` of a word's set bits."""
    return [v for v in range(count) if word >> v & 1]


@functools.lru_cache(maxsize=2)
def whole_space(n):
    """The input words of all 2^n vectors in enumeration order."""
    return _pack(exhaustive_columns(n))


def single_shot(circuit, broken):
    """The fail word of ``broken``'s whole input space in one engine
    pass, checked against the oracle of ``circuit``."""
    words = whole_space(len(circuit.inputs))
    ones = (1 << (1 << len(circuit.inputs))) - 1
    ins = dict(zip(circuit.inputs, words))
    outs = dict(zip(circuit.outputs, _run(broken, words, ones)))
    return resolve_oracle(circuit).check(ins, outs) & ones


def compressor_shaped(co1, co2, inputs=COMPRESSOR_INPUTS):
    """Block with the compressor's outputs; ``co1`` and ``co2`` build each
    carry-out from the builder and a port -> net map."""
    b = CircuitBuilder("leaky", list(inputs))
    net = {p: b.input(p) for p in inputs}
    b.set_output("Sum", b.and_(net["x1"], net["x1"]))
    b.set_output("Carry", b.or_(net["x1"], net["x1"]))
    b.set_output("Co1", co1(b, net))
    b.set_output("Co2", co2(b, net))
    return b.seal()


def leaky_compressor():
    """Compressor-shaped block whose Co1 echoes a carry-in."""
    return compressor_shaped(
        lambda b, net: b.or_(net["Ci1"], net["Ci2"], name="co1"),
        lambda b, net: b.and_(net["Ci1"], net["Ci2"], name="co2"),
    )


# ---------------------------------------------------------------------------
# exhaustive mode
# ---------------------------------------------------------------------------

def test_every_small_block_passes_exhaustively():
    for name in REGISTRY:
        c = build_block(BlockSpec(name))
        if len(c.inputs) > EXHAUSTIVE_INPUT_BOUND:
            continue
        report = verify_exhaustive(c)
        assert report.status == "pass"
        assert report.vectors_tried == 1 << len(c.inputs)
        assert report.counterexample is None


def test_exhaustive_counterexample_is_lex_first():
    report = verify_exhaustive(broken_full_adder())
    assert report.status == "fail"
    ce = report.counterexample
    assert ce["index"] == 3
    assert ce["vector"] == {"A": 0, "B": 1, "C": 1}
    assert ce["expected"] == {"Carry": 1, "Sum": 0}
    assert ce["actual"] == {"Carry": 0, "Sum": 0}
    # vectors_tried names the whole space, though the sweep stops at the
    # failing chunk
    assert report.vectors_tried == 8


def test_weighted_counterexample_is_pinned():
    # Co2 = h2 + C*h1 of the second-lane adder turned into an AND: four
    # ones in x4..x7 need Co2 and get nothing.
    broken = with_kind(
        build_block(BlockSpec("compressor72_proposed")), "afa_w2/carry", GateKind.AND2
    )
    report = verify_exhaustive(broken)
    assert report.status == "fail"
    assert report.counterexample == {
        "index": 60,
        "vector": {
            "x1": 0, "x2": 0, "x3": 0, "x4": 1, "x5": 1, "x6": 1, "x7": 1,
            "Ci1": 0, "Ci2": 0,
        },
        "expected": {"total": 4},
        "actual": {"Sum + 2*Carry + 2*Co1 + 4*Co2": 0},
    }


def test_exhaustive_refuses_wide_blocks():
    pipe = build_block(BlockSpec("pipeline"))
    with pytest.raises(ExhaustiveBoundError, match="random"):
        verify_exhaustive(pipe)


def test_exhaustive_chunking_matches_single_shot():
    # kogge_stone(width=8) has 17 inputs, one 2^17-vector chunk.  n18,
    # the AND(a0, b0) inside p0_0's XOR, turned into a NOR makes p0_0 =
    # a0 | b0: wrong first at a0 = b0 = 1, index 2^16 + 2^8.
    adder = build_block(BlockSpec("kogge_stone", {"width": 8}))
    broken = with_kind(adder, "n18", GateKind.NOR2)
    fail = single_shot(adder, broken)
    assert (fail & -fail).bit_length() - 1 == 65_792
    report = verify_exhaustive(broken)
    assert report.status == "fail"
    assert report.vectors_tried == 1 << 17
    assert report.counterexample == {
        "index": 65_792,
        "vector": {p: int(p in ("a0", "b0")) for p in adder.inputs},
        "expected": {"a + b + cin": 2},
        "actual": {"s + 2^w*cout": 3},
    }


_SMALL_BLOCKS = [
    name for name in REGISTRY if len(build_block(BlockSpec(name)).inputs) <= 9
]


@pytest.mark.parametrize("name", _SMALL_BLOCKS)
def test_int_sweep_reports_what_the_packed_sweep_reports(name):
    # The report of the int sweep against a reference that reads no fail
    # word: evaluate_batch's uint8 columns, scanned row by row with
    # explain() for the first vector that _passes rejects.  For the block
    # and for each of its single-cell AND<->OR / NAND<->NOR swaps.
    circuit = build_block(BlockSpec(name))
    oracle = resolve_oracle(circuit)
    columns = dict(zip(circuit.inputs, exhaustive_columns(len(circuit.inputs))))
    swapped = mutants(circuit)
    failures = 0
    for mutant in [circuit, *swapped]:
        outs = evaluate_batch(mutant, columns)
        reference = None
        for index in range(1 << len(circuit.inputs)):
            vec = {p: int(col[index]) for p, col in columns.items()}
            out = {p: int(col[index]) for p, col in outs.items()}
            if not verify._passes(*oracle.explain(vec, out)):
                reference = verify._counterexample(oracle, index, vec, out)
                break
        report = verify_exhaustive(mutant)
        assert report.counterexample == reference
        assert report.ok == (reference is None)
        failures += reference is not None
    assert (failures > 0) == bool(swapped)


def explain_rejects(oracle, ins, outs, count):
    """The vectors below ``count`` whose bits ``_passes(*explain(...))``
    rejects, read one vector at a time out of the words."""
    return [
        v
        for v in range(count)
        if not verify._passes(
            *oracle.explain(
                {p: word >> v & 1 for p, word in ins.items()},
                {p: word >> v & 1 for p, word in outs.items()},
            )
        )
    ]


@pytest.mark.parametrize(
    "spec, rows",
    [
        *((BlockSpec(name), None) for name in _SMALL_BLOCKS),
        (BlockSpec("kogge_stone", {"width": 8}), 200),
        (BlockSpec("pipeline", {"cols": 8}), 64),
    ],
    ids=lambda v: (
        v.label() if isinstance(v, BlockSpec) else "exhaustive" if v is None else f"random-{v}"
    ),
)
def test_word_check_fails_where_explain_rejects(spec, rows):
    # Each fail bit of the word check, against the scalar pass rule on the
    # same vector: the whole input space of every block of at most 9
    # inputs, or the first random chunk of a run of ``rows`` random rows,
    # for the block and every single-cell mutant of it.
    circuit = build_block(spec)
    oracle = resolve_oracle(circuit)
    if rows is None:
        chunks, _, _, _ = simulate._sweep(circuit)
    else:
        chunks = verify._random_chunks(circuit, verify._suite(circuit), 0, rows)
    _, ones, words = next(chunks)
    count = ones.bit_length()
    ins = dict(zip(circuit.inputs, words))
    failing = []
    for mutant in [circuit, *mutants(circuit)]:
        outs = dict(zip(circuit.outputs, _run(mutant, words, ones)))
        fail = oracle.check(ins, outs) & ones
        assert bits(fail, count) == explain_rejects(oracle, ins, outs, count)
        failing.append(fail != 0)
    # the block passes and some mutant fails
    assert not failing[0] and any(failing)


def test_int_sweep_reaches_its_last_vector():
    # The proposed compressor with Sum flipped where all nine inputs are
    # 1: wrong only at the last index, 511.
    compressor = build_block(BlockSpec("compressor72_proposed"))
    report = verify_exhaustive(flipped_where(compressor, compressor.inputs, "Sum"))
    assert report.counterexample == {
        "index": 511,
        "vector": {p: 1 for p in compressor.inputs},
        "expected": {"total": 9},
        "actual": {"Sum + 2*Carry + 2*Co1 + 4*Co2": 8},
    }


def counting_engine(monkeypatch):
    """A list that grows by the vectors of each engine pass verify runs."""
    calls = []

    def counting(circuit, words, ones):
        calls.append(ones.bit_length())
        return _run(circuit, words, ones)

    monkeypatch.setattr(verify, "_run", counting)
    return calls


def recording_passes(monkeypatch):
    """A list that grows by the op list of each engine pass."""
    passes = []
    exec_ = simulate._exec

    def recording(ops, *args):
        passes.append(ops)
        return exec_(ops, *args)

    monkeypatch.setattr(simulate, "_exec", recording)
    return passes


def test_exhaustive_stops_at_its_first_failing_chunk(monkeypatch):
    # kogge_stone(width=9) has 19 inputs.  With s0 flipped where cin = 1,
    # the sweep fixes a8 and b8, whose cones are the smallest, in four
    # chunks: a8 = b8 = 0 from index 0, then b8 = 1 from index 2, and so
    # on.  The first fails at index 1, below 2, so no other is simulated:
    # the cells outside the cone run once and the first chunk's folded
    # cone once.  Where a8 = b8, the top carry is killed or generated: the
    # cone folds to cout = 0 or 1, s8's ref moves to the net of c8, and no
    # op is left.  Where they differ, 12 gates propagate c8.
    broken = flipped_where(build_block(BlockSpec("kogge_stone", {"width": 9})), ("cin",))
    fixed, outer, cone, chunk = simulate._plan(broken)
    assert [broken.inputs[i] for i in fixed] == ["a8", "b8"]
    assert [len(chunk(c)[0]) for c in range(4)] == [0, 12, 12, 0]
    assert all(op[0] in simulate._KIND for c in range(4) for op in chunk(c)[0])
    assert (chunk(0)[1][-1], chunk(3)[1][-1]) == (ZERO, ONE)  # cout
    passes = recording_passes(monkeypatch)
    report = verify_exhaustive(broken)
    assert passes == [outer, chunk(0)[0]]
    assert report.status == "fail"
    assert report.vectors_tried == 1 << 19
    assert report.counterexample == {
        "index": 1,
        "vector": {p: int(p == "cin") for p in broken.inputs},
        "expected": {"a + b + cin": 1},
        "actual": {"s + 2^w*cout": 0},
    }


def test_exhaustive_reports_a_lower_index_from_a_later_chunk(monkeypatch):
    # kogge_stone(width=9) with s0 flipped where a7 = 1 and again where b8
    # = 1 is wrong where exactly one of them is 1.  The sweep fixes a8 and
    # b8.  The first chunk, a8 = b8 = 0, fails first at a7 = 1 alone, index
    # 2^11; the second, b8 = 1, at b8 = 1 alone, index 2, which is the one
    # reported.  The third chunk's lowest index, 2^10 (a8 = 1), is above
    # it, so two chunks run, each on its own folded cone.
    adder = build_block(BlockSpec("kogge_stone", {"width": 9}))
    broken = flipped_where(flipped_where(adder, ("a7",)), ("b8",))
    fixed, outer, cone, chunk = simulate._plan(broken)
    assert [broken.inputs[i] for i in fixed] == ["a8", "b8"]
    assert len(chunk(0)[0]) == 0 < len(chunk(1)[0])
    fail = single_shot(adder, broken)
    assert fail & -fail == 1 << 2
    assert min(v for v in bits(fail, 1 << 12) if not v & 2) == 1 << 11  # b8 = 0
    passes = recording_passes(monkeypatch)
    report = verify_exhaustive(broken)
    assert passes == [outer, chunk(0)[0], chunk(1)[0]]
    assert report.counterexample == {
        "index": 2,
        "vector": {p: int(p == "b8") for p in broken.inputs},
        "expected": {"a + b + cin": 256},
        "actual": {"s + 2^w*cout": 257},
    }


def test_the_sweep_of_kogge_stone_11_fixes_its_top_bits():
    # 23 inputs, so 6 are fixed in each of 64 chunks: the ones whose cones
    # reach the fewest cells.  Folded with each chunk's fixed values, the
    # 69-cell cone leaves 600 gate ops over the 64 chunks, not 69 x 64 =
    # 4,416, and no copy of a word: a gate that folds to a net hands that
    # net to its readers.
    adder = build_block(BlockSpec("kogge_stone", {"width": 11}))
    fixed, outer, cone, chunk = simulate._plan(adder)
    assert [adder.inputs[i] for i in fixed] == ["a8", "a9", "a10", "b8", "b9", "b10"]
    assert (len(outer), len(cone)) == (139, 69)
    gates = [len(chunk(c)[0]) for c in range(64)]
    assert (sum(gates), min(gates), max(gates)) == (600, 0, 30)
    assert all(op[0] in simulate._KIND for c in range(64) for op in chunk(c)[0])


@pytest.mark.parametrize(
    "spec",
    [
        BlockSpec("kogge_stone", {"width": 9}),
        BlockSpec("kogge_stone", {"width": 10}),
        BlockSpec("pipeline", {"cols": 3}),
        BlockSpec("array_reducer", {"cols": 3}),
    ],
    ids=BlockSpec.label,
)
def test_every_mutant_sweep_reports_the_single_shot_vector(spec):
    # Blocks of 19, 21, 21 and 21 inputs, swept in 4, 16, 16 and 16 chunks
    # with their fixed inputs interleaved in index order: for the block
    # and each single-cell AND<->OR / NAND<->NOR swap, the report names
    # the lowest fail bit of one engine pass over the whole input space.
    # The array reducer's output columns carry (y<c> sits one weight up),
    # and a fixed input of weight 0 puts its sweep's cut at 0.
    circuit = build_block(spec)
    assert len(circuit.inputs) > 17  # a planned sweep
    failures = 0
    for mutant in [circuit, *mutants(circuit)]:
        fail = single_shot(circuit, mutant)
        report = verify_exhaustive(mutant)
        assert report.ok == (fail == 0)
        if fail:
            index = (fail & -fail).bit_length() - 1
            assert report.counterexample["index"] == index
            assert report.counterexample["vector"] == vector_at(circuit, index)
            failures += 1
    assert failures


def chunk_checks(circuit):
    """(per-sweep fail word, whole-word fail word) of each chunk of the
    exhaustive sweep of ``circuit``: the check the oracle builds on the
    first chunk from the words of its steady ports, on the chunk's word
    lists and all-ones word, and its ``check`` on the chunk's words, both
    masked to the chunk."""
    oracle = resolve_oracle(circuit)
    chunks, run, _, moving = simulate._sweep(circuit)
    check = None
    for _, ones, words in chunks:
        out_words = run(words, ones)
        ins = dict(zip(circuit.inputs, words))
        outs = dict(zip(circuit.outputs, out_words))
        check = check or oracle._sweep(ins, outs, *moving)
        yield check(words, out_words, ones) & ones, oracle.check(ins, outs) & ones


def adder_mutants(adder):
    # s0 flipped where cin = 1 fails only below the cut: s0 is a steady
    # output of weight 0 and the cut, the lowest fixed input's weight, is
    # 8.  g0_8 turned into an OR fails above it: it moves the carry into
    # weight 9.  cout wired straight to b8, a fixed input, moves from chunk
    # to chunk though no cone cell drives it.
    b = CircuitBuilder(adder.name, adder.inputs)
    outs = b.instantiate(adder, {p: b.input(p) for p in adder.inputs})
    for port, ref in outs.items():
        b.set_output(port, b.input("b8") if port == "cout" else ref)
    return [
        flipped_where(adder, ("cin",)),
        with_kind(adder, "g0_8", GateKind.OR2),
        b.seal(),
    ]


def top_flipped(circuit, port):
    # ``port`` flipped where the first input is 1
    return flipped_where(circuit, circuit.inputs[:1], port)


@pytest.mark.parametrize(
    "spec, make",
    [
        *((BlockSpec("kogge_stone", {"width": w}), adder_mutants) for w in (9, 10, 11)),
        # a fixed input of weight 0 puts the cut at 0, so nothing fails
        # below it; the top output flipped fails above it
        (BlockSpec("pipeline", {"cols": 3}), lambda c: [top_flipped(c, "s5")]),
        (BlockSpec("array_reducer", {"cols": 3}), lambda c: [top_flipped(c, "y3")]),
    ],
    ids=lambda v: v.label() if isinstance(v, BlockSpec) else "mutants",
)
def test_the_per_sweep_check_is_the_whole_word_check(spec, make):
    # On every chunk, of the block and of mutants that fail above and
    # only below the cut, the check built once a sweep fails exactly the
    # vectors that the oracle's check of the chunk's whole words fails.
    circuit = build_block(spec)
    assert len(circuit.inputs) > 17  # a planned sweep
    for broken in [circuit, *make(circuit)]:
        failed = False
        for sweep, whole in chunk_checks(broken):
            assert sweep == whole
            failed |= whole != 0
        assert failed == (broken is not circuit)


def recording_digits(monkeypatch):
    """A list that grows by the terms of each ``_digits`` call, then its
    digits."""
    calls = []
    digits = verify._digits

    def recording(terms):
        terms = list(terms)
        result = digits(terms)
        calls.append((terms, result))
        return result

    monkeypatch.setattr(verify, "_digits", recording)
    return calls


def test_the_varying_inputs_are_summed_once_a_sweep(monkeypatch):
    # kogge_stone(width=11) passes in 64 chunks.  The carry-save tree of
    # its 17 varying inputs runs once, and so does that of its 8 shared
    # outputs s0..s7.  In each chunk the 6 fixed inputs are 0 or the
    # all-ones word, so their weights ripple into the steady digits at or
    # above the cut as one integer and the input side sums no word; the
    # output side sums its rippled constants with those of its 4
    # cone-driven outputs that are words, 1 to 4 terms a chunk.
    adder = build_block(BlockSpec("kogge_stone", {"width": 11}))
    chunks, _, _, (fixed, _) = simulate._sweep(adder)
    _, _, words = next(chunks)
    varying = {w for p, w in zip(adder.inputs, words) if p not in fixed}
    calls = recording_digits(monkeypatch)
    assert verify_exhaustive(adder).ok
    counts = [len(terms) for terms, _ in calls]
    assert counts[:2] == [17, 8] and len(counts) == 2 + 64
    assert (sum(counts[2:]), min(counts[2:]), max(counts[2:])) == (188, 1, 4)
    reading = [k for k, (terms, _) in enumerate(calls) if varying & {w for w, _ in terms}]
    assert reading == [0] and len(varying) == 17


@pytest.mark.parametrize(
    "spec",
    [
        BlockSpec("kogge_stone", {"width": 11}),
        BlockSpec("pipeline", {"cols": 3}),
        BlockSpec("array_reducer", {"cols": 3}),
    ],
    ids=BlockSpec.label,
)
def test_every_digit_word_is_non_negative(monkeypatch, spec):
    # Python's bitwise ops run slower on negative big ints, so the words
    # a sweep's checks sum and the digits they build stay non-negative:
    # a fixed input is 0 or the all-ones word, never -1.
    circuit = build_block(spec)
    calls = recording_digits(monkeypatch)
    assert verify_exhaustive(circuit).ok
    summed = [w for terms, _ in calls for w, _ in terms]
    built = [w for _, digits in calls for w in digits.values()]
    assert summed and built and min(summed + built) >= 0


@st.composite
def digit_sums(draw):
    """(terms, k, ones): (word, e) terms of words within ``ones``, which
    spans 1 to 200 bits, and an integer k."""
    ones = (1 << draw(st.integers(1, 200))) - 1
    word = st.one_of(st.just(0), st.just(ones), st.integers(0, ones))
    terms = draw(st.lists(st.tuples(word, st.integers(0, 12)), max_size=10))
    return terms, draw(st.integers(0, 1 << 16)), ones


@given(digit_sums())
@settings(max_examples=400, deadline=None)
def test_the_ripple_adds_k_as_all_ones_words(case):
    # Adding k to the digits of a sum by the ripple gives the digits that
    # the carry-save tree gives with an all-ones word at each set bit of
    # k, every one of them non-negative and within the all-ones word; the
    # digits passed in are left as they were.
    terms, k, ones = case
    digits = verify._digits(terms)
    before = dict(digits)
    rippled = verify._ripple(digits, k, ones)
    tied = [(ones, e) for e in range(k.bit_length()) if k >> e & 1]
    expected = verify._digits([*terms, *tied])
    got, want = ({e: w for e, w in d.items() if w} for d in (rippled, expected))
    assert got == want
    assert all(0 <= w <= ones for w in rippled.values())
    assert digits == before


@pytest.mark.parametrize(
    "spec, make",
    [
        (BlockSpec("kogge_stone", {"width": 9}), adder_mutants),
        (BlockSpec("pipeline", {"cols": 3}), lambda c: [top_flipped(c, "s5")]),
    ],
    ids=lambda v: v.label() if isinstance(v, BlockSpec) else "mutants",
)
def test_an_equal_all_ones_word_is_summed_as_a_word(spec, make):
    # The check ties a moving word to a constant only when it is the
    # chunk's all-ones word itself.  An equal int that is another object
    # is summed as a word, and every chunk's fail word comes out the same,
    # for the block and for mutants that fail.
    circuit = build_block(spec)
    for broken in [circuit, *make(circuit)]:
        oracle = resolve_oracle(broken)
        chunks, run, _, moving = simulate._sweep(broken)
        check = None
        tied = failed = 0
        for _, ones, words in chunks:
            outs = run(words, ones)
            ports = dict(zip(broken.inputs, words)), dict(zip(broken.outputs, outs))
            check = check or oracle._sweep(*ports, *moving)
            equal = (ones << 1) >> 1
            assert equal == ones and equal is not ones
            copies = [[equal if w is ones else w for w in side] for side in (words, outs)]
            tied += sum(w is ones for w in (*words, *outs))
            fail = check(words, outs, ones) & ones
            assert check(*copies, ones) & ones == fail
            failed |= fail
        assert tied and bool(failed) == (broken is not circuit)


def flipped_where(adder, ports, flipped="s0"):
    """``adder`` with the output ``flipped`` flipped wherever every input
    in ``ports`` is 1."""
    b = CircuitBuilder(adder.name, adder.inputs)
    outs = b.instantiate(adder, {p: b.input(p) for p in adder.inputs})
    match = b.input(ports[0])
    for port in ports[1:]:
        match = b.and_(match, b.input(port))
    for port, ref in outs.items():
        b.set_output(port, b.xor(ref, match) if port == flipped else ref)
    return b.seal()


@pytest.mark.parametrize(
    "make, index",
    [
        # a1 = a2 = b0 = 1 first at index 3 * 2^16 + 2^9, in the fourth
        # 2^16-vector slice of the index space and the first chunk (a8 =
        # b8 = 0)
        (lambda adder: flipped_where(adder, ("a1", "a2", "b0")), 3 * 2**16 + 2**9),
        # g0_8 = AND(a8, b8) turned into an OR is wrong first at b8 = 1
        # alone, index 2, the lowest index of the second chunk (b8 = 1)
        (lambda adder: with_kind(adder, "g0_8", GateKind.OR2), 2),
    ],
    ids=["fourth-slice", "second-engine-chunk"],
)
def test_exhaustive_slices_report_the_single_shot_index(make, index):
    adder = build_block(BlockSpec("kogge_stone", {"width": 9}))
    broken = make(adder)
    fail = single_shot(adder, broken)
    assert (fail & -fail).bit_length() - 1 == index
    report = verify_exhaustive(broken)
    assert report.status == "fail"
    assert report.counterexample["index"] == index
    assert report.counterexample["vector"] == vector_at(adder, index)


# ---------------------------------------------------------------------------
# random mode
# ---------------------------------------------------------------------------

def test_random_mode_runs_structured_suite_first():
    c = build_block(BlockSpec("array_reducer"))
    rows = structured_rows(c)
    # all-zeros, all-ones, 56 one-hots, 8 saturated columns
    assert rows.shape == (2 + 56 + 8, 56)
    assert rows[1].sum() == 56
    assert {int(r.sum()) for r in rows[2:58]} == {1}
    assert {int(r.sum()) for r in rows[58:]} == {7}
    report = verify_random(c, seed=0, count=10)
    assert report.structured_count == 66
    assert report.vectors_tried == 76


@pytest.mark.parametrize(
    "spec, columns",
    (
        (BlockSpec("traditional_fa"), []),
        # bit_<r>_<c> runs row by row, so the two columns alternate
        (BlockSpec("array_reducer", {"cols": 2}), [[1, 0] * 7, [0, 1] * 7]),
    ),
    ids=("traditional_fa", "array_reducer-cols=2"),
)
def test_structured_rows_are_pinned(spec, columns):
    circuit = build_block(spec)
    n = len(circuit.inputs)
    rows = structured_rows(circuit)
    assert rows.dtype == np.uint8
    expected = np.vstack([np.zeros(n), np.ones(n), np.eye(n), *columns])
    assert np.array_equal(rows, expected)


def test_random_reports_are_seed_deterministic():
    c = build_block(BlockSpec("pipeline"))
    a = verify_random(c, seed=42, count=200)
    b = verify_random(c, seed=42, count=200)
    assert a.to_json() == b.to_json()
    other = verify_random(c, seed=43, count=200)
    assert other.seed == 43


def test_structured_suite_catches_an_all_ones_bug_without_randomness():
    # Sum ignores C entirely: correct on zeros and every one-hot, wrong
    # on the all-ones row, which is structured vector number 1.
    b = CircuitBuilder("traditional_fa", ["A", "B", "C"])
    a, x, c = (b.input(p) for p in ("A", "B", "C"))
    b.set_output("Carry", b.or_(b.and_(a, x), b.and_(c, b.or_(a, x)), name="carry"))
    b.set_output("Sum", b.xor(a, x, name="sum"))
    report = verify_random(b.seal(), seed=0, count=0)
    assert report.status == "fail"
    assert report.counterexample["index"] == 1
    assert report.counterexample["vector"] == {"A": 1, "B": 1, "C": 1}


def engine_stimulus(monkeypatch, circuit, **kwargs):
    """The (vectors, inputs) stimulus ``verify_random`` hands to the
    engine, joined across its passes, and the number of passes."""
    seen = []

    def recording(circuit, words, ones):
        # one int word an input, no bit set past the pass's last vector
        assert len(words) == len(circuit.inputs)
        assert all(type(word) is int and word & ~ones == 0 for word in words)
        seen.append(unpack(words, ones.bit_length()).T)
        return _run(circuit, words, ones)

    monkeypatch.setattr(verify, "_run", recording)
    verify_random(circuit, **kwargs)
    return np.concatenate(seen), len(seen)


# A budget below one block's bits: every chunk holds one block of 64 rows.
_ONE_BLOCK = 1


def random_rows(seed, count, n):
    """The ``count`` random rows of ``seed`` over ``n`` inputs, as (count,
    n) uint8, from PCG64's raw words alone: row 64k + j of input i is bit
    j of raw word k*n + i."""
    blocks = -(-count // 64)
    raw = np.random.default_rng(seed).bit_generator.random_raw(blocks * n)
    return word_rows(raw.reshape(blocks, n), count)


def word_rows(words, count):
    """The first ``count`` rows of a (blocks, n) uint64 array, as (count,
    n) uint8: row 64k + j of input i is bit j of ``words[k, i]``."""
    blocks, n = words.shape
    shifts = np.arange(64, dtype=np.uint64).reshape(1, 64, 1)
    bits = words.reshape(blocks, 1, n) >> shifts & np.uint64(1)
    return bits.reshape(64 * blocks, n)[:count].astype(np.uint8)


def chunk_counts(circuit, count):
    """The chunks of a run of ``count`` random rows at the default budget
    and at one block per chunk.  The structured rows and the draw are cut
    every ``step`` rows, and a cut inside the draw moves back to a
    multiple of 64 drawn rows."""
    head = len(structured_rows(circuit))
    total = head + count

    def chunks(step):
        cuts = (k * step for k in range(1, total // step + 2))
        return 1 + sum(cut - max(0, cut - head) % 64 < total for cut in cuts)

    rows = min(RANDOM_CHUNK_BITS // len(circuit.inputs), RANDOM_CHUNK_ROWS)
    return {RANDOM_CHUNK_BITS: chunks(rows // 64 * 64), _ONE_BLOCK: chunks(64)}


_STIMULUS_BLOCKS = (
    BlockSpec("traditional_fa"),
    BlockSpec("compressor72_proposed"),
    BlockSpec("array_reducer", {"cols": 1}),
    # 1,026 structured rows: several one-block chunks of them
    BlockSpec("pipeline", {"cols": 128}),
)


@pytest.mark.parametrize("count", (0, 1, 4097))  # 4097: several blocks
@pytest.mark.parametrize("spec", _STIMULUS_BLOCKS, ids=BlockSpec.label)
def test_random_stimulus_is_structured_rows_then_one_draw(monkeypatch, spec, count):
    circuit = build_block(spec)
    expected = np.concatenate(
        [structured_rows(circuit), random_rows(7, count, len(circuit.inputs))]
    )
    for budget, chunks in chunk_counts(circuit, count).items():
        monkeypatch.setattr(verify, "RANDOM_CHUNK_BITS", budget)
        stimulus = engine_stimulus(monkeypatch, circuit, seed=7, count=count)
        assert stimulus[1] == chunks
        assert np.array_equal(stimulus[0], expected)


def one_input_block():
    # a registry name for its oracle, which it passes, so that a run
    # simulates every chunk of its stimulus
    b = CircuitBuilder("sorter2", ["In1"])
    b.set_output("Out1", b.inv(b.inv(b.input("In1"))))
    return b.seal()


# A block of 64 rows takes one raw word an input: odd input counts and
# counts that end part-way through a block catch a misplaced word.
_STREAM_CIRCUITS = {
    1: one_input_block,
    2: lambda: build_block(BlockSpec("sorter2")),
    3: lambda: build_block(BlockSpec("traditional_fa")),
    7: lambda: build_block(BlockSpec("array_reducer", {"cols": 1})),
    9: lambda: build_block(BlockSpec("compressor72_proposed")),
    14: lambda: build_block(BlockSpec("pipeline", {"cols": 2})),
    56: lambda: build_block(BlockSpec("pipeline", {"cols": 8})),
    224: lambda: build_block(BlockSpec("pipeline", {"cols": 32})),
}


# Counts around one block of 64 rows, and around the 512-row blocks of
# earlier versions of the stream.
_STREAM_COUNTS = (0, 1, 5, 63, 64, 65, 2 * 64 + 3, 511, 512, 513, 2 * 512 + 3, 4097)


@pytest.mark.parametrize("seed", (7, 2**63 + 12345))
@pytest.mark.parametrize("count", _STREAM_COUNTS)
@pytest.mark.parametrize("n", sorted(_STREAM_CIRCUITS), ids="n={}".format)
def test_random_stream_is_one_integers_draw(monkeypatch, n, count, seed):
    # Random row 64k + j of input i is bit j of raw word k*n + i, at every
    # chunk budget: seeds and manifests name these rows.  Those raw words
    # are also one full-range uint64 `integers` draw of shape (blocks, n).
    circuit = _STREAM_CIRCUITS[n]()
    assert len(circuit.inputs) == n
    draw = random_rows(seed, count, n)
    words = np.random.default_rng(seed).integers(
        0, 2**64, size=(-(-count // 64), n), dtype=np.uint64
    )
    assert np.array_equal(word_rows(words, count), draw)
    for budget, chunks in chunk_counts(circuit, count).items():
        monkeypatch.setattr(verify, "RANDOM_CHUNK_BITS", budget)
        stimulus = engine_stimulus(monkeypatch, circuit, seed=seed, count=count)
        assert stimulus[1] == chunks
        assert np.array_equal(stimulus[0][len(structured_rows(circuit)) :], draw)


# A, B and C: bits 0-4 the structured rows, bits 5-74 the random rows.
_SEED_0_WORDS = ["0x3b461fd79fb38504be6", "0x768a217bf105b3ae42a", "0x1c14fa7b529d9bd1712"]


def test_random_words_of_seed_0_are_pinned():
    # traditional_fa's 5 structured rows, then 70 random rows from two
    # blocks of PCG64(0)'s raw words: a change to numpy's stream fails here.
    circuit = build_block(BlockSpec("traditional_fa"))
    ((offset, ones, words),) = verify._random_chunks(circuit, verify._suite(circuit), 0, 70)
    assert offset == 0 and ones == (1 << 75) - 1
    assert [hex(word) for word in words] == _SEED_0_WORDS


def test_random_counterexample_past_the_first_block_is_pinned(monkeypatch):
    # The group propagate p5_25 = p4_25 & p4_9 turned into an OR: the
    # top sum bits go wrong only on long carry chains, first met at
    # random row 9133 of seed 0, past the first block of draws.  In
    # chunks of one block, after the 67 structured rows' two chunks, that
    # row is in the 145th chunk, and the run stops there.
    adder = build_block(BlockSpec("kogge_stone", {"width": 32}))
    broken = with_kind(adder, "p5_25", GateKind.OR2)
    vector = random_rows(0, 9134, len(adder.inputs))[9133]
    index = 67 + 9133
    for budget, chunks in ((RANDOM_CHUNK_BITS, 1), (_ONE_BLOCK, 2 + 9133 // 64 + 1)):
        monkeypatch.setattr(verify, "RANDOM_CHUNK_BITS", budget)
        calls = counting_engine(monkeypatch)
        report = verify_random(broken, seed=0, count=10_000)
        assert index > report.structured_count + 64
        assert len(calls) == chunks
        assert report.status == "fail"
        assert report.vectors_tried == report.structured_count + 10_000
        assert report.counterexample == {
            "index": index,
            "vector": dict(zip(adder.inputs, vector.tolist())),
            "expected": {"a + b + cin": 44396544},
            "actual": {"s + 2^w*cout": 111505408},
        }


def test_random_memory_follows_one_chunk(monkeypatch):
    # Eight chunks' worth of draws at 2^20 stimulus bits a chunk, 1 MB of
    # raw words in all; the 19 structured rows count against the budget
    # too, so they take nine chunks.  The run holds one chunk at a time.
    circuit = build_block(BlockSpec("kogge_stone"))
    budget = 1 << 20
    monkeypatch.setattr(verify, "RANDOM_CHUNK_BITS", budget)
    rows = budget // (len(circuit.inputs) * 64) * 64
    verify_random(circuit, count=1)  # compiles the op list
    calls = counting_engine(monkeypatch)
    tracemalloc.start()
    try:
        report = verify_random(circuit, seed=0, count=8 * rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and len(calls) == 9
    assert peak < 3 * budget


def test_narrow_random_chunks_stop_at_the_row_cap(monkeypatch):
    # 2 inputs: the bit budget alone would allow 2^26 rows per chunk.
    circuit = build_block(BlockSpec("sorter2"))
    verify_random(circuit, count=1)  # compiles the op list
    calls = counting_engine(monkeypatch)
    tracemalloc.start()
    try:
        report = verify_random(circuit, count=2 * RANDOM_CHUNK_ROWS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    # The 4 structured rows count against the first chunk's rows, whose
    # draw then ends on a multiple of 64: 2^17 - 64 drawn rows.
    assert calls == [RANDOM_CHUNK_ROWS - 60, RANDOM_CHUNK_ROWS, 65]
    # The raw words, the engine's and the word check's words peak at a
    # few bytes a row (tracemalloc).
    assert peak < 16 * RANDOM_CHUNK_ROWS


def test_array_random_holds_no_byte_per_stimulus_bit():
    # The paper's 224-input array at 100k random rows: one byte a stimulus
    # bit would take inputs x rows = 22.46 MB alone.
    circuit = build_block(BlockSpec("pipeline", {"cols": 32}))
    verify_random(circuit, count=1)  # compiles the op list
    tracemalloc.start()
    try:
        report = verify_random(circuit, seed=3, count=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < len(circuit.inputs) * report.vectors_tried


def test_random_mode_builds_the_structured_suite_once(monkeypatch):
    # Its row count and its words come from one build; the report counts
    # the same rows.
    circuit = build_block(BlockSpec("pipeline", {"cols": 8}))
    calls = []
    suite = verify._suite
    monkeypatch.setattr(verify, "_suite", lambda c: calls.append(c) or suite(c))
    report = verify_random(circuit, seed=1, count=100)
    assert calls == [circuit] and report.ok
    assert report.structured_count == len(structured_rows(circuit))


def test_random_mode_never_holds_the_whole_structured_suite():
    # pipeline(cols=512): 3,584 inputs and 4,098 structured rows, whose
    # (rows, inputs) bytes alone would take 14.69 MB.  The suite is held
    # as one word an input, one bit a stimulus bit.
    circuit = build_block(BlockSpec("pipeline", {"cols": 512}))
    verify_random(circuit, count=0)  # compiles the op list
    tracemalloc.start()
    try:
        report = verify_random(circuit, count=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < len(circuit.inputs) * report.structured_count


@pytest.mark.parametrize("count", (64 + 3, 2 * 64 + 5, 8 * 64 + 3, 16 * 64 + 5))
def test_no_bit_is_set_past_a_chunks_last_vector(monkeypatch, count):
    # In chunks of one block, the short last chunk draws a whole block of
    # raw words; none of the bits past its last row may reach its words.
    circuit = build_block(BlockSpec("compressor72_proposed"))
    structured = structured_rows(circuit)
    monkeypatch.setattr(verify, "RANDOM_CHUNK_BITS", _ONE_BLOCK)
    chunks = list(verify._random_chunks(circuit, verify._suite(circuit), 1, count))
    offset, ones, _ = chunks[-1]
    assert len(chunks) > 1 and ones.bit_length() % 64
    assert offset + ones.bit_length() == len(structured) + count
    for offset, ones, words in chunks:
        assert all(word & ~ones == 0 for word in words)


def test_fault_at_the_last_vector_of_a_65_vector_run_is_reported_there():
    # kogge_stone(8) with s0 flipped on exactly one input vector: the
    # last of 19 structured + 46 random rows, bit 45 of each input's first
    # raw word.
    adder = build_block(BlockSpec("kogge_stone"))
    last = random_rows(4, 46, len(adder.inputs))[-1]
    b = CircuitBuilder("kogge_stone", adder.inputs)
    outs = b.instantiate(adder, {p: b.input(p) for p in adder.inputs})
    match = b.input(adder.inputs[0]) if last[0] else b.inv(b.input(adder.inputs[0]))
    for port, bit in zip(adder.inputs[1:], last[1:].tolist()):
        match = b.and_(match, b.input(port) if bit else b.inv(b.input(port)))
    for port, ref in outs.items():
        b.set_output(port, b.xor(ref, match) if port == "s0" else ref)
    report = verify_random(b.seal(), seed=4, count=46)
    assert report.vectors_tried == report.structured_count + 46 == 65
    assert report.status == "fail"
    assert report.counterexample["index"] == 64
    assert report.counterexample["vector"] == dict(zip(adder.inputs, last.tolist()))


def test_random_count_validation():
    c = build_block(BlockSpec("sorter2"))
    with pytest.raises(NetlistError):
        verify_random(c, count=-1)
    with pytest.raises(NetlistError, match="seed"):
        verify_random(c, seed=-1)
    # a bool or a non-int is refused too, not written into the report
    for name, value in (("seed", True), ("count", 2.5), ("count", False), ("seed", "1")):
        with pytest.raises(NetlistError, match=f"{name} must be a non-negative int"):
            verify_random(c, **{name: value})


# ---------------------------------------------------------------------------
# verifier power: every live single-cell mutant fails (DeMillo, Lipton and
# Sayward, "Hints on Test Data Selection", IEEE Computer 1978)
# ---------------------------------------------------------------------------

def live_mutants(circuit):
    """Each AND<->OR and NAND<->NOR swap of one live cell, a cell whose
    output reaches an output net, keyed by the cell's net name."""
    driver = {cell.out: cell for cell in circuit.cells}
    live, nets = set(), list(circuit.output_nets)
    while nets:
        cell = driver.get(nets.pop())
        if cell is not None and cell.out not in live:
            live.add(cell.out)
            nets.extend(cell.ins)
    names = [circuit.net_names[cell.out] for cell in circuit.cells]
    return {
        name: with_kind(circuit, name, _SWAPS[cell.kind])
        for name, cell in zip(names, circuit.cells)
        if cell.out in live and cell.kind in _SWAPS
    }


@pytest.mark.parametrize(
    "spec, live",
    (
        (BlockSpec("compressor72_proposed"), 42),
        (BlockSpec("compressor72_cascade"), 55),
        (BlockSpec("kogge_stone", {"width": 4}), 51),
        # 439 swappable cells, of which 15 are dead: no output reads them
        (BlockSpec("pipeline", {"cols": 8}), 424),
    ),
    ids=lambda v: v.label() if isinstance(v, BlockSpec) else str(v),
)
def test_every_live_cell_mutant_is_caught(spec, live):
    circuit = build_block(spec)
    mutants = live_mutants(circuit)
    assert len(mutants) == live
    if len(circuit.inputs) <= EXHAUSTIVE_INPUT_BOUND:
        run = verify_exhaustive
    else:
        def run(mutant):
            return verify_random(mutant, seed=0, count=1000)
    assert [name for name, mutant in mutants.items() if run(mutant).ok] == []


# ---------------------------------------------------------------------------
# wide blocks: sums past 2^63
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec",
    (BlockSpec("pipeline", {"cols": 64}), BlockSpec("kogge_stone", {"width": 64})),
    ids=BlockSpec.label,
)
def test_wide_blocks_verify(spec):
    report = verify_random(build_block(spec), seed=0, count=200)
    assert report.status == "pass"


def test_wide_adder_fault_on_top_sum_bit_is_caught():
    # s63 = (p + c)·!(pc) with its final AND turned into an OR
    adder = build_block(BlockSpec("kogge_stone", {"width": 64}))
    report = verify_random(with_kind(adder, "s_63", GateKind.OR2), seed=0, count=200)
    assert report.status == "fail"
    ce = report.counterexample
    (expected,) = ce["expected"].values()
    (actual,) = ce["actual"].values()
    assert abs(actual - expected) == 1 << 63


# ---------------------------------------------------------------------------
# carry-out independence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name", ("compressor72_proposed", "compressor72_cascade")
)
def test_carry_outs_ignore_carry_ins(name):
    report = verify_cout_independence(build_block(BlockSpec(name)))
    assert report.status == "pass"
    assert report.vectors_tried == 512


def test_leaky_carry_out_is_caught():
    report = verify_cout_independence(leaky_compressor())
    assert report.status == "fail"
    ce = report.counterexample
    assert ce["output"] == "Co1"
    assert ce["x_vector"] == {f"x{i}": 0 for i in range(1, 8)}
    assert ce["carry_in_a"] == [0, 0]
    assert ce["carry_in_b"] == [0, 1]
    assert (ce["value_a"], ce["value_b"]) == (0, 1)


def test_co2_only_leak_is_caught():
    report = verify_cout_independence(
        compressor_shaped(
            lambda b, net: b.and_(net["x1"], net["x2"], name="co1"),
            lambda b, net: b.and_(net["x2"], net["Ci2"], name="co2"),
        )
    )
    assert report.status == "fail"
    ce = report.counterexample
    assert ce["output"] == "Co2"
    assert ce["x_vector"] == {f"x{i}": int(i == 2) for i in range(1, 8)}
    assert ce["carry_in_a"] == [0, 0]
    assert ce["carry_in_b"] == [0, 1]
    assert (ce["value_a"], ce["value_b"]) == (0, 1)


def test_independence_needs_compressor_ports():
    with pytest.raises(NetlistError, match="ports"):
        verify_cout_independence(build_block(BlockSpec("sorter2")))


@pytest.mark.parametrize(
    "inputs",
    [COMPRESSOR_INPUTS[7:] + COMPRESSOR_INPUTS[:7], COMPRESSOR_INPUTS + ("x8",)],
    ids=["reordered", "extra-input"],
)
def test_independence_needs_the_compressor_inputs_exactly(inputs):
    block = compressor_shaped(
        lambda b, net: b.and_(net["x1"], net["x2"], name="co1"),
        lambda b, net: b.or_(net["x1"], net["x2"], name="co2"),
        inputs,
    )
    with pytest.raises(NetlistError, match="ports"):
        verify_cout_independence(block)


# ---------------------------------------------------------------------------
# oracle resolution and report shape
# ---------------------------------------------------------------------------

# small parameters keep every block exhaustive and explain() row by row cheap
_SMALL = {
    "kogge_stone": {"width": 4},
    "array_reducer": {"cols": 1},
    "pipeline": {"cols": 1},
}


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_check_agrees_with_explain(oracle):
    name = next(n for n, info in REGISTRY.items() if info.oracle == oracle)
    circuit = build_block(BlockSpec(name, _SMALL.get(name, {})))
    ((_, ones, words),), _, _, _ = simulate._sweep(circuit)
    ins = dict(zip(circuit.inputs, words))
    rows = ones.bit_length()
    flipped_rows = sum(1 << row for row in range(0, rows, 3))
    # each output alone, then all of them at once, which can leave a
    # weighted sum off by a multiple of twice its top weight, or unchanged
    for flipped in [(port,) for port in circuit.outputs] + [circuit.outputs]:
        outs = dict(zip(circuit.outputs, _run(circuit, words, ones)))
        for port in flipped:
            outs[port] ^= flipped_rows
        fail = ORACLES[oracle].check(ins, outs) & ones
        for row in range(rows):
            expected, actual = ORACLES[oracle].explain(
                {p: word >> row & 1 for p, word in ins.items()},
                {p: word >> row & 1 for p, word in outs.items()},
            )
            agree = list(expected.values()) == list(actual.values())
            assert (not fail >> row & 1) == agree == verify._passes(expected, actual), (
                flipped,
                row,
            )
        if len(flipped) == 1:
            assert fail == flipped_rows


@pytest.mark.parametrize("ports", [127, 128, 255, 32767, 32768])
@pytest.mark.parametrize("light", [1, 16])
@pytest.mark.parametrize("heavy_side", ["in", "out"])
def test_weighted_carry_is_exact_at_its_dtype_boundaries(ports, light, heavy_side):
    # Port counts at the limits of narrow carry types (int8 to 127, uint8
    # to 255, int16 to 32,767), where a check that counts in one would
    # overflow; the carry-save tree's digits must stay exact past them.
    # All but ``light`` ports sit at weight 2^0 on one side, so setting
    # them sums to ports - light there; the light side counts in binary
    # (2^0 .. 2^(light-1)).
    heavy = {f"h{j}": 0 for j in range(ports - light)}
    counted = {f"c{j}": j for j in range(light)}
    in_e, out_e = (heavy, counted) if heavy_side == "in" else (counted, heavy)
    oracle = verify._weighted(
        "boundary", "ins", verify._fixed(**in_e), "outs", verify._fixed(**out_e)
    )
    n = len(heavy)
    binary = [(n >> j) & 1 for j in range(light)]
    rows = [  # (heavy bits, light bits)
        ([0] * n, [0] * light),
        ([1] * n, [0] * light),
        ([0] * n, [1] * light),
        ([1] * n, [1] * light),
        ([1] * n, binary),  # passes when the light side can count to n
        ([1] * (n - 1) + [0], binary),
    ]
    # bit k of a port's word is its value in row k
    words = {
        p: sum(r[0][j] << k for k, r in enumerate(rows)) for j, p in enumerate(heavy)
    }
    words |= {
        p: sum(r[1][j] << k for k, r in enumerate(rows)) for j, p in enumerate(counted)
    }
    ins = {p: words[p] for p in in_e}
    outs = {p: words[p] for p in out_e}
    fail = oracle.check(ins, outs)
    agree = []
    for row in range(len(rows)):
        expected, actual = oracle.explain(
            {p: word >> row & 1 for p, word in ins.items()},
            {p: word >> row & 1 for p, word in outs.items()},
        )
        agree.append(list(expected.values()) == list(actual.values()))
    assert [not fail >> row & 1 for row in range(len(rows))] == agree
    assert agree[4] == (light == 16)


def test_registry_oracles_all_exist():
    for name, info in REGISTRY.items():
        assert info.oracle in ORACLES, name


def test_resolve_oracle_paths(monkeypatch):
    c = build_block(BlockSpec("sfa"))
    assert resolve_oracle(c) is ORACLES["sfa"]
    # looked up at call time, so a swapped ORACLES entry is the one used
    swapped = dataclasses.replace(ORACLES["sfa"], name="swapped")
    monkeypatch.setitem(ORACLES, "sfa", swapped)
    assert resolve_oracle(c) is swapped
    anon = CircuitBuilder("anon", ["a"])
    anon.set_output("o", anon.inv(anon.input("a")))
    with pytest.raises(NetlistError, match="not a registry block"):
        resolve_oracle(anon.seal())


def test_report_json_shape():
    c = build_block(BlockSpec("sorter2"))
    doc = json.loads(verify_exhaustive(c).to_json())
    keys = [
        "schema_version", "block", "oracle", "mode", "inputs", "vectors_tried",
        "prng", "seed", "structured_count", "random_count", "status",
        "counterexample",
    ]
    assert list(doc) == keys
    assert doc["schema_version"] == "1"
    assert doc["block"] == "sorter2"
    assert doc["mode"] == "exhaustive"
    assert doc["prng"] is None and doc["seed"] is None
    rnd = json.loads(verify_random(c, seed=9, count=5).to_json())
    assert list(rnd) == keys
    assert rnd["prng"] == "numpy default_rng (PCG64)"
    assert rnd["seed"] == 9
    assert rnd["structured_count"] == 4
    assert rnd["random_count"] == 5
