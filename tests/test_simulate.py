"""The evaluation engine against an independent reference, constant
folding, enumeration order, stimulus checks."""

from __future__ import annotations

import gc
import itertools
import pickle
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_export import random_circuits

from gatelab import simulate
from gatelab.core import ARITY, GATE_FN, ONE, ZERO, Cell, CircuitBuilder, Const, GateKind
from gatelab.export import to_json
from gatelab.generators import (
    REGISTRY,
    BlockSpec,
    build_block,
    compressor72_proposed,
    kogge_stone,
    sfa,
    sorter2,
    traditional_fa,
)
from gatelab.simulate import (
    SimulationError,
    evaluate,
    evaluate_batch,
    exhaustive_columns,
    vector_at,
)
from gatelab.verify import verify_exhaustive

# ---------------------------------------------------------------------------
# reference evaluator: the gate basis by its own truth tables, one vector at
# a time, independent of gatelab.core.GATE_FN
# ---------------------------------------------------------------------------

# Output bit for the input rows 00, 01, 10, 11 (0, 1 for the inverter).
TRUTH = {"AND2": "0001", "OR2": "0111", "NAND2": "1110", "NOR2": "1000", "INV": "10"}


def reference(cells, values):
    """Net values after running ``cells`` in order from ``values`` (net ->
    bit); a ZERO/ONE cell input reads its value."""
    values = dict(values)
    for cell in cells:
        bits = [r.value if isinstance(r, Const) else values[r] for r in cell.ins]
        values[cell.out] = int(TRUTH[cell.kind.name][int("".join(map(str, bits)), 2)])
    return values


def reference_outputs(circuit, vector):
    values = reference(circuit.cells, {i: vector[p] for i, p in enumerate(circuit.inputs)})
    return {p: values[net] for p, net in zip(circuit.outputs, circuit.output_nets)}


def sample_rows(circuit, limit=512):
    """Every input vector when there are at most ``limit``, else ``limit``
    seeded random ones."""
    n = len(circuit.inputs)
    if 1 << n <= limit:
        return np.stack(exhaustive_columns(n), axis=1)
    return np.random.default_rng(n).integers(0, 2, size=(limit, n), dtype=np.uint8)


def assert_engine_matches_reference(circuit):
    rows = sample_rows(circuit)
    batch = evaluate_batch(circuit, dict(zip(circuit.inputs, rows.T)))
    for k, row in enumerate(rows.tolist()):
        want = reference_outputs(circuit, dict(zip(circuit.inputs, row)))
        assert {p: int(batch[p][k]) for p in circuit.outputs} == want, row


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_engine_matches_reference_on_registry_blocks(name):
    assert_engine_matches_reference(build_block(BlockSpec(name)))


@settings(max_examples=150, deadline=None)
@given(random_circuits())
def test_engine_matches_reference_on_random_circuits(circuit):
    assert_engine_matches_reference(circuit)


@st.composite
def tied_recipes(draw):
    """(n, cells): unfolded gates over inputs 0..n-1 and the ZERO/ONE
    tie-offs; each cell's output net is the next free id."""
    n = draw(st.integers(1, 3))
    refs = [ZERO, ONE, *range(n)]
    cells = []
    for out in range(n, n + draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(sorted(GateKind, key=lambda k: k.name)))
        ins = tuple(draw(st.sampled_from(refs)) for _ in range(ARITY[kind]))
        cells.append(Cell(kind, ins, out))
        refs.append(out)
    return n, cells


@settings(max_examples=300, deadline=None)
@given(tied_recipes())
def test_folding_keeps_every_gate_function(recipe):
    n, cells = recipe
    inputs = [f"in{i}" for i in range(n)]
    b = CircuitBuilder("tied", inputs)
    built = {i: b.input(port) for i, port in enumerate(inputs)}
    for cell in cells:
        ins = [r if isinstance(r, Const) else built[r] for r in cell.ins]
        built[cell.out] = b.add_gate(cell.kind, *ins)
    # A net that folded to a constant cannot be an output; check its value.
    live = {f"o{c.out}": c.out for c in cells if not isinstance(built[c.out], Const)}
    for port, net in live.items():
        b.set_output(port, built[net])
    circuit = b.seal() if live else None
    for bits in itertools.product((0, 1), repeat=n):
        want = reference(cells, dict(enumerate(bits)))
        for cell in cells:
            if isinstance(built[cell.out], Const):
                assert built[cell.out].value == want[cell.out], (cell, bits)
        if circuit is not None:
            got = evaluate(circuit, dict(zip(inputs, bits)))
            assert got == {port: want[net] for port, net in live.items()}, bits


def inverting_block():
    """Only INV and NOR cells: every padding bit of a packed word ends up 1."""
    b = CircuitBuilder("inverting", ["a", "b", "c"])
    a, x, c = (b.input(p) for p in ("a", "b", "c"))
    b.set_output("na", b.inv(a))
    b.set_output("nor", b.nor_(a, x))
    b.set_output("deep", b.nor_(b.inv(b.nor_(x, c)), b.inv(a)))
    return b.seal()


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 127, 129, (1 << 16) + 1])
@pytest.mark.parametrize("make", [inverting_block, sfa, lambda: kogge_stone(width=3)])
def test_batch_lengths_across_word_boundaries(make, length):
    circuit = make()
    n = len(circuit.inputs)
    rows = np.random.default_rng(length).integers(0, 2, size=(length, n), dtype=np.uint8)
    # the reference output of every input vector, looked up by row index
    table = {
        port: np.array([reference_outputs(circuit, dict(zip(circuit.inputs, bits)))[port]
                        for bits in itertools.product((0, 1), repeat=n)], np.uint8)
        for port in circuit.outputs
    }
    index = rows @ (1 << np.arange(n - 1, -1, -1))
    batch = evaluate_batch(circuit, dict(zip(circuit.inputs, rows.T)))
    for port in circuit.outputs:
        assert batch[port].dtype == np.uint8 and batch[port].shape == (length,)
        assert np.array_equal(batch[port], table[port][index]), port


def test_op_list_is_compiled_once_per_circuit(monkeypatch):
    compiled = []
    compile_ = simulate._compile
    monkeypatch.setattr(
        simulate,
        "_compile",
        lambda cells, keep: compiled.append(cells) or compile_(cells, keep),
    )
    c = kogge_stone(width=4)
    cols = dict(zip(c.inputs, exhaustive_columns(len(c.inputs))))
    first = evaluate_batch(c, cols)
    second = evaluate_batch(c, cols)
    evaluate(c, {p: 1 for p in c.inputs})
    assert len(compiled) == 1 and compiled[0] is c.cells
    assert all(np.array_equal(first[p], second[p]) for p in c.outputs)
    # a copy that pickling made compiles its own, and evaluates alike
    copy = pickle.loads(pickle.dumps(c))
    assert copy == c and repr(copy) == repr(c)
    assert all(np.array_equal(evaluate_batch(copy, cols)[p], first[p]) for p in c.outputs)
    assert len(compiled) == 2 and compiled[1] is copy.cells
    # a sweep that fixes no input runs the whole op list as its outer
    # list, the one evaluation runs too
    compiled.clear()
    compressor = compressor72_proposed()
    assert verify_exhaustive(compressor).ok
    evaluate(compressor, {p: 1 for p in compressor.inputs})
    assert len(compiled) == 1 and compiled[0] is compressor.cells
    assert compressor._plan[1] is compressor._ops


def test_a_swept_circuit_pickles_without_its_op_lists():
    # kogge_stone(width=9) has 19 inputs, so its sweep fixes two per chunk
    # and keeps that plan on the circuit next to the op list; pickling
    # drops both, and the copy sweeps alike
    c = kogge_stone(width=9)
    report = verify_exhaustive(c)
    evaluate(c, {p: 1 for p in c.inputs})
    assert {"_ops", "_plan"} <= vars(c).keys()
    copy = pickle.loads(pickle.dumps(c))
    assert copy == c and not [k for k in vars(copy) if k.startswith("_")]
    assert verify_exhaustive(copy) == report and report.ok


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_evaluation_leaves_the_circuit_as_it_was(name):
    c = build_block(BlockSpec(name))
    before = (to_json(c), repr(c))
    evaluate(c, {p: 0 for p in c.inputs})
    assert (to_json(c), repr(c)) == before
    assert c == build_block(BlockSpec(name))


def test_scalar_and_batch_agree():
    c = sfa()
    cols = exhaustive_columns(4)
    batch = evaluate_batch(c, dict(zip(c.inputs, cols)))
    for k, bits in enumerate(itertools.product((0, 1), repeat=4)):
        single = evaluate(c, dict(zip(c.inputs, bits)))
        assert {p: int(batch[p][k]) for p in c.outputs} == single


def test_stimulus_must_match_inputs_exactly():
    c = sorter2()
    with pytest.raises(SimulationError):
        evaluate(c, {"In1": 0})
    with pytest.raises(SimulationError):
        evaluate(c, {"In1": 0, "In2": 0, "In3": 0})
    with pytest.raises(SimulationError):
        evaluate(c, {"In1": 0, "In2": 2})
    with pytest.raises(SimulationError):
        evaluate(c, {"In1": "1", "In2": 0})
    with pytest.raises(SimulationError):
        evaluate(c, {"In1": -1, "In2": 0})
    for bad in (None, 0.5, 1 + 0j, [1], np.array([1])):
        with pytest.raises(SimulationError):
            evaluate(c, {"In1": bad, "In2": 0})
    # the values a one-row batch accepts, read as 0/1 ints
    for one in (True, 1.0, np.uint8(1), np.bool_(True), np.float64(1), np.array(1)):
        got = evaluate(c, {"In1": one, "In2": 0})
        assert got == {"Out1": 1, "Out2": 0}
        assert all(type(v) is int for v in got.values())


def test_batch_rejects_ragged_or_non_bit_columns():
    c = sorter2()
    with pytest.raises(SimulationError):
        evaluate_batch(
            c,
            {"In1": np.zeros(3, np.uint8), "In2": np.zeros(4, np.uint8)},
        )
    with pytest.raises(SimulationError):
        evaluate_batch(
            c,
            {"In1": np.array([0, 2], np.uint8), "In2": np.zeros(2, np.uint8)},
        )
    zeros = np.zeros(2, np.uint8)
    for bad in (
        np.array([256, 0], np.int16),  # wraps to 0 in a uint8 cast
        np.array([0.5, 0.0]),  # truncates to 0
        np.array(["1", "0"]),
        np.zeros((2, 1), np.uint8),
        [-1, 0],
    ):
        with pytest.raises(SimulationError):
            evaluate_batch(c, {"In1": bad, "In2": zeros})


def test_batch_accepts_0_1_columns_of_any_numeric_type():
    c = sorter2()
    want = {"Out1": [0, 1, 1, 1], "Out2": [0, 0, 0, 1]}
    for make in (list, lambda v: np.array(v, bool), lambda v: np.array(v, np.int64),
                 lambda v: np.array(v, float)):
        got = evaluate_batch(c, {"In1": make([0, 0, 1, 1]), "In2": make([0, 1, 0, 1])})
        assert {p: col.tolist() for p, col in got.items()} == want
        assert all(col.dtype == np.uint8 for col in got.values())


def test_enumeration_is_lexicographic_first_input_most_significant():
    cols = exhaustive_columns(3)
    matrix = np.stack(cols, axis=1).tolist()
    assert matrix == [list(bits) for bits in itertools.product((0, 1), repeat=3)]
    assert vector_at(traditional_fa(), 5) == {"A": 1, "B": 0, "C": 1}


def test_exhaustive_columns_are_the_index_bits():
    for n in range(1, 7):
        idx = np.arange(1 << n)
        want = [(idx >> s) & 1 for s in range(n - 1, -1, -1)]
        cols = exhaustive_columns(n)
        assert np.array_equal(cols, want), n
        assert all(col.dtype == np.uint8 for col in cols)


def inverter_block(n):
    b = CircuitBuilder(f"inputs{n}", [f"i{k}" for k in range(n)])
    for k in range(n):
        b.set_output(f"y{k}", b.inv(b.input(f"i{k}")))
    return b.seal()


def unpack(words, count):
    """(words, count) uint8 bits of Python-int words, bit v in column v;
    a word with a bit set at or past ``count`` does not fit and raises."""
    size = -(-count // 8)
    raw = b"".join(word.to_bytes(size, "little") for word in words)
    packed = np.frombuffer(raw, np.uint8).reshape(len(words), size)
    return np.unpackbits(packed, axis=1, count=count, bitorder="little")


# 1-16 fill part of one chunk and 17 fills one.  18, 19 and 20 take two,
# four and eight, fixing their last one, two or three inputs: every cone
# is one inverter, and a tie takes the later input.  An inversion sets
# every bit of the all-ones word, so no output may show a bit past the
# chunk's last vector.
@pytest.mark.parametrize("n", [*range(1, 9), *range(15, 21)])
def test_exhaustive_slices_are_the_simulated_enumeration(n):
    circuit = inverter_block(n)
    whole = np.stack(exhaustive_columns(n))
    chunks, run, spread, _ = simulate._sweep(circuit)
    lows, indices = [], []
    for low, ones, words in chunks:
        count = ones.bit_length()
        assert ones == (1 << count) - 1 and count == 1 << min(n, 17)
        # bit b of the chunk is vector low + spread(b), spread adding one
        # weight per set bit of b
        weights = [spread(1 << s) for s in range(count.bit_length() - 1)]
        b = np.arange(count)
        for sample in (1, count // 3, count - 1):
            assert spread(sample) == sum(w for s, w in enumerate(weights) if sample >> s & 1)
        index = low + sum((b >> s & 1) * w for s, w in enumerate(weights))
        assert np.array_equal(unpack(words, count), whole[:, index])
        assert np.array_equal(unpack(run(words, ones), count), 1 - whole[:, index])
        lows.append(low)
        indices.append(index)
    assert lows == list(range(1 << max(0, n - 17)))
    assert np.array_equal(np.sort(np.concatenate(indices)), np.arange(1 << n))


def folding_block():
    """20 inputs: i0..i16, whose XOR y reaches all but three cone cells,
    and f0..f2, whose cones hold 3 to 6 cells against the 14 or more of
    each i, so a sweep fixes f0..f2.  NAND2, NOR2 and INV cells read
    them directly and one level down."""
    b = CircuitBuilder("folds", [*(f"i{k}" for k in range(17)), "f0", "f1", "f2"])
    y = b.input("i0")
    for k in range(1, 17):
        y = b.xor(y, b.input(f"i{k}"))
    y2 = b.and_(y, b.input("i5"))
    f0, f1, f2 = (b.input(p) for p in ("f0", "f1", "f2"))
    nand, nor, inv = b.nand_(f0, y), b.nor_(f1, y), b.inv(f2)
    outs = {
        "o0": b.nor_(nand, y2),  # f0 = 0: a constant one level down
        "o1": b.nand_(nor, y2),  # f1 = 1: a constant one level down
        "o2": b.nand_(inv, y),  # f2 = 0: the inverse of y one level down
        "o3": b.nor_(inv, y),  # f2 = 1: the inverse of y one level down
        "o4": b.and_(f0, y2),  # f0 = 1: the net y2
        "o5": b.or_(b.inv(f1), y),  # f1 = 1: the net y one level down
        "o6": b.nand_(f0, f1),  # f0 = 1: an inverter, then a constant
        "o7": b.nor_(nand, nor),  # both folded, or one
        "o8": inv,  # a constant output
        "o9": f2,  # an output on a fixed input
        "o10": y,  # a shared output
    }
    for port, ref in outs.items():
        b.set_output(port, ref)
    return b.seal()


@pytest.mark.parametrize(
    "make",
    [
        folding_block,
        compressor72_proposed,
        lambda: kogge_stone(width=8),
        lambda: kogge_stone(width=9),
    ],
    ids=["folding_block", "compressor72_proposed", "kogge_stone_8", "kogge_stone_9"],
)
def test_a_folded_sweep_runs_what_the_whole_op_list_runs(make, monkeypatch):
    # Every chunk of the sweep, whose cone is folded with the chunk's
    # fixed values, gives the output words that the whole op list gives
    # on the same input words, with no input fixed (9 and 17 inputs) or
    # some (19 and 20); in folding_block's sweep the folds reduce NAND2,
    # NOR2 and INV cells to each of a constant, a net and its inverse.
    circuit = make()
    fixed, _, _, _ = simulate._plan(circuit)
    outcomes = set()
    fold = simulate.fold

    def recording(kind, ins):
        folded = fold(kind, ins)
        if folded is not None:
            ref, invert = folded
            kind_of = "constant" if isinstance(ref, Const) else "inverse" if invert else "net"
            outcomes.add((kind, kind_of))
        return folded

    monkeypatch.setattr(simulate, "fold", recording)
    chunks, run, _, _ = simulate._sweep(circuit)
    lows = []
    for low, ones, words in chunks:
        assert run(words, ones) == simulate._run(circuit, words, ones)
        lows.append(low)
    assert len(lows) == 1 << len(fixed) and lows == sorted(lows)
    if make is not folding_block:
        return
    assert [circuit.inputs[i] for i in fixed] == ["f0", "f1", "f2"]
    assert lows == list(range(8))
    assert {
        (GateKind.NAND2, "constant"), (GateKind.NAND2, "inverse"),
        (GateKind.NOR2, "constant"), (GateKind.NOR2, "inverse"),
        (GateKind.INV, "constant"), (GateKind.AND2, "net"), (GateKind.OR2, "net"),
    } <= outcomes


@pytest.mark.parametrize(
    "make",
    [
        folding_block,
        lambda: kogge_stone(width=9),
        lambda: kogge_stone(width=11),
        lambda: build_block(BlockSpec("pipeline", {"cols": 3})),
    ],
    ids=["folding_block", "kogge_stone_9", "kogge_stone_11", "pipeline_3"],
)
def test_a_folded_list_copies_no_word_and_reads_no_freed_net(make):
    # A gate that folds to a net hands that net to its readers and output
    # refs, so every op left evaluates a gate.  The frees, recomputed
    # after, never free a net that a later op or an output ref reads, and
    # every op's net is read later or is an output.
    c = make()
    fixed, _, _, chunk = simulate._plan(c)
    for k in range(1 << len(fixed)):
        ops, refs = chunk(k)
        nets = {ref for ref in refs if not isinstance(ref, Const)}
        freed = set()
        for j, (fn, ins, out, free) in enumerate(ops):
            assert fn in GATE_FN.values()
            assert not freed & set(ins)
            assert out in nets or any(out in op[1] for op in ops[j + 1 :])
            freed |= set(free)
        assert not freed & nets


@pytest.mark.parametrize(
    "make, names",
    [
        (compressor72_proposed, []),
        (lambda: kogge_stone(width=8), []),
        (lambda: inverter_block(18), ["i17"]),
        (lambda: kogge_stone(width=9), ["a8", "b8"]),
    ],
    ids=["compressor72_proposed", "kogge_stone_8", "inverter_block_18", "kogge_stone_9"],
)
def test_the_plan_fixes_the_inputs_past_17(make, names):
    # A sweep fixes max(n - 17, 0) inputs: none for 9 or 17 inputs, whose
    # one chunk runs the whole op list outside an empty cone, then one for
    # 18 inputs and two for 19.
    c = make()
    fixed, outer, cone, chunk = simulate._plan(c)
    assert [c.inputs[i] for i in fixed] == names
    if not names:
        assert cone == () and chunk(0) == ((), tuple(c.output_nets))
        assert outer == simulate._compile(c.cells, set(c.output_nets))


def test_chunks_in_any_order_share_their_prefix_folds(monkeypatch):
    # kogge_stone(width=11) fixes 6 inputs, so its 64 chunks fold the cone
    # once for each prefix of their fixed values: 2 + 4 + ... + 64 = 126
    # folds in ascending or shuffled order, and the same lists either way.
    adder = kogge_stone(width=11)
    calls = []
    fold = simulate._fold

    def counting(*args):
        calls.append(args)
        return fold(*args)

    monkeypatch.setattr(simulate, "_fold", counting)
    order = list(range(64))
    random.Random(29).shuffle(order)
    _, _, _, shuffled = simulate._plan(adder)
    lists = {c: shuffled(c) for c in order}
    assert len(calls) == 126
    calls.clear()
    _, _, _, ascending = simulate._plan(adder)
    assert [ascending(c) for c in range(64)] == [lists[c] for c in range(64)]
    assert len(calls) == 126


def test_a_dropped_circuit_frees_its_folds_by_reference_count():
    # The memo of folded lists hangs off the plan alone, in no reference
    # cycle, so the lists go with the circuit, before any cycle collection.
    c = kogge_stone(width=9)
    verify_exhaustive(c)
    leaf = c._plan[3](1)[0]
    gc.disable()
    try:
        del c
        assert sys.getrefcount(leaf) == 2  # this name and the call's argument
    finally:
        gc.enable()


def test_vector_at_is_a_row_of_the_enumeration():
    c = kogge_stone(width=3)
    n = len(c.inputs)
    cols = exhaustive_columns(n)
    for index in range(1 << n):
        assert vector_at(c, index) == {p: int(col[index]) for p, col in zip(c.inputs, cols)}


def test_vector_at_is_exact_past_64_inputs():
    c = kogge_stone(width=40)  # 81 inputs
    n = len(c.inputs)
    vec = vector_at(c, (1 << (n - 1)) + 2)
    assert [vec[p] for p in c.inputs] == [1] + [0] * (n - 3) + [1, 0]


def test_vector_at_bounds():
    c = sorter2()
    with pytest.raises(SimulationError):
        vector_at(c, 4)
    with pytest.raises(SimulationError):
        vector_at(c, -1)
