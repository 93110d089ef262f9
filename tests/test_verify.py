"""Oracle suites, verification reports, and counterexample contents."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from gatelab import simulate, verify
from gatelab.core import CircuitBuilder, GateKind, NetlistError
from gatelab.generators import COMPRESSOR_INPUTS, REGISTRY, BlockSpec, build_block
from gatelab.simulate import evaluate_batch, exhaustive_columns
from gatelab.verify import (
    EXHAUSTIVE_INPUT_BOUND,
    ORACLES,
    RANDOM_BLOCK_ROWS,
    RANDOM_CHUNK_BYTES,
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
    # kogge_stone(width=8) has 17 inputs, so the sweep takes two chunks
    # of 2^16 vectors.  n18, the AND(a0, b0) inside p0_0's XOR, turned
    # into a NOR makes p0_0 = a0 | b0: wrong first at a0 = b0 = 1,
    # index 2^16 + 2^8, in the second chunk.
    adder = build_block(BlockSpec("kogge_stone", {"width": 8}))
    broken = with_kind(adder, "n18", GateKind.NOR2)
    columns = dict(zip(adder.inputs, exhaustive_columns(17)))
    single_shot = ORACLES["adder"].check(columns, evaluate_batch(broken, columns))
    assert int(np.argmin(single_shot)) == 65_792
    report = verify_exhaustive(broken)
    assert report.status == "fail"
    assert report.vectors_tried == 1 << 17
    assert report.counterexample == {
        "index": 65_792,
        "vector": {p: int(p in ("a0", "b0")) for p in adder.inputs},
        "expected": {"a + b + cin": 2},
        "actual": {"s + 2^w*cout": 3},
    }


def counting_engine(monkeypatch):
    """A list that grows by one for each chunk verify hands the engine."""
    calls = []

    def counting(circuit, columns):
        calls.append(len(next(iter(columns.values()))))
        return evaluate_batch(circuit, columns)

    monkeypatch.setattr(verify, "evaluate_batch", counting)
    return calls


def counting_words(monkeypatch):
    """A list that grows by the vectors of each packed engine chunk that
    exhaustive verification simulates."""
    calls = []
    evaluate_words = simulate._evaluate_words

    def counting(circuit, words):
        calls.append(64 * len(words[0]))
        return evaluate_words(circuit, words)

    monkeypatch.setattr(simulate, "_evaluate_words", counting)
    return calls


def test_exhaustive_stops_at_its_first_failing_chunk(monkeypatch):
    # kogge_stone(width=9) has 19 inputs, so the sweep takes two engine
    # chunks of 2^18 vectors.  n20, the AND(a0, b0) inside p0_0's XOR,
    # turned into an OR makes p0_0 = 0, wrong first at b0 = 1 alone,
    # index 2^9, in the first chunk; the second is never simulated.
    adder = build_block(BlockSpec("kogge_stone", {"width": 9}))
    calls = counting_words(monkeypatch)
    report = verify_exhaustive(with_kind(adder, "n20", GateKind.OR2))
    assert calls == [1 << 18]
    assert report.status == "fail"
    assert report.vectors_tried == 1 << 19
    assert report.counterexample == {
        "index": 512,
        "vector": {p: int(p == "b0") for p in adder.inputs},
        "expected": {"a + b + cin": 1},
        "actual": {"s + 2^w*cout": 0},
    }


def flipped_where(adder, ports):
    """``adder`` with s0 flipped wherever every input in ``ports`` is 1."""
    b = CircuitBuilder(adder.name, adder.inputs)
    outs = b.instantiate(adder, {p: b.input(p) for p in adder.inputs})
    match = b.input(ports[0])
    for port in ports[1:]:
        match = b.and_(match, b.input(port))
    for port, ref in outs.items():
        b.set_output(port, b.xor(ref, match) if port == "s0" else ref)
    return b.seal()


@pytest.mark.parametrize(
    "make, index",
    [
        # a1 = a2 = b0 = 1 first at index 3 * 2^16 + 2^9, mid-way through
        # the fourth 2^16-vector slice of the first engine chunk
        (lambda adder: flipped_where(adder, ("a1", "a2", "b0")), 3 * 2**16 + 2**9),
        # n20 turned into a NOR makes p0_0 = a0 | b0, wrong first at
        # a0 = b0 = 1, index 2^18 + 2^9, in the second engine chunk
        (lambda adder: with_kind(adder, "n20", GateKind.NOR2), 2**18 + 2**9),
    ],
    ids=["fourth-slice", "second-engine-chunk"],
)
def test_exhaustive_slices_report_the_single_shot_index(make, index):
    adder = build_block(BlockSpec("kogge_stone", {"width": 9}))
    broken = make(adder)
    columns = dict(zip(adder.inputs, exhaustive_columns(19)))
    single_shot = ORACLES["adder"].check(columns, evaluate_batch(broken, columns))
    assert int(np.argmin(single_shot)) == index
    report = verify_exhaustive(broken)
    assert report.status == "fail"
    assert report.counterexample["index"] == index
    assert report.counterexample["vector"] == {
        p: int(columns[p][index]) for p in adder.inputs
    }


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
    engine, joined across its chunks, and the number of chunks."""
    seen = []

    def recording(circuit, columns):
        assert list(columns) == list(circuit.inputs)
        # contiguous uint8 columns, which the engine reads without gathering
        for port, col in columns.items():
            assert col.dtype == np.uint8 and col.flags.c_contiguous, port
        seen.append(np.stack(list(columns.values()), axis=1))  # a copy
        return evaluate_batch(circuit, columns)

    monkeypatch.setattr(verify, "evaluate_batch", recording)
    verify_random(circuit, **kwargs)
    return np.concatenate(seen), len(seen)


# A budget below one block's bytes: every chunk holds one block.
_ONE_BLOCK = 1


def chunk_counts(circuit, count):
    """The chunks of a run of ``count`` random rows at the default budget
    and at one block per chunk.  The structured rows and the draw are cut
    every ``step`` rows, and a cut inside the draw moves back to a
    multiple of 8 drawn rows."""
    head = len(structured_rows(circuit))
    total = head + count

    def chunks(step):
        cuts = (k * step for k in range(1, total // step + 2))
        return 1 + sum(cut - max(0, cut - head) % 8 < total for cut in cuts)

    rows = min(RANDOM_CHUNK_BYTES // len(circuit.inputs), RANDOM_CHUNK_ROWS)
    return {
        RANDOM_CHUNK_BYTES: chunks(rows // RANDOM_BLOCK_ROWS * RANDOM_BLOCK_ROWS),
        _ONE_BLOCK: chunks(RANDOM_BLOCK_ROWS),
    }


_STIMULUS_BLOCKS = (
    BlockSpec("traditional_fa"),
    BlockSpec("compressor72_proposed"),
    BlockSpec("array_reducer", {"cols": 1}),
)


@pytest.mark.parametrize("count", (0, 1, 4097))  # 4097: several blocks
@pytest.mark.parametrize("spec", _STIMULUS_BLOCKS, ids=BlockSpec.label)
def test_random_stimulus_is_structured_rows_then_one_draw(monkeypatch, spec, count):
    circuit = build_block(spec)
    n = len(circuit.inputs)
    draw = np.random.default_rng(7).integers(0, 2, size=(count, n), dtype=np.uint8)
    expected = np.concatenate([structured_rows(circuit), draw])
    for budget, chunks in chunk_counts(circuit, count).items():
        monkeypatch.setattr(verify, "RANDOM_CHUNK_BYTES", budget)
        stimulus = engine_stimulus(monkeypatch, circuit, seed=7, count=count)
        assert stimulus[1] == chunks
        assert np.array_equal(stimulus[0], expected)


def one_input_block():
    # a registry name for its oracle, which it passes, so that a run
    # simulates every chunk of its stimulus
    b = CircuitBuilder("sorter2", ["In1"])
    b.set_output("Out1", b.inv(b.inv(b.input("In1"))))
    return b.seal()


# A raw PCG64 word holds 8 values: odd input counts and counts that end
# part-way through a word catch a block size that is not a multiple of 8.
_STREAM_CIRCUITS = {
    1: one_input_block,
    2: lambda: build_block(BlockSpec("sorter2")),
    3: lambda: build_block(BlockSpec("traditional_fa")),
    7: lambda: build_block(BlockSpec("array_reducer", {"cols": 1})),
    9: lambda: build_block(BlockSpec("compressor72_proposed")),
    224: lambda: build_block(BlockSpec("pipeline", {"cols": 32})),
}
_STREAM_COUNTS = (
    0, 1, 5, RANDOM_BLOCK_ROWS - 1, RANDOM_BLOCK_ROWS, RANDOM_BLOCK_ROWS + 1,
    2 * RANDOM_BLOCK_ROWS + 3,
)


@pytest.mark.parametrize("seed", (7, 2**63 + 12345))
@pytest.mark.parametrize("count", _STREAM_COUNTS)
@pytest.mark.parametrize("n", sorted(_STREAM_CIRCUITS), ids="n={}".format)
def test_random_stream_is_one_integers_draw(monkeypatch, n, count, seed):
    # The stream is read from raw PCG64 words; it must stay the draw that
    # seeds and manifests name, whatever numpy does to `integers`.
    circuit = _STREAM_CIRCUITS[n]()
    assert len(circuit.inputs) == n
    draw = np.random.default_rng(seed).integers(0, 2, size=(count, n), dtype=np.uint8)
    for budget, chunks in chunk_counts(circuit, count).items():
        monkeypatch.setattr(verify, "RANDOM_CHUNK_BYTES", budget)
        stimulus = engine_stimulus(monkeypatch, circuit, seed=seed, count=count)
        assert stimulus[1] == chunks
        assert np.array_equal(stimulus[0][len(structured_rows(circuit)) :], draw)


def test_random_counterexample_past_the_first_block_is_pinned(monkeypatch):
    # The group propagate p5_25 = p4_25 & p4_9 turned into an OR: the
    # top sum bits go wrong only on long carry chains, first met at
    # random row 6910 of seed 0, past the first block of draws.  In
    # chunks of two blocks that row is in the seventh chunk of eight, and
    # the run stops there.
    adder = build_block(BlockSpec("kogge_stone", {"width": 32}))
    broken = with_kind(adder, "p5_25", GateKind.OR2)
    vector = np.random.default_rng(0).integers(
        0, 2, size=(6911, len(adder.inputs)), dtype=np.uint8
    )[6910]
    index = 67 + 6910
    two_blocks = 2 * RANDOM_BLOCK_ROWS * len(adder.inputs)
    for budget, chunks in ((RANDOM_CHUNK_BYTES, 1), (two_blocks, 7)):
        monkeypatch.setattr(verify, "RANDOM_CHUNK_BYTES", budget)
        calls = counting_engine(monkeypatch)
        report = verify_random(broken, seed=0, count=8000)
        assert index > report.structured_count + RANDOM_BLOCK_ROWS
        assert len(calls) == chunks
        assert report.status == "fail"
        assert report.vectors_tried == report.structured_count + 8000
        assert report.counterexample == {
            "index": index,
            "vector": dict(zip(adder.inputs, vector.tolist())),
            "expected": {"a + b + cin": 3473568768},
            "actual": {"s + 2^w*cout": 3406459904},
        }


def test_random_memory_follows_one_chunk(monkeypatch):
    # Eight chunks' worth of draws at 2^20 stimulus bytes a chunk, 8 MB
    # in all; the 19 structured rows count against the budget too, so
    # they take nine chunks.  The run holds one chunk at a time.
    circuit = build_block(BlockSpec("kogge_stone"))
    budget = 1 << 20
    monkeypatch.setattr(verify, "RANDOM_CHUNK_BYTES", budget)
    rows = budget // (len(circuit.inputs) * RANDOM_BLOCK_ROWS) * RANDOM_BLOCK_ROWS
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
    # 2 inputs: the byte budget alone would allow 2^26 rows per chunk.
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
    # draw then ends on a multiple of 8: 2^17 - 8 drawn rows.
    assert calls == [RANDOM_CHUNK_ROWS - 4, RANDOM_CHUNK_ROWS, 9]
    # The oracle checks the uint8 columns it is given and keeps its sorted
    # bits as bools; int64 copies of them took a chunk to about 61 bytes a
    # row, int64 sorted bits to 26.
    assert peak < 16 * RANDOM_CHUNK_ROWS


def test_fault_at_the_last_vector_of_a_65_vector_run_is_reported_there():
    # kogge_stone(8) with s0 flipped on exactly one input vector: the
    # last of 19 structured + 46 random rows, bit 0 of the second word.
    adder = build_block(BlockSpec("kogge_stone"))
    n = len(adder.inputs)
    last = np.random.default_rng(4).integers(0, 2, size=(46, n), dtype=np.uint8)[-1]
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


# ---------------------------------------------------------------------------
# verifier power: every live single-cell mutant fails (DeMillo, Lipton and
# Sayward, "Hints on Test Data Selection", IEEE Computer 1978)
# ---------------------------------------------------------------------------

_SWAPS = {
    GateKind.AND2: GateKind.OR2,
    GateKind.OR2: GateKind.AND2,
    GateKind.NAND2: GateKind.NOR2,
    GateKind.NOR2: GateKind.NAND2,
}


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
    ins = dict(zip(circuit.inputs, exhaustive_columns(len(circuit.inputs))))
    rows = 1 << len(circuit.inputs)
    flipped_rows = np.arange(rows) % 3 == 0
    # each output alone, then all of them at once, which can leave a
    # weighted sum off by a multiple of twice its top weight, or unchanged
    for flipped in [(port,) for port in circuit.outputs] + [circuit.outputs]:
        outs = dict(evaluate_batch(circuit, ins))
        for port in flipped:
            outs[port] = outs[port] ^ flipped_rows
        mask = ORACLES[oracle].check(ins, outs)
        for row in range(rows):
            expected, actual = ORACLES[oracle].explain(
                {p: int(col[row]) for p, col in ins.items()},
                {p: int(col[row]) for p, col in outs.items()},
            )
            agree = list(expected.values()) == list(actual.values())
            assert bool(mask[row]) == agree, (flipped, row)
        if len(flipped) == 1:
            assert (mask == ~flipped_rows).all()


@pytest.mark.parametrize("ports", [127, 128, 255, 32767, 32768])
@pytest.mark.parametrize("light", [1, 16])
@pytest.mark.parametrize("heavy_side", ["in", "out"])
def test_weighted_carry_is_exact_at_its_dtype_boundaries(ports, light, heavy_side):
    # int8 holds the carry up to 127 ports and int16 up to 32,767 (255
    # would pass for uint8's limit, which an int8 carry overflows).  All
    # but ``light`` ports sit at weight 2^0 on one side, so setting them
    # drives |carry| to ports - light before the first shift; the light
    # side counts in binary (2^0 .. 2^(light-1)).
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
    columns = {p: np.array([r[0][j] for r in rows], np.uint8) for j, p in enumerate(heavy)}
    columns |= {p: np.array([r[1][j] for r in rows], np.uint8) for j, p in enumerate(counted)}
    ins = {p: columns[p] for p in in_e}
    outs = {p: columns[p] for p in out_e}
    mask = oracle.check(ins, outs)
    agree = []
    for row in range(len(rows)):
        expected, actual = oracle.explain(
            {p: int(col[row]) for p, col in ins.items()},
            {p: int(col[row]) for p, col in outs.items()},
        )
        agree.append(list(expected.values()) == list(actual.values()))
    assert mask.tolist() == agree
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
