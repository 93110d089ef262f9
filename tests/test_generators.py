"""Structure and behavior of every registered block generator."""

from __future__ import annotations

import itertools

import pytest

from gatelab.core import ZERO, Circuit, GateKind
from gatelab.generators import (
    MIDDLE_PICKS,
    REGISTRY,
    BlockSpec,
    ParameterError,
    adjusted_fa,
    array_reducer,
    build_block,
    compressor72_cascade,
    compressor72_proposed,
    half_sorter4,
    kogge_stone,
    pipeline,
    sfa,
    sorter2,
    sorting_network4,
    traditional_fa,
)
from gatelab.simulate import evaluate
from gatelab.timing import arrivals

ALL16 = list(itertools.product((0, 1), repeat=4))


def counts_of(circuit: Circuit) -> tuple[int, int]:
    raw = circuit.counts()
    inv = raw[GateKind.INV]
    return sum(raw.values()) - inv, inv


# ---------------------------------------------------------------------------
# sorters
# ---------------------------------------------------------------------------

def test_sorter2_is_or_and_pair():
    c = sorter2()
    assert c.inputs == ("In1", "In2")
    assert c.outputs == ("Out1", "Out2")
    assert counts_of(c) == (2, 0)
    for a, b in itertools.product((0, 1), repeat=2):
        out = evaluate(c, {"In1": a, "In2": b})
        assert out["Out1"] == max(a, b)
        assert out["Out2"] == min(a, b)


def test_half_sorter4_pins_extremes_and_keeps_middle_multiset():
    c = half_sorter4()
    assert counts_of(c) == (8, 0)
    for bits in ALL16:
        out = evaluate(c, dict(zip(c.inputs, bits)))
        ordered = sorted(bits, reverse=True)
        assert out["w1"] == ordered[0]
        assert out["w4"] == ordered[3]
        assert sorted((out["w2"], out["w3"])) == sorted(ordered[1:3])
        assert out["w1"] >= out["w2"] >= out["w4"]
        assert out["w1"] >= out["w3"] >= out["w4"]


def test_half_sorter4_witness_vector():
    c = half_sorter4()
    out = evaluate(c, {"i1": 0, "i2": 1, "i3": 1, "i4": 0})
    assert (out["w1"], out["w2"], out["w3"], out["w4"]) == (1, 1, 0, 0)


def test_sorting_network4_fully_sorts():
    c = sorting_network4()
    assert counts_of(c) == (10, 0)
    for bits in ALL16:
        out = evaluate(c, dict(zip(c.inputs, bits)))
        got = [out[p] for p in c.outputs]
        assert got == sorted(bits, reverse=True)


def test_sorting_network4_witness_vectors():
    c = sorting_network4()
    out = evaluate(c, dict(zip(c.inputs, (0, 1, 0, 1))))
    assert [out[p] for p in c.outputs] == [1, 1, 0, 0]
    out = evaluate(c, dict(zip(c.inputs, (0, 0, 0, 1))))
    assert [out[p] for p in c.outputs] == [1, 0, 0, 0]


def test_sorters_preserve_bit_multiset():
    for c in (sorter2(), half_sorter4(), sorting_network4()):
        n = len(c.inputs)
        for bits in itertools.product((0, 1), repeat=n):
            out = evaluate(c, dict(zip(c.inputs, bits)))
            assert sum(out.values()) == sum(bits)


# ---------------------------------------------------------------------------
# sfa
# ---------------------------------------------------------------------------

def _reference_split(bits, pick):
    """Pure-integer model of the half sorter plus the middle pick:
    returns (X, Y, Z, W) with X >= Y >= Z the ordered triple."""
    i1, i2, i3, i4 = bits
    hi12, lo12 = max(i1, i2), min(i1, i2)
    hi34, lo34 = max(i3, i4), min(i3, i4)
    w1, w2 = max(hi12, hi34), min(hi12, hi34)
    w3, w4 = max(lo12, lo34), min(lo12, lo34)
    y, w = (w2, w3) if pick == "first" else (w3, w2)
    return w1, y, w4, w


ORDERED_TRIPLE_TABLE = {
    (0, 0, 0): (0, 0),
    (1, 0, 0): (0, 1),
    (1, 1, 0): (1, 0),
    (1, 1, 1): (1, 1),
}


@pytest.mark.parametrize("pick", MIDDLE_PICKS)
def test_sfa_matches_ordered_triple_table(pick):
    c = sfa(middle_pick=pick)
    realized = set()
    for bits in ALL16:
        x, y, z, w = _reference_split(bits, pick)
        realized.add((x, y, z))
        out = evaluate(c, dict(zip(c.inputs, bits)))
        assert (out["Carry"], out["Sum"]) == ORDERED_TRIPLE_TABLE[(x, y, z)]
        assert out["W"] == w
    assert realized == set(ORDERED_TRIPLE_TABLE)


@pytest.mark.parametrize("pick", MIDDLE_PICKS)
def test_sfa_weighted_identity(pick):
    c = sfa(middle_pick=pick)
    for bits in ALL16:
        out = evaluate(c, dict(zip(c.inputs, bits)))
        assert 2 * out["Carry"] + out["Sum"] + out["W"] == sum(bits)


def test_sfa_counts_and_ports():
    c = sfa()
    assert c.inputs == ("i1", "i2", "i3", "i4")
    assert c.outputs == ("Carry", "Sum", "W")
    assert counts_of(c) == (10, 1)


def test_sfa_rejects_unknown_pick():
    with pytest.raises(ParameterError):
        sfa(middle_pick="third")


# ---------------------------------------------------------------------------
# full adders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factory", (traditional_fa, adjusted_fa))
def test_full_adders_add_three_bits(factory):
    c = factory()
    assert c.inputs == ("A", "B", "C")
    for bits in itertools.product((0, 1), repeat=3):
        out = evaluate(c, dict(zip(c.inputs, bits)))
        assert 2 * out["Carry"] + out["Sum"] == sum(bits)


def test_full_adder_counts():
    assert counts_of(traditional_fa()) == (11, 2)
    assert counts_of(adjusted_fa()) == (8, 3)


# ---------------------------------------------------------------------------
# compressors
# ---------------------------------------------------------------------------

COMPRESSOR_PORTS_IN = tuple(f"x{i}" for i in range(1, 8)) + ("Ci1", "Ci2")
COMPRESSOR_PORTS_OUT = ("Sum", "Carry", "Co1", "Co2")


@pytest.mark.parametrize("factory", (compressor72_proposed, compressor72_cascade))
def test_compressor_port_contract(factory):
    c = factory()
    assert c.inputs == COMPRESSOR_PORTS_IN
    assert c.outputs == COMPRESSOR_PORTS_OUT


def test_compressor_cell_counts():
    assert counts_of(compressor72_proposed()) == (42, 13)
    assert counts_of(compressor72_cascade()) == (55, 10)


def test_proposed_composition_uses_sfa_and_late_c():
    c = compressor72_proposed()
    amap = arrivals(c)
    blocks = [inst.block for inst in c.instances]
    assert "sfa" in blocks
    late_c = False
    for inst in c.instances:
        if inst.block != "adjusted_fa":
            continue
        by_port = dict(inst.inputs)
        stage = {p: amap.net_arrival[n] for p, n in by_port.items()}
        if stage["C"] > max(stage["A"], stage["B"]):
            late_c = True
    assert late_c


def test_proposed_all_ones_vector():
    c = compressor72_proposed()
    out = evaluate(c, {p: 1 for p in c.inputs})
    # 9 = Sum + 2*(Carry + Co1) + 4*Co2 forces all four high
    assert out == {"Sum": 1, "Carry": 1, "Co1": 1, "Co2": 1}


# ---------------------------------------------------------------------------
# merge adder
# ---------------------------------------------------------------------------

def test_kogge_stone_ports_and_witnesses():
    c = kogge_stone(8)
    assert len(c.inputs) == 17
    assert c.outputs == tuple(f"s{i}" for i in range(8)) + ("cout",)
    zero = evaluate(c, {p: 0 for p in c.inputs})
    assert all(v == 0 for v in zero.values())
    vec = {f"a{i}": 1 for i in range(8)}
    vec.update({f"b{i}": 0 for i in range(8)})
    vec["b0"] = 1
    vec["cin"] = 0
    out = evaluate(c, vec)  # 255 + 1
    assert [out[f"s{i}"] for i in range(8)] == [0] * 8
    assert out["cout"] == 1


@pytest.mark.parametrize("width", (0, -3, True, "8"))
def test_kogge_stone_width_validation(width):
    with pytest.raises(ParameterError):
        kogge_stone(width)


# ---------------------------------------------------------------------------
# array harness
# ---------------------------------------------------------------------------

def test_array_reducer_shape():
    c = array_reducer()
    assert len(c.inputs) == 56
    assert c.outputs == tuple(f"s{i}" for i in range(10)) + tuple(
        f"y{i}" for i in range(1, 9)
    )


def test_array_reducer_rows_locked():
    with pytest.raises(TypeError):
        array_reducer(rows=7)
    with pytest.raises(ParameterError):
        array_reducer(cols=0)


def test_array_reducer_trivial_vectors():
    c = array_reducer()
    out = evaluate(c, {p: 0 for p in c.inputs})
    assert all(v == 0 for v in out.values())
    one = {p: 0 for p in c.inputs}
    one["bit_0_0"] = 1
    out = evaluate(c, one)
    assert out["s0"] == 1
    assert sum(out.values()) == 1


def test_pipeline_ports():
    assert pipeline().outputs == tuple(f"s{i}" for i in range(11))
    assert pipeline(cols=1).outputs == ("s0", "s1", "s2")


def test_pipeline_all_ones_totals_1785():
    c = pipeline()
    out = evaluate(c, {p: 1 for p in c.inputs})
    assert sum(v << int(p[1:]) for p, v in out.items()) == 1785


def test_pipeline_rejects_unknown_compressor():
    # only a registry name is a compressor; unhashable values included
    for factory in (array_reducer, pipeline):
        for bad in ("ripple", None, [1], {}, compressor72_cascade()):
            with pytest.raises(ParameterError, match="compressor72_cascade"):
                factory(cols=1, compressor=bad)


@pytest.mark.parametrize(
    "compressor", ["compressor72_proposed", "compressor72_cascade"]
)
@pytest.mark.parametrize("cols", [1, 2, 8])
def test_pipeline_wires_the_array_reducer_in_place(cols, compressor):
    red = array_reducer(cols=cols, compressor=compressor)
    pipe = pipeline(cols=cols, compressor=compressor)
    assert pipe.inputs == red.inputs
    assert len(pipe.cells) > len(red.cells)

    def in_pipe(net: int) -> str:  # a reducer net's name inside the pipeline
        name = red.net_names[net]
        return name if net < len(red.inputs) else f"reduce/{name}"

    for ours, theirs in zip(pipe.cells, red.cells):
        assert ours.kind == theirs.kind
        assert [pipe.net_names[n] for n in ours.ins] == [in_pipe(n) for n in theirs.ins]
        assert pipe.net_names[ours.out] == in_pipe(theirs.out)

    merge = dict(pipe.instances[-1].inputs)
    assert pipe.instances[-1].name == "merge" and merge["cin"] is ZERO
    for i in range(cols + 3):
        for port, row in ((f"a{i}", f"s{i}"), (f"b{i}", f"y{i - 1}")):
            if row in red.outputs:
                assert pipe.net_names[merge[port]] == in_pipe(red.output_net(row))
            else:
                assert merge[port] is ZERO

    columns = [f"reduce/col{c}" for c in range(cols + 2)]
    assert [inst.name for inst in pipe.instances] == columns + ["merge"]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_builds_every_block_with_defaults():
    for name in REGISTRY:
        c = build_block(BlockSpec(name))
        assert isinstance(c, Circuit)
        assert c.name == name


def test_registry_rejects_unknown_generator():
    with pytest.raises(ParameterError):
        build_block(BlockSpec("nosuchblock"))


def test_registry_rejects_unknown_parameter():
    with pytest.raises(ParameterError):
        build_block(BlockSpec("sorter2", {"width": 4}))
    with pytest.raises(ParameterError, match="middle_pick"):
        build_block(BlockSpec("pipeline", {"middle_pick": "first"}))


def test_registry_rejects_wrong_types_and_choices():
    with pytest.raises(ParameterError):
        build_block(BlockSpec("kogge_stone", {"width": True}))
    with pytest.raises(ParameterError):
        build_block(BlockSpec("kogge_stone", {"width": "8"}))
    with pytest.raises(ParameterError):
        build_block(BlockSpec("sfa", {"middle_pick": "third"}))
    # the array generators check these values themselves
    for block in ("array_reducer", "pipeline"):
        for params in (
            {"cols": True},
            {"cols": "8"},
            {"compressor": "ripple"},
            {"compressor": None},
        ):
            with pytest.raises(ParameterError):
                build_block(BlockSpec(block, params))


def test_middle_pick_is_a_parameter_of_sfa_alone():
    takers = [name for name, info in REGISTRY.items() if "middle_pick" in info.params]
    assert takers == ["sfa"]
    for factory in (compressor72_proposed, array_reducer, pipeline):
        with pytest.raises(TypeError):
            factory(middle_pick="first")


def test_block_spec_label():
    assert BlockSpec("sfa").label() == "sfa"
    label = BlockSpec(
        "pipeline", {"cols": 4, "compressor": "compressor72_cascade"}
    ).label()
    assert label == "pipeline(cols=4,compressor=compressor72_cascade)"
