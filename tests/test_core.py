"""Builder, constant folding, macros, hierarchy, and validation."""

from __future__ import annotations

import dataclasses

import pytest

from gatelab.core import (
    BuildError,
    Cell,
    Circuit,
    CircuitBuilder,
    Const,
    GateKind,
    NetlistError,
    validate,
)
from gatelab.generators import sorter2
from gatelab.simulate import evaluate

ZERO = Const.ZERO
ONE = Const.ONE


def build_pair():
    b = CircuitBuilder("t", ["a", "b"])
    return b, b.input("a"), b.input("b")


# ---------------------------------------------------------------------------
# basic construction
# ---------------------------------------------------------------------------

def test_manual_two_gate_circuit():
    b, a, y = build_pair()
    b.set_output("hi", b.or_(a, y, name="hi"))
    b.set_output("lo", b.and_(a, y, name="lo"))
    c = b.seal()
    assert c.inputs == ("a", "b")
    assert c.outputs == ("hi", "lo")
    assert len(c.cells) == 2
    assert evaluate(c, {"a": 0, "b": 1}) == {"hi": 1, "lo": 0}


def test_gate_arity_enforced():
    b, a, y = build_pair()
    with pytest.raises(BuildError):
        b.add_gate(GateKind.AND2, a)
    with pytest.raises(BuildError):
        b.add_gate(GateKind.INV, a, y)


def test_bool_is_not_a_net_ref():
    b, a, _ = build_pair()
    with pytest.raises(BuildError):
        b.and_(True, a)


def test_duplicate_input_names_rejected():
    with pytest.raises(BuildError):
        CircuitBuilder("t", ["a", "a"])


def test_input_names_validated():
    with pytest.raises(BuildError):
        CircuitBuilder("t", ["1bad"])


def test_input_port_errors_name_the_port():
    with pytest.raises(BuildError, match="duplicate input name 'a'"):
        CircuitBuilder("t", ["a", "b", "a"])
    with pytest.raises(BuildError, match="bad circuit name 5"):
        CircuitBuilder(5, ["a"])
    b = CircuitBuilder("t", ["a", "b"])
    assert (b.input("a"), b.input("b")) == (0, 1)
    with pytest.raises(BuildError, match="t: no input named 'c'"):
        b.input("c")
    with pytest.raises(BuildError, match="no input named"):
        b.input(["a"])
    with pytest.raises(BuildError, match="port name 'b' already in use"):
        b.set_output("b", b.input("a"))
    with pytest.raises(BuildError, match="bad output name 5"):
        b.set_output(5, b.input("a"))
    b.set_output("o", b.and_(b.input("a"), b.input("b")))
    assert b.seal().inputs == ("a", "b")


def test_explicit_name_collisions_deduped():
    b, a, y = build_pair()
    b.and_(a, y, name="n")
    second = b.or_(a, y, name="n")
    b.set_output("o", second)
    c = b.seal()
    assert "n" in c.net_names and "n__2" in c.net_names


# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------

def test_absorbing_constants_fold_to_constants():
    b, a, _ = build_pair()
    assert b.and_(a, ZERO) is ZERO
    assert b.or_(a, ONE) is ONE
    assert b.nand_(ZERO, a) is ONE
    assert b.nor_(ONE, a) is ZERO
    assert len(b._cells) == 0


def test_identity_constants_fold_to_the_net():
    b, a, _ = build_pair()
    assert b.and_(a, ONE) == a
    assert b.or_(ZERO, a) == a
    assert len(b._cells) == 0


def test_negating_constants_fold_to_an_inverter():
    b, a, _ = build_pair()
    n1 = b.nand_(a, ONE)
    n2 = b.nor_(a, ZERO)
    assert [cell.kind for cell in b._cells] == [GateKind.INV, GateKind.INV]
    b.set_output("o1", n1)
    b.set_output("o2", n2)
    c = b.seal()
    assert evaluate(c, {"a": 0, "b": 0}) == {"o1": 1, "o2": 1}


def test_inverter_of_constant_flips():
    b, _, _ = build_pair()
    assert b.inv(ZERO) is ONE
    assert b.inv(ONE) is ZERO


def test_two_constant_gates_fold():
    b, _, _ = build_pair()
    assert b.and_(ONE, ONE) is ONE
    assert b.or_(ZERO, ZERO) is ZERO
    assert b.nand_(ONE, ONE) is ZERO
    assert b.nor_(ZERO, ZERO) is ONE
    assert len(b._cells) == 0


def test_constants_never_survive_sealing():
    b, a, y = build_pair()
    b.set_output("o", b.and_(b.or_(a, ZERO), b.and_(y, ONE)))
    c = b.seal()
    assert validate(c) == []
    assert len(c.cells) == 1


# ---------------------------------------------------------------------------
# macros
# ---------------------------------------------------------------------------

def test_xor_macro_expansion_and_truth_table():
    b, a, y = build_pair()
    b.set_output("o", b.xor(a, y, name="o"))
    c = b.seal()
    kinds = sorted(cell.kind.name for cell in c.cells)
    assert kinds == ["AND2", "AND2", "INV", "OR2"]
    for va in (0, 1):
        for vb in (0, 1):
            assert evaluate(c, {"a": va, "b": vb})["o"] == va ^ vb


def test_mux_macro_truth_table():
    b = CircuitBuilder("m", ["s", "d0", "d1"])
    s, d0, d1 = (b.input(p) for p in ("s", "d0", "d1"))
    b.set_output("o", b.mux(s, d0, d1, name="o"))
    c = b.seal()
    assert len(c.cells) == 4
    for vs in (0, 1):
        for v0 in (0, 1):
            for v1 in (0, 1):
                got = evaluate(c, {"s": vs, "d0": v0, "d1": v1})["o"]
                assert got == (v1 if vs else v0)


# ---------------------------------------------------------------------------
# hierarchy
# ---------------------------------------------------------------------------

def test_instantiate_flattens_and_prefixes_nets():
    b, a, y = build_pair()
    out = b.instantiate(sorter2(), {"In1": a, "In2": y}, name="s")
    b.set_output("mx", out["Out1"])
    b.set_output("mn", out["Out2"])
    c = b.seal()
    assert "s/hi" in c.net_names and "s/lo" in c.net_names
    assert evaluate(c, {"a": 1, "b": 0}) == {"mx": 1, "mn": 0}


def test_instantiate_checks_bindings_exactly():
    b, a, _ = build_pair()
    with pytest.raises(BuildError):
        b.instantiate(sorter2(), {"In1": a})
    with pytest.raises(BuildError):
        b.instantiate(sorter2(), {"In1": a, "In2": a, "In3": a})


def test_instance_names_deduped():
    b, a, y = build_pair()
    b.instantiate(sorter2(), {"In1": a, "In2": y}, name="s")
    out = b.instantiate(sorter2(), {"In1": a, "In2": y}, name="s")
    b.set_output("o", out["Out1"])
    c = b.seal()
    assert [i.name for i in c.instances] == ["s", "s__2"]
    assert "s__2/hi" in c.net_names


def test_instantiate_with_tied_ports_folds_through():
    b, a, _ = build_pair()
    out = b.instantiate(sorter2(), {"In1": a, "In2": ZERO})
    # max(a, 0) = a, min(a, 0) = 0
    assert out["Out1"] == a
    assert out["Out2"] is ZERO
    assert len(b._cells) == 0


def test_instance_records_bindings():
    b, a, y = build_pair()
    out = b.instantiate(sorter2(), {"In1": a, "In2": y}, name="s")
    b.set_output("o", out["Out1"])
    c = b.seal()
    (inst,) = c.instances
    assert inst.block == "sorter2"
    assert dict(inst.inputs) == {"In1": a, "In2": y}
    assert dict(inst.outputs)["Out1"] == c.output_net("o")


# ---------------------------------------------------------------------------
# outputs and sealing
# ---------------------------------------------------------------------------

def test_constant_output_rejected():
    b, a, _ = build_pair()
    with pytest.raises(BuildError, match="constant"):
        b.set_output("o", b.and_(a, ZERO))


def test_output_name_reuse_rejected():
    b, a, y = build_pair()
    b.set_output("o", b.and_(a, y))
    with pytest.raises(BuildError):
        b.set_output("o", a)
    with pytest.raises(BuildError):
        b.set_output("a", a)


def test_output_names_validated():
    b, a, _ = build_pair()
    with pytest.raises(BuildError):
        b.set_output("with/slash", a)


def test_seal_requires_outputs():
    b, _, _ = build_pair()
    with pytest.raises(BuildError):
        b.seal()


def test_builder_dead_after_seal():
    b, a, y = build_pair()
    b.set_output("o", b.and_(a, y))
    b.seal()
    with pytest.raises(BuildError):
        b.and_(a, y)


def test_circuit_lookups_raise_on_unknown_names():
    c = sorter2()
    with pytest.raises(NetlistError):
        c.net("zzz")
    with pytest.raises(NetlistError):
        c.output_net("zzz")


def test_counts_by_kind():
    counts = sorter2().counts()
    assert counts[GateKind.OR2] == 1
    assert counts[GateKind.AND2] == 1
    assert counts[GateKind.NAND2] == 0
    assert counts[GateKind.INV] == 0


# ---------------------------------------------------------------------------
# validation of hand-built structures
# ---------------------------------------------------------------------------

def _circuit(cells, net_names, outputs=("o",), output_nets=None, inputs=("a",)):
    if output_nets is None:
        output_nets = (len(net_names) - 1,)
    return Circuit(
        name="bad",
        inputs=inputs,
        outputs=outputs,
        output_nets=output_nets,
        cells=cells,
        net_names=net_names,
    )


def test_validate_accepts_generator_output():
    assert validate(sorter2()) == []


def test_validate_flags_non_topological_order():
    bad = _circuit(
        cells=(Cell(GateKind.AND2, (0, 2), 1), Cell(GateKind.INV, (0,), 2)),
        net_names=("a", "n1", "n2"),
        output_nets=(1,),
    )
    problems = validate(bad)
    assert any("before its driver" in p for p in problems)


def test_validate_flags_multiple_drivers():
    bad = _circuit(
        cells=(Cell(GateKind.INV, (0,), 1), Cell(GateKind.INV, (0,), 1)),
        net_names=("a", "n1"),
        output_nets=(1,),
    )
    problems = validate(bad)
    assert any("driver" in p for p in problems)


def test_validate_flags_undriven_net():
    bad = _circuit(
        cells=(Cell(GateKind.AND2, (0, 2), 1),),
        net_names=("a", "n1", "ghost"),
        output_nets=(1,),
    )
    problems = validate(bad)
    assert problems


def test_validate_flags_out_of_range_refs():
    bad = _circuit(
        cells=(Cell(GateKind.INV, (9,), 1),),
        net_names=("a", "n1"),
        output_nets=(1,),
    )
    assert validate(bad)


def test_validate_flags_arity_violation():
    bad = _circuit(
        cells=(Cell(GateKind.AND2, (0,), 1),),
        net_names=("a", "n1"),
        output_nets=(1,),
    )
    assert any("takes" in p for p in validate(bad))


def test_validate_flags_bad_names():
    inv = (Cell(GateKind.INV, (0,), 1),)
    assert validate(_circuit(inv, ("a", "n1"))) == []
    assert validate(_circuit(inv, ("a", 'n"1'))) == ["bad net name 'n\"1'"]
    assert validate(_circuit(inv, ("a", "n1\n"))) == ["bad net name 'n1\\n'"]
    assert validate(_circuit(inv, ("a", "n1"), outputs=("o\n",))) == [
        "bad port name 'o\\n'"
    ]
    named = dataclasses.replace(_circuit(inv, ("a", "n1")), name='evil" ] ; x')
    assert validate(named) == ["bad circuit name 'evil\" ] ; x'"]
    # a gate's name= reaches the net names, which seal checks
    b, a, _ = build_pair()
    b.set_output("o", b.inv(a, name="x y"))
    with pytest.raises(BuildError, match="bad net name 'x y'"):
        b.seal()
