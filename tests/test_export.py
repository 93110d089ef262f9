"""JSON round-trips, structural HDL, DOT graphs, atomic writes."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatelab.core import Circuit, CircuitBuilder, GateKind
from gatelab.export import (
    FormatError,
    from_json,
    render,
    to_document,
    to_dot,
    to_json,
    to_structural_hdl,
    write_text,
)
from gatelab.generators import REGISTRY, BlockSpec, adjusted_fa, build_block, sfa, sorter2
from gatelab.simulate import evaluate_batch, exhaustive_columns
from gatelab.timing import arrivals

SORTER2_HDL = """\
module sorter2 (
  input In1,
  input In2,
  output Out1,
  output Out2
);
  wire hi;
  wire lo;
  or g0 (hi, In1, In2);
  and g1 (lo, In1, In2);
  assign Out1 = hi;
  assign Out2 = lo;
endmodule
"""


def assert_equivalent(c1: Circuit, c2: Circuit, seed: int = 0) -> None:
    """Exhaustive up to 12 inputs, 1000 seeded vectors beyond."""
    n = len(c1.inputs)
    if n <= 12:
        cols = exhaustive_columns(n)
        mat = {p: cols[i] for i, p in enumerate(c1.inputs)}
    else:
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 2, size=(1000, n), dtype=np.uint8)
        mat = dict(zip(c1.inputs, np.ascontiguousarray(m.T)))
    o1 = evaluate_batch(c1, mat)
    o2 = evaluate_batch(c2, mat)
    assert o1.keys() == o2.keys()
    for k in o1:
        assert (o1[k] == o2[k]).all(), k


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_document_shape_for_sorter2():
    doc = to_document(sorter2())
    assert doc["schema_version"] == "1"
    assert len(doc["inputs"]) == 2
    assert len(doc["outputs"]) == 2
    assert len(doc["cells"]) == 2
    assert doc["cells"][0]["id"] == "g0"


def test_every_block_round_trips_bytes_and_behavior():
    for name in REGISTRY:
        c = build_block(BlockSpec(name))
        text = to_json(c)
        back = from_json(text)
        assert to_json(back) == text, name
        assert back.inputs == c.inputs and back.outputs == c.outputs
        assert_equivalent(c, back)


def test_parsed_sorter_still_sorts():
    c = from_json(to_json(sorter2()))
    cols = {"In1": np.array([0], np.uint8), "In2": np.array([1], np.uint8)}
    out = evaluate_batch(c, cols)
    assert (int(out["Out1"][0]), int(out["Out2"][0])) == (1, 0)


def test_truncated_document_reports_position():
    text = to_json(sorter2())[:80]
    with pytest.raises(FormatError, match="line"):
        from_json(text)


def test_macro_kinds_are_not_persisted():
    doc = to_document(sorter2())
    doc["cells"][0]["kind"] = "XOR2"
    with pytest.raises(FormatError, match="macro"):
        from_json(json.dumps(doc))


def test_unknown_kind_rejected():
    doc = to_document(sorter2())
    doc["cells"][0]["kind"] = "XNOR9"
    with pytest.raises(FormatError, match="unknown cell kind"):
        from_json(json.dumps(doc))


def test_cells_must_follow_their_drivers():
    doc = {
        "schema_version": "1",
        "name": "t",
        "inputs": ["a"],
        "outputs": [{"name": "o", "net": "n2"}],
        "cells": [
            {"id": "g0", "kind": "INV", "inputs": ["n1"], "output": "n2"},
            {"id": "g1", "kind": "INV", "inputs": ["a"], "output": "n1"},
        ],
    }
    with pytest.raises(FormatError, match="not defined yet"):
        from_json(json.dumps(doc))


def test_schema_version_checked():
    doc = to_document(sorter2())
    doc["schema_version"] = "9"
    with pytest.raises(FormatError, match="schema_version"):
        from_json(json.dumps(doc))


def test_duplicate_nets_and_ids_rejected():
    doc = to_document(sorter2())
    doc["cells"][1]["output"] = "hi"
    with pytest.raises(FormatError, match="twice"):
        from_json(json.dumps(doc))
    doc = to_document(sorter2())
    doc["cells"][1]["id"] = "g0"
    with pytest.raises(FormatError, match="id"):
        from_json(json.dumps(doc))


def test_arity_violations_rejected():
    doc = to_document(sorter2())
    doc["cells"][0]["inputs"] = ["In1"]
    with pytest.raises(FormatError, match="takes"):
        from_json(json.dumps(doc))


def test_outputs_must_reference_defined_nets():
    doc = to_document(sorter2())
    doc["outputs"][0]["net"] = "ghost"
    with pytest.raises(FormatError, match="ghost"):
        from_json(json.dumps(doc))


def test_names_that_would_break_dot_are_rejected():
    doc = to_document(sorter2())
    doc["name"] = 'evil" ] ; x'
    with pytest.raises(FormatError, match="bad circuit name"):
        from_json(json.dumps(doc))
    doc = to_document(sorter2())
    doc["cells"][0]["output"] = doc["outputs"][0]["net"] = 'n"1'
    with pytest.raises(FormatError, match="bad net name"):
        from_json(json.dumps(doc))


def test_document_must_be_an_object_with_required_keys():
    with pytest.raises(FormatError):
        from_json("[]")
    with pytest.raises(FormatError, match="required"):
        from_json('{"schema_version": "1"}')


@st.composite
def random_circuits(draw):
    n_inputs = draw(st.integers(1, 4))
    b = CircuitBuilder("rand", [f"in{i}" for i in range(n_inputs)])
    refs = [b.input(f"in{i}") for i in range(n_inputs)]
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(sorted(GateKind, key=lambda k: k.name)))
        if kind is GateKind.INV:
            refs.append(b.inv(draw(st.sampled_from(refs))))
        else:
            a = draw(st.sampled_from(refs))
            c = draw(st.sampled_from(refs))
            refs.append(b.add_gate(kind, a, c))
    for k in range(draw(st.integers(1, 3))):
        b.set_output(f"o{k}", draw(st.sampled_from(refs)))
    return b.seal()


@settings(max_examples=100, deadline=None)
@given(random_circuits())
def test_round_trip_is_stable_on_random_circuits(circuit):
    text = to_json(circuit)
    back = from_json(text)
    assert to_json(back) == text
    assert_equivalent(circuit, back)


# ---------------------------------------------------------------------------
# HDL
# ---------------------------------------------------------------------------

def test_sorter2_hdl_golden():
    assert to_structural_hdl(sorter2()) == SORTER2_HDL


def test_hdl_uses_only_primitives_and_is_deterministic():
    c = build_block(BlockSpec("compressor72_proposed"))
    text = to_structural_hdl(c)
    assert text == to_structural_hdl(c)
    assert not any(
        line.strip().startswith(("xor ", "buf ")) for line in text.splitlines()
    )
    assert "/" not in text
    for line in text.splitlines():
        line = line.strip()
        if line and line[0].isalpha() and line.split()[0] not in (
            "module", "endmodule", "input", "output", "wire", "assign",
        ):
            assert line.split()[0] in ("and", "or", "nand", "nor", "not"), line


def test_hdl_identifier_sanitization():
    b = CircuitBuilder("t", ["a", "b"])
    x, y = b.input("a"), b.input("b")
    b.set_output("o1", b.and_(x, y, name="n/x"))
    b.set_output("o2", b.or_(x, y, name="n_x"))
    b.set_output("o3", b.nor_(x, y, name="wire"))
    text = to_structural_hdl(b.seal())
    assert "/" not in text
    assert "wire wire_w;" in text
    # the slash name and the underscore name must not collide
    assert "n_x_2" in text


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def test_dot_node_count_invariant():
    for name in ("sorter2", "sfa", "compressor72_cascade"):
        c = build_block(BlockSpec(name))
        text = to_dot(c)
        nodes = text.count("[shape=")
        assert nodes == len(c.inputs) + len(c.cells) + len(c.outputs)


def test_dot_annotations_carry_stages():
    c = adjusted_fa()
    text = to_dot(c, arrivals(c))
    assert "@4" in text
    assert text == to_dot(c, arrivals(c))
    plain = to_dot(c)
    assert "@" not in plain


def test_dot_rejects_foreign_annotations():
    with pytest.raises(FormatError, match="different circuit"):
        to_dot(sfa(), arrivals(sorter2()))


# ---------------------------------------------------------------------------
# files and dispatch
# ---------------------------------------------------------------------------

def test_write_text_is_atomic_and_leaves_no_droppings(tmp_path):
    target = tmp_path / "out.json"
    write_text(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    assert os.listdir(tmp_path) == ["out.json"]
    write_text(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"


def test_render_dispatch():
    c = sorter2()
    assert render(c, "json") == to_json(c)
    assert render(c, "hdl") == to_structural_hdl(c)
    assert render(c, "dot") == to_dot(c)
    with pytest.raises(FormatError):
        render(c, "svg")
