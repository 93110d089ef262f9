"""Stage arrivals, slacks, critical paths, area, and comparisons."""

from __future__ import annotations

import json

import pytest

from gatelab.core import CircuitBuilder, NetlistError
from gatelab.generators import (
    adjusted_fa,
    array_reducer,
    compressor72_cascade,
    compressor72_proposed,
    half_sorter4,
    pipeline,
    sfa,
    sorter2,
    sorting_network4,
    traditional_fa,
)
from gatelab.timing import (
    area,
    arrivals,
    compare,
    depth,
    path_depth,
    slack_to_input,
)

INV1 = 1


# ---------------------------------------------------------------------------
# arrivals under the default model
# ---------------------------------------------------------------------------

def test_output_arrivals_of_every_leaf_block():
    expected = {
        sorter2: {"Out1": 1, "Out2": 1},
        half_sorter4: {"w1": 2, "w2": 2, "w3": 2, "w4": 2},
        sorting_network4: {"o1": 2, "o2": 3, "o3": 3, "o4": 2},
        sfa: {"Carry": 2, "Sum": 4, "W": 2},
        traditional_fa: {"Carry": 3, "Sum": 4},
        adjusted_fa: {"Carry": 3, "Sum": 4},
        compressor72_proposed: {"Sum": 10, "Carry": 10, "Co1": 9, "Co2": 9},
        compressor72_cascade: {"Sum": 12, "Carry": 11, "Co1": 9, "Co2": 10},
    }
    for factory, outs in expected.items():
        amap = arrivals(factory())
        assert amap.output_arrival == outs, factory.__name__


def test_depth_shortcuts():
    assert depth(compressor72_proposed()) == 10
    assert depth(compressor72_cascade()) == 12
    assert depth(sorting_network4()) == 3


def test_inverters_cost_one_stage_when_asked():
    assert arrivals(sfa(), INV1).output("Sum") == 5
    assert arrivals(traditional_fa(), INV1).output("Sum") == 6
    assert arrivals(sfa(), INV1).output("Carry") == 2


# The paper's 7-row array under unit stages.  Each entry is the depth with
# inverters free, the depth with inverters counted, and the cell count.
# From 3 columns on the two compressors tie in depth; the sorting-network
# array keeps the fewer cells.
ARRAY_TABLE = {
    (array_reducer, 1): {"proposed": (9, 12, 47), "cascade": (10, 12, 52)},
    (array_reducer, 2): {"proposed": (11, 15, 101), "cascade": (12, 15, 114)},
    (array_reducer, 3): {"proposed": (13, 18, 156), "cascade": (13, 18, 179)},
    (array_reducer, 8): {"proposed": (13, 18, 431), "cascade": (13, 18, 504)},
    (pipeline, 8): {"proposed": (22, 29, 558), "cascade": (22, 29, 631)},
}


@pytest.mark.parametrize(
    "factory, cols, compressor",
    [(f, cols, comp) for f, cols in ARRAY_TABLE for comp in ("proposed", "cascade")],
)
def test_array_depths_and_cells(factory, cols, compressor):
    c = factory(cols=cols, compressor=f"compressor72_{compressor}")
    measured = (depth(c), depth(c, INV1), len(c.cells))
    assert measured == ARRAY_TABLE[factory, cols][compressor]


def test_stage_model_validation():
    # only the ints 0 and 1: a bool or float would leak into reports
    for bad in (2, True, 1.0):
        with pytest.raises(NetlistError):
            arrivals(sorter2(), inv_cost=bad)


# ---------------------------------------------------------------------------
# per-input paths and slack
# ---------------------------------------------------------------------------

def test_late_carry_paths_in_adjusted_fa():
    c = adjusted_fa()
    assert path_depth(c, "C", "Sum") == 2
    assert path_depth(c, "C", "Carry") == 2
    assert path_depth(c, "A", "Sum") == 4
    assert slack_to_input(c, "C", "Sum") == 2
    assert slack_to_input(c, "C", "Carry") == 1
    assert slack_to_input(c, "A", "Sum") == 0


def test_late_c_arrival_hides_behind_the_slack():
    c = adjusted_fa()
    amap = arrivals(c, input_arrivals={"C": 2})
    assert amap.output("Sum") == 4
    assert amap.output("Carry") == 4


def test_unconnected_pair_has_no_path_and_no_slack():
    b = CircuitBuilder("split", ["a", "b"])
    b.set_output("oa", b.inv(b.input("a")))
    b.set_output("ob", b.and_(b.input("b"), b.input("b")))
    c = b.seal()
    assert path_depth(c, "a", "ob") is None
    assert slack_to_input(c, "a", "ob") is None
    assert path_depth(c, "b", "ob") == 1


def test_path_endpoints_validated():
    c = adjusted_fa()
    with pytest.raises(NetlistError):
        path_depth(c, "Q", "Sum")
    with pytest.raises(NetlistError):
        path_depth(c, "A", "Q")


def test_input_arrival_overrides_validated():
    c = adjusted_fa()
    with pytest.raises(NetlistError):
        arrivals(c, input_arrivals={"Q": 1})
    with pytest.raises(NetlistError):
        arrivals(c, input_arrivals={"C": -1})
    with pytest.raises(NetlistError):
        arrivals(c, input_arrivals={"C": True})


def test_critical_nets_trace_the_slowest_cone():
    c = adjusted_fa()
    amap = arrivals(c)
    crit = amap.critical_nets("Sum")
    assert c.net_names[c.output_net("Sum")] in crit
    assert "C" not in crit  # its longest path (2) is inside the slack
    assert "A" in crit or "B" in crit
    overall = amap.critical_nets()
    assert set(crit) <= set(overall)


# ---------------------------------------------------------------------------
# area and comparison
# ---------------------------------------------------------------------------

def test_area_counts_inverters_separately():
    rep = area(sfa())
    assert rep.counts == {"AND2": 5, "OR2": 5, "NAND2": 0, "NOR2": 0, "INV": 1}
    assert rep.basic == 10
    assert rep.inverters == 1
    assert rep.total == 11
    rep = area(adjusted_fa())
    assert (rep.basic, rep.inverters) == (8, 3)
    rep = area(traditional_fa())
    assert (rep.basic, rep.inverters) == (11, 2)


def test_stage_counts_are_ints_and_kinds_keep_their_order():
    # DOT stamps "@<arrival>" and JSON reports print these numbers.
    c = adjusted_fa()
    amap = arrivals(c, input_arrivals={"C": 2})
    assert all(type(at) is int for at in amap.net_arrival)
    paths = [path_depth(c, i, o) for i in c.inputs for o in c.outputs]
    assert all(type(d) is int for d in paths)
    assert list(area(c).counts) == ["AND2", "OR2", "NAND2", "NOR2", "INV"]


def test_compare_two_compressors():
    report = compare([compressor72_proposed(), compressor72_cascade()])
    doc = report.to_dict()
    assert [b["block"] for b in doc["blocks"]] == [
        "compressor72_proposed",
        "compressor72_cascade",
    ]
    assert doc["delta"] == {"depth": 2, "basic": 13, "inverters": -3, "total": 10}
    text = report.to_text()
    assert "compressor72_proposed" in text and "cells" in text
    assert report.to_json() == report.to_json()
    assert json.loads(report.to_json())["schema_version"] == "1"


def test_compare_three_blocks_has_no_delta():
    report = compare([sorter2(), sfa(), adjusted_fa()])
    assert "delta" not in report.to_dict()
    assert len(report.to_dict()["blocks"]) == 3
