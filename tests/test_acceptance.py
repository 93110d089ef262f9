"""Acceptance gate: six checks, one verdict line each in the run summary.

Check 5 compares the two (7,2) compressors in unit cells: every 2-input
gate and every inverter counts one, and the XOR and MUX builder macros
count as the gates they expand into.  Its expected budgets are rolled up
by hand from the gate equations in the generators' docstrings, and under
that count the sorting-network build is 10 cells smaller than the
cascade.  Synthesized standard-cell area, where XOR2 and MUX2 are single
cells, is not modelled.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter

import numpy as np

from gatelab.export import from_json, to_json, to_structural_hdl
from gatelab.generators import (
    BlockSpec,
    REGISTRY,
    adjusted_fa,
    build_block,
    compressor72_cascade,
    compressor72_proposed,
    kogge_stone,
    pipeline,
    sfa,
    traditional_fa,
)
from gatelab.simulate import evaluate, evaluate_batch, exhaustive_columns
from gatelab.timing import area, arrivals, compare, depth, path_depth
from gatelab.verify import verify_cout_independence, verify_exhaustive, verify_random

# (X, Y, Z) with X >= Y >= Z mapped to (Carry, Sum)
_TRIPLE_TABLE = {
    (0, 0, 0): (0, 0),
    (1, 0, 0): (0, 1),
    (1, 1, 0): (1, 0),
    (1, 1, 1): (1, 1),
}


def _ordered_split(bits, pick):
    """Reference sort of four bits; returns the (X, Y, Z) triple and W."""
    i1, i2, i3, i4 = bits
    hi12, lo12 = max(i1, i2), min(i1, i2)
    hi34, lo34 = max(i3, i4), min(i3, i4)
    w1, w2 = max(hi12, hi34), min(hi12, hi34)
    w3, w4 = max(lo12, lo34), min(lo12, lo34)
    if pick == "first":
        return (w1, w2, w4), w3
    return (w1, w3, w4), w2


def test_criterion_1_stage_counts(criterion):
    start = time.perf_counter()
    carry_trad = arrivals(traditional_fa()).output("Carry")
    carry_sfa = arrivals(sfa()).output("Carry")
    sum_adj = arrivals(adjusted_fa()).output("Sum")
    c_to_sum = path_depth(adjusted_fa(), "C", "Sum")
    c_to_carry = path_depth(adjusted_fa(), "C", "Carry")
    elapsed = time.perf_counter() - start

    ok = (
        carry_trad == 3
        and carry_sfa == 2
        and sum_adj == 4
        and c_to_sum == 2
        and c_to_carry == 2
        and elapsed < 1.0
    )
    detail = (
        f"plain carry {carry_trad} (want 3), sorted-input carry {carry_sfa}"
        f" (want 2), late-carry sum {sum_adj} (want 4), C paths"
        f" {c_to_sum}/{c_to_carry} (want 2/2), {elapsed:.3f}s"
    )
    assert criterion(1, "full-adder stage counts", ok, detail), detail


def test_criterion_2_compressor_depths(criterion):
    start = time.perf_counter()
    d_proposed = depth(compressor72_proposed())
    d_cascade = depth(compressor72_cascade())
    elapsed = time.perf_counter() - start

    ok = d_proposed <= 11 and d_cascade >= 12 and elapsed < 1.0
    detail = (
        f"sorting-network build depth {d_proposed} (want <= 11), cascade"
        f" depth {d_cascade} (want >= 12), {elapsed:.3f}s"
    )
    assert criterion(2, "compressor depth bounds", ok, detail), detail


def test_criterion_3_exhaustive_correctness(criterion):
    start = time.perf_counter()
    problems: list[str] = []

    # both full adders against 3-bit addition, and against each other
    for block in (traditional_fa(), adjusted_fa()):
        report = verify_exhaustive(block)
        if not report.ok or report.vectors_tried != 8:
            problems.append(f"{block.name}: {report.status}")
    stim = dict(zip(("A", "B", "C"), exhaustive_columns(3)))
    if any(
        not np.array_equal(
            evaluate_batch(traditional_fa(), stim)[port],
            evaluate_batch(adjusted_fa(), stim)[port],
        )
        for port in ("Carry", "Sum")
    ):
        problems.append("full adders disagree")

    # ordered-triple truth table plus the weighted identity, both picks
    for pick in ("first", "second"):
        block = sfa(pick)
        for bits in itertools.product((0, 1), repeat=4):
            got = evaluate(block, dict(zip(("i1", "i2", "i3", "i4"), bits)))
            triple, other = _ordered_split(bits, pick)
            want_carry, want_sum = _TRIPLE_TABLE[triple]
            if (got["Carry"], got["Sum"], got["W"]) != (
                want_carry,
                want_sum,
                other,
            ):
                problems.append(f"sfa({pick}) wrong at {bits}")
            if 2 * got["Carry"] + got["Sum"] + got["W"] != sum(bits):
                problems.append(f"sfa({pick}) identity broken at {bits}")

    # weighted identity on all 512 vectors, then carry-out independence
    for block in (compressor72_proposed(), compressor72_cascade()):
        report = verify_exhaustive(block)
        if not report.ok or report.vectors_tried != 512:
            problems.append(f"{block.name}: {report.status}")
        report = verify_cout_independence(block)
        if not report.ok or report.vectors_tried != 512:
            problems.append(f"{block.name} carry-outs: {report.status}")

    # 8-bit adder over every input pair and carry-in
    report = verify_exhaustive(kogge_stone(8))
    if not report.ok or report.vectors_tried != 2**17:
        problems.append(f"kogge_stone: {report.status}")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60.0
    detail = (
        f"{'; '.join(problems) or 'all exhaustive checks pass'}, {elapsed:.1f}s"
    )
    assert criterion(3, "exhaustive correctness", ok, detail), detail


def test_criterion_4_array_harness(criterion):
    start = time.perf_counter()
    problems: list[str] = []
    for comp in ("compressor72_proposed", "compressor72_cascade"):
        pipe = pipeline(cols=8, compressor=comp)
        ones = evaluate(pipe, {name: 1 for name in pipe.inputs})
        total = sum(ones[f"s{k}"] << k for k in range(11))
        if total != 1785:
            problems.append(f"{comp}: all-ones gave {total}")
        report = verify_random(pipe, seed=1, count=100_000)
        if not report.ok:
            problems.append(f"{comp}: {report.status}")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 120.0
    detail = (
        f"{'; '.join(problems) or 'all-ones = 1785 and 100000 random arrays'}"
        f" per compressor, {elapsed:.1f}s"
    )
    assert criterion(4, "7x8 reduction harness", ok, detail), detail


# Unit-cell budget of each block as drawn: (own 2-input gates, own
# inverters, {sub-block: instance count}).  Each line is derived from the
# block's documented gate equations, never from area() of the block.
_XOR = (3, 1)  # (a+b)·!(ab): OR, AND, AND, with an INV on ab
_MUX = (3, 1)  # !s·w0 + s·w1: AND, AND, OR, with an INV on the select
_CELL_BUDGETS = {
    # Out1 = In1 + In2, Out2 = In1·In2
    "sorter2": (2, 0, {}),
    # two compare-exchange layers of two sorter2 each
    "half_sorter4": (0, 0, {"sorter2": 4}),
    # Sum = X·(!Y + Z): OR, AND, with an INV on Y; Carry and W are wires
    "sfa": (2, 1, {"half_sorter4": 1}),
    # h1 = A+B, h2 = AB, Carry = C·h1 + h2, ab_xor = h1·!h2: 5 gates and
    # INV(h2); Sum = MUX(C, ab_xor, !ab_xor): INV(ab_xor) plus a MUX
    "adjusted_fa": (5 + _MUX[0], 2 + _MUX[1], {}),
    # Carry = AB + AC + BC: 3 AND, 2 OR; Sum = (A xor B) xor C: two XORs
    "traditional_fa": (5 + 2 * _XOR[0], 2 * _XOR[1], {}),
    # one sfa on x1..x4; adjusted adders on x5..x7, the middle sum, the
    # carry-ins and the weight-2 lane
    "compressor72_proposed": (0, 0, {"sfa": 1, "adjusted_fa": 4}),
    # five majority-carry full adders, fa1..fa5
    "compressor72_cascade": (0, 0, {"traditional_fa": 5}),
}


def _rolled_up(block: str) -> tuple[int, int]:
    """(2-input gates, inverters) of ``block`` summed over its sub-blocks."""
    basic, inverters, subs = _CELL_BUDGETS[block]
    for sub, count in subs.items():
        sub_basic, sub_inverters = _rolled_up(sub)
        basic += count * sub_basic
        inverters += count * sub_inverters
    return basic, inverters


def test_criterion_5_cell_count_direction(criterion):
    # No constant reaches either compressor, so nothing folds and the
    # budgets as drawn are the counts to expect.
    problems: list[str] = []
    want = {name: _rolled_up(name) for name in _CELL_BUDGETS}
    measured = {}
    for name, (_, _, subs) in _CELL_BUDGETS.items():
        block = build_block(BlockSpec(name))
        made_of = dict(Counter(inst.block for inst in block.instances))
        if made_of != subs:
            problems.append(f"{name} is built from {made_of}, want {subs}")
        got = measured[name] = area(block)
        basic, inverters = want[name]
        if (got.basic, got.inverters, got.total) != (
            basic,
            inverters,
            basic + inverters,
        ):
            problems.append(
                f"{name}: area() gives {got.basic} gates + {got.inverters}"
                f" inverters = {got.total}, want {basic} + {inverters}"
            )

    names = ("compressor72_proposed", "compressor72_cascade")
    totals = {name: sum(want[name]) for name in names}
    report = compare([build_block(BlockSpec(name)) for name in names]).to_dict()
    reported = {b["block"]: b["area"]["total"] for b in report["blocks"]}
    if reported != totals:
        problems.append(f"compare() reports {reported}, want {totals}")
    fewer = totals["compressor72_cascade"] - totals["compressor72_proposed"]
    if report["delta"]["total"] != fewer:
        problems.append(
            f"compare() delta {report['delta']['total']}, want {fewer}"
        )

    # the roll-up puts the sorting-network build below the cascade
    proposed, cascade = (measured[name] for name in names)
    if not proposed.total < cascade.total:
        problems.append(
            f"sorting-network build {proposed.total} cells is not below"
            f" the cascade's {cascade.total}"
        )

    ok = not problems
    detail = (
        "unit cells: 2-input gates + inverters, XOR/MUX expanded; "
        + (
            "; ".join(problems)
            or f"sorting-network build {proposed.total} cells"
            f" ({proposed.basic} gates + {proposed.inverters} inverters),"
            f" cascade {cascade.total} cells ({cascade.basic} gates +"
            f" {cascade.inverters} inverters), {fewer} fewer, as rolled up"
            " from the gate equations"
        )
    )
    assert criterion(5, "cell-count direction", ok, detail), detail


def test_criterion_6_round_trip_stability(criterion):
    start = time.perf_counter()
    problems: list[str] = []
    for name in REGISTRY:
        block = build_block(BlockSpec(name))
        rebuilt = from_json(to_json(block))
        n = len(block.inputs)
        if n <= 12:
            stim = dict(zip(block.inputs, exhaustive_columns(n)))
        else:
            rng = np.random.default_rng(0)
            stim = {
                p: rng.integers(0, 2, size=1000, dtype=np.uint8)
                for p in block.inputs
            }
        before = evaluate_batch(block, stim)
        after = evaluate_batch(rebuilt, stim)
        if any(not np.array_equal(before[p], after[p]) for p in block.outputs):
            problems.append(f"{name}: evaluation changed")
        if to_structural_hdl(block) != to_structural_hdl(build_block(BlockSpec(name))):
            problems.append(f"{name}: unstable module text")
    elapsed = time.perf_counter() - start
    ok = not problems
    detail = (
        f"{'; '.join(problems) or f'{len(REGISTRY)} blocks round-trip'},"
        f" {elapsed:.1f}s"
    )
    assert criterion(6, "round-trip stability", ok, detail), detail
