"""Parameterized circuit generators.

The family of blocks here centers on carry generation through 1-bit
sorting networks: a two-layer half sorter orders four bits enough to
read a carry straight off a middle wire, two stages after the inputs.
Around that sit the reference adders, two (7,2) compressors, a
Kogge-Stone merge adder and a 7-row column-compression harness.

Every generator returns a sealed :class:`~gatelab.core.Circuit`; the
:data:`REGISTRY` maps public block names to factories, parameter
schemas and the oracle used to verify them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Mapping

from .core import (
    ZERO,
    Circuit,
    CircuitBuilder,
    Const,
    NetlistError,
    NetRef,
)


class ParameterError(NetlistError):
    """A generator was given an unknown or out-of-range parameter."""


MIDDLE_PICKS = ("first", "second")


# ---------------------------------------------------------------------------
# sorting networks
# ---------------------------------------------------------------------------

def sorter2() -> Circuit:
    """1-bit compare-exchange: Out1 = max (OR), Out2 = min (AND)."""
    b = CircuitBuilder("sorter2", ["In1", "In2"])
    a, c = b.input("In1"), b.input("In2")
    b.set_output("Out1", b.or_(a, c, name="hi"))
    b.set_output("Out2", b.and_(a, c, name="lo"))
    return b.seal()


def half_sorter4() -> Circuit:
    """Two compare-exchange layers over four bits.

    w1 is the overall max and w4 the overall min; w2 (min of the pair
    maxima) and w3 (max of the pair minima) both lie between them, so
    w1 >= w2 >= w4 and w1 >= w3 >= w4 while {w2, w3} keeps the two
    middle values as a multiset.
    """
    b = CircuitBuilder("half_sorter4", ["i1", "i2", "i3", "i4"])
    s = sorter2()
    p = b.instantiate(s, {"In1": b.input("i1"), "In2": b.input("i2")}, name="pair12")
    q = b.instantiate(s, {"In1": b.input("i3"), "In2": b.input("i4")}, name="pair34")
    hi = b.instantiate(s, {"In1": p["Out1"], "In2": q["Out1"]}, name="upper")
    lo = b.instantiate(s, {"In1": p["Out2"], "In2": q["Out2"]}, name="lower")
    b.set_output("w1", hi["Out1"])
    b.set_output("w2", hi["Out2"])
    b.set_output("w3", lo["Out1"])
    b.set_output("w4", lo["Out2"])
    return b.seal()


def sorting_network4() -> Circuit:
    """Full 4-bit sorting network: half sorter plus a middle exchange."""
    b = CircuitBuilder("sorting_network4", ["i1", "i2", "i3", "i4"])
    half = b.instantiate(
        half_sorter4(), {p: b.input(p) for p in ("i1", "i2", "i3", "i4")}, name="half"
    )
    mid = b.instantiate(
        sorter2(), {"In1": half["w2"], "In2": half["w3"]}, name="middle"
    )
    b.set_output("o1", half["w1"])
    b.set_output("o2", mid["Out1"])
    b.set_output("o3", mid["Out2"])
    b.set_output("o4", half["w4"])
    return b.seal()


# ---------------------------------------------------------------------------
# adders
# ---------------------------------------------------------------------------

def sfa(middle_pick: str = "first") -> Circuit:
    """Sorted-carry adder over four bits.

    A half sorter orders the inputs into X (max), two middle wires and
    Z (min).  ``middle_pick`` chooses which middle wire is Y; the other
    is forwarded untouched as W.  Then Carry = Y, ready in 2 stages,
    and Sum = X·(!Y + Z).  Contract: 2·Carry + Sum + W = i1+i2+i3+i4.
    """
    if middle_pick not in MIDDLE_PICKS:
        raise ParameterError(f"middle_pick must be one of {MIDDLE_PICKS}")
    b = CircuitBuilder("sfa", ["i1", "i2", "i3", "i4"])
    half = b.instantiate(
        half_sorter4(), {p: b.input(p) for p in ("i1", "i2", "i3", "i4")}, name="sort"
    )
    x, z = half["w1"], half["w4"]
    if middle_pick == "first":
        y, w = half["w2"], half["w3"]
    else:
        y, w = half["w3"], half["w2"]
    total = b.and_(x, b.or_(b.inv(y), z), name="sum")
    b.set_output("Carry", y)
    b.set_output("Sum", total)
    b.set_output("W", w)
    return b.seal()


def traditional_fa() -> Circuit:
    """Majority-carry full adder: Carry = AB + AC + BC, Sum via two XORs."""
    b = CircuitBuilder("traditional_fa", ["A", "B", "C"])
    a, bb, c = b.input("A"), b.input("B"), b.input("C")
    carry = b.or_(
        b.or_(b.and_(a, bb, name="ab"), b.and_(a, c, name="ac")),
        b.and_(bb, c, name="bc"),
        name="carry",
    )
    total = b.xor(b.xor(a, bb, name="ab_xor"), c, name="sum")
    b.set_output("Carry", carry)
    b.set_output("Sum", total)
    return b.seal()


def adjusted_fa() -> Circuit:
    """Full adder restructured so C joins two stages before each output.

    h1 = A+B and h2 = AB are shared; Carry = C·h1 + h2 and Sum selects
    between A xor B and its inverse with C as the multiplexer control,
    so the C-to-Sum and C-to-Carry paths are both 2 stages long and C
    may trail A and B without stretching the Sum arrival.
    """
    b = CircuitBuilder("adjusted_fa", ["A", "B", "C"])
    a, bb, c = b.input("A"), b.input("B"), b.input("C")
    h1 = b.or_(a, bb, name="h1")
    h2 = b.and_(a, bb, name="h2")
    carry = b.or_(b.and_(c, h1), h2, name="carry")
    ab_xor = b.and_(h1, b.inv(h2), name="ab_xor")
    total = b.mux(c, ab_xor, b.inv(ab_xor), name="sum")
    b.set_output("Carry", carry)
    b.set_output("Sum", total)
    return b.seal()


def kogge_stone(width: int = 8) -> Circuit:
    """Parallel-prefix adder: s + 2^width·cout = a + b + cin."""
    if not isinstance(width, int) or isinstance(width, bool) or width < 1:
        raise ParameterError("width must be a positive integer")
    names = [f"a{i}" for i in range(width)]
    names += [f"b{i}" for i in range(width)]
    names.append("cin")
    b = CircuitBuilder("kogge_stone", names)
    a_bits = [b.input(f"a{i}") for i in range(width)]
    b_bits = [b.input(f"b{i}") for i in range(width)]
    cin = b.input("cin")

    p0 = [b.xor(a_bits[i], b_bits[i], name=f"p0_{i}") for i in range(width)]
    g = [b.and_(a_bits[i], b_bits[i], name=f"g0_{i}") for i in range(width)]
    p = list(p0)
    dist, stage = 1, 1
    while dist < width:
        ng, np_ = list(g), list(p)
        for i in range(dist, width):
            ng[i] = b.or_(b.and_(p[i], g[i - dist]), g[i], name=f"g{stage}_{i}")
            np_[i] = b.and_(p[i], p[i - dist], name=f"p{stage}_{i}")
        g, p = ng, np_
        dist *= 2
        stage += 1

    carries: list[NetRef] = [cin]
    for i in range(width):
        carries.append(b.or_(g[i], b.and_(p[i], cin), name=f"c{i + 1}"))
    for i in range(width):
        b.set_output(f"s{i}", b.xor(p0[i], carries[i], name=f"s_{i}"))
    b.set_output("cout", carries[width])
    return b.seal()


# ---------------------------------------------------------------------------
# (7,2) compressors
# ---------------------------------------------------------------------------

COMPRESSOR_INPUTS = tuple(f"x{i}" for i in range(1, 8)) + ("Ci1", "Ci2")


def compressor72_proposed() -> Circuit:
    """(7,2) compressor built on sorted-carry generation.

    Weighted contract over the nine weight-1 inputs:
    Sum + 2·Carry + 2·Co1 + 4·Co2 = x1..x7 + Ci1 + Ci2, with Co1/Co2
    functions of x1..x7 only.  The carry-in pair rides the A/B ports of
    the final adjusted adder and mid.Sum its late select input C, so
    every output settles within 10 stages of the inputs.  Its ``sfa``
    takes the default middle pick: the other pick rewires 6 cells but
    leaves the cell count, depth and every output arrival unchanged.
    """
    b = CircuitBuilder("compressor72_proposed", list(COMPRESSOR_INPUTS))
    x = {i: b.input(f"x{i}") for i in range(1, 8)}
    afa = adjusted_fa()

    quad = b.instantiate(
        sfa(),
        {"i1": x[1], "i2": x[2], "i3": x[3], "i4": x[4]},
        name="quad",
    )
    three = b.instantiate(
        afa, {"A": x[5], "B": x[6], "C": x[7]}, name="afa_x567"
    )
    mid = b.instantiate(
        afa, {"A": quad["Sum"], "B": three["Sum"], "C": quad["W"]}, name="afa_mid"
    )
    final = b.instantiate(
        afa,
        {"A": b.input("Ci1"), "B": b.input("Ci2"), "C": mid["Sum"]},
        name="afa_ci",
    )
    lane2 = b.instantiate(
        afa,
        {"A": quad["Carry"], "B": three["Carry"], "C": mid["Carry"]},
        name="afa_w2",
    )
    b.set_output("Sum", final["Sum"])
    b.set_output("Carry", final["Carry"])
    b.set_output("Co1", lane2["Sum"])
    b.set_output("Co2", lane2["Carry"])
    return b.seal()


def compressor72_cascade() -> Circuit:
    """Baseline (7,2) from five majority-carry full adders.

    Same port contract as the proposed block; the serial XOR chains put
    the Sum output 12 stages from the inputs.
    """
    b = CircuitBuilder("compressor72_cascade", list(COMPRESSOR_INPUTS))
    x = {i: b.input(f"x{i}") for i in range(1, 8)}
    fa = traditional_fa()

    fa1 = b.instantiate(fa, {"A": x[1], "B": x[2], "C": x[3]}, name="fa1")
    fa2 = b.instantiate(fa, {"A": x[4], "B": x[5], "C": x[6]}, name="fa2")
    fa3 = b.instantiate(
        fa, {"A": fa1["Sum"], "B": fa2["Sum"], "C": x[7]}, name="fa3"
    )
    fa4 = b.instantiate(
        fa,
        {"A": fa3["Sum"], "B": b.input("Ci1"), "C": b.input("Ci2")},
        name="fa4",
    )
    fa5 = b.instantiate(
        fa,
        {"A": fa1["Carry"], "B": fa2["Carry"], "C": fa3["Carry"]},
        name="fa5",
    )
    b.set_output("Sum", fa4["Sum"])
    b.set_output("Carry", fa4["Carry"])
    b.set_output("Co1", fa5["Sum"])
    b.set_output("Co2", fa5["Carry"])
    return b.seal()


def _resolve_compressor(compressor: str) -> Circuit:
    """The column compressor named in ``_COMP``, built by its registry factory."""
    if compressor not in _COMP.choices:
        raise ParameterError(f"compressor must be one of {list(_COMP.choices)}")
    return REGISTRY[compressor].factory()


# ---------------------------------------------------------------------------
# array harness
# ---------------------------------------------------------------------------

def _array(
    name: str, cols: int, compressor: str, prefix: str = ""
) -> tuple[CircuitBuilder, list[NetRef], list[NetRef]]:
    """Open a builder over the ``bit_<r>_<c>`` inputs and wire one
    compressor per column as instance ``<prefix>col<c>``.  Returns the
    builder, the sum row and the carry row, constants kept."""
    if not isinstance(cols, int) or isinstance(cols, bool) or cols < 1:
        raise ParameterError("cols must be a positive integer")
    comp = _resolve_compressor(compressor)
    b = CircuitBuilder(name, [f"bit_{r}_{c}" for r in range(7) for c in range(cols)])

    outs: list[dict[str, NetRef]] = []
    for c in range(cols + 2):
        bits = [b.input(f"bit_{r}_{c}") if c < cols else ZERO for r in range(7)]
        ci1 = outs[c - 1]["Co1"] if c >= 1 else ZERO
        ci2 = outs[c - 2]["Co2"] if c >= 2 else ZERO
        bind = dict(zip(COMPRESSOR_INPUTS, bits + [ci1, ci2]))
        outs.append(b.instantiate(comp, bind, name=f"{prefix}col{c}"))
    return b, [o["Sum"] for o in outs], [o["Carry"] for o in outs]


def array_reducer(cols: int = 8, compressor: str = "compressor72_proposed") -> Circuit:
    """Compress a 7-row binary array into two rows, one compressor per column.

    Inputs ``bit_<r>_<c>`` carry weight 2^c.  Column c's Co1 feeds
    column c+1's Ci1 and its Co2 feeds column c+2's Ci2; boundary
    carry-ins are tied to zero and two extra zero-fed columns soak up
    the spill past the last real column (folding shrinks them to the
    half-adder logic that remains).  Outputs: sum row ``s0..s<cols+1>``
    at weights 2^c and carry row ``y1..y<cols>`` at weights 2^(c+1);
    column 0's carry is identically zero and has no port.  ``compressor``
    names the registered block wired into every column.
    """
    b, sums, carries = _array("array_reducer", cols, compressor)
    for c, ref in enumerate(sums):
        b.set_output(f"s{c}", ref)
    for c, ref in enumerate(carries):
        if isinstance(ref, Const):
            continue  # structurally zero at the boundary
        b.set_output(f"y{c}", ref)
    return b.seal()


def pipeline(cols: int = 8, compressor: str = "compressor72_proposed") -> Circuit:
    """Array reducer followed by a Kogge-Stone merge of the two rows.

    ``cols`` and ``compressor`` are as for :func:`array_reducer`, whose
    columns are wired in place as ``reduce/col<c>``.
    The row total is at most 7·(2^cols - 1), so a cols+3 bit adder
    never overflows and its carry-out is structurally zero.  Outputs
    are the live sum bits ``s0..``; bits that fold to constant zero
    (the carry-out always, the top bit when cols = 1) have no port.
    """
    b, sums, carries = _array("pipeline", cols, compressor, "reduce/")
    width = cols + 3
    bind: dict[str, NetRef] = {"cin": ZERO}
    for i in range(width):
        bind[f"a{i}"] = sums[i] if i < len(sums) else ZERO
        bind[f"b{i}"] = carries[i - 1] if i >= 1 else ZERO
    adder = b.instantiate(kogge_stone(width), bind, name="merge")
    for i in range(width):
        if not isinstance(adder[f"s{i}"], Const):
            b.set_output(f"s{i}", adder[f"s{i}"])
    return b.seal()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    """One accepted generator parameter; the CLI derives its flag's
    type, choices and help from it.

    Its default is the generator's own keyword default, and its legal
    values are checked by the generator itself, stated nowhere else.
    """

    kind: type
    choices: tuple[Any, ...] | None = None
    help: str = ""


@dataclass(frozen=True)
class GeneratorInfo:
    factory: Callable[..., Circuit]
    params: Mapping[str, ParamSpec]
    oracle: str


@dataclass(frozen=True)
class BlockSpec:
    """A generator name plus parameter overrides; buildable and comparable."""

    generator: str
    params: Mapping[str, Any] = dc_field(default_factory=dict)

    def label(self) -> str:
        if not self.params:
            return self.generator
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.generator}({inner})"


_PICK = ParamSpec(
    str, MIDDLE_PICKS, "which middle wire of the half sorter becomes the carry"
)
_COMP = ParamSpec(
    str,
    ("compressor72_cascade", "compressor72_proposed"),  # sorted, as errors list them
    "column compressor used by array blocks",
)
_COLS = ParamSpec(int, help="array columns")

REGISTRY: dict[str, GeneratorInfo] = {
    "sorter2": GeneratorInfo(sorter2, {}, "sorter"),
    "half_sorter4": GeneratorInfo(half_sorter4, {}, "half_sorter"),
    "sorting_network4": GeneratorInfo(sorting_network4, {}, "sorter"),
    "sfa": GeneratorInfo(sfa, {"middle_pick": _PICK}, "sfa"),
    "traditional_fa": GeneratorInfo(traditional_fa, {}, "full_adder"),
    "adjusted_fa": GeneratorInfo(adjusted_fa, {}, "full_adder"),
    "compressor72_proposed": GeneratorInfo(compressor72_proposed, {}, "compressor72"),
    "compressor72_cascade": GeneratorInfo(compressor72_cascade, {}, "compressor72"),
    "kogge_stone": GeneratorInfo(
        kogge_stone, {"width": ParamSpec(int, help="adder width in bits")}, "adder"
    ),
    "array_reducer": GeneratorInfo(
        array_reducer, {"cols": _COLS, "compressor": _COMP}, "reducer"
    ),
    "pipeline": GeneratorInfo(
        pipeline, {"cols": _COLS, "compressor": _COMP}, "pipeline"
    ),
}


def build_block(spec: BlockSpec) -> Circuit:
    """Build a registered block.

    Unknown generators and parameter names are rejected here; each
    value is checked by the generator that takes it."""
    if spec.generator not in REGISTRY:
        raise ParameterError(
            f"unknown generator {spec.generator!r}; known: {sorted(REGISTRY)}"
        )
    info = REGISTRY[spec.generator]
    for key in spec.params:
        if key not in info.params:
            raise ParameterError(
                f"{spec.generator} does not take parameter {key!r}"
            )
    return info.factory(**spec.params)
