"""Semantic verification against arithmetic oracles.

Each block family has an oracle that recomputes the intended result
with plain integer arithmetic (never with the netlist itself) and
compares.  Each oracle is stated once, either as a weight 2^e per input
and output port or as the expected value of each named quantity, and
both its vector ``check`` and its scalar ``explain`` derive from that
statement; the registry names the oracle of each block.

Exhaustive sweeps cover every input combination up to a hard bound of
24 inputs; above that, a seeded random mode draws from numpy's
default_rng (PCG64) after always trying a small structured suite (all
zeros, all ones, one-hot walk, per-column saturation).  The random
stream is bit 7 of each byte of PCG64's little-endian raw words, which
equals ``default_rng(seed).integers(0, 2, (count, n), np.uint8)``;
tests pin the equality.

Failures report the first counterexample in scan order; for
exhaustive mode that is the lexicographically first failing input
tuple, because enumeration order is lexicographic (see simulate).
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import SCHEMA_VERSION, Circuit, NetlistError
from .generators import REGISTRY
from .simulate import engine_bytes, evaluate_batch, exhaustive_columns, iter_exhaustive

EXHAUSTIVE_INPUT_BOUND = 24
PRNG_NAME = "numpy default_rng (PCG64)"


class ExhaustiveBoundError(NetlistError):
    """Exhaustive verification was asked for too wide an input space."""


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

Columns = Mapping[str, np.ndarray]
Values = Mapping[str, int]
#: Port names -> the exponent e of each port's weight 2^e.
Exponents = Callable[[Sequence[str]], dict[str, int]]


@dataclass(frozen=True)
class Oracle:
    """A named semantic contract: a vectorized pass mask plus a per-vector
    expected/actual explanation used in counterexample reports."""

    name: str
    check: Callable[[Columns, Columns], np.ndarray]
    explain: Callable[[Values, Values], tuple[dict, dict]]


def _per_quantity(name: str, quantities: Callable) -> Oracle:
    """An oracle from ``quantities(ins, outs) -> (expected, actual)``.

    The same arithmetic runs on int64 columns in ``check`` and on one
    vector's ints in ``explain``; a row passes when every expected
    quantity equals the actual one of the same name.
    """

    def check(ins: Columns, outs: Columns) -> np.ndarray:
        expected, actual = quantities(_int64(ins), _int64(outs))
        return np.logical_and.reduce([expected[k] == actual[k] for k in expected])

    return Oracle(name, check, quantities)


def _int64(cols: Columns) -> dict[str, np.ndarray]:
    return {port: np.asarray(col, dtype=np.int64) for port, col in cols.items()}


_CARRY_TYPES = (np.int8, np.int16, np.int32, np.int64)


def _weighted(
    name: str,
    in_label: str,
    in_exponents: Exponents,
    out_label: str,
    out_exponents: Exponents,
) -> Oracle:
    """The oracle sum(in_p * 2^e_p) == sum(out_p * 2^e_p) over all ports."""

    def check(ins: Columns, outs: Columns) -> np.ndarray:
        # Cancel the two sums one weight at a time, carrying the remainder
        # upward: a row fails when a remainder is odd or the last is not
        # zero.  Before weight e is shifted out, |carry| is at most the
        # number of ports of weight e or below (halving never grows it),
        # so the narrowest signed type that holds +-ports is exact at any
        # width: int8 up to 127 ports, then int16, int32.
        terms = defaultdict(list)  # exponent -> [(column, np.add | np.subtract)]
        for port, e in in_exponents(tuple(ins)).items():
            terms[e].append((ins[port], np.add))
        for port, e in out_exponents(tuple(outs)).items():
            terms[e].append((outs[port], np.subtract))
        ports = sum(map(len, terms.values()))
        dtype = next(t for t in _CARRY_TYPES if ports <= np.iinfo(t).max)
        carry = np.zeros(len(next(iter(ins.values()))), dtype)
        odd = np.zeros_like(carry)  # bit 0 set once any remainder was odd
        for e in range(max(terms) + 1):
            for column, accumulate in terms.get(e, ()):
                column = np.asarray(column)
                if column.dtype == np.uint8:
                    # 0/1 either way; as int8, an int8 carry adds it with
                    # no cast (a mixed add would run in int16 and cast).
                    column = column.view(np.int8)
                accumulate(carry, column, out=carry)
            odd |= carry
            carry >>= 1
        return ((odd & 1) == 0) & (carry == 0)

    def explain(ins: Values, outs: Values) -> tuple[dict, dict]:
        expected = _total(ins, in_exponents)
        return {in_label: expected}, {out_label: _total(outs, out_exponents)}

    return Oracle(name, check, explain)


def _total(values: Values, exponents: Exponents) -> int:
    return sum(values[port] << e for port, e in exponents(tuple(values)).items())


def _each(exponent: Callable[[str], int]) -> Exponents:
    return lambda ports: {port: exponent(port) for port in ports}


def _fixed(**exponents: int) -> Exponents:
    return _each(exponents.__getitem__)


def _adder_outputs(ports: Sequence[str]) -> dict[str, int]:
    # s<i> at 2^i and cout one weight above the top sum bit
    return {p: len(ports) - 1 if p == "cout" else int(p[1:]) for p in ports}


_UNIT = _each(lambda port: 0)
_INDEX = _each(lambda port: int(port[1:]))  # s<i> -> i
_COLUMN = _each(lambda port: int(port.rsplit("_", 1)[1]))  # bit_<r>_<c> -> c


def _sorted_bits(ins: Values) -> list:
    """The input bits sorted high to low: bit k is set when more than k
    inputs are."""
    total = sum(ins.values())
    return [(total > k) * 1 for k in range(len(ins))]


def _sorter(ins: Values, outs: Values):
    return dict(zip(outs, _sorted_bits(ins))), dict(outs)


def _half_sorter(ins: Values, outs: Values):
    # w1 is the max and w4 the min; the middle pair counts as a multiset
    top, mid1, mid2, bottom = _sorted_bits(ins)
    return (
        {"w1": top, "w2 + w3": mid1 + mid2, "w4": bottom},
        {"w1": outs["w1"], "w2 + w3": outs["w2"] + outs["w3"], "w4": outs["w4"]},
    )


def _full_adder(ins: Values, outs: Values):
    total = ins["A"] + ins["B"] + ins["C"]
    return {"Carry": total >> 1, "Sum": total & 1}, dict(outs)


ORACLES: dict[str, Oracle] = {
    "sorter": _per_quantity("sorter", _sorter),
    "half_sorter": _per_quantity("half_sorter", _half_sorter),
    "full_adder": _per_quantity("full_adder", _full_adder),
    "sfa": _weighted(
        "sfa", "total", _UNIT, "2*Carry + Sum + W", _fixed(Carry=1, Sum=0, W=0)
    ),
    "compressor72": _weighted(
        "compressor72",
        "total",
        _UNIT,
        "Sum + 2*Carry + 2*Co1 + 4*Co2",
        _fixed(Sum=0, Carry=1, Co1=1, Co2=2),
    ),
    "adder": _weighted(
        "adder",
        "a + b + cin",
        _each(lambda port: 0 if port == "cin" else int(port[1:])),
        "s + 2^w*cout",
        _adder_outputs,
    ),
    "reducer": _weighted(
        "reducer",
        "array total",
        _COLUMN,
        "two-row total",
        _each(lambda port: int(port[1:]) + (port[0] == "y")),  # y<c> sits one up
    ),
    "pipeline": _weighted("pipeline", "sum of rows", _COLUMN, "merged value", _INDEX),
}


def resolve_oracle(circuit: Circuit) -> Oracle:
    """The oracle the registry names for a block of the circuit's name,
    looked up in ``ORACLES`` at call time."""
    info = REGISTRY.get(circuit.name)
    if info is None:
        raise NetlistError(f"no oracle for {circuit.name!r}: not a registry block")
    return ORACLES[info.oracle]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    block: str
    oracle: str
    mode: str
    inputs: int
    vectors_tried: int
    status: str
    counterexample: dict | None = None
    prng: str | None = None
    seed: int | None = None
    structured_count: int | None = None
    random_count: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "block": self.block,
            "oracle": self.oracle,
            "mode": self.mode,
            "inputs": self.inputs,
            "vectors_tried": self.vectors_tried,
            "prng": self.prng,
            "seed": self.seed,
            "structured_count": self.structured_count,
            "random_count": self.random_count,
            "status": self.status,
            "counterexample": self.counterexample,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _counterexample(
    circuit: Circuit,
    oracle: Oracle,
    columns: Columns,
    outputs: Columns,
    local: int,
    index: int | None,
) -> dict:
    vec = {port: int(columns[port][local]) for port in circuit.inputs}
    out = {port: int(outputs[port][local]) for port in circuit.outputs}
    expected, actual = oracle.explain(vec, out)
    return {"index": index, "vector": vec, "expected": expected, "actual": actual}


# ---------------------------------------------------------------------------
# verification modes
# ---------------------------------------------------------------------------

def verify_exhaustive(circuit: Circuit) -> VerificationReport:
    """Check every input combination; refuses above 24 inputs."""
    n = len(circuit.inputs)
    if n > EXHAUSTIVE_INPUT_BOUND:
        raise ExhaustiveBoundError(
            f"{circuit.name} has {n} inputs; exhaustive mode stops at "
            f"{EXHAUSTIVE_INPUT_BOUND}. Use random mode with a seed instead."
        )
    orc = resolve_oracle(circuit)
    failure: dict | None = None
    for offset, columns in iter_exhaustive(circuit):
        outs = evaluate_batch(circuit, columns)
        ok = orc.check(columns, outs)
        if failure is None and not bool(np.all(ok)):
            local = int(np.argmin(ok))
            failure = _counterexample(
                circuit, orc, columns, outs, local, offset + local
            )
    return VerificationReport(
        block=circuit.name,
        oracle=orc.name,
        mode="exhaustive",
        inputs=n,
        vectors_tried=1 << n,
        status="pass" if failure is None else "fail",
        counterexample=failure,
    )


def _array_columns(circuit: Circuit) -> list[int]:
    """The column c of each input of an array-shaped block
    (``bit_<r>_<c>`` inputs) in port order; empty for any other block."""
    if not all(p.startswith("bit_") for p in circuit.inputs):
        return []
    return list(_COLUMN(circuit.inputs).values())


def structured_rows(circuit: Circuit) -> np.ndarray:
    """All-zeros, all-ones, the one-hot walk, and for array-shaped
    blocks (``bit_<r>_<c>`` inputs) each fully saturated column.

    The (rows, inputs) result is a view of a column-major array, so
    each input's column is contiguous.
    """
    n = len(circuit.inputs)
    column = _array_columns(circuit)
    saturated = sorted(set(column))
    suite = np.zeros((n, 2 + n + len(saturated)), np.uint8)
    suite[:, 1] = 1
    np.fill_diagonal(suite[:, 2:], 1)
    if saturated:
        suite[:, 2 + n :] = np.equal.outer(column, saturated)
    return suite.T


# Random rows are drawn this many at a time and transposed into the
# stimulus.  The stream is bit 7 of each byte of PCG64's little-endian
# raw words, which equals default_rng(seed).integers(0, 2, (count, n),
# np.uint8): numpy draws each uint8 from one byte of the same words and
# maps byte b into [0, 2) as (2 * b) >> 8 (tests pin the equality).  A
# raw word holds 8 values and a block drops its last word's unused bytes,
# so the blocks continue one stream only when each holds a multiple of 8
# values: keep this a multiple of 8.  512 rows drew the 224-input array
# fastest (a block of 115 KB stays in cache).
RANDOM_BLOCK_ROWS = 512


def _stimulus_buffer(circuit: Circuit, vectors: int) -> np.ndarray:
    """An uninitialised (inputs, vectors) uint8 buffer, refused with a
    ``NetlistError`` when it, or it and the engine's arrays for the same
    vectors, would not fit in the host's memory."""
    n = len(circuit.inputs)
    size = n * vectors
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    need = f"{circuit.name}: {vectors:,} vectors x {n} inputs need {size:,} bytes"
    more = f"more than the host's {physical:,} bytes of memory"
    if size > physical:
        raise NetlistError(f"{need}, {more}")
    engine = engine_bytes(circuit, vectors)
    if size + engine > physical:
        raise NetlistError(f"{need} plus {engine:,} for the engine, {more}")
    try:
        return np.empty((n, vectors), np.uint8)
    except MemoryError:
        raise NetlistError(f"{need}, which could not be allocated") from None


def verify_random(
    circuit: Circuit, *, seed: int = 0, count: int = 1000
) -> VerificationReport:
    """The structured suite plus ``count`` seeded random vectors, checked
    against the oracle the registry names for the block.

    The vectors are the rows of :func:`structured_rows`, then ``count``
    random rows of n bits: bit 7 of each byte of PCG64's little-endian
    raw words from ``default_rng(seed)``, which equals the single draw
    ``default_rng(seed).integers(0, 2, (count, n), np.uint8)``; tests pin
    the equality.
    The stimulus is held column-major: one (n, vectors) uint8 buffer,
    allocated once, whose rows the engine and the oracle read as
    contiguous input columns.  Random rows are drawn in blocks and
    written transposed, so no row-major copy of the whole draw exists.
    A run whose stimulus, or stimulus plus the engine's arrays, exceeds
    the host's physical memory is refused with a ``NetlistError``
    before anything is allocated, as is one whose allocation fails.
    """
    if count < 0:
        raise NetlistError("count must be >= 0")
    if seed < 0:
        raise NetlistError("seed must be >= 0")
    orc = resolve_oracle(circuit)
    n = len(circuit.inputs)
    n_structured = 2 + n + len(set(_array_columns(circuit)))
    stimulus = _stimulus_buffer(circuit, n_structured + count)
    stimulus[:, :n_structured] = structured_rows(circuit).T
    raw = np.random.default_rng(seed).bit_generator.random_raw
    drawn = stimulus[:, n_structured:]
    for start in range(0, count, RANDOM_BLOCK_ROWS):
        rows = min(RANDOM_BLOCK_ROWS, count - start)
        words = raw(-(-rows * n // 8)).astype("<u8", copy=False)
        block = words.view(np.uint8)[: rows * n].reshape(rows, n)
        np.right_shift(block.T, 7, out=drawn[:, start : start + rows])
    columns = dict(zip(circuit.inputs, stimulus))
    outs = evaluate_batch(circuit, columns)
    ok = orc.check(columns, outs)
    failure = None
    if not bool(np.all(ok)):
        local = int(np.argmin(ok))
        failure = _counterexample(circuit, orc, columns, outs, local, local)
    return VerificationReport(
        block=circuit.name,
        oracle=orc.name,
        mode="random",
        inputs=n,
        vectors_tried=stimulus.shape[1],
        status="pass" if failure is None else "fail",
        counterexample=failure,
        prng=PRNG_NAME,
        seed=seed,
        structured_count=n_structured,
        random_count=count,
    )


def verify_cout_independence(circuit: Circuit) -> VerificationReport:
    """Co1 and Co2 must not depend on the carry-ins.

    Sweeps all 128 x-vectors against all four (Ci1, Ci2) pairs and
    compares the column carry-outs across pairs.
    """
    xs = tuple(f"x{i}" for i in range(1, 8))
    cins = ("Ci1", "Ci2")
    missing = [p for p in xs + cins if p not in circuit.inputs]
    missing += [p for p in ("Co1", "Co2") if p not in circuit.outputs]
    if missing:
        raise NetlistError(
            f"{circuit.name} lacks compressor ports: {missing}"
        )
    # Row 4*x + pair holds x-vector x with carry-in pair `pair`.
    columns = {p: np.zeros(512, np.uint8) for p in circuit.inputs}
    columns.update(zip(xs + cins, exhaustive_columns(9, 0, 512)))
    outs = evaluate_batch(circuit, columns)

    co = {k: np.asarray(outs[k]).reshape(128, 4) for k in ("Co1", "Co2")}
    failure = None
    for port in ("Co1", "Co2"):
        diff = co[port] != co[port][:, :1]
        if bool(np.any(diff)):
            x_idx, pair = (int(v) for v in np.argwhere(diff)[0])
            row_a, row_b = 4 * x_idx, 4 * x_idx + pair
            failure = {
                "output": port,
                "x_vector": {p: int(columns[p][row_a]) for p in xs},
                "carry_in_a": [int(columns[p][row_a]) for p in cins],
                "carry_in_b": [int(columns[p][row_b]) for p in cins],
                "value_a": int(co[port][x_idx, 0]),
                "value_b": int(co[port][x_idx, pair]),
            }
            break
    return VerificationReport(
        block=circuit.name,
        oracle="cin-independence",
        mode="cin-independence",
        inputs=len(circuit.inputs),
        vectors_tried=512,
        status="pass" if failure is None else "fail",
        counterexample=failure,
    )
