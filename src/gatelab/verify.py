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

Both modes check their vectors chunk by chunk through one loop, which
stops at the first failing chunk.  A random chunk holds at most
``RANDOM_CHUNK_BYTES`` of stimulus and ``RANDOM_CHUNK_ROWS`` rows,
structured rows included, so a run's memory follows one chunk and its
run time follows ``count``.  An exhaustive sweep simulates its vectors
in packed chunks and checks them in smaller slices (see simulate).

Failures report the first counterexample in scan order; for
exhaustive mode that is the lexicographically first failing input
tuple, because enumeration order is lexicographic (see simulate).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from .core import SCHEMA_VERSION, Circuit, NetlistError
from .generators import COMPRESSOR_INPUTS, REGISTRY
from .simulate import evaluate_batch, iter_exhaustive

if TYPE_CHECKING:
    import numpy as np

EXHAUSTIVE_INPUT_BOUND = 24
PRNG_NAME = "numpy default_rng (PCG64)"


class ExhaustiveBoundError(NetlistError):
    """Exhaustive verification was asked for too wide an input space."""


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

#: Port names -> 1-D uint8 columns of 0/1 values, one row per vector.
Columns = Mapping[str, "np.ndarray"]
Values = Mapping[str, int]
#: Port names -> the exponent e of each port's weight 2^e.
Exponents = Callable[[Sequence[str]], dict[str, int]]


@dataclass(frozen=True)
class Oracle:
    """A named semantic contract: a vectorized pass mask plus a per-vector
    expected/actual explanation used in counterexample reports.

    ``check`` takes the input and output :data:`Columns` as verification
    hands them over, uint8 columns of 0/1 values, and computes on them
    without copying them to a wider type.
    """

    name: str
    check: Callable[[Columns, Columns], np.ndarray]
    explain: Callable[[Values, Values], tuple[dict, dict]]


def _per_quantity(name: str, quantities: Callable) -> Oracle:
    """An oracle from ``quantities(ins, outs) -> (expected, actual)``.

    The same arithmetic runs on the uint8 columns in ``check`` and on one
    vector's ints in ``explain``, so each quantity must fit in uint8 (the
    sorters and full adders checked this way have at most 4 inputs); a
    row passes when every expected quantity equals the actual one of the
    same name.
    """

    def check(ins: Columns, outs: Columns) -> np.ndarray:
        import numpy as np

        expected, actual = quantities(ins, outs)
        return np.logical_and.reduce([expected[k] == actual[k] for k in expected])

    def explain(ins: Values, outs: Values) -> tuple[dict, dict]:
        # as ints: a sorted bit is a bool
        sides = quantities(ins, outs)
        return tuple({k: int(v) for k, v in side.items()} for side in sides)

    return Oracle(name, check, explain)


def _weighted(
    name: str,
    in_label: str,
    in_exponents: Exponents,
    out_label: str,
    out_exponents: Exponents,
) -> Oracle:
    """The oracle sum(in_p * 2^e_p) == sum(out_p * 2^e_p) over all ports."""

    def check(ins: Columns, outs: Columns) -> np.ndarray:
        import numpy as np

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
        carry_types = (np.int8, np.int16, np.int32, np.int64)
        dtype = next(t for t in carry_types if ports <= np.iinfo(t).max)
        carry = np.zeros(len(next(iter(ins.values()))), dtype)
        odd = np.zeros_like(carry)  # bit 0 set once any remainder was odd
        for e in range(max(terms) + 1):
            for column, accumulate in terms.get(e, ()):
                # A 0/1 uint8 column read as int8 adds to an int8 carry
                # with no cast (a mixed add would run in int16 and cast).
                accumulate(carry, column.view(np.int8), out=carry)
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
    return [total > k for k in range(len(ins))]


def _sorter(ins: Values, outs: Values):
    return dict(zip(outs, _sorted_bits(ins))), dict(outs)


def _half_sorter(ins: Values, outs: Values):
    # w1 is the max and w4 the min; the middle pair counts as a multiset,
    # whose size is taken from the total (two bool columns' + is an or).
    total = sum(ins.values())
    top, bottom = total > 0, total > 3
    return (
        {"w1": top, "w2 + w3": total - top - bottom, "w4": bottom},
        {"w1": outs["w1"], "w2 + w3": outs["w2"] + outs["w3"], "w4": outs["w4"]},
    )


def _full_adder(ins: Values, outs: Values):
    total = ins["A"] + ins["B"] + ins["C"]
    return {"Carry": total >> 1, "Sum": total & 1}, dict(outs)


ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        _per_quantity("sorter", _sorter),
        _per_quantity("half_sorter", _half_sorter),
        _per_quantity("full_adder", _full_adder),
        _weighted(
            "sfa", "total", _UNIT, "2*Carry + Sum + W", _fixed(Carry=1, Sum=0, W=0)
        ),
        _weighted(
            "compressor72",
            "total",
            _UNIT,
            "Sum + 2*Carry + 2*Co1 + 4*Co2",
            _fixed(Sum=0, Carry=1, Co1=1, Co2=2),
        ),
        _weighted(
            "adder",
            "a + b + cin",
            _each(lambda port: 0 if port == "cin" else int(port[1:])),
            "s + 2^w*cout",
            _adder_outputs,
        ),
        _weighted(
            "reducer",
            "array total",
            _COLUMN,
            "two-row total",
            _each(lambda port: int(port[1:]) + (port[0] == "y")),  # y<c> sits one up
        ),
        _weighted("pipeline", "sum of rows", _COLUMN, "merged value", _INDEX),
    )
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

@dataclass(kw_only=True)
class VerificationReport:
    """One verification run; the fields are the JSON keys, in order.

    ``vectors_tried`` is the size of the scheduled scan: 2^n for an
    exhaustive run, structured plus random rows for a random one, 512
    for cin-independence.  A failing run stops at its first failing
    chunk, so fewer vectors may have been simulated.
    """

    block: str
    oracle: str
    mode: str
    inputs: int
    vectors_tried: int
    prng: str | None = None
    seed: int | None = None
    structured_count: int | None = None
    random_count: int | None = None
    status: str
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _report(circuit: Circuit, failure: dict | None, **fields) -> VerificationReport:
    return VerificationReport(
        block=circuit.name,
        inputs=len(circuit.inputs),
        status="pass" if failure is None else "fail",
        counterexample=failure,
        **fields,
    )


def _first_failure(
    circuit: Circuit, oracle: Oracle, chunks: Iterable[tuple[int, Columns, Columns]]
) -> dict | None:
    """The counterexample at the first vector that fails the oracle, or
    None when all pass.

    ``chunks`` yields (offset, input columns, output columns) in scan
    order, as :func:`_random_chunks` and
    :func:`~gatelab.simulate.iter_exhaustive` do; a failure at row
    ``local`` of a chunk is vector ``offset + local``.  Both simulate
    lazily, so the loop's return leaves every later pass of the engine
    unrun: a random chunk is one pass, and an exhaustive engine chunk
    is one pass for several slices.
    """
    import numpy as np

    for offset, columns, outs in chunks:
        ok = oracle.check(columns, outs)
        if not bool(np.all(ok)):
            local = int(np.argmin(ok))
            vec = {port: int(columns[port][local]) for port in circuit.inputs}
            out = {port: int(outs[port][local]) for port in circuit.outputs}
            expected, actual = oracle.explain(vec, out)
            return {
                "index": offset + local,
                "vector": vec,
                "expected": expected,
                "actual": actual,
            }
        # Dropped before the next chunk is simulated: held through it, a
        # 35 s run of kogge_stone(width=11) sweeps peaked at 36.1 MB RSS
        # against 35.5.
        del ok
    return None


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
    failure = _first_failure(circuit, orc, iter_exhaustive(circuit))
    return _report(
        circuit, failure, oracle=orc.name, mode="exhaustive", vectors_tried=1 << n
    )


def structured_rows(circuit: Circuit) -> np.ndarray:
    """All-zeros, all-ones, the one-hot walk, and for array-shaped
    blocks (``bit_<r>_<c>`` inputs) each fully saturated column.

    The (rows, inputs) result is a view of a column-major array, so
    each input's column is contiguous.
    """
    import numpy as np

    n = len(circuit.inputs)
    array = all(p.startswith("bit_") for p in circuit.inputs)
    column = list(_COLUMN(circuit.inputs).values()) if array else []
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


# A random-mode chunk holds at most this many stimulus bytes (inputs x
# rows) and this many rows, the structured rows included, in whole
# blocks of draws.  Each chunk pays one Python pass over the op list, so
# the byte budget trades memory for time on wide blocks
# (pipeline(cols=1024), 100k vectors: 2.7 s at 406 MB peak RSS, against
# 2.0 s at 601 MB with 2^28 bytes).  The row cap binds below 1,024
# inputs, where the engine and the oracle hold more per row than the
# stimulus (tracemalloc peaks a row: sorter2 11 bytes against its 2 of
# stimulus, half_sorter4 19, sorting_network4 21, traditional_fa 12).
# Both keep the 224-input array's 100k vectors in one chunk.
RANDOM_CHUNK_BYTES = 1 << 27
RANDOM_CHUNK_ROWS = 1 << 17


def _random_chunks(
    circuit: Circuit, structured: np.ndarray, seed: int, count: int
) -> Iterator[tuple[int, Columns, Columns]]:
    """(offset, input columns, output columns) chunks of the rows of
    ``structured``, then ``count`` rows of the seeded random stream,
    each simulated by ``evaluate_batch`` when it is reached.

    A chunk is cut every ``step`` rows of that sequence, so the
    structured rows count against the budget; a cut inside the random
    stream moves back to a multiple of 8 drawn rows, so that every block
    of draws but the last holds whole raw words.  Every chunk is written
    into one reused (inputs, rows) uint8 buffer, whose rows the engine
    and the oracle read as contiguous input columns, so a chunk's
    columns are overwritten by the next chunk.  Random rows are drawn in
    blocks and written transposed, so no row-major copy of a chunk
    exists.
    """
    import numpy as np

    n = len(circuit.inputs)
    most = min(RANDOM_CHUNK_BYTES // n, RANDOM_CHUNK_ROWS)  # rows a chunk may hold
    step = max(1, most // RANDOM_BLOCK_ROWS) * RANDOM_BLOCK_ROWS
    head = len(structured)  # rows ahead of the draw
    total = head + count
    buffer = np.empty((n, min(step, total)), np.uint8)
    raw = np.random.default_rng(seed).bit_generator.random_raw
    start = 0
    while start < total:
        stop = start + step
        if stop > head:
            stop -= (stop - head) % 8
        stop = min(stop, total)
        fixed = max(0, min(stop, head) - start)  # structured rows in the chunk
        buffer[:, :fixed] = structured[start : start + fixed].T
        for row in range(max(start, head), stop, RANDOM_BLOCK_ROWS):
            rows = min(RANDOM_BLOCK_ROWS, stop - row)
            words = raw(-(-rows * n // 8)).astype("<u8", copy=False)
            block = words.view(np.uint8)[: rows * n].reshape(rows, n)
            col = row - start
            np.right_shift(block.T, 7, out=buffer[:, col : col + rows])
        columns = dict(zip(circuit.inputs, buffer[:, : stop - start]))
        yield start, columns, evaluate_batch(circuit, columns)
        start = stop


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
    They are drawn and checked in chunks of at most
    ``RANDOM_CHUNK_BYTES`` of stimulus and ``RANDOM_CHUNK_ROWS`` rows,
    structured rows included, and the run stops at the first failing
    chunk, so memory follows one chunk and run time ``count``.
    """
    if count < 0:
        raise NetlistError("count must be >= 0")
    if seed < 0:
        raise NetlistError("seed must be >= 0")
    orc = resolve_oracle(circuit)
    structured = structured_rows(circuit)
    chunks = _random_chunks(circuit, structured, seed, count)
    failure = _first_failure(circuit, orc, chunks)
    return _report(
        circuit,
        failure,
        oracle=orc.name,
        mode="random",
        vectors_tried=len(structured) + count,
        prng=PRNG_NAME,
        seed=seed,
        structured_count=len(structured),
        random_count=count,
    )


def verify_cout_independence(circuit: Circuit) -> VerificationReport:
    """Co1 and Co2 must not depend on the carry-ins.

    Sweeps all 128 x-vectors against all four (Ci1, Ci2) pairs and
    compares the column carry-outs across pairs.  The inputs must be the
    compressor ports in order, so the carry-ins are the enumeration's two
    low bits and rows 4x to 4x + 3 hold x-vector x.
    """
    import numpy as np

    xs, cins = COMPRESSOR_INPUTS[:7], COMPRESSOR_INPUTS[7:]
    if circuit.inputs != COMPRESSOR_INPUTS or not {"Co1", "Co2"} <= set(circuit.outputs):
        raise NetlistError(
            f"{circuit.name} needs the compressor ports: inputs exactly "
            f"{list(COMPRESSOR_INPUTS)} in that order, and outputs Co1 and Co2"
        )
    ((_, columns, outs),) = iter_exhaustive(circuit)
    co = {k: outs[k].reshape(128, 4) for k in ("Co1", "Co2")}
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
    return _report(
        circuit,
        failure,
        oracle="cin-independence",
        mode="cin-independence",
        vectors_tried=512,
    )
