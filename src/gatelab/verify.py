"""Semantic verification against arithmetic oracles.

Each block family has an oracle that recomputes the intended result
with plain integer arithmetic (never with the netlist itself) and
compares.  Each oracle is stated once, either as a weight 2^e per input
and output port or as the expected value of each named quantity, and
both its word ``check`` and its scalar ``explain`` derive from that
statement; the registry names the oracle of each block.

Exhaustive sweeps cover every input combination up to a hard bound of
24 inputs; above that, a seeded random mode draws from numpy's
default_rng (PCG64) after always trying a small structured suite (all
zeros, all ones, one-hot walk, per-column saturation).  Each raw PCG64
word is one input's word for 64 random rows: row 64k + j of input i is
bit j of raw word k·n + i; tests pin the words.

Every mode runs the one engine, the circuit's op list on Python-int
words (see simulate), chunk by chunk through one loop that checks each
chunk's words with a check the oracle builds once a sweep.  Chunks come
in ascending order of their lowest index, and the loop stops at the
first chunk whose lowest index is above the lowest failure found.  An
exhaustive chunk holds 2^17 vectors and needs no numpy.  Above 17
inputs each chunk fixes the inputs with the smallest fan-out cones (see
simulate), so chunks interleave in index order, and a failing sweep may
run chunks past its first failing one, though never more than a passing
sweep.  The other inputs and the outputs outside those cones keep their
words in every chunk, so a weighted oracle sums them once a sweep, and
each chunk sums only the digits that the fixed inputs and their cones'
outputs can move.  The check takes a chunk's words as lists in port
order.  A fixed input's word, and that of an output that folds to a
constant, is 0 or the chunk's all-ones word itself, so the check adds
those ports' weights as one integer a side, which ripples into the
steady digits, and sums only the other moving words.  A sweep of at
most 17 inputs is one chunk with no fixed input, so every port is
steady and the oracle sums them all once.  Random chunks hold no
steady port and tie no word, and each chunk sums all of its words.  A
random chunk holds at most ``RANDOM_CHUNK_BITS`` stimulus bits (inputs
x rows) and at most ``RANDOM_CHUNK_ROWS`` rows, structured rows
included, so a run's memory follows one chunk and its run time follows
``count``.  The structured
suite is one word per input, and each drawn input word is read straight
from its raw words, so no byte per stimulus bit is held.

Failures report the lowest-indexed failing vector.  Random chunks are
contiguous, so that is the lowest fail bit of the first failing chunk.
In exhaustive mode it is the lexicographically first failing input
tuple, because enumeration order is lexicographic (see simulate).
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from collections import defaultdict, deque
from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING, Callable, Collection, Iterable, Iterator, Mapping, Sequence
)

from .core import SCHEMA_VERSION, Circuit, NetlistError
from .generators import COMPRESSOR_INPUTS, REGISTRY
from .simulate import _CHUNK_LOG2, _run, _sweep, _unpack, vector_at

if TYPE_CHECKING:
    import numpy as np

EXHAUSTIVE_INPUT_BOUND = 24
PRNG_NAME = "numpy default_rng (PCG64)"


class ExhaustiveBoundError(NetlistError):
    """Exhaustive verification was asked for too wide an input space."""


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

#: Port names -> words: bit v of a port's int is its value in vector v.
Words = Mapping[str, int]
Values = Mapping[str, int]
#: Port names -> the exponent e of each port's weight 2^e.
Exponents = Callable[[Sequence[str]], dict[str, int]]
#: A sweep's check of one chunk: (input words, output words, all-ones
#: word), the words in port order, to the chunk's fail word.
_Check = Callable[[Sequence[int], Sequence[int], int | None], int]


@dataclass(frozen=True)
class Oracle:
    """A named semantic contract: a word-level fail mask plus a per-vector
    expected/actual explanation used in counterexample reports.

    ``check`` takes the input and output :data:`Words` of one engine
    pass and returns its fail word, whose bit v is set when vector v
    fails.  Bits past the pass's last vector mean nothing; verification
    masks them off.  ``explain`` takes one vector's 0/1 ints.

    ``_sweep(ins, outs, moving_ins, moving_outs)`` takes the words of a
    sweep's first chunk and the names of the ports whose words change
    from chunk to chunk, and returns the :data:`_Check` of each chunk:
    ``check(in_words, out_words, ones)``, on the chunk's word lists in
    port order and its all-ones word.  What the check needs of the
    other, steady ports it computes there, once a sweep, with the index
    of each moving port in its list.  A moving word that is ``ones``
    itself, not an equal int, is a tied constant that a weighted check
    adds as an integer (see :func:`_weighted`).  ``check`` is the sweep
    of one pass, in which every port moves and no word is tied.
    """

    name: str
    check: Callable[[Words, Words], int]
    explain: Callable[[Values, Values], tuple[dict, dict]]
    _sweep: Callable[[Words, Words, Collection[str], Collection[str]], _Check]


# Port lists whose derived tables (exponent maps, rejected combinations)
# each oracle keeps: resolved once per circuit, shared by a run's chunks
# and its counterexample report, and only ever read.
_RESOLVED = 16


def _per_quantity(name: str, quantities: Callable) -> Oracle:
    """An oracle from ``quantities(ins, outs) -> (expected, actual)``, on
    one vector's ints; a vector passes when every expected quantity
    equals the actual one of the same name.

    ``check`` runs ``explain`` once per port list on every combination of
    input and output bits, so it suits small blocks (the sorters and
    full adders checked this way have at most 4 inputs and 4 outputs).
    Its fail word is the OR of the minterm words of every combination
    that :func:`_passes` rejects.
    """

    def explain(ins: Values, outs: Values) -> tuple[dict, dict]:
        # as ints: a sorted bit is a bool
        sides = quantities(ins, outs)
        return tuple({k: int(v) for k, v in side.items()} for side in sides)

    @functools.lru_cache(maxsize=_RESOLVED)
    def rejected(ins: tuple, outs: tuple) -> tuple[int, ...]:
        """The combinations that fail, as indices into the product of the
        ports' bits, first port most significant."""
        combos = itertools.product((0, 1), repeat=len(ins) + len(outs))
        return tuple(
            k
            for k, bits in enumerate(combos)
            if not _passes(
                *explain(dict(zip(ins, bits)), dict(zip(outs, bits[len(ins) :])))
            )
        )

    def sweep(ins: Words, outs: Words, *moving: Collection[str]) -> _Check:
        rows = rejected(tuple(ins), tuple(outs))

        def check(ins: Sequence[int], outs: Sequence[int], ones: int | None) -> int:
            # Each combination's minterm word, by splitting all vectors (-1:
            # every bit set) on each port in turn; ~word sets the bits past
            # the last vector too.
            minterms = [-1]
            for word in (*ins, *outs):
                minterms = [m & half for m in minterms for half in (~word, word)]
            return functools.reduce(operator.or_, (minterms[k] for k in rows), 0)

        return check

    def check(ins: Words, outs: Words) -> int:
        return sweep(ins, outs)(list(ins.values()), list(outs.values()), None)

    return Oracle(name, check, explain, sweep)


def _weighted(
    name: str,
    in_label: str,
    in_exponents: Exponents,
    out_label: str,
    out_exponents: Exponents,
) -> Oracle:
    """The oracle sum(in_p * 2^e_p) == sum(out_p * 2^e_p) over all ports.

    The check writes each side's sum in binary, one word per digit, and
    fails a vector where any digit differs.  A sweep's steady ports, those
    whose words stay the same in all its chunks, are summed once: their
    digits below the cut, the lowest weight of any moving port, are the
    sums' digits in every chunk, so their differences make one fail word.
    Each chunk adds its moving ports to the steady digits at or above the
    cut, and ORs those digits' differences into that word.  A moving
    port whose word is 0 adds nothing, and one whose word is the chunk's
    all-ones word, the very object, adds its weight to one integer K a
    side; :func:`_ripple` adds K to the steady digits, and only the other
    moving words go through the carry-save tree.  In an exhaustive sweep
    those tied words are the fixed inputs and the outputs that fold to a
    constant (see simulate), so a chunk whose moving ports are all tied
    sums no word at all.
    """
    in_exponents = functools.lru_cache(maxsize=_RESOLVED)(in_exponents)
    out_exponents = functools.lru_cache(maxsize=_RESOLVED)(out_exponents)

    def sweep(
        ins: Words, outs: Words, moving_ins: Collection[str], moving_outs: Collection[str]
    ) -> _Check:
        sides = (
            (ins, in_exponents(tuple(ins)), moving_ins),
            (outs, out_exponents(tuple(outs)), moving_outs),
        )
        # each side's moving ports as (index in port order, exponent)
        moves = [
            [(k, e) for k, (p, e) in enumerate(exps.items()) if p in moving]
            for _, exps, moving in sides
        ]
        cut = min((e for side in moves for _, e in side), default=float("inf"))
        steady = [
            _digits((words[p], e) for p, e in exps.items() if p not in moving)
            for words, exps, moving in sides
        ]
        low = _differ(*({e: w for e, w in d.items() if e < cut} for d in steady))
        high = [{e: w for e, w in d.items() if e >= cut} for d in steady]

        def total(
            digits: dict[int, int], side: list, words: Sequence[int], ones: int | None
        ) -> dict[int, int]:
            # the side's digits: the steady ones, the tied constants and
            # the other moving words
            tied = 0
            terms = []
            for k, e in side:
                word = words[k]
                if word is ones:
                    tied += 1 << e
                elif word:
                    terms.append((word, e))
            digits = _ripple(digits, tied, ones)
            if not terms:
                return digits
            return _digits([*((w, e) for e, w in digits.items()), *terms])

        def check(ins: Sequence[int], outs: Sequence[int], ones: int | None) -> int:
            lhs, rhs = map(total, high, moves, (ins, outs), (ones, ones))
            return low | _differ(lhs, rhs)

        return check

    def check(ins: Words, outs: Words) -> int:
        return sweep(ins, outs, ins, outs)(list(ins.values()), list(outs.values()), None)

    def explain(ins: Values, outs: Values) -> tuple[dict, dict]:
        expected = _total(ins, in_exponents)
        return {in_label: expected}, {out_label: _total(outs, out_exponents)}

    return Oracle(name, check, explain, sweep)


def _digits(terms: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The sum of the (word, e) terms' words times 2^e, each vector's in
    its bit, as one word per binary digit e: a carry-save tree of full
    adders over the nonzero words of one weight, lowest weight first, each
    carry going one weight up.  Non-negative words give non-negative
    digits."""
    column: defaultdict[int, deque] = defaultdict(deque)
    for word, e in terms:
        if word:
            column[e].append(word)
    digits = {}
    e = min(column, default=0)
    while column:
        words = column.pop(e, ())
        while len(words) > 1:
            a, b = words.popleft(), words.popleft()
            c = words.popleft() if words else 0  # a half adder on the last two
            half = a ^ b
            words.append(half ^ c)
            column[e + 1].append((a & b) | (half & c))
        if words:
            digits[e] = words[0]
        e += 1
    return digits


def _ripple(digits: dict[int, int], k: int, ones: int) -> dict[int, int]:
    """The digit words ``digits`` plus the integer ``k`` in every vector,
    one word per binary digit as :func:`_digits` gives them: a ripple of
    full adders in which each bit of k is a constant, 0 or ``ones``.

    A digit costs at most two word ops, and none where neither k nor
    the carry sets a bit; the one exception is a 1 bit of k that meets
    both a set digit and a carried word, which costs three (XOR, XOR and
    OR).  Digits within ``ones`` give digits within ``ones``, so none is
    negative.
    """
    if not k:
        return digits
    digits = dict(digits)
    e = (k & -k).bit_length() - 1
    k >>= e
    carry = 0
    while k or carry:
        d = digits.get(e, 0)
        if k & 1:  # d + carry + 1
            if not carry:
                digits[e], carry = d ^ ones if d else ones, d
            elif d:
                digits[e], carry = d ^ carry ^ ones, d | carry
            else:
                digits[e] = carry ^ ones
        elif carry:  # d + carry
            digits[e], carry = (d ^ carry, d & carry) if d else (carry, 0)
        k >>= 1
        e += 1
    return digits


def _differ(lhs: dict[int, int], rhs: dict[int, int]) -> int:
    """The OR of the two digit maps' differences: bit v is set where
    vector v's digits differ at some weight.  Equal digits, compared
    first, cost no word op."""
    fail = 0
    for e in lhs.keys() | rhs.keys():
        a, b = lhs.get(e, 0), rhs.get(e, 0)
        if a != b:
            fail |= a ^ b
    return fail


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
    for cin-independence.  A failing run stops once no later chunk can
    hold a lower failure, so fewer vectors may have been simulated.
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


def _passes(expected: dict, actual: dict) -> bool:
    """The scalar pass rule: a vector passes when ``explain``'s expected
    values equal its actual values, in order.  Each oracle's ``check``
    fails exactly the vectors it rejects (tests pin that)."""
    return list(expected.values()) == list(actual.values())


def _counterexample(oracle: Oracle, index: int, vec: dict, out: dict) -> dict:
    expected, actual = oracle.explain(vec, out)
    return {"index": index, "vector": vec, "expected": expected, "actual": actual}


def _first_failure(
    circuit: Circuit,
    oracle: Oracle,
    chunks: Iterable[tuple[int, int, list[int]]],
    run: Callable[[list[int], int], list[int]],
    spread: Callable[[int], int],
    moving: tuple[Collection[str], Collection[str]],
) -> dict | None:
    """The counterexample at the lowest-indexed vector that fails the
    oracle, or None when all pass.

    ``chunks`` yields (lowest index, all-ones word, input words) in
    ascending order of the lowest index, as :func:`_random_chunks` and
    :func:`~gatelab.simulate._sweep` do; ``run(words, ones)`` is a
    chunk's engine pass, and bit b of a chunk is vector ``lowest index +
    spread(b)``, with ``spread`` increasing.  So a chunk's lowest fail
    bit is its lowest failing index.  The loop stops at the first chunk
    whose lowest index is above the best failure found, leaving it and
    every later chunk unsimulated.  Random chunks are contiguous, so
    that is the one after the first failing chunk.

    ``moving`` names the input and output ports whose words change from
    chunk to chunk.  The oracle's check is built once, on the first
    chunk's port dicts, from the words of the others (see ``Oracle``),
    and checks every chunk on its word lists, in port order, and its
    all-ones word, so words that a sweep ties to ``ones`` count as
    constants.  Port dicts are built again only for a counterexample.
    """
    best = None
    check = None
    for low, ones, words in chunks:
        if best is not None and low > best["index"]:
            break
        outs = run(words, ones)
        if check is None:
            check = oracle._sweep(
                dict(zip(circuit.inputs, words)), dict(zip(circuit.outputs, outs)), *moving
            )
        fail = check(words, outs, ones) & ones
        if fail:
            local = (fail & -fail).bit_length() - 1
            index = low + spread(local)
            if best is None or index < best["index"]:
                vec = dict(zip(circuit.inputs, (word >> local & 1 for word in words)))
                out = dict(zip(circuit.outputs, (word >> local & 1 for word in outs)))
                best = _counterexample(oracle, index, vec, out)
    return best


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
    failure = _first_failure(circuit, orc, *_sweep(circuit))
    return _report(
        circuit, failure, oracle=orc.name, mode="exhaustive", vectors_tried=1 << n
    )


def _suite(circuit: Circuit) -> tuple[int, list[int]]:
    """The structured suite's row count, and its rows as one word per
    input, whose bit r is the input in row r: row 0 sets no input, row 1
    sets every input, row 2 + i sets input i, and on array-shaped blocks
    (``bit_<r>_<c>`` inputs) row 2 + n + k sets every input of the k-th
    lowest column."""
    n = len(circuit.inputs)
    array = all(p.startswith("bit_") for p in circuit.inputs)
    column = list(_COLUMN(circuit.inputs).values()) if array else []
    saturated = {c: 2 + n + k for k, c in enumerate(sorted(set(column)))}
    # the bit of the row that saturates each input's column, if any
    saturating = [1 << saturated[c] for c in column] or [0] * n
    words = [2 | 1 << (2 + i) | bit for i, bit in enumerate(saturating)]
    return 2 + n + len(saturated), words


def structured_rows(circuit: Circuit) -> np.ndarray:
    """All-zeros, all-ones, the one-hot walk, and for array-shaped
    blocks (``bit_<r>_<c>`` inputs) each fully saturated column, lowest
    first: the (rows, inputs) 0/1 uint8 rows random mode runs first."""
    count, words = _suite(circuit)
    return _unpack(words, count).T


# A random-mode chunk holds at most this many stimulus bits (inputs x
# rows) and at most this many rows, structured rows included.  Each
# chunk pays one Python pass over the op list, so the bit budget trades
# memory for time on wide blocks (pipeline(cols=1024), 100k vectors, on
# 2 vCPUs: 1.5 s at 153 MB peak RSS, against 1.1-1.6 s at 205 MB with
# 2^28 bits).  The row cap, an exhaustive engine
# pass, binds below 1024 inputs, where a chunk's memory follows its rows.
# Both keep the 224-input array's 100k vectors in one chunk.
RANDOM_CHUNK_BITS = 1 << 27
RANDOM_CHUNK_ROWS = 1 << _CHUNK_LOG2


def _random_chunks(
    circuit: Circuit, suite: tuple[int, list[int]], seed: int, count: int
) -> Iterator[tuple[int, int, list[int]]]:
    """(offset, all-ones word, input words) chunks of the rows of
    ``suite``, the circuit's :func:`_suite`, then ``count`` rows of the
    seeded random stream.

    Random row 64k + j of input i is bit j of raw word k·n + i of
    ``default_rng(seed)``'s PCG64, so each raw word is one input's word
    for 64 rows.  A chunk is cut every ``step`` rows of the sequence, so
    the structured rows count against the budget; a cut inside the draw
    moves back to a multiple of 64 drawn rows, so that every chunk's draw
    starts a block and no chunk size moves the stream.  A chunk draws its
    blocks' n raw words each at once, and each input's word is those of
    its column, shifted past the chunk's structured rows and OR-ed with
    their bits.
    """
    import numpy as np

    n = len(circuit.inputs)
    most = min(RANDOM_CHUNK_BITS // n, RANDOM_CHUNK_ROWS)  # rows a chunk may hold
    step = max(1, most // 64) * 64
    head, structured = suite  # rows ahead of the draw
    total = head + count
    raw = np.random.default_rng(seed).bit_generator.random_raw
    start = 0
    while start < total:
        stop = start + step
        if stop > head:
            stop -= (stop - head) % 64
        stop = min(stop, total)
        first = max(start, head)  # the chunk's first drawn row
        blocks = -(-max(stop - first, 0) // 64)
        drawn = raw(blocks * n).astype("<u8", copy=False).reshape(blocks, n)
        ones = (1 << (stop - start)) - 1
        columns = (int.from_bytes(drawn[:, i].tobytes(), "little") for i in range(n))
        words = [
            (word >> start | column << (first - start)) & ones
            for word, column in zip(structured, columns)
        ]
        del drawn  # freed before the chunk runs
        yield start, ones, words
        start = stop


def verify_random(
    circuit: Circuit, *, seed: int = 0, count: int = 1000
) -> VerificationReport:
    """The structured suite plus ``count`` seeded random vectors, checked
    against the oracle the registry names for the block.

    The vectors are the rows of :func:`structured_rows`, then ``count``
    random rows of n bits from the raw words of
    ``default_rng(seed).bit_generator.random_raw``: random row 64k + j of
    input i is bit j of raw word k·n + i.  PCG64's raw stream is fixed
    across numpy versions (NEP 19), and tests pin its words.
    They are drawn and checked in chunks of at most
    ``RANDOM_CHUNK_BITS`` stimulus bits (inputs x rows) and
    ``RANDOM_CHUNK_ROWS`` rows, structured rows included, and the run
    stops at the first failing chunk, so memory follows one chunk and
    run time ``count``.
    """
    for name, value in (("count", count), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise NetlistError(f"{name} must be a non-negative int, got {value!r}")
    orc = resolve_oracle(circuit)
    suite = _suite(circuit)
    head = suite[0]
    chunks = _random_chunks(circuit, suite, seed, count)
    run = functools.partial(_run, circuit)
    moving = set(circuit.inputs), set(circuit.outputs)  # each chunk's rows are new
    failure = _first_failure(circuit, orc, chunks, run, lambda b: b, moving)
    return _report(
        circuit,
        failure,
        oracle=orc.name,
        mode="random",
        vectors_tried=head + count,
        prng=PRNG_NAME,
        seed=seed,
        structured_count=head,
        random_count=count,
    )


def verify_cout_independence(circuit: Circuit) -> VerificationReport:
    """Co1 and Co2 must not depend on the carry-ins.

    Sweeps all 128 x-vectors against all four (Ci1, Ci2) pairs and
    compares the column carry-outs across pairs.  The inputs must be the
    compressor ports in order, so the carry-ins are the enumeration's two
    low bits and vectors 4x to 4x + 3 hold x-vector x.  The sweep is one
    exhaustive chunk: bit 4x of ``(co >> pair) ^ co`` is set when pair
    ``pair`` of x-vector x differs from pair 0.  The report names the
    lowest such x, then the lowest such pair.
    """
    xs, cins = COMPRESSOR_INPUTS[:7], COMPRESSOR_INPUTS[7:]
    if circuit.inputs != COMPRESSOR_INPUTS or not {"Co1", "Co2"} <= set(circuit.outputs):
        raise NetlistError(
            f"{circuit.name} needs the compressor ports: inputs exactly "
            f"{list(COMPRESSOR_INPUTS)} in that order, and outputs Co1 and Co2"
        )
    chunks, run, _, _ = _sweep(circuit)
    ((_, ones, words),) = chunks
    outs = dict(zip(circuit.outputs, run(words, ones)))
    lane0 = ones // 15  # bit 4x for every x-vector x
    failure = None
    for port in ("Co1", "Co2"):
        co = outs[port]
        diffs = [((co >> pair) ^ co) & lane0 for pair in (1, 2, 3)]
        differ = diffs[0] | diffs[1] | diffs[2]
        if differ:
            row_a = (differ & -differ).bit_length() - 1
            pair = next(p for p, d in zip((1, 2, 3), diffs) if d >> row_a & 1)
            row_b = row_a + pair
            vec_a, vec_b = vector_at(circuit, row_a), vector_at(circuit, row_b)
            failure = {
                "output": port,
                "x_vector": {p: vec_a[p] for p in xs},
                "carry_in_a": [vec_a[p] for p in cins],
                "carry_in_b": [vec_b[p] for p in cins],
                "value_a": co >> row_a & 1,
                "value_b": co >> row_b & 1,
            }
            break
    return _report(
        circuit,
        failure,
        oracle="cin-independence",
        mode="cin-independence",
        vectors_tried=512,
    )
