"""Circuit evaluation: one engine, on Python-int words.

Each circuit is compiled once, on its first evaluation, into a flat op
list: each cell's function from :data:`~gatelab.core.GATE_FN`, its input
and output nets, and the nets it reads for the last time.  The list
runs on Python ints, one word per live net, whose bit v is the net's
value in vector v; the all-ones word of the run's length is GATE_FN's
inversion value.  So every vector of a word is evaluated at once,
bitwise.  A single vector is a 1-bit word; a batch of uint8 columns is
packed into one word per input and its outputs unpacked again.

Exhaustive enumeration order is documented and relied on elsewhere:
vector index v assigns input i (in declared order) the bit
``(v >> (n - 1 - i)) & 1``, so ascending index is ascending
lexicographic order over input tuples; :func:`exhaustive_columns` gives
the inputs in that order as uint8 columns.  An exhaustive sweep
(:func:`_sweep`) takes one path whatever its width: it runs in chunks of
at most 2^17 vectors, a word a net, and each chunk fixes the
h = max(n - 17, 0) inputs whose fan-out cones reach the fewest cells.
The cells outside those cones run once a sweep and only the cones run
once a chunk; a chunk's bits are its vectors in ascending index, and
chunks come in ascending order of their lowest index.  So a sweep of at
most 17 inputs fixes none: its one chunk is the enumeration, and every
cell runs once, outside an empty cone.  Each chunk runs the cone folded
with its fixed values, the Shannon cofactor of the cone: each gate that
reads a constant reduces as the builder's folding does
(:func:`~gatelab.core.fold`), to a constant, a net or an inverter, and
a gate reduced to a constant or a net hands it to its readers, so no
op copies a word.  The folded lists are made once a circuit, as its
chunks first run.
"""

from __future__ import annotations

import functools
import operator
from typing import (
    TYPE_CHECKING, Callable, Collection, Iterable, Iterator, Mapping, Sequence
)

from .core import GATE_FN, Cell, Circuit, Const, GateKind, NetlistError, NetRef, fold

if TYPE_CHECKING:
    import numpy as np


class SimulationError(NetlistError):
    """Bad stimulus for an evaluation call."""


def _stimulus(circuit: Circuit, columns: Mapping[str, object]) -> list[np.ndarray]:
    """The input columns as uint8 arrays in port order, after checking
    that they cover exactly the inputs, are 1-D, share one length and
    hold only 0 and 1."""
    import numpy as np

    inputs = set(circuit.inputs)
    missing = [p for p in circuit.inputs if p not in columns]
    extra = [p for p in columns if p not in inputs]
    if missing or extra:
        raise SimulationError(
            f"{circuit.name}: stimulus does not match inputs "
            f"(missing {missing}, unexpected {extra})"
        )
    cols = []
    for port in circuit.inputs:
        col = np.asarray(columns[port])
        if col.ndim != 1:
            raise SimulationError(f"{circuit.name}: column {port} is not 1-D")
        if col.dtype == np.uint8:
            bits = not col.size or int(col.max()) <= 1
        else:
            bits = col.dtype.kind in "biuf" and bool(np.all((col == 0) | (col == 1)))
        if not bits:
            raise SimulationError(f"{circuit.name}: column {port} is not 0/1")
        cols.append(col.astype(np.uint8, copy=False))
    if len({len(col) for col in cols}) > 1:
        raise SimulationError("input columns differ in length")
    return cols


def _compile(cells: Sequence[Cell], keep: Collection[int]) -> tuple[tuple, ...]:
    """``cells``, in topological order, as a flat op list, each op (gate
    function from GATE_FN, input nets, output net, nets to free after
    it), by :func:`_live`."""
    backward = ((GATE_FN[cell.kind], cell.ins, cell.out) for cell in reversed(cells))
    return _live(backward, keep)


def _live(backward: Iterable[tuple], keep: Collection[int]) -> tuple[tuple, ...]:
    """The ops that ``backward`` yields last first, each (function, input
    nets, output net, ...), in order and with their frees recomputed:
    one backward pass leaves out the ops that no net of ``keep`` depends
    on, and has each op free the nets outside ``keep`` that it reads for
    the last time, so only live nets hold values.  An op whose frees come
    out as they were is kept as the same tuple."""
    live = set(keep)
    kept = []
    for op in backward:
        fn, ins, out = op[0], op[1], op[2]
        if out in live:
            free = ()
            for net in ins:
                if net not in live:
                    free += (net,)
                    live.add(net)
            kept.append(op if len(op) > 3 and op[3] == free else (fn, ins, out, free))
    kept.reverse()
    return tuple(kept)


def _exec(ops: tuple[tuple, ...], values: list, ones: int, nets: Iterable[int]) -> list:
    """Run an op list in place on ``values``, one word (or None) a net;
    returns the words of ``nets``."""
    get = values.__getitem__
    for fn, ins, out, free in ops:
        values[out] = fn(*map(get, ins), ones)
        for net in free:
            values[net] = None
    return [values[net] for net in nets]


def _cached(circuit: Circuit, name: str, make: Callable[[Circuit], tuple]) -> tuple:
    """``make(circuit)``, made on first use and kept on the circuit in the
    private attribute ``name``, which is no dataclass field and which
    pickling drops."""
    value = circuit.__dict__.get(name)
    if value is None:
        value = make(circuit)
        object.__setattr__(circuit, name, value)
    return value


def _whole(circuit: Circuit) -> tuple[tuple, ...]:
    """The circuit's whole op list, which keeps its output nets."""
    return _compile(circuit.cells, set(circuit.output_nets))


def _run(circuit: Circuit, inputs: list[int], ones: int) -> list[int]:
    """The output nets' words, in port order, from the input nets' words
    and the all-ones word of their length.

    This is the one engine: it runs the circuit's op list, compiled on
    first use and kept on the circuit.
    """
    ops = _cached(circuit, "_ops", _whole)
    values = inputs + [None] * (circuit.num_nets - len(inputs))
    return _exec(ops, values, ones, circuit.output_nets)


def _pack(columns: Iterable[np.ndarray]) -> list[int]:
    """One word per uint8 column of 0/1 values: bit v of the word is
    row v, read through the little-endian bytes of ``np.packbits``."""
    import numpy as np

    return [
        int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little")
        for col in columns
    ]


def _unpack(words: Sequence[int], length: int) -> np.ndarray:
    """The (words, length) uint8 matrix whose row k holds bits 0 to
    ``length - 1`` of ``words[k]``, read through their little-endian
    bytes by ``np.unpackbits``."""
    import numpy as np

    size = -(-length // 8)
    packed = b"".join(word.to_bytes(size, "little") for word in words)
    return np.unpackbits(
        np.frombuffer(packed, np.uint8).reshape(len(words), size),
        axis=1,
        count=length,
        bitorder="little",
    )


def evaluate_batch(
    circuit: Circuit, columns: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Evaluate many vectors at once.

    ``columns`` maps every input port to a 1-D array of 0/1 values;
    all arrays must share one length.  Returns uint8 output columns of
    the same length.  The columns are packed into words, run through
    the engine and unpacked.
    """
    cols = _stimulus(circuit, columns)
    length = len(cols[0])
    outs = _run(circuit, _pack(cols), (1 << length) - 1)
    return dict(zip(circuit.outputs, _unpack(outs, length)))


def evaluate(circuit: Circuit, vector: Mapping[str, int]) -> dict[str, int]:
    """Evaluate one input vector; returns its outputs.

    The vector runs through the engine as 1-bit words.  Plain int and
    bool 0/1 values skip the batch's numpy stimulus checks; any other
    vector goes through them, so both accept and reject the same values.
    """
    bits = [vector.get(port) for port in circuit.inputs]
    if len(vector) != len(bits) or not all(
        type(b) in (int, bool) and (b == 0 or b == 1) for b in bits
    ):
        cols = _stimulus(circuit, {port: [value] for port, value in vector.items()})
        bits = [int(col[0]) for col in cols]
    outs = _run(circuit, bits, 1)
    return {port: int(value) for port, value in zip(circuit.outputs, outs)}


def exhaustive_columns(n_inputs: int) -> list[np.ndarray]:
    """Input columns for all 2^n vectors in enumeration order, as the
    rows of one (inputs, vectors) uint8 array.

    Input i holds bit s = n - 1 - i of the index, which runs in blocks
    of 2^s zeros, then 2^s ones.
    """
    import numpy as np

    cols = np.empty((n_inputs, 1 << n_inputs), np.uint8)
    for s, col in zip(range(n_inputs - 1, -1, -1), cols):
        runs = np.repeat(np.array([0, 1], np.uint8), 1 << s)
        col[:] = np.tile(runs, 1 << (n_inputs - 1 - s))
    return list(cols)


# log2 of the vectors in an exhaustive sweep's chunk, one pass of the
# chunk's folded cone each.  kogge_stone(width=11)'s 2^23 vectors swept
# again on one circuit, in-process on 2 vCPUs (best of 15, and the
# tracemalloc peak of a sweep): 3.7-4.0 ms at 0.98 MiB, against 5.0 ms
# (2.0 MiB) in chunks of 2^18 and 12.8-13.9 ms (0.74 MiB) in chunks of
# 2^16, where the seventh fixed input's cone is large.  Random mode's
# row cap derives from it.
_CHUNK_LOG2 = 17


#: The gate kind of each op function, so folding can read compiled ops.
_KIND = {fn: kind for kind, fn in GATE_FN.items()}


def _fold(
    ops: Sequence[tuple], outs: Sequence[NetRef], net: int, value: int
) -> tuple[list[tuple], tuple[NetRef, ...]]:
    """The op list ``ops`` and the output refs ``outs`` with the input
    ``net`` tied to ``value``, without frees.

    Each op that reads a constant reduces by :func:`~gatelab.core.fold`,
    in order, to a constant or a net, which drops it and makes its
    readers and output refs read that instead, or to an inverter of its
    other input, on the op's own net.  So no op copies a word, and a net
    may be read past its old last reader: the frees of the ops kept mean
    nothing, and a list that runs gets new ones from :func:`_live`.
    """
    subst: dict[int, NetRef] = {net: Const(value)}
    kept = []
    for op in ops:
        fn, ins, out = op[0], op[1], op[2]
        a, b = ins[0], ins[-1]  # the same net for a 1-input op
        if a not in subst and b not in subst:
            kept.append(op)
            continue
        ins = (subst.get(a, a), subst.get(b, b))[: len(ins)]
        folded = fold(_KIND[fn], ins)
        if folded is None:  # it reads a net that a dropped op copied
            kept.append((fn, ins, out))
            continue
        ref, invert = folded
        if invert:
            kept.append((GATE_FN[GateKind.INV], (ref,), out))
        else:
            subst[out] = ref
    return kept, tuple([subst.get(ref, ref) for ref in outs])


def _folded(
    memo: dict, fixed: list[int], k: int, prefix: int
) -> tuple[Sequence[tuple], tuple[NetRef, ...]]:
    """The op list and output refs of the cone with fixed input j tied to
    bit k - 1 - j of ``prefix``, for each j below k.

    ``memo[0, 0]`` holds the cone's own op list and output refs.  The
    cone with k inputs tied is that with the first k - 1 tied, folded
    with one more (the Shannon cofactor of a cofactor), and ``memo`` keeps
    each prefix's fold, so chunks in any order share the folds of their
    leading fixed values.  Only a chunk's list, with every fixed input
    tied, runs, so only it gets frees: one backward pass of :func:`_live`
    as it is folded, which also drops the ops that no output needs.
    ``memo`` is passed in, not closed over, so a dropped circuit's folds
    are freed with it, with no cycle to collect.
    """
    folded = memo.get((k, prefix))
    if folded is None:
        cofactor = _folded(memo, fixed, k - 1, prefix >> 1)
        ops, refs = _fold(*cofactor, fixed[k - 1], prefix & 1)
        if k == len(fixed):
            ops = _live(reversed(ops), {ref for ref in refs if not isinstance(ref, Const)})
        folded = memo[k, prefix] = ops, refs
    return folded


def _plan(
    circuit: Circuit,
) -> tuple[list[int], tuple[tuple, ...], tuple[tuple, ...], Callable]:
    """The inputs an exhaustive sweep fixes in each chunk, by index in
    declared order; the op lists of the cells outside their fan-out cone
    and of the cells in it; and ``chunk(c)``, :func:`_folded` for chunk
    c: the cone's list with the fixed inputs tied to c's h bits.

    The fixed inputs are the h = max(n - 17, 0) whose cones hold the
    fewest cells, the later-declared first on a tie; with none fixed the
    cone is empty and the outer list is the whole op list.  Each net's
    fan-out cone, a bitmask with bit k for cell k, built in one backward
    pass over the cells, gives the cones.  The outer list keeps the nets
    that cone cells read.  The plan is kept on the circuit with the
    folded lists its sweeps have made, so a circuit swept again folds
    nothing.
    """
    n = len(circuit.inputs)
    cells = circuit.cells
    down = [0] * circuit.num_nets
    for k in range(len(cells) - 1, -1, -1):
        reach = down[cells[k].out] | 1 << k
        for net in cells[k].ins:
            down[net] |= reach
    size = [down[i].bit_count() for i in range(n)]
    h = max(n - _CHUNK_LOG2, 0)
    fixed = sorted(sorted(range(n), key=lambda i: (size[i], -i))[:h])
    mask = functools.reduce(operator.or_, (down[i] for i in fixed), 0)
    cone = [cell for k, cell in enumerate(cells) if mask >> k & 1]
    outer = [cell for k, cell in enumerate(cells) if not mask >> k & 1]
    read = {net for cell in cone for net in cell.ins}
    keep = set(circuit.output_nets)
    if fixed:
        outer, ops = _compile(outer, keep | read), _compile(cone, keep)
    else:  # the whole op list, the one _run keeps
        outer, ops = _cached(circuit, "_ops", _whole), ()
    memo = {(0, 0): (ops, tuple(circuit.output_nets))}
    chunk = functools.partial(_folded, memo, fixed, h)
    return fixed, outer, ops, chunk


def _sweep(
    circuit: Circuit,
) -> tuple[Iterator[tuple[int, int, list]], Callable, Callable, tuple[set, set]]:
    """The exhaustive sweep as (chunks, run, spread, moving).

    ``chunks`` yields (lowest index, all-ones word, input words) in
    ascending order of the lowest index, ``run(words, ones)`` is a
    chunk's engine pass and gives its output words, bit b of a chunk's
    words is vector ``lowest index + spread(b)``, and ``moving`` names the
    input and output ports whose words change from chunk to chunk.

    There is one path for every width.  :func:`_plan`'s h fixed inputs
    hold all-0 or all-1 words in each of 2^h chunks, taken in
    lexicographic order of their values; up to 17 inputs h is 0, and the
    one chunk runs the empty cone.  The other inputs vary in every
    chunk, in declared order: the one at bit s of b holds 2^s zeros, then
    2^s ones, a period doubled (``w |= w << p``) until it fills the chunk.
    The cells outside the cone read no fixed input, so they run once,
    here, and the nets the cone reads stay alive across chunks.  A chunk's
    pass reads its fixed inputs' words, 0 or all-ones, as the chunk's
    number c, and runs ``chunk(c)`` of :func:`_plan`: what is left of the
    cone once each gate that reads a constant is reduced to a constant, a
    net or an inverter.  A fixed input, and an output that folds to a
    constant, gets 0 or the chunk's all-ones word itself, the object
    ``chunks`` yields, so a check can tell it from a word that only
    equals it.  The moving ports are the fixed inputs
    and the outputs on a cone cell's net or a fixed input's; the others,
    the varying inputs and the shared outputs, keep one word a sweep, so
    in a one-chunk sweep no port moves.
    """
    n = len(circuit.inputs)
    fixed, outer, cone, chunk = _cached(circuit, "_plan", _plan)
    driven = {out for _, _, out, _ in cone}.union(fixed)
    moving = (
        {circuit.inputs[i] for i in fixed},
        {p for p, net in zip(circuit.outputs, circuit.output_nets) if net in driven},
    )
    varying = [i for i in range(n) if i not in fixed]
    h, m = len(fixed), len(varying)
    ones = (1 << (1 << m)) - 1
    words = [0] * n
    for s, i in zip(range(m - 1, -1, -1), varying):
        word, period = ((1 << (1 << s)) - 1) << (1 << s), 2 << s
        while period < 1 << m:
            word |= word << period
            period <<= 1
        words[i] = word
    base = words + [None] * (circuit.num_nets - n)
    _exec(outer, base, ones, ())

    def run(words: list[int], ones: int) -> list[int]:
        c = 0
        for i in fixed:
            c = c << 1 | (words[i] != 0)
        ops, refs = chunk(c)
        values = base.copy()
        _exec(ops, values, ones, ())
        return [
            (0, ones)[ref.value] if isinstance(ref, Const) else values[ref]
            for ref in refs
        ]

    def chunks() -> Iterator[tuple[int, int, list[int]]]:
        for c in range(1 << h):
            low = 0
            for k, i in enumerate(fixed):
                bit = c >> (h - 1 - k) & 1
                words[i] = ones if bit else 0
                low |= bit << (n - 1 - i)
            yield low, ones, list(words)

    def spread(b: int) -> int:
        return sum((b >> (m - 1 - j) & 1) << (n - 1 - i) for j, i in enumerate(varying))

    return chunks(), run, spread, moving


def vector_at(circuit: Circuit, index: int) -> dict[str, int]:
    """The input vector at an enumeration index (see module docstring)."""
    n = len(circuit.inputs)
    if not 0 <= index < (1 << n):
        raise SimulationError(
            f"{circuit.name}: index {index} outside [0, 2^{n})"
        )
    return {port: (index >> (n - 1 - i)) & 1 for i, port in enumerate(circuit.inputs)}
