"""Circuit evaluation: one engine, on Python-int words.

Each circuit is compiled once, on its first evaluation, into a flat op
list: each cell's function from :data:`~gatelab.core.GATE_FN`, its input
and output nets, and the nets it reads for the last time.  The list
runs on Python ints, one word per live net, whose bit v is the net's
value in vector v; the all-ones word of the run's length is GATE_FN's
inversion value.  So every vector of a word is evaluated at once,
bitwise.  A single vector is a 1-bit word; a batch of uint8 columns is
packed into one word per input and its outputs unpacked again; an
exhaustive sweep runs in chunks of 2^18 vectors, a word a net.

Exhaustive enumeration order is documented and relied on elsewhere:
vector index v assigns input i (in declared order) the bit
``(v >> (n - 1 - i)) & 1``, so ascending index is ascending
lexicographic order over input tuples.  :func:`_exhaustive_chunks`
yields the sweep's input words in that order, and
:func:`exhaustive_columns` the same inputs as uint8 columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .core import GATE_FN, Circuit, NetlistError

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


def _compile(circuit: Circuit) -> tuple[tuple, ...]:
    """The circuit's cells as a flat op list in topological order, each
    op (gate function from GATE_FN, input nets, output net, nets to free
    after it).

    An op frees the non-output nets it reads for the last time, so only
    live nets hold values.
    """
    keep = set(circuit.output_nets)
    last_read = {net: k for k, cell in enumerate(circuit.cells) for net in cell.ins}
    free: list[list[int]] = [[] for _ in circuit.cells]
    for net, k in last_read.items():
        if net not in keep:
            free[k].append(net)
    return tuple(
        (GATE_FN[cell.kind], cell.ins, cell.out, tuple(nets))
        for cell, nets in zip(circuit.cells, free)
    )


def _run(circuit: Circuit, inputs: list[int], ones: int) -> list[int]:
    """The output nets' words, in port order, from the input nets' words
    and the all-ones word of their length.

    This is the one engine: it runs the circuit's op list, compiled on
    first use and kept on the circuit in a private attribute that is no
    dataclass field.
    """
    ops = circuit.__dict__.get("_ops")
    if ops is None:
        ops = _compile(circuit)
        object.__setattr__(circuit, "_ops", ops)
    values = inputs + [None] * (circuit.num_nets - len(inputs))
    get = values.__getitem__
    for fn, ins, out, free in ops:
        values[out] = fn(*map(get, ins), ones)
        for net in free:
            values[net] = None
    return [values[net] for net in circuit.output_nets]


def _pack(columns: Iterable[np.ndarray]) -> list[int]:
    """One word per uint8 column of 0/1 values: bit v of the word is
    row v, read through the little-endian bytes of ``np.packbits``."""
    import numpy as np

    return [
        int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little")
        for col in columns
    ]


def evaluate_batch(
    circuit: Circuit, columns: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Evaluate many vectors at once.

    ``columns`` maps every input port to a 1-D array of 0/1 values;
    all arrays must share one length.  Returns uint8 output columns of
    the same length.  The columns are packed into words, run through
    the engine and unpacked.
    """
    import numpy as np

    cols = _stimulus(circuit, columns)
    length = len(cols[0])
    outs = _run(circuit, _pack(cols), (1 << length) - 1)
    size = -(-length // 8)
    packed = b"".join(word.to_bytes(size, "little") for word in outs)
    bits = np.unpackbits(
        np.frombuffer(packed, np.uint8).reshape(len(outs), size),
        axis=1,
        count=length,
        bitorder="little",
    )
    return dict(zip(circuit.outputs, bits))


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


# log2 of the vectors in an exhaustive sweep's chunk, one pass of the op
# list each.  kogge_stone(width=11)'s 2^23 vectors with the word check,
# in-process on 2 vCPUs: 10.4 ms a sweep at a tracemalloc peak of 2.4
# MiB, against 16.0 ms (0.6 MiB) in chunks of 2^16, 9.2 ms (9.7 MiB) in
# chunks of 2^20 and 29.2 ms (68 MiB) in one chunk of 2^23.
_CHUNK_LOG2 = 18


def _exhaustive_chunks(n_inputs: int) -> Iterator[tuple[int, int, list[int]]]:
    """(offset, all-ones word, input words) for each chunk of the 2^n
    vectors, in enumeration order; bit b of a chunk's words is vector
    ``offset + b``.

    Input i holds bit s = n - 1 - i of the index.  Below the chunk's top
    bit its word is the same in every chunk: 2^s zeros, then 2^s ones,
    a period doubled (``w |= w << p``) until it fills the chunk.  Above
    it, the word is all zeros or all ones, by bit s of the offset.
    """
    low = min(n_inputs, _CHUNK_LOG2)  # the last inputs, which vary in a chunk
    size = 1 << low
    ones = (1 << size) - 1
    varying = []
    for s in range(low - 1, -1, -1):
        word, period = ((1 << (1 << s)) - 1) << (1 << s), 2 << s
        while period < size:
            word |= word << period
            period <<= 1
        varying.append(word)
    for offset in range(0, 1 << n_inputs, size):
        high = [ones if offset >> s & 1 else 0 for s in range(n_inputs - 1, low - 1, -1)]
        yield offset, ones, high + varying


def vector_at(circuit: Circuit, index: int) -> dict[str, int]:
    """The input vector at an enumeration index (see module docstring)."""
    n = len(circuit.inputs)
    if not 0 <= index < (1 << n):
        raise SimulationError(
            f"{circuit.name}: index {index} outside [0, 2^{n})"
        )
    return {port: (index >> (n - 1 - i)) & 1 for i, port in enumerate(circuit.inputs)}
