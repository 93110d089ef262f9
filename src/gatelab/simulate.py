"""Circuit evaluation: one engine for batches and single vectors.

Each circuit is compiled once, on its first evaluation, into a flat op
list: each cell's function from :data:`~gatelab.core.GATE_FN`, its input
and output nets, and the nets it reads for the last time.  A batch runs
that list on uint64 words that each hold 64 vectors, one word array per
live net, so exhaustive sweeps and large random samples are
bitwise-parallel across vectors; columns are packed on the way in and
unpacked on the way out.  A single vector runs the same list on Python
ints, and so does a whole small input space, each net one 2^n-bit int.

Exhaustive enumeration order is documented and relied on elsewhere:
vector index v assigns input i (in declared order) the bit
``(v >> (n - 1 - i)) & 1``, so ascending index is ascending
lexicographic order over input tuples.  It has two sources.
:func:`_exhaustive_ints` runs all 2^n vectors at once on Python ints
whose bit v is vector v, and needs no numpy.  :func:`iter_exhaustive`
sweeps it in engine chunks of 2^18 vectors, which the engine runs as
packed words built straight from the enumeration, and yields each chunk
in slices of 2^16 vectors as uint8 input and output columns for the
oracle.  The op list's per-op Python cost is then paid once per engine
chunk, while the uint8 bytes held at a time follow one slice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

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


def _run(circuit: Circuit, inputs: list, one: Any) -> list:
    """All net values (None once freed) from the input nets' values, by
    the circuit's op list, compiled on first use and kept on the circuit
    in a private attribute that is no dataclass field."""
    ops = circuit.__dict__.get("_ops")
    if ops is None:
        ops = _compile(circuit)
        object.__setattr__(circuit, "_ops", ops)
    values = inputs + [None] * (circuit.num_nets - len(inputs))
    get = values.__getitem__
    for fn, ins, out, free in ops:
        values[out] = fn(*map(get, ins), one)
        for net in free:
            values[net] = None
    return values


def _evaluate_words(circuit: Circuit, words: Iterable[np.ndarray]) -> np.ndarray:
    """The output nets' words as one (outputs, words) uint64 array, from
    one uint64 word array per input, each holding 64 vectors a word.

    Input words may be read-only broadcast views; the engine never
    writes to them.
    """
    import numpy as np

    # The all-ones word is GATE_FN's inversion value for 64 packed vectors.
    values = _run(circuit, list(words), np.uint64(2**64 - 1))
    return np.stack([values[net] for net in circuit.output_nets])


def evaluate_batch(
    circuit: Circuit, columns: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Evaluate many vectors at once.

    ``columns`` maps every input port to a 1-D array of 0/1 values;
    all arrays must share one length.  Returns uint8 output columns of
    the same length.
    """
    import numpy as np

    cols = _stimulus(circuit, columns)
    length = len(cols[0])
    # Vector v sits at bit v % 64 of word v // 64, through each word's
    # little-endian byte view; padding past the last vector starts at 0.
    packed = np.zeros((len(cols), -(-length // 64) * 8), np.uint8)
    for row, col in zip(packed, cols):
        bits = np.packbits(col, bitorder="little")
        row[: bits.size] = bits
    outs = _evaluate_words(circuit, packed.view(np.uint64)).view(np.uint8)
    # An inversion sets the padding bits; count drops them.
    bits = np.unpackbits(outs, axis=1, count=length, bitorder="little")
    return dict(zip(circuit.outputs, bits))


def evaluate(circuit: Circuit, vector: Mapping[str, int]) -> dict[str, int]:
    """Evaluate one input vector; returns its outputs.

    The vector runs through the same op list as a batch, on Python ints.
    Plain int and bool 0/1 values skip the batch's numpy stimulus checks;
    any other vector goes through them, so both accept and reject the
    same values.
    """
    bits = [vector.get(port) for port in circuit.inputs]
    if len(vector) != len(bits) or not all(
        type(b) in (int, bool) and (b == 0 or b == 1) for b in bits
    ):
        cols = _stimulus(circuit, {port: [value] for port, value in vector.items()})
        bits = [int(col[0]) for col in cols]
    values = _run(circuit, bits, 1)
    return {
        port: int(values[net]) for port, net in zip(circuit.outputs, circuit.output_nets)
    }


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


def _exhaustive_ints(circuit: Circuit) -> dict[str, int]:
    """Each output's values at all 2^n vectors as one 2^n-bit int, whose
    bit v is the value at enumeration index v.

    Input i holds bit s = n - 1 - i of the index: the 2^(s+1)-bit period
    of 2^s zeros, then 2^s ones, repeated by multiplying it with the int
    whose bits 0, 2^(s+1), 2 * 2^(s+1), ... are set.
    """
    n = len(circuit.inputs)
    mask = (1 << (1 << n)) - 1
    words = [
        mask // ((1 << (2 << s)) - 1) * (((1 << (1 << s)) - 1) << (1 << s))
        for s in range(n - 1, -1, -1)
    ]
    values = _run(circuit, words, mask)
    return {port: values[net] for port, net in zip(circuit.outputs, circuit.output_nets)}


# log2 of the vectors in an exhaustive sweep's engine chunk and slice
# (see the module docstring).  kogge_stone(width=11)'s 2^23 vectors,
# in-process on 2 vCPUs: 28 ms a sweep at peak RSS 33.2 MB, against 40
# ms at 32.6 MB with 2^16-vector engine chunks.  2^19-vector engine
# chunks took 27 ms at 35.1 MB and 2^20 30 ms at 39.3 MB; 2^15 or
# 2^14-vector slices took 35 and 49 ms, since the oracle's cost per call
# outweighs the bytes saved.
_ENGINE_CHUNK_LOG2 = 18
_ORACLE_SLICE_LOG2 = 16


def iter_exhaustive(
    circuit: Circuit,
) -> Iterator[tuple[int, dict[str, np.ndarray], dict[str, np.ndarray]]]:
    """Yield (offset, input columns, output columns) for each slice of
    all 2^n vectors, in enumeration order.

    The engine runs lazily, once per engine chunk when its first slice
    is reached, on packed words built straight from the enumeration.
    Input i holds bit s = n - 1 - i of the index: below bit 6 one fixed
    pattern in every word, up to the chunk's top bit runs of 2^(s - 6)
    all-0 and all-1 words written once per sweep, and above that a
    constant; pattern and constant rows are read-only broadcast views
    of one word.

    The input columns are the rows of one reused (inputs, vectors) uint8
    buffer, which the next slice overwrites; of its rows, only those of
    the inputs above the slice's top bit change.  The output columns
    are unpacked afresh for each slice from its chunk's output words.
    """
    import numpy as np

    n = len(circuit.inputs)
    low = min(n, _ENGINE_CHUNK_LOG2)  # the last inputs, which vary in a chunk
    count = -(-(1 << low) // 64)  # words an input
    ones = 2**64 - 1
    rows = []
    for s in range(low - 1, -1, -1):
        if s < 6:
            # one word, which a sweep of fewer than 64 vectors fills in part
            word = sum(1 << v for v in range(min(64, 1 << low)) if v >> s & 1)
            rows.append(np.broadcast_to(np.uint64(word), (count,)))
        else:
            runs = np.repeat(np.array([0, ones], np.uint64), 1 << (s - 6))
            rows.append(np.tile(runs, count >> (s - 5)))
    constant = [np.broadcast_to(np.uint64(word), (count,)) for word in (0, ones)]
    varying = min(n, _ORACLE_SLICE_LOG2)  # the last inputs, which vary in a slice
    size = 1 << varying
    buffer = np.empty((n, size), np.uint8)
    buffer[n - varying :] = exhaustive_columns(varying)
    for start in range(0, 1 << n, 1 << low):
        high = list(vector_at(circuit, start).values())[: n - low]
        words = [constant[bit] for bit in high] + rows
        outs = _evaluate_words(circuit, words).view(np.uint8)
        for first in range(start, start + (1 << low), size):
            top = vector_at(circuit, first).values()  # constant in a slice
            for row, bit in zip(buffer[: n - varying], top):
                row.fill(bit)
            at = (first - start) // 8  # a vector a bit
            # An inversion sets the padding bits; count drops them.
            bits = np.unpackbits(
                outs[:, at : at + -(-size // 8)], axis=1, count=size, bitorder="little"
            )
            columns = dict(zip(circuit.inputs, buffer))
            yield first, columns, dict(zip(circuit.outputs, bits))


def vector_at(circuit: Circuit, index: int) -> dict[str, int]:
    """The input vector at an enumeration index (see module docstring)."""
    n = len(circuit.inputs)
    if not 0 <= index < (1 << n):
        raise SimulationError(
            f"{circuit.name}: index {index} outside [0, 2^{n})"
        )
    return {port: (index >> (n - 1 - i)) & 1 for i, port in enumerate(circuit.inputs)}
