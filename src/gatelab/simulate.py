"""Circuit evaluation: one engine for batches and single vectors.

The engine keeps one uint8 numpy array of 0/1 values per live net and
walks the cells once, applying each gate's function from
:data:`~gatelab.core.GATE_FN`, so exhaustive sweeps and large random
samples are bitwise-parallel across vectors rather than per-vector
Python loops.  A single vector is a batch of one row.

Exhaustive enumeration order is documented and relied on elsewhere:
vector index v assigns input i (in declared order) the bit
``(v >> (n - 1 - i)) & 1``, so ascending index is ascending
lexicographic order over input tuples.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from .core import GATE_FN, Circuit, NetlistError


class SimulationError(NetlistError):
    """Bad stimulus for an evaluation call."""


def _stimulus(circuit: Circuit, columns: Mapping[str, object]) -> list[np.ndarray]:
    """The input columns as uint8 arrays in port order, after checking
    that they cover exactly the inputs, are 1-D, share one length and
    hold only 0 and 1."""
    missing = [p for p in circuit.inputs if p not in columns]
    extra = [p for p in columns if p not in circuit.inputs]
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


def evaluate_batch(
    circuit: Circuit, columns: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Evaluate many vectors at once.

    ``columns`` maps every input port to a 1-D array of 0/1 values;
    all arrays must share one length.  Returns uint8 output columns of
    the same length.
    """
    keep = set(circuit.output_nets)
    # Each net is dropped after its last reader, so only live nets hold
    # arrays and each call reuses a few of them instead of faulting in
    # nets x vectors bytes of fresh memory.
    last_read = {net: k for k, cell in enumerate(circuit.cells) for net in cell.ins}
    values: list = _stimulus(circuit, columns)
    values += [None] * (circuit.num_nets - len(values))
    for k, cell in enumerate(circuit.cells):
        values[cell.out] = GATE_FN[cell.kind](*map(values.__getitem__, cell.ins))
        for net in cell.ins:
            if last_read[net] == k and net not in keep:
                values[net] = None
    return {
        port: values[net] for port, net in zip(circuit.outputs, circuit.output_nets)
    }


def evaluate(circuit: Circuit, vector: Mapping[str, int]) -> dict[str, int]:
    """Evaluate one input vector; returns its outputs."""
    columns = {port: [value] for port, value in vector.items()}
    outs = evaluate_batch(circuit, columns)
    return {name: int(col[0]) for name, col in outs.items()}


def exhaustive_columns(
    n_inputs: int, start: int, stop: int
) -> list[np.ndarray]:
    """Input columns for vector indices [start, stop) in enumeration order."""
    # Indices past int64 (circuits of 64 or more inputs) stay Python ints.
    idx = np.arange(start, stop, dtype=np.int64 if stop < 1 << 63 else object)
    return [
        ((idx >> (n_inputs - 1 - i)) & 1).astype(np.uint8) for i in range(n_inputs)
    ]


def iter_exhaustive(circuit: Circuit) -> Iterator[tuple[int, dict[str, np.ndarray]]]:
    """Yield (offset, input columns) chunks of 2^16 vectors covering all
    2^n vectors."""
    n = len(circuit.inputs)
    total, chunk = 1 << n, 1 << 16
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        cols = exhaustive_columns(n, start, stop)
        yield start, {port: cols[i] for i, port in enumerate(circuit.inputs)}


def vector_at(circuit: Circuit, index: int) -> dict[str, int]:
    """The input vector at an enumeration index (see module docstring)."""
    n = len(circuit.inputs)
    if not 0 <= index < (1 << n):
        raise SimulationError(
            f"{circuit.name}: index {index} outside [0, 2^{n})"
        )
    cols = exhaustive_columns(n, index, index + 1)
    return {port: int(col[0]) for port, col in zip(circuit.inputs, cols)}
