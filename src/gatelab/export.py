"""Serialization: a JSON netlist document, structural HDL, and DOT.

The JSON document is the interchange format and the only one that
imports back.  Nets are referenced by their unique names, cells
appear in creation order (which is topological), and the encoder is
byte-deterministic: two exports of the same circuit are identical
files.  HDL and DOT are write-only views with the same determinism
guarantee.

All file writes go through a temp file in the target directory plus
os.replace, so readers never observe a half-written file.
"""

from __future__ import annotations

import errno
import json
import os
import re
import tempfile

from .core import SCHEMA_VERSION, Cell, Circuit, GateKind, NetlistError, validate
from .timing import ArrivalMap


class FormatError(NetlistError):
    """Malformed or unsupported serialized netlist."""


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def to_document(circuit: Circuit) -> dict:
    names = circuit.net_names
    return {
        "schema_version": SCHEMA_VERSION,
        "name": circuit.name,
        "inputs": list(circuit.inputs),
        "outputs": [
            {"name": port, "net": names[net]}
            for port, net in zip(circuit.outputs, circuit.output_nets)
        ],
        "cells": [
            {
                "id": f"g{i}",
                "kind": cell.kind.name,
                "inputs": [names[src] for src in cell.ins],
                "output": names[cell.out],
            }
            for i, cell in enumerate(circuit.cells)
        ],
    }


def to_json(circuit: Circuit) -> str:
    return json.dumps(to_document(circuit), indent=2) + "\n"


def _require(doc: dict, key: str, kind: type) -> object:
    if key not in doc:
        raise FormatError(f"document lacks required key {key!r}")
    val = doc[key]
    if not isinstance(val, kind):
        raise FormatError(f"key {key!r} must be {kind.__name__}")
    return val


def from_document(doc: dict) -> Circuit:
    if not isinstance(doc, dict):
        raise FormatError("netlist document must be a JSON object")
    version = _require(doc, "schema_version", str)
    if version != SCHEMA_VERSION:
        raise FormatError(
            f"unsupported schema_version {version!r}; this reader handles "
            f"{SCHEMA_VERSION!r}"
        )
    name = _require(doc, "name", str)
    inputs = _require(doc, "inputs", list)
    outputs = _require(doc, "outputs", list)
    cells_doc = _require(doc, "cells", list)

    net_ids: dict[str, int] = {}
    net_names: list[str] = []

    def define(net: object, where: str) -> int:
        if not isinstance(net, str):
            raise FormatError(f"{where}: net name must be a string")
        if net in net_ids:
            raise FormatError(f"{where}: net {net!r} defined twice")
        net_ids[net] = len(net_names)
        net_names.append(net)
        return net_ids[net]

    for port in inputs:
        define(port, "inputs")

    cells: list[Cell] = []
    seen_ids: set[str] = set()
    for i, entry in enumerate(cells_doc):
        where = f"cells[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: must be an object")
        cid = entry.get("id")
        if not isinstance(cid, str) or cid in seen_ids:
            raise FormatError(f"{where}: missing or duplicate id")
        seen_ids.add(cid)
        kind_name = entry.get("kind")
        if kind_name in ("XOR2", "MUX2"):
            raise FormatError(
                f"{where}: {kind_name} is a macro, not a cell; it must be "
                "expanded to basic gates before export"
            )
        try:
            kind = GateKind[kind_name]
        except (KeyError, TypeError):
            raise FormatError(f"{where}: unknown cell kind {kind_name!r}") from None
        ins_doc = entry.get("inputs")
        if not isinstance(ins_doc, list):
            raise FormatError(f"{where}: inputs must be a list")
        ins = []
        for net in ins_doc:
            if not isinstance(net, str) or net not in net_ids:
                raise FormatError(
                    f"{where}: input net {net!r} is not defined yet; cells "
                    "must appear after their drivers"
                )
            ins.append(net_ids[net])
        out = define(entry.get("output"), where)
        cells.append(Cell(kind, tuple(ins), out))

    out_ports: list[str] = []
    out_nets: list[int] = []
    for i, entry in enumerate(outputs):
        where = f"outputs[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: must be an object")
        port = entry.get("name")
        net = entry.get("net")
        if not isinstance(port, str):
            raise FormatError(f"{where}: missing output name")
        if not isinstance(net, str) or net not in net_ids:
            raise FormatError(f"{where}: undefined net {net!r}")
        out_ports.append(port)
        out_nets.append(net_ids[net])

    circuit = Circuit(
        name=name,
        inputs=tuple(inputs),
        outputs=tuple(out_ports),
        output_nets=tuple(out_nets),
        cells=tuple(cells),
        net_names=tuple(net_names),
    )
    problems = validate(circuit)
    if problems:
        raise FormatError("; ".join(problems))
    return circuit


def from_json(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return from_document(doc)


# ---------------------------------------------------------------------------
# structural HDL
# ---------------------------------------------------------------------------

_PRIMITIVE = {
    GateKind.AND2: "and",
    GateKind.OR2: "or",
    GateKind.NAND2: "nand",
    GateKind.NOR2: "nor",
    GateKind.INV: "not",
}

_RESERVED = frozenset(
    "module endmodule input output wire assign and or nand nor not xor buf".split()
)


def _sanitize(name: str, taken: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not base or base[0].isdigit():
        base = "n_" + base
    if base in _RESERVED:
        base += "_w"
    ident = base
    k = 2
    while ident in taken:
        ident = f"{base}_{k}"
        k += 1
    taken.add(ident)
    return ident


def to_structural_hdl(circuit: Circuit) -> str:
    taken: set[str] = set()
    net_id = {
        net: _sanitize(circuit.net_names[net], taken)
        for net in range(circuit.num_nets)
    }
    port_id = {port: _sanitize(port, taken) for port in circuit.outputs}

    lines = [f"module {_sanitize(circuit.name, set())} ("]
    decls = [f"  input {net_id[net]}" for net in range(len(circuit.inputs))]
    decls += [f"  output {port_id[p]}" for p in circuit.outputs]
    lines.append(",\n".join(decls))
    lines.append(");")
    for cell in circuit.cells:
        lines.append(f"  wire {net_id[cell.out]};")
    for i, cell in enumerate(circuit.cells):
        args = ", ".join([net_id[cell.out]] + [net_id[s] for s in cell.ins])
        lines.append(f"  {_PRIMITIVE[cell.kind]} g{i} ({args});")
    for port, net in zip(circuit.outputs, circuit.output_nets):
        lines.append(f"  assign {port_id[port]} = {net_id[net]};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def to_dot(circuit: Circuit, annotate: ArrivalMap | None = None) -> str:
    """Graph with one node per input, per cell, and per output port.

    Passing an ArrivalMap stamps each node with its stage arrival;
    the map must have been computed for this same circuit.
    """
    if annotate is not None and annotate.circuit is not circuit:
        raise FormatError("arrival annotations belong to a different circuit")

    def stamp(net: int) -> str:
        if annotate is None:
            return ""
        return f" @{annotate.net_arrival[net]}"

    node_of: dict[int, str] = {}
    lines = [f'digraph "{circuit.name}" {{', "  rankdir=LR;"]
    for k, port in enumerate(circuit.inputs):  # input k is net k
        node_of[k] = f"i{k}"
        lines.append(f'  i{k} [shape=ellipse, label="{port}{stamp(k)}"];')
    for j, cell in enumerate(circuit.cells):
        node_of[cell.out] = f"c{j}"
        label = f"{cell.kind.name} {circuit.net_names[cell.out]}{stamp(cell.out)}"
        lines.append(f'  c{j} [shape=box, label="{label}"];')
    for k, port in enumerate(circuit.outputs):
        lines.append(f'  o{k} [shape=ellipse, peripheries=2, label="{port}"];')
    for j, cell in enumerate(circuit.cells):
        for src in cell.ins:
            lines.append(f"  {node_of[src]} -> c{j};")
    for k, net in enumerate(circuit.output_nets):
        lines.append(f"  {node_of[net]} -> o{k};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def write_text(path: str, text: str) -> None:
    """Atomic write: temp file next to the target, then os.replace.  A
    directory target is refused first, so the error names it."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "Is a directory", path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gatelab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: Each format ``render`` writes, with the file extension it is saved under.
FORMATS = {"json": "json", "hdl": "v", "dot": "dot"}


def render(circuit: Circuit, fmt: str, annotate: ArrivalMap | None = None) -> str:
    if fmt == "json":
        return to_json(circuit)
    if fmt == "hdl":
        return to_structural_hdl(circuit)
    if fmt == "dot":
        return to_dot(circuit, annotate)
    raise FormatError(f"unknown format {fmt!r}; choose from {tuple(FORMATS)}")
