"""Stage-count timing and area accounting.

Timing uses a unit stage model: every 2-input gate costs one stage
and inverters are free by default (``inv_cost=0``), since a fanin-1
negation folds into the neighbouring cell in most standard-cell
flows.  Pass ``inv_cost=1`` to count them; that int is the model's
only setting.

Arrival times are longest-path stage counts from the inputs, all of
which launch at stage 0 unless per-input arrivals are given.  Slack
of an output with respect to one input is the output's base arrival
minus the longest path from that input; a larger slack means that
input may show up later without stretching the output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Mapping

from .core import BASIC_KINDS, SCHEMA_VERSION, Circuit, GateKind, NetlistError

_NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# arrival analysis
# ---------------------------------------------------------------------------

@dataclass
class ArrivalMap:
    circuit: Circuit
    inv_cost: int
    input_arrivals: dict[str, int]
    net_arrival: list[int] = field(repr=False)
    output_arrival: dict[str, int] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return max(self.output_arrival.values())

    def output(self, port: str) -> int:
        try:
            return self.output_arrival[port]
        except KeyError:
            raise NetlistError(f"no output named {port!r}") from None

    def critical_nets(self, port: str | None = None) -> list[str]:
        """Net names on a longest path to ``port`` (default: any
        output at the overall depth), in net order."""
        if port is None:
            worst = self.depth
            seeds = {
                self.circuit.output_net(p)
                for p, arr in self.output_arrival.items()
                if arr == worst
            }
        else:
            seeds = {self.circuit.output_net(port)}
        marked = set(seeds)
        for cell in reversed(self.circuit.cells):
            if cell.out not in marked:
                continue
            need = self.net_arrival[cell.out] - _cost(cell.kind, self.inv_cost)
            for src in cell.ins:
                if self.net_arrival[src] == need:
                    marked.add(src)
        return [self.circuit.net_names[i] for i in sorted(marked)]


def _clean_arrivals(circuit: Circuit, given: Mapping[str, int] | None) -> dict[str, int]:
    arrivals = {port: 0 for port in circuit.inputs}
    for port, at in (given or {}).items():
        if port not in arrivals:
            raise NetlistError(f"arrival given for unknown input {port!r}")
        if not isinstance(at, int) or isinstance(at, bool) or at < 0:
            raise NetlistError(f"arrival for {port!r} must be a non-negative int")
        arrivals[port] = at
    return arrivals


def _cost(kind: GateKind, inv_cost: int) -> int:
    return inv_cost if kind is GateKind.INV else 1


def _longest_paths(circuit: Circuit, inv_cost: int, launch: list) -> list:
    """Longest-path stage count to every net, input net i launching at
    ``launch[i]``; a net no launched input reaches stays at -inf.
    Every timing query comes here, so ``inv_cost`` is checked here."""
    if not isinstance(inv_cost, int) or isinstance(inv_cost, bool) or inv_cost not in (0, 1):
        raise NetlistError(f"inv_cost must be 0 or 1, got {inv_cost!r}")
    at = launch + [_NEG_INF] * (circuit.num_nets - len(launch))
    for cell in circuit.cells:
        at[cell.out] = max(at[src] for src in cell.ins) + _cost(cell.kind, inv_cost)
    return at


def arrivals(
    circuit: Circuit,
    inv_cost: int = 0,
    input_arrivals: Mapping[str, int] | None = None,
) -> ArrivalMap:
    given = _clean_arrivals(circuit, input_arrivals)
    net_arrival = _longest_paths(circuit, inv_cost, list(given.values()))
    out = {port: net_arrival[circuit.output_net(port)] for port in circuit.outputs}
    return ArrivalMap(circuit, inv_cost, given, net_arrival, out)


def depth(circuit: Circuit, inv_cost: int = 0) -> int:
    return arrivals(circuit, inv_cost).depth


def path_depth(
    circuit: Circuit,
    input_port: str,
    output_port: str,
    inv_cost: int = 0,
) -> int | None:
    """Longest path stage count from one input to one output, or
    None when no path connects them."""
    if input_port not in circuit.inputs:
        raise NetlistError(f"no input named {input_port!r}")
    if output_port not in circuit.outputs:
        raise NetlistError(f"no output named {output_port!r}")
    launch = [0 if port == input_port else _NEG_INF for port in circuit.inputs]
    got = _longest_paths(circuit, inv_cost, launch)[circuit.output_net(output_port)]
    return None if got == _NEG_INF else got


def slack_to_input(
    circuit: Circuit,
    input_port: str,
    output_port: str,
    inv_cost: int = 0,
) -> int | None:
    """How many stages later ``input_port`` could arrive without
    moving ``output_port``; None when the output never sees it."""
    path = path_depth(circuit, input_port, output_port, inv_cost)
    if path is None:
        return None
    base = arrivals(circuit, inv_cost).output(output_port)
    return base - path


# ---------------------------------------------------------------------------
# area
# ---------------------------------------------------------------------------

@dataclass
class AreaReport:
    block: str
    counts: dict[str, int]
    basic: int
    inverters: int
    total: int

    def to_dict(self) -> dict:
        return asdict(self)


def area(circuit: Circuit) -> AreaReport:
    raw = circuit.counts()  # every kind, in GateKind order
    counts = {kind.name: n for kind, n in raw.items()}
    basic = sum(raw[kind] for kind in BASIC_KINDS)
    inverters = raw[GateKind.INV]
    return AreaReport(circuit.name, counts, basic, inverters, basic + inverters)


# ---------------------------------------------------------------------------
# side-by-side comparison
# ---------------------------------------------------------------------------

@dataclass
class ComparisonReport:
    inv_cost: int
    blocks: list[dict]

    def to_dict(self) -> dict:
        entry = {
            "schema_version": SCHEMA_VERSION,
            "model": {"inv_cost": self.inv_cost},
            "blocks": self.blocks,
        }
        if len(self.blocks) == 2:
            a, b = self.blocks
            entry["delta"] = {
                "depth": b["depth"] - a["depth"],
                "basic": b["area"]["basic"] - a["area"]["basic"],
                "inverters": b["area"]["inverters"] - a["area"]["inverters"],
                "total": b["area"]["total"] - a["area"]["total"],
            }
        return entry

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        headers = ["block", "depth", "basic", "inv", "cells"]
        rows = [
            [
                b["block"],
                str(b["depth"]),
                str(b["area"]["basic"]),
                str(b["area"]["inverters"]),
                str(b["area"]["total"]),
            ]
            for b in self.blocks
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows))
            for i in range(len(headers))
        ]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
        for r in rows:
            lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(r)))
        ports = sorted({p for b in self.blocks for p in b["outputs"]})
        if ports:
            lines.append("")
            lines.append("output arrivals:")
            for p in ports:
                cells = "  ".join(
                    f"{b['block']}={b['outputs'].get(p, '-')}" for b in self.blocks
                )
                lines.append(f"  {p}: {cells}")
        return "\n".join(lines) + "\n"


def compare(
    circuits: list[Circuit],
    inv_cost: int = 0,
) -> ComparisonReport:
    blocks = []
    for circuit in circuits:
        amap = arrivals(circuit, inv_cost)
        cells = area(circuit).to_dict()
        del cells["block"]  # named once, by the entry
        blocks.append(
            {
                "block": circuit.name,
                "depth": amap.depth,
                "outputs": dict(amap.output_arrival),
                "area": cells,
            }
        )
    return ComparisonReport(inv_cost, blocks)
