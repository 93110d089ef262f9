"""Combinational gate-level netlist IR.

A circuit is a DAG of 2-input gates (AND2, OR2, NAND2, NOR2) plus the
1-input inverter.  XOR and MUX are builder macros that expand into this
basis; they are never stored.  Nets are integer ids with unique names.
Circuits are immutable once sealed; all construction goes through
:class:`CircuitBuilder`.

Constant inputs never survive into a sealed circuit: the builder folds
them away at gate-creation time, which is also how instantiation with
tied-off ports works.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, Union


class NetlistError(Exception):
    """Base error for this package."""


class BuildError(NetlistError):
    """Misuse of a builder or a structurally invalid circuit."""


class GateKind(enum.Enum):
    AND2 = "AND2"
    OR2 = "OR2"
    NAND2 = "NAND2"
    NOR2 = "NOR2"
    INV = "INV"

    # members are singletons: hash by identity, not by name as Enum does
    __hash__ = object.__hash__


ARITY = {
    GateKind.AND2: 2,
    GateKind.OR2: 2,
    GateKind.NAND2: 2,
    GateKind.NOR2: 2,
    GateKind.INV: 1,
}

#: Each gate's boolean function, the only place it is written.  The last
#: argument is the all-ones value of the operands: ``1`` for the 0/1
#: ints of constant folding and a single vector, and the all-ones int
#: of the run's length for the engine's words, one bit a vector.
#: Inversion is ``^ one``, so a word flips all its bits, not only bit 0.
GATE_FN: dict[GateKind, Callable[..., Any]] = {
    GateKind.AND2: lambda a, b, one: a & b,
    GateKind.OR2: lambda a, b, one: a | b,
    GateKind.NAND2: lambda a, b, one: (a & b) ^ one,
    GateKind.NOR2: lambda a, b, one: (a | b) ^ one,
    GateKind.INV: lambda a, one: a ^ one,
}

# Inverters are tracked apart from the 2-input gates in area and timing.
BASIC_KINDS = (GateKind.AND2, GateKind.OR2, GateKind.NAND2, GateKind.NOR2)


class Const(enum.Enum):
    """Tie-off value accepted wherever a net is expected during building."""

    ZERO = 0
    ONE = 1

    __hash__ = object.__hash__  # as GateKind's


ZERO = Const.ZERO
ONE = Const.ONE

#: A net id inside a builder, or a tie-off constant.
NetRef = Union[int, Const]

#: Version stamped on every JSON document gatelab writes, and the one
#: it accepts back.
SCHEMA_VERSION = "1"

# Circuit and net names, matched whole; ports take no "/", which marks
# the nets of an instance.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_/]*")
_PORT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def fold(kind: GateKind, ins: Sequence[NetRef]) -> tuple[NetRef, bool] | None:
    """What a gate with a constant input reduces to, by evaluating
    :data:`GATE_FN`: ``(Const, False)``, ``(x, False)`` for its other net
    x, or ``(x, True)`` for the inverse of x.  None when no input is a
    constant, so the gate stays."""
    if len(ins) == 1:
        (a,) = ins
        return _tied(kind, (a.value,)) if isinstance(a, Const) else None
    a, b = ins
    if isinstance(a, Const):
        if isinstance(b, Const):
            return _tied(kind, (a.value, b.value))
        const, invert = _tied(kind, (a.value, None))
        return (b if const is None else const), invert
    if isinstance(b, Const):
        const, invert = _tied(kind, (None, b.value))
        return (a if const is None else const), invert
    return None


@functools.lru_cache(maxsize=None)
def _tied(kind: GateKind, tied: tuple[int | None, ...]) -> tuple[Const | None, bool]:
    """:data:`GATE_FN`'s ``kind`` with each input tied to its value in
    ``tied``, or free where None, as ``(Const, False)``, or as ``(None,
    invert)`` when it is the free input, inverted or not."""
    fn = GATE_FN[kind]
    low, high = (fn(*(bit if v is None else v for v in tied), 1) for bit in (0, 1))
    if low == high:
        return Const(low), False
    return None, low == 1


@dataclass(frozen=True)
class Cell:
    """One gate: ``out = kind(*ins)``.  Net ids, not names."""

    kind: GateKind
    ins: tuple[int, ...]
    out: int


@dataclass(frozen=True)
class Instance:
    """Record of one sub-circuit instantiation (metadata, not serialized).

    ``inputs`` maps the sub-circuit's input ports to the parent refs they
    were bound to; ``outputs`` maps its output ports to the parent refs
    they produced (constants appear when folding collapsed an output).
    """

    name: str
    block: str
    inputs: tuple[tuple[str, NetRef], ...]
    outputs: tuple[tuple[str, NetRef], ...]


@dataclass(frozen=True)
class Circuit:
    """Sealed combinational netlist.

    Nets ``0 .. len(inputs)-1`` are the input ports, in declared order.
    ``cells`` is topologically ordered: every cell reads only input nets
    or outputs of earlier cells.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    output_nets: tuple[int, ...]
    cells: tuple[Cell, ...]
    net_names: tuple[str, ...]
    instances: tuple[Instance, ...] = ()

    def __getstate__(self) -> dict:
        # The engine's op lists (simulate._cached), kept here in private
        # attributes after first use, hold GATE_FN's lambdas, which do not
        # pickle; they are compiled again on first use.
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    def net(self, name: str) -> int:
        """Net id for a net name (inputs are named by their port)."""
        try:
            return self.net_names.index(name)
        except ValueError:
            raise NetlistError(f"{self.name}: no net named {name!r}") from None

    def output_net(self, port: str) -> int:
        try:
            return self.output_nets[self.outputs.index(port)]
        except ValueError:
            raise NetlistError(f"{self.name}: no output port {port!r}") from None

    def counts(self) -> dict[GateKind, int]:
        out = {kind: 0 for kind in GateKind}
        for cell in self.cells:
            out[cell.kind] += 1
        return out


def validate(circuit: Circuit) -> list[str]:
    """Structural check; returns a list of violations (empty when clean).

    Checks the circuit, port and net names, port uniqueness, single
    drivers, gate arity and that ``cells`` is in topological order (which
    also rules out cycles).
    """
    errs: list[str] = []
    names = circuit.net_names
    n_inputs = len(circuit.inputs)

    if not _NAME_RE.fullmatch(circuit.name):
        errs.append(f"bad circuit name {circuit.name!r}")
    seen_ports: set[str] = set()
    for port in circuit.inputs + circuit.outputs:
        if port in seen_ports:
            errs.append(f"duplicate port name {port!r}")
        seen_ports.add(port)
    for port in circuit.inputs + circuit.outputs:
        if not _PORT_RE.fullmatch(port):
            errs.append(f"bad port name {port!r}")
    # Input nets carry their port's name, checked above.
    for name in names[n_inputs:]:
        if not _NAME_RE.fullmatch(name):
            errs.append(f"bad net name {name!r}")

    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        errs.append(f"duplicate net names: {dupes}")
    for i, port in enumerate(circuit.inputs):
        if i >= len(names) or names[i] != port:
            errs.append(f"input net {i} must be named after its port {port!r}")

    driven = set(range(n_inputs))
    for idx, cell in enumerate(circuit.cells):
        if cell.kind not in ARITY:
            errs.append(f"cell {idx}: unknown kind {cell.kind!r}")
            continue
        if len(cell.ins) != ARITY[cell.kind]:
            errs.append(
                f"cell {idx}: {cell.kind.value} takes {ARITY[cell.kind]} "
                f"inputs, got {len(cell.ins)}"
            )
        for ref in cell.ins:
            if not (0 <= ref < len(names)):
                errs.append(f"cell {idx}: input net {ref} out of range")
            elif ref not in driven:
                errs.append(
                    f"cell {idx}: net {names[ref]!r} used before its driver "
                    "(cycle or non-topological order)"
                )
        if not (0 <= cell.out < len(names)):
            errs.append(f"cell {idx}: output net {cell.out} out of range")
        elif cell.out in driven:
            errs.append(f"cell {idx}: net {names[cell.out]!r} has two drivers")
        else:
            driven.add(cell.out)

    if len(driven) != len(names):
        for ref in range(len(names)):
            if ref not in driven:
                errs.append(f"net {names[ref]!r} has no driver")

    if not circuit.outputs:
        errs.append("circuit has no outputs")
    if len(circuit.output_nets) != len(circuit.outputs):
        errs.append("output port/net lists disagree")
    else:
        for port, ref in zip(circuit.outputs, circuit.output_nets):
            if not (0 <= ref < len(names)):
                errs.append(f"output {port!r} bound to net {ref} out of range")
            elif ref not in driven:
                errs.append(f"output {port!r} bound to undriven net")
    return errs


def _unique(base: str, taken: set[str]) -> str:
    """``base``, or ``base__k`` for the least k >= 2 that is not yet in
    ``taken``; the name returned is added to ``taken``."""
    name, k = base, 2
    while name in taken:
        name = f"{base}__{k}"
        k += 1
    taken.add(name)
    return name


def _check_ref(ref: NetRef, limit: int) -> None:
    if isinstance(ref, Const):
        return
    # bool is an int subclass; True/False here is almost always a bug.
    if isinstance(ref, bool) or not isinstance(ref, int):
        raise BuildError(f"net reference must be an int net id or Const, got {ref!r}")
    if not (0 <= ref < limit):
        raise BuildError(f"unknown net id {ref}")


class CircuitBuilder:
    """Single-owner builder; produces a sealed :class:`Circuit`.

    Gates accept ``ZERO``/``ONE`` anywhere a net is expected and fold the
    constant immediately, so a sealed circuit contains no constants.
    """

    def __init__(self, name: str, inputs: Sequence[str]):
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            raise BuildError(f"bad circuit name {name!r}")
        if not inputs:
            raise BuildError("a circuit needs at least one input")
        self._inputs: dict[str, int] = {}  # port -> net id, in declared order
        for port in inputs:
            if not isinstance(port, str) or not _PORT_RE.fullmatch(port):
                raise BuildError(f"bad input name {port!r}")
            if port in self._inputs:
                raise BuildError(f"duplicate input name {port!r}")
            self._inputs[port] = len(self._inputs)
        self.name = name
        self._net_names: list[str] = list(inputs)
        self._used_names: set[str] = set(inputs)
        self._cells: list[Cell] = []
        self._outputs: dict[str, int] = {}
        self._instances: list[Instance] = []
        self._inst_names: set[str] = set()
        self._sealed = False

    # ---------------- net bookkeeping ----------------

    def _alive(self) -> None:
        if self._sealed:
            raise BuildError(f"builder for {self.name!r} is already sealed")

    def _new_net(self, name: str | None) -> int:
        if name is None:
            name = f"n{len(self._net_names)}"
        self._net_names.append(_unique(name, self._used_names))
        return len(self._net_names) - 1

    def input(self, port: str) -> int:
        """Net id of an input port."""
        try:
            return self._inputs[port]
        except (KeyError, TypeError):
            raise BuildError(f"{self.name}: no input named {port!r}") from None

    # ---------------- gates ----------------

    def add_gate(self, kind: GateKind, *ins: NetRef, name: str | None = None) -> NetRef:
        """Append one gate; returns its output ref.

        Constant inputs fold by :func:`fold`: the result may be an
        existing net, a Const, or an inverter (NAND/NOR with a tied
        input).
        """
        self._alive()
        if kind not in ARITY:
            raise BuildError(f"unknown gate kind {kind!r}")
        if len(ins) != ARITY[kind]:
            raise BuildError(
                f"{kind.value} takes {ARITY[kind]} inputs, got {len(ins)}"
            )
        for ref in ins:
            _check_ref(ref, len(self._net_names))

        folded = fold(kind, ins)
        if folded is None:
            out = self._new_net(name)
            self._cells.append(Cell(kind, ins, out))
            return out
        ref, invert = folded
        return self.inv(ref, name=name) if invert else ref

    def and_(self, a: NetRef, b: NetRef, name: str | None = None) -> NetRef:
        return self.add_gate(GateKind.AND2, a, b, name=name)

    def or_(self, a: NetRef, b: NetRef, name: str | None = None) -> NetRef:
        return self.add_gate(GateKind.OR2, a, b, name=name)

    def nand_(self, a: NetRef, b: NetRef, name: str | None = None) -> NetRef:
        return self.add_gate(GateKind.NAND2, a, b, name=name)

    def nor_(self, a: NetRef, b: NetRef, name: str | None = None) -> NetRef:
        return self.add_gate(GateKind.NOR2, a, b, name=name)

    def inv(self, a: NetRef, name: str | None = None) -> NetRef:
        return self.add_gate(GateKind.INV, a, name=name)

    # ---------------- macros ----------------

    def xor(self, a: NetRef, b: NetRef, name: str | None = None) -> NetRef:
        """(a+b)·!(ab); two stages of basic gates, one inverter."""
        either = self.or_(a, b)
        both = self.and_(a, b)
        return self.and_(either, self.inv(both), name=name)

    def mux(
        self,
        select: NetRef,
        when0: NetRef,
        when1: NetRef,
        name: str | None = None,
    ) -> NetRef:
        """!select·when0 + select·when1; two stages, inverter on select."""
        low = self.and_(self.inv(select), when0)
        high = self.and_(select, when1)
        return self.or_(low, high, name=name)

    # ---------------- hierarchy ----------------

    def instantiate(
        self,
        sub: Circuit,
        bindings: Mapping[str, NetRef],
        name: str | None = None,
    ) -> dict[str, NetRef]:
        """Flatten a copy of ``sub`` into this builder.

        ``bindings`` must cover exactly the sub-circuit's inputs; values
        may be parent nets or constants (which fold through the copy).
        Fresh nets are named ``<instance>/<sub net name>``, so repeated
        instantiation never collides.  Returns output port -> parent ref.
        """
        self._alive()
        missing = [p for p in sub.inputs if p not in bindings]
        extra = [p for p in bindings if p not in sub.inputs]
        if missing or extra:
            raise BuildError(
                f"bindings for {sub.name!r} do not match its inputs"
                f" (missing {missing}, unexpected {extra})"
            )
        for ref in bindings.values():
            _check_ref(ref, len(self._net_names))

        inst = _unique(sub.name if name is None else name, self._inst_names)

        netmap: dict[int, NetRef] = {}
        for i, port in enumerate(sub.inputs):
            netmap[i] = bindings[port]
        for cell in sub.cells:
            ins = tuple(netmap[i] for i in cell.ins)
            out_name = f"{inst}/{sub.net_names[cell.out]}"
            netmap[cell.out] = self.add_gate(cell.kind, *ins, name=out_name)
        outs = {
            port: netmap[net] for port, net in zip(sub.outputs, sub.output_nets)
        }
        self._instances.append(
            Instance(
                name=inst,
                block=sub.name,
                inputs=tuple((p, bindings[p]) for p in sub.inputs),
                outputs=tuple(outs.items()),
            )
        )
        return outs

    # ---------------- outputs / seal ----------------

    def set_output(self, port: str, ref: NetRef) -> None:
        self._alive()
        if not isinstance(port, str) or not _PORT_RE.fullmatch(port):
            raise BuildError(f"bad output name {port!r}")
        if port in self._outputs or port in self._inputs:
            raise BuildError(f"port name {port!r} already in use")
        if isinstance(ref, Const):
            raise BuildError(
                f"output {port!r} folded to a constant; constant output "
                "ports are not representable"
            )
        _check_ref(ref, len(self._net_names))
        self._outputs[port] = ref

    def seal(self) -> Circuit:
        """Freeze into a Circuit; the builder is dead afterwards."""
        self._alive()
        if not self._outputs:
            raise BuildError(f"{self.name}: no outputs set")
        circuit = Circuit(
            name=self.name,
            inputs=tuple(self._inputs),
            outputs=tuple(self._outputs),
            output_nets=tuple(self._outputs.values()),
            cells=tuple(self._cells),
            net_names=tuple(self._net_names),
            instances=tuple(self._instances),
        )
        problems = validate(circuit)
        if problems:
            raise BuildError(
                f"{self.name}: structurally invalid: " + "; ".join(problems)
            )
        self._sealed = True
        return circuit
