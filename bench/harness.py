"""Shared pieces of the gatelab benchmark: where gatelab must come from,
and the span tracer used by traced runs.

The tracer records spans from the benchmark's side of each module
boundary: it swaps gatelab's public entry points for timing wrappers
while an op runs and puts the originals back afterwards, so untraced
ops run gatelab's code untouched.  Nothing here imports numpy or
gatelab at module level; both are imported by the caller, whose import
time is itself measured.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Prefix of the stderr line in which cli_probe.py reports to the worker.
RECORD_PREFIX = "@gatelab-bench "


class ImportOriginError(Exception):
    """gatelab came from somewhere other than this checkout's src/."""


def require_checkout_import(path: str) -> None:
    """Fail unless a module file (``gatelab.__file__``) lies in this
    checkout's src/, rather than in an installed copy."""
    origin = str(Path(path).resolve())
    if not origin.startswith(str(SRC) + os.sep):
        raise ImportOriginError(f"gatelab imported from {origin}, not from {SRC}")


def _cells(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"cells": len(result.cells)}


def _json_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes": len(result.encode())}


def _batch(args: tuple, kwargs: dict, result: Any) -> dict:
    circuit, columns = args[0], args[1]
    vectors = len(next(iter(columns.values()))) if columns else 0
    return {"vectors": vectors, "gate_evals": vectors * len(circuit.cells)}


def _report(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"vectors": result.vectors_tried, "failed": 0 if result.ok else 1}


# (module, function, span name, what to count from the call and its result)
ENTRY_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("gatelab.generators", "build_block", "build", _cells),
    ("gatelab.core", "validate", "core.validate", None),
    ("gatelab.timing", "arrivals", "timing.arrivals", None),
    ("gatelab.timing", "slack_to_input", "timing.slack", None),
    ("gatelab.timing", "area", "timing.area", None),
    ("gatelab.timing", "compare", "timing.compare", None),
    ("gatelab.export", "to_json", "export.to_json", _json_bytes),
    ("gatelab.export", "from_json", "export.from_json", None),
    ("gatelab.export", "to_structural_hdl", "export.hdl", None),
    ("gatelab.export", "to_dot", "export.dot", None),
    ("gatelab.simulate", "evaluate_batch", "simulate", _batch),
    ("gatelab.simulate", "exhaustive_columns", "simulate.stimulus", None),
    ("gatelab.verify", "verify_random", "verify", _report),
    ("gatelab.verify", "verify_exhaustive", "verify", _report),
    ("gatelab.verify", "verify_cout_independence", "verify", _report),
)


@dataclasses.dataclass
class Span:
    id: int
    name: str
    op: Any
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)


class Tracer:
    """Records nested spans around gatelab's entry points.

    With ``memory=True`` each ``evaluate_batch`` call also runs under
    tracemalloc and records its peak as ``peak_bytes``; that slows the
    call, so memory is measured in a separate probe op, never in the
    ops whose spans are timed.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.op: Any = None
        self._stack: list[Span] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.op, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Run ``fn`` inside a span of its own."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        memory = self.memory and name == "simulate"

        def traced(*args, **kwargs):
            span = self._open(name)
            if memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.counts["failed"] = 1
                raise
            finally:
                if memory:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(span)
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Swap every binding of each entry point inside the gatelab
        package (re-exports and ``from .x import f`` copies included)
        and wrap each registered oracle's ``check``."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "gatelab" or key.startswith("gatelab.")
        ]
        for mod_name, attr, span_name, count in ENTRY_POINTS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(span_name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        oracles = sys.modules["gatelab.verify"].ORACLES
        for key, oracle in list(oracles.items()):
            self._undo.append((oracles, key, oracle))
            oracles[key] = dataclasses.replace(
                oracle, check=self._wrap("verify.oracle", oracle.check, None)
            )

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # -- summaries -----------------------------------------------------

    def summary(self, op: Any = None) -> dict:
        """Per span name: calls, total and self seconds, summed counts."""
        chosen = [s for s in self.spans if op is None or s.op == op]
        child_time: dict[int, float] = {}
        for s in chosen:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
        out: dict[str, dict] = {}
        for s in chosen:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - child_time.get(s.id, 0.0)
            for key, value in s.counts.items():
                if key == "peak_bytes":
                    row[key] = max(row.get(key, 0), value)
                else:
                    row[key] = row.get(key, 0) + value
        return out

    def records(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]
