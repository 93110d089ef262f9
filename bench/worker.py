"""One workload of the gatelab benchmark, run in a fresh process.

run.py launches this script; it is not meant to be run by hand.  The
process sets the workload up (``import gatelab`` plus any circuit built
once), notes when the first op is ready, then runs ops back to back
(one client, no think time) until ``--seconds`` have passed, checking
every op's outputs.  It prints one JSON document on stdout: set-up
time, peak RSS, and one record per op.

With ``--trace 1`` ops run in alternating blocks, untraced then
traced, so one run yields both the span summaries and the tracing
overhead; a final probe block measures ``evaluate_batch``'s peak
memory under tracemalloc.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time

from harness import (
    RECORD_PREFIX,
    ROOT,
    ImportOriginError,
    Tracer,
    require_checkout_import,
)

PROBE = ROOT / "bench" / "cli_probe.py"


class Mismatch(Exception):
    """An output check did not hold: the program computed something wrong."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# workloads
#
# Each class sets itself up in __init__ (that is the timed set-up),
# computes the benchmark's own expected values in prepare() (untimed),
# and returns from block(i) the ops of the i-th block as
# (kind, op, vectors, cells) tuples.  vectors and cells are the work
# each op submits, known in advance so a failed op still counts its
# work and its wall time.
# ---------------------------------------------------------------------------


class PaperCli:
    """The README's commands for the paper's claims, one fresh CLI
    process each; a block is one pass over all of them."""

    rss_of = resource.RUSAGE_CHILDREN
    # "", "spans" or "memory": how the next CLI processes trace themselves
    trace_mode = ""

    def __init__(self, g, seed: int, tiny: bool):
        self.g = g
        self.seed = seed
        self.count = 1_000 if tiny else 100_000

    def prepare(self) -> None:
        g = self.g

        def cells(name: str, **params) -> int:
            return len(g.build_block(g.BlockSpec(name, params)).cells)

        pipe8 = g.build_block(g.BlockSpec("pipeline", {"cols": 8}))
        self.pipe_vectors = self.count + len(g.structured_rows(pipe8))
        self.hdl = g.to_structural_hdl(g.sfa())
        self.c72_json = g.to_json(g.compressor72_proposed())
        fa = g.adjusted_fa()
        self.fa_depth = g.arrivals(fa, input_arrivals={"C": 2}).depth
        self.fa_depth_on_time = g.arrivals(fa).depth
        self.kogge_inputs = len(g.kogge_stone().inputs)
        self.cells = {
            "c72": cells("compressor72_proposed"),
            "cascade": cells("compressor72_cascade"),
            "fa": cells("adjusted_fa"),
            "sfa": cells("sfa"),
            "kogge": cells("kogge_stone"),
            "pipe8": len(pipe8.cells),
        }

    def block(self, i: int) -> list:
        c = self.cells
        seed = self.seed + i
        commands = [
            (["verify", "compressor72_proposed"], self._c72_verify, 512, c["c72"]),
            (
                ["verify", "compressor72_cascade", "--check", "cin-independence"],
                self._cin, 512, c["cascade"],
            ),
            (["depth", "adjusted_fa", "--arrival", "C=2"], self._depth, 0, c["fa"]),
            (
                ["compare", "compressor72_proposed", "compressor72_cascade"],
                self._compare, 0, c["c72"] + c["cascade"],
            ),
            (["build", "sfa", "--format", "hdl", "--out", "-"], self._hdl, 0, c["sfa"]),
            (["build", "compressor72_proposed", "--out", "-"], self._json, 0, c["c72"]),
            (["verify", "kogge_stone"], self._kogge, 1 << self.kogge_inputs, c["kogge"]),
            (
                [
                    "verify", "pipeline", "--cols", "8", "--random",
                    "--seed", str(seed), "--count", str(self.count),
                ],
                lambda doc: self._pipe(doc, seed), self.pipe_vectors, c["pipe8"],
            ),
        ]
        return [
            (argv[0], lambda argv=argv, check=check: self._run(argv, check), v, n)
            for argv, check, v, n in commands
        ]

    def _run(self, argv: list[str], check) -> dict:
        env = dict(os.environ)
        env.pop("GATELAB_BENCH_TRACE", None)
        if self.trace_mode:
            env["GATELAB_BENCH_TRACE"] = self.trace_mode
        proc = subprocess.run(
            [sys.executable, PROBE, *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        records = [
            line[len(RECORD_PREFIX):]
            for line in proc.stderr.splitlines()
            if line.startswith(RECORD_PREFIX)
        ]
        if not records:
            raise RuntimeError(f"gatelab {' '.join(argv)}: no probe record\n{proc.stderr}")
        record = json.loads(records[-1])
        require_checkout_import(record["gatelab_file"])
        if proc.returncode not in (0, 1):
            raise RuntimeError(
                f"gatelab {' '.join(argv)} exited {proc.returncode}: "
                f"{proc.stderr.strip().splitlines()[-2:]}"
            )
        if proc.returncode == 1 and '"status": "fail"' not in proc.stdout:
            raise RuntimeError(f"gatelab {' '.join(argv)} exited 1 without a report")
        check(proc.stdout)
        expect(proc.returncode == 0, f"gatelab {' '.join(argv)} exited 1")
        return {k: record[k] for k in ("import_s", "layers", "spans")}

    # -- output checks: the paper's numbers and byte-exact exports --------

    @staticmethod
    def _passed(out: str, mode: str, vectors: int) -> dict:
        report = json.loads(out)
        expect(report["status"] == "pass", f"{report['block']}: status {report['status']}")
        expect(report["mode"] == mode, f"{report['block']}: mode {report['mode']}")
        expect(
            report["vectors_tried"] == vectors,
            f"{report['block']}: {report['vectors_tried']} vectors, want {vectors}",
        )
        return report

    def _c72_verify(self, out: str) -> None:
        self._passed(out, "exhaustive", 512)

    def _cin(self, out: str) -> None:
        self._passed(out, "cin-independence", 512)

    def _kogge(self, out: str) -> None:
        self._passed(out, "exhaustive", 1 << self.kogge_inputs)

    def _pipe(self, out: str, seed: int) -> None:
        report = self._passed(out, "random", self.pipe_vectors)
        expect(report["seed"] == seed, f"pipeline: seed {report['seed']}, want {seed}")

    def _depth(self, out: str) -> None:
        doc = json.loads(out)
        expect(doc["depth"] == self.fa_depth, f"adjusted_fa depth {doc['depth']}")
        expect(
            doc["depth"] == self.fa_depth_on_time,
            "a late C moved adjusted_fa's depth",
        )

    def _compare(self, out: str) -> None:
        doc = json.loads(out)
        depths = [b["depth"] for b in doc["blocks"]]
        totals = [b["area"]["total"] for b in doc["blocks"]]
        expect(depths == [10, 12], f"compressor depths {depths}, paper says [10, 12]")
        expect(totals == [55, 65], f"compressor cells {totals}, want [55, 65]")

    def _hdl(self, out: str) -> None:
        expect(out == self.hdl, "sfa HDL differs from to_structural_hdl(sfa())")

    def _json(self, out: str) -> None:
        expect(out == self.c72_json, "compressor72_proposed JSON differs from to_json")
        expect(len(json.loads(out)["cells"]) == 55, "compressor72_proposed is not 55 cells")


class ArrayRandom:
    """verify_random on pipeline(cols=32), one fresh seed per op."""

    rss_of = resource.RUSAGE_SELF

    def __init__(self, g, seed: int, tiny: bool):
        self.g = g
        self.seed = seed
        self.count = 1_000 if tiny else 100_000
        self.circuit = g.build_block(g.BlockSpec("pipeline", {"cols": 4 if tiny else 32}))

    def prepare(self) -> None:
        self.vectors = self.count + len(self.g.structured_rows(self.circuit))

    def block(self, i: int) -> list:
        return [("verify_random", lambda: self._op(i), self.vectors, len(self.circuit.cells))]

    def _op(self, i: int) -> None:
        report = self.g.verify_random(self.circuit, seed=self.seed + i, count=self.count)
        expect(report.ok, f"verify_random seed {self.seed + i}: {report.status}")
        expect(report.vectors_tried == self.vectors, "wrong number of vectors tried")


class ExhaustiveSweep:
    """verify_exhaustive over every input of kogge_stone(width=11).

    The input space is fixed, so the seed changes nothing here."""

    rss_of = resource.RUSAGE_SELF

    def __init__(self, g, seed: int, tiny: bool):
        self.g = g
        self.circuit = g.build_block(g.BlockSpec("kogge_stone", {"width": 4 if tiny else 11}))

    def prepare(self) -> None:
        self.vectors = 1 << len(self.circuit.inputs)

    def block(self, i: int) -> list:
        return [("verify_exhaustive", self._op, self.vectors, len(self.circuit.cells))]

    def _op(self) -> None:
        report = self.g.verify_exhaustive(self.circuit)
        expect(report.ok, f"verify_exhaustive: {report.status}")
        expect(report.vectors_tried == self.vectors, "wrong number of vectors tried")


class WideNetlist:
    """Build, check, time, export and verify pipeline(cols=128) per op.

    At 128 columns the pipeline oracle's int64 sums overflow, so the
    verify step raises and the op counts as failed; the width stays.
    """

    rss_of = resource.RUSAGE_SELF

    def __init__(self, g, seed: int, tiny: bool):
        self.g = g
        self.seed = seed
        self.spec = g.BlockSpec("pipeline", {"cols": 8 if tiny else 128})
        self.count = 100 if tiny else 1_000

    def prepare(self) -> None:
        circuit = self.g.build_block(self.spec)
        self.cells = len(circuit.cells)
        self.vectors = self.count + len(self.g.structured_rows(circuit))

    def block(self, i: int) -> list:
        return [("wide", lambda: self._op(i), self.vectors, self.cells)]

    def _op(self, i: int) -> None:
        g = self.g
        circuit = g.build_block(self.spec)
        expect(g.validate(circuit) == [], "validate found problems")
        expect(len(circuit.cells) == self.cells, f"{len(circuit.cells)} cells, want {self.cells}")

        pick = random.Random(self.seed + i)
        expect(g.arrivals(circuit).depth > 0, "zero depth")
        slack = g.slack_to_input(
            circuit, pick.choice(circuit.inputs), pick.choice(circuit.outputs)
        )
        expect(slack is None or slack >= 0, f"negative slack {slack}")
        expect(g.area(circuit).total == self.cells, "area total differs from cell count")

        text = g.to_json(circuit)
        expect(g.to_json(g.from_json(text)) == text, "JSON round trip changed bytes")
        expect(g.to_structural_hdl(circuit).startswith("module pipeline ("), "bad HDL")
        expect(g.to_dot(circuit).startswith('digraph "pipeline" {'), "bad DOT")

        report = g.verify_random(circuit, seed=self.seed + i, count=self.count)
        expect(report.ok, f"verify_random seed {self.seed + i}: {report.status}")


WORKLOADS = {
    "paper-cli": PaperCli,
    "array-random": ArrayRandom,
    "exhaustive-sweep": ExhaustiveSweep,
    "wide-netlist": WideNetlist,
}


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def run_op(entry: tuple, tracer: Tracer | None, traced: bool, index, slot: int) -> dict:
    """Run one op, timed, and classify it as ok, wrong or error.

    ``tracer`` traces in this process; paper-cli traces inside its CLI
    processes instead, so it passes none and returns the layers itself.
    """
    kind, op, vectors, cells = entry
    if tracer is not None:
        tracer.op = index
        tracer.install()
    status, error, info = "ok", None, {}
    start = time.perf_counter()
    try:
        info = op() or {}
    except ImportOriginError:
        raise  # the benchmark itself is misconfigured; no result is valid
    except Mismatch as exc:
        status, error = "wrong", str(exc)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        status, error = "error", f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        info["layers"] = tracer.summary(index)
    return {
        "kind": kind,
        "slot": slot,
        "wall": wall,
        "status": status,
        "error": error,
        "traced": traced,
        "vectors": vectors,
        "cells": cells,
        **info,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    start = time.perf_counter()
    import gatelab

    import_s = time.perf_counter() - start
    require_checkout_import(gatelab.__file__)
    traced = args.trace == 1 and not args.setup_only
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.op = "setup"
        tracer.install()
    workload = WORKLOADS[args.workload](gatelab, args.seed, args.tiny)
    if tracer is not None:
        tracer.uninstall()
    setup_s = time.monotonic() - args.launched
    doc: dict = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(doc))
        return 0

    import numpy

    workload.prepare()
    ops: list[dict] = []
    cli_spans: list[dict] = []  # handed back by paper-cli's CLI processes
    in_process = not isinstance(workload, PaperCli)
    deadline = time.perf_counter() + args.seconds
    blocks = 0
    while True:
        on = traced and blocks % 2 == 1
        if not in_process:
            workload.trace_mode = "spans" if on else ""
        for slot, entry in enumerate(workload.block(blocks)):
            n = len(ops)
            rec = run_op(entry, tracer if on and in_process else None, on, n, slot)
            for span in rec.pop("spans", None) or []:
                # ids are per CLI process; qualify them with the op
                parent = span["parent"]
                cli_spans.append({
                    **span, "op": n, "id": f"{n}.{span['id']}",
                    "parent": None if parent is None else f"{n}.{parent}",
                })
            ops.append(rec)
        blocks += 1
        if time.perf_counter() >= deadline and (not traced or blocks >= 2):
            break

    if traced:
        # Peak memory of evaluate_batch, from one extra block under
        # tracemalloc; its timings are discarded.
        probe = Tracer(memory=True)
        if not in_process:
            workload.trace_mode = "memory"
        peaks = [0]
        for slot, entry in enumerate(workload.block(blocks)):
            rec = run_op(entry, probe if in_process else None, True, "probe", slot)
            peaks.append((rec.get("layers") or {}).get("simulate", {}).get("peak_bytes", 0))
        doc["simulate_peak_bytes"] = max(peaks)
        doc["setup_layers"] = tracer.summary("setup")
        spans_path = ROOT / "bench" / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.records() + cli_spans) + "\n")
        doc["spans_file"] = str(spans_path.relative_to(ROOT))

    doc["peak_rss_kb"] = resource.getrusage(workload.rss_of).ru_maxrss
    doc["numpy"] = numpy.__version__
    doc["gatelab_file"] = gatelab.__file__
    doc["ops"] = ops
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
