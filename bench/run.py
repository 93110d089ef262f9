"""gatelab's benchmark: one workload per run, outputs checked, metrics printed.

    python3 bench/run.py --workload array-random --seed 1 --seconds 35 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

  paper-cli         the README's commands for the paper's claims, each in
                    a fresh ``python -m gatelab.cli`` process
  array-random      verify_random(pipeline(cols=32), count=100_000) per op
  exhaustive-sweep  verify_exhaustive(kogge_stone(width=11)) per op
  wide-netlist      build, validate, time, export and verify
                    pipeline(cols=128) per op

wide-netlist is not listed in BENCHMARK.json, so no regression gate uses
it: on a 2-vCPU host whose CPU speed drifts by up to 2x for tens of
seconds at a time, its pure-Python op times spread by about a quarter
from run to run.  It still runs, traced or not, and shows the pipeline
oracle's OverflowError at 128 columns as failed ops.

Each run launches the workload's process once to run ops back to back
for ``--seconds``: one client, no think time, every output checked.
Around it, half before and half after, the set-up alone runs in several
more fresh processes; ``setup_s`` is the median over all of them, which
spreads its samples over the whole run rather than one moment of it.  gatelab
is imported from this checkout's ``src/``; it need not be installed.

``--trace 0`` reports the end-to-end metrics with no tracing at all.
``--trace 1`` alternates untraced and traced blocks of ops and reports
the per-layer metrics, the tracing overhead and the op tail; the spans
themselves go to ``bench/out/spans-*.json``.  Every run also writes its
environment, metrics and per-op records to ``bench/out/result-*.json``.
The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

An op fails when it raises, when a CLI process exits non-zero, or when
a check does not hold; only the last makes ``correct`` false, since it
means gatelab computed a wrong result.  ``--tiny`` shrinks every
workload for the smoke test (test_bench_smoke.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from harness import ROOT, SRC

WORKER = ROOT / "bench" / "worker.py"
OUT = ROOT / "bench" / "out"
WORKLOADS = ("paper-cli", "array-random", "exhaustive-sweep", "wide-netlist")
# setup_s is the median over this many fresh launches, the measuring one included.
SETUP_LAUNCHES = 9
TINY_SETUP_LAUNCHES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "vectors_per_s": "1/s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CLI_COMMANDS = ("build", "verify", "depth", "compare")
# (metric, span name, field, unit): per-op mean of the field over traced ops
SPAN_METRICS = (
    ("build.s", "build", "total_s", "s"),
    ("build.cells", "build", "cells", "count"),
    ("core.validate_s", "core.validate", "total_s", "s"),
    ("timing.arrivals_s", "timing.arrivals", "total_s", "s"),
    ("timing.slack_s", "timing.slack", "total_s", "s"),
    ("timing.area_s", "timing.area", "total_s", "s"),
    ("export.to_json_s", "export.to_json", "total_s", "s"),
    ("export.from_json_s", "export.from_json", "total_s", "s"),
    ("export.hdl_s", "export.hdl", "total_s", "s"),
    ("export.dot_s", "export.dot", "total_s", "s"),
    ("export.json_bytes", "export.to_json", "bytes", "count"),
    ("simulate.s", "simulate", "total_s", "s"),
    ("simulate.calls", "simulate", "calls", "count"),
    ("simulate.stimulus_s", "simulate.stimulus", "total_s", "s"),
    ("verify.oracle_s", "verify.oracle", "total_s", "s"),
    ("verify.self_s", "verify", "self_s", "s"),
    ("verify.vectors", "verify", "vectors", "count"),
    ("verify.failed", "verify", "failed", "count"),
)
# Per-op counts that must repeat exactly from one traced block to the next.
EXACT_COUNTS = ("build.cells", "export.json_bytes", "simulate.calls", "verify.vectors")

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    **{f"cli.cmd_s.{c}": "s" for c in CLI_COMMANDS},
    "setup.build_s": "s",
    **{metric: unit for metric, _, _, unit in SPAN_METRICS},
    "simulate.gate_evals_per_s": "1/s",
    "simulate.peak_mb": "MB",
    "trace.overhead_s": "s",
    "trace.accounted_pct": "%",
    "op_tail_s": "s",
    "op_tail_pct": "%",
    "op_tail_samples": "count",
}


def launch(args: argparse.Namespace, setup_only: bool) -> dict:
    """Run the workload's process once; return its JSON document."""
    env = dict(os.environ)
    env.pop("GATELAB_BENCH_TRACE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--tiny"] if args.tiny else []
    launched = time.monotonic()
    proc = subprocess.run(
        cmd + ["--launched", repr(launched)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=args.seconds + 120,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{args.workload} worker exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(walls: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples); the maximum when there are too few."""
    ordered = sorted(walls)
    n = len(ordered)
    idx = n - 11 if n > 10 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n


def blocks_of(ops: list[dict]) -> list[list[dict]]:
    """Group ops into the blocks they ran in (a block starts at slot 0)."""
    blocks: list[list[dict]] = []
    for o in ops:
        if o["slot"] == 0:
            blocks.append([])
        blocks[-1].append(o)
    return blocks


def end_to_end(setups: list[dict], doc: dict) -> dict:
    """Medians throughout: the rates are one block's work over the
    median block wall time (a block is one op, or one pass over the
    CLI commands), so a stalled op moves them no more than op_p50_s."""
    ops = [o for o in doc["ops"] if not o["traced"]]
    block = blocks_of(ops)[0]
    block_wall = statistics.median(
        sum(o["wall"] for o in b) for b in blocks_of(ops)
    )
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups + [doc]),
        "op_p50_s": statistics.median(o["wall"] for o in ops),
        "ops_per_s": len(block) / block_wall,
        "vectors_per_s": sum(o["vectors"] for o in block) / block_wall,
        "cells_per_s": sum(o["cells"] for o in block) / block_wall,
        "peak_rss_mb": doc["peak_rss_kb"] / 1024,
    }


def merge_layers(ops: list[dict]) -> dict:
    merged: dict[str, dict] = {}
    for o in ops:
        for name, row in (o.get("layers") or {}).items():
            into = merged.setdefault(name, {})
            for key, value in row.items():
                into[key] = into.get(key, 0) + value
    return merged


def per_op_counts(op: dict) -> dict:
    layers = op.get("layers") or {}
    return {
        metric: layers.get(span, {}).get(field, 0)
        for metric, span, field, _ in SPAN_METRICS
        if metric in EXACT_COUNTS
    }


def counts_repeat(ops: list[dict]) -> bool:
    """Every traced op in the same slot of its block gives the same counts."""
    seen: dict[tuple, dict] = {}
    for o in ops:
        if o["traced"]:
            first = seen.setdefault((o["kind"], o["slot"]), per_op_counts(o))
            if per_op_counts(o) != first:
                return False
    return True


def per_layer(setups: list[dict], doc: dict) -> dict:
    ops = doc["ops"]
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    layers = merge_layers(traced)
    n = len(traced)
    metrics = {
        metric: layers.get(span, {}).get(field, 0) / n
        for metric, span, field, _ in SPAN_METRICS
    }
    cli_imports = [o["import_s"] for o in plain if "import_s" in o]
    metrics["cli.import_s"] = statistics.median(
        cli_imports or [s["import_s"] for s in setups + [doc]]
    )
    for command in CLI_COMMANDS:
        own = [o["wall"] - o["import_s"] for o in plain if o["kind"] == command]
        metrics[f"cli.cmd_s.{command}"] = statistics.fmean(own) if own else 0.0
    metrics["setup.build_s"] = doc["setup_layers"].get("build", {}).get("total_s", 0.0)
    sim = layers.get("simulate", {})
    metrics["simulate.gate_evals_per_s"] = (
        sim["gate_evals"] / sim["total_s"] if sim.get("total_s") else 0.0
    )
    metrics["simulate.peak_mb"] = doc["simulate_peak_bytes"] / 2**20
    metrics["trace.overhead_s"] = statistics.median(
        o["wall"] for o in traced
    ) - statistics.median(o["wall"] for o in plain)
    metrics["trace.accounted_pct"] = (
        100.0 * sum(row["self_s"] for row in layers.values())
        / sum(o["wall"] for o in traced)
    )
    value, pct, samples = tail([o["wall"] for o in plain])
    metrics["op_tail_s"] = value
    metrics["op_tail_pct"] = pct
    metrics["op_tail_samples"] = samples
    return metrics


def environment(args: argparse.Namespace, doc: dict) -> dict:
    commit = None  # stays None in a plain checkout; src_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gatelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": doc["numpy"],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "gatelab_file": doc["gatelab_file"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the smoke test")
    args = ap.parse_args()
    if not (SRC / "gatelab" / "__init__.py").is_file():
        print(f"error: no gatelab sources under {SRC}", file=sys.stderr)
        return 2

    extra = (TINY_SETUP_LAUNCHES if args.tiny else SETUP_LAUNCHES) - 1
    setups = [launch(args, setup_only=True) for _ in range(extra // 2)]
    doc = launch(args, setup_only=False)
    setups += [launch(args, setup_only=True) for _ in range(extra - extra // 2)]

    if args.trace:
        values, units = per_layer(setups, doc), PER_LAYER_UNITS
    else:
        values, units = end_to_end(setups, doc), END_TO_END_UNITS
    ops = doc["ops"]
    failed = [o for o in ops if o["status"] != "ok"]
    repeat = counts_repeat(ops)
    correct = repeat and not any(o["status"] == "wrong" for o in ops)
    env = environment(args, doc)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    OUT.mkdir(exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "environment": env,
        "metrics": metrics,
        "setup_launches": setups,
        "ops": ops,
        "spans_file": doc.get("spans_file"),
    }, indent=1) + "\n")

    print("environment: " + json.dumps(env))
    print(f"{args.workload}: {len(ops)} ops attempted, {len(failed)} failed")
    errors: dict[str, int] = {}
    for o in failed:
        errors[o["error"]] = errors.get(o["error"], 0) + 1
    for error, count in errors.items():
        print(f"  failed x{count}: {error}")
    if not repeat:
        print("  counts differ between traced blocks of this run")
    for name in units:
        print(f"  {name:28s} {values[name]:.6g} {units[name]}")
    if args.trace:
        print("self time per layer, seconds per traced op:")
        layers = merge_layers([o for o in ops if o["traced"]])
        n = sum(o["traced"] for o in ops)
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:28s} {row['self_s'] / n:.6f}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
