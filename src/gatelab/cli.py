"""Command-line surface: build, verify, depth and compare.  Every command
takes the registry's block flags, --out and --manifest; the stage model
of depth and compare has one setting, --inv-cost (0 or 1).

Machine-readable JSON goes to stdout (or --out); human-readable
status and tables go to stderr.  Exit codes: 0 success or pass, 1
verification failure, 2 usage or parameter error, 3 I/O error, 4
internal error (any other exception, such as running out of memory,
reported as one line on stderr).  A random run checks its vectors in
chunks of bounded size, so --count bounds its run time, not its memory.

Identical invocations produce byte-identical JSON, so reports can be
diffed across runs.  Passing --manifest writes a RunManifest JSON
recording the argument vector, block specs, seeds, and inv_cost;
re-running the recorded argv reproduces the reports byte for byte.  A
manifest may not name the output file or '-' (a usage error, before
anything is written), and neither --out nor --manifest may be empty.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .core import SCHEMA_VERSION, NetlistError
from .export import FORMATS, render, write_text
from .generators import REGISTRY, BlockSpec, ParameterError, ParamSpec, build_block
from .timing import arrivals, compare
from .verify import (
    EXHAUSTIVE_INPUT_BOUND,
    verify_cout_independence,
    verify_exhaustive,
    verify_random,
)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _param_specs() -> dict[str, ParamSpec]:
    """Every registry parameter once, in registry order."""
    specs: dict[str, ParamSpec] = {}
    for info in REGISTRY.values():
        for key, spec in info.params.items():
            specs.setdefault(key, spec)
    return specs


def _block_spec(args: argparse.Namespace, generator: str, strict: bool) -> BlockSpec:
    """Collect parameter flags into a BlockSpec.

    strict mode rejects flags the generator does not accept; the
    relaxed mode (used by compare, where one flag set serves several
    blocks) drops them silently.
    """
    if generator not in REGISTRY:
        raise ParameterError(
            f"unknown generator {generator!r}; known: {sorted(REGISTRY)}"
        )
    accepted = REGISTRY[generator].params
    params = {}
    for key in _param_specs():
        value = getattr(args, key)
        if value is None:
            continue
        if key not in accepted:
            if strict:
                raise ParameterError(f"{generator} does not take --{key.replace('_', '-')}")
            continue
        params[key] = value
    return BlockSpec(generator, params)


def _emit(
    args: argparse.Namespace,
    text: str,
    note: str | None,
    specs: list[BlockSpec],
    settings: dict,
) -> None:
    """Write the document, then the note, then the manifest if asked for
    one; an empty --out, and a manifest that is empty, '-' or the
    document's path, are refused first."""
    if args.out == "":
        raise ParameterError("--out needs a path, or '-' for stdout")
    to_file = args.out not in (None, "-")
    if args.manifest in ("", "-") or (
        args.manifest
        and to_file
        and os.path.realpath(args.manifest) == os.path.realpath(args.out)
    ):
        raise ParameterError(
            f"--manifest {args.manifest!r} must be a file other than the output"
        )
    if to_file:
        write_text(args.out, text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if note:
        print(note, file=sys.stderr)
    if args.manifest is None:
        return
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "gatelab", "version": __version__},
        "argv": args.tokens,
        "command": args.command,
        "blocks": [
            {"generator": s.generator, "params": dict(sorted(s.params.items()))}
            for s in specs
        ],
        "settings": settings,
        "paths": {"out": args.out, "manifest": args.manifest},
    }
    write_text(args.manifest, json.dumps(doc, indent=2) + "\n")


def _parse_arrivals(pairs: list[str] | None) -> dict[str, int]:
    out: dict[str, int] = {}
    for pair in pairs or []:
        name, sep, stage = pair.partition("=")
        if not sep or not name:
            raise ParameterError(f"--arrival takes NAME=STAGE, got {pair!r}")
        try:
            out[name] = int(stage)
        except ValueError:
            raise ParameterError(f"--arrival stage must be an integer, got {pair!r}") from None
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_build(args: argparse.Namespace) -> int:
    spec = _block_spec(args, args.block, strict=True)
    circuit = build_block(spec)
    annotate = arrivals(circuit) if (args.format == "dot" and args.annotate) else None
    text = render(circuit, args.format, annotate)
    if args.out is None:
        args.out = f"{spec.generator}.{FORMATS[args.format]}"
    _emit(args, text, None, [spec], {"format": args.format})
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _block_spec(args, args.block, strict=True)
    circuit = build_block(spec)
    if args.check == "cin-independence":
        report = verify_cout_independence(circuit)
    else:
        mode = args.mode
        if mode is None:
            mode = (
                "exhaustive"
                if len(circuit.inputs) <= EXHAUSTIVE_INPUT_BOUND
                else "random"
            )
        if mode == "exhaustive":
            report = verify_exhaustive(circuit)
        else:
            report = verify_random(circuit, seed=args.seed, count=args.count)
    _emit(
        args,
        report.to_json(),
        f"{spec.label()}: {report.status} ({report.vectors_tried} vectors)",
        [spec],
        {"check": args.check, "mode": report.mode, "seed": args.seed, "count": args.count},
    )
    return 0 if report.ok else 1


def cmd_depth(args: argparse.Namespace) -> int:
    spec = _block_spec(args, args.block, strict=True)
    circuit = build_block(spec)
    given = _parse_arrivals(args.arrival)
    amap = arrivals(circuit, args.inv_cost, given)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "block": spec.label(),
        "model": {"inv_cost": amap.inv_cost},
        "input_arrivals": amap.input_arrivals,
        "outputs": dict(amap.output_arrival),
        "depth": amap.depth,
        "critical_nets": amap.critical_nets(),
    }
    lines = [f"{spec.label()}: depth {amap.depth} (inv_cost={amap.inv_cost})"]
    for port, stage in amap.output_arrival.items():
        lines.append(f"  {port}: {stage}")
    settings = {"model": {"inv_cost": amap.inv_cost}, "input_arrivals": given}
    _emit(args, json.dumps(doc, indent=2) + "\n", "\n".join(lines), [spec], settings)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.blocks) < 2:
        raise ParameterError("compare needs at least two blocks")
    specs = [_block_spec(args, name, strict=False) for name in args.blocks]
    circuits = [build_block(spec) for spec in specs]
    report = compare(circuits, args.inv_cost)
    settings = {"model": {"inv_cost": report.inv_cost}}
    _emit(args, report.to_json(), report.to_text(), specs, settings)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatelab",
        description="build, verify, time, and export gate-level arithmetic blocks",
    )
    parser.add_argument("--version", action="version", version=f"gatelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    for key, spec in _param_specs().items():
        shared.add_argument(
            f"--{key.replace('_', '-')}",
            type=spec.kind,
            choices=spec.choices,
            default=None,
            help=spec.help,
        )
    shared.add_argument(
        "--out",
        default=None,
        help="write the primary output to this path ('-' for stdout)",
    )
    shared.add_argument(
        "--manifest",
        default=None,
        help="also write a RunManifest JSON to this path",
    )
    stages = argparse.ArgumentParser(add_help=False)
    stages.add_argument("--inv-cost", type=int, choices=(0, 1), default=0, dest="inv_cost")
    known = f"known blocks: {', '.join(sorted(REGISTRY))}"

    p = sub.add_parser(
        "build",
        help="generate a block and write it in a chosen format",
        description=known,
        parents=[shared],
    )
    p.add_argument("block")
    p.add_argument("--format", choices=FORMATS, default="json")
    p.add_argument(
        "--annotate",
        action="store_true",
        help="stamp stage arrivals on dot nodes",
    )
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "verify",
        help="check a block against its arithmetic oracle",
        description=known,
        parents=[shared],
    )
    p.add_argument("block")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--exhaustive", action="store_const", const="exhaustive", dest="mode"
    )
    mode.add_argument("--random", action="store_const", const="random", dest="mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000, help="random vectors to draw")
    p.add_argument(
        "--check",
        choices=("oracle", "cin-independence"),
        default="oracle",
        help="what to verify (cin-independence needs compressor ports)",
    )
    p.set_defaults(func=cmd_verify, mode=None)

    p = sub.add_parser(
        "depth",
        help="stage arrival analysis",
        description=known,
        parents=[shared, stages],
    )
    p.add_argument("block")
    p.add_argument(
        "--arrival",
        action="append",
        metavar="NAME=STAGE",
        help="input arrival override, repeatable",
    )
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser(
        "compare",
        help="side-by-side depth and area for two or more blocks",
        description=known,
        parents=[shared, stages],
    )
    p.add_argument("blocks", nargs="+")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    tokens = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    args.tokens = tokens
    try:
        return args.func(args)
    except NetlistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
