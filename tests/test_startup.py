"""The package surface, and what importing it costs: ``import gatelab``
loads no numpy, and neither do the commands that simulate nothing or
that sweep an input space exhaustively."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gatelab
from gatelab import evaluate, sfa

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "AreaReport", "ArrivalMap", "BlockSpec", "BuildError", "Cell", "Circuit",
    "CircuitBuilder", "ComparisonReport", "Const", "EXHAUSTIVE_INPUT_BOUND",
    "ExhaustiveBoundError", "FormatError", "GateKind", "GeneratorInfo", "Instance",
    "MIDDLE_PICKS", "NetRef", "NetlistError", "ORACLES", "Oracle", "ParamSpec",
    "ParameterError", "REGISTRY", "SimulationError", "VerificationReport",
    "adjusted_fa", "area", "array_reducer", "arrivals", "build_block", "compare",
    "compressor72_cascade", "compressor72_proposed", "depth", "evaluate",
    "evaluate_batch", "exhaustive_columns", "from_document", "from_json",
    "half_sorter4", "kogge_stone", "path_depth", "pipeline",
    "render", "resolve_oracle", "sfa", "slack_to_input", "sorter2",
    "sorting_network4", "structured_rows", "to_document", "to_dot", "to_json",
    "to_structural_hdl", "traditional_fa", "validate", "vector_at",
    "verify_cout_independence", "verify_exhaustive", "verify_random", "write_text",
]

WATCHED = ("numpy", "gatelab.simulate", "gatelab.verify")


def test_every_public_name_is_exported_and_resolves():
    assert len(PUBLIC_NAMES) == 61
    assert gatelab.__all__ == PUBLIC_NAMES
    namespace: dict = {}
    exec("from gatelab import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(gatelab, name), name


def _fresh(tmp_path: Path, body: str):
    """Run ``body`` in a fresh interpreter importing gatelab from src/;
    returns the JSON value it leaves in ``result`` and the set of
    WATCHED modules loaded by the end."""
    script = (
        f"import json, sys\n{body}\n"
        f"loaded = [m for m in {WATCHED!r} if m in sys.modules]\n"
        "print(json.dumps([result, loaded]), file=sys.stderr)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result, loaded = json.loads(proc.stderr.splitlines()[-1])
    return result, set(loaded)


def test_import_loads_no_numpy_but_every_submodule(tmp_path):
    _, loaded = _fresh(tmp_path, "import gatelab\nresult = None")
    assert loaded == {"gatelab.simulate", "gatelab.verify"}


@pytest.mark.parametrize(
    "argv",
    [
        ["depth", "adjusted_fa", "--arrival", "C=2"],
        ["compare", "compressor72_proposed", "compressor72_cascade"],
        ["build", "sfa", "--format", "hdl", "--out", "-"],
        ["build", "compressor72_proposed", "--out", "-"],
        # The DOT writer of gatelab.export, reached through `build`; the id
        # names what it exercises, as it did when `export` was a CLI alias.
        pytest.param(
            ["build", "compressor72_proposed", "--format", "dot", "--out", "-"],
            id="export compressor72_proposed --format dot (build)",
        ),
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_commands_that_simulate_nothing_load_no_numpy(tmp_path, argv):
    code, loaded = _fresh(tmp_path, f"from gatelab import cli\nresult = cli.main({argv!r})")
    assert code == 0
    assert "numpy" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "compressor72_proposed"],
        ["verify", "compressor72_cascade", "--check", "cin-independence"],
        ["verify", "kogge_stone"],
        ["verify", "kogge_stone", "--width", "9"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_exhaustive_verifies_load_no_numpy(tmp_path, argv):
    # Exhaustive sweeps build their input words on Python ints, at any
    # width: the paper's 9-input compressor, kogge_stone's 17 inputs, and
    # its 19 at width 9, whose chunks run a folded cone.
    code, loaded = _fresh(tmp_path, f"from gatelab import cli\nresult = cli.main({argv!r})")
    assert code == 0
    assert "numpy" not in loaded


def test_random_verify_loads_numpy(tmp_path):
    # The random stream is numpy's PCG64 draw.
    argv = ["verify", "pipeline", "--random", "--count", "100"]
    code, loaded = _fresh(tmp_path, f"from gatelab import cli\nresult = cli.main({argv!r})")
    assert code == 0
    assert "numpy" in loaded


def test_scalar_evaluate_on_ints_loads_no_numpy(tmp_path):
    c = sfa()
    vector = {port: 1 for port in c.inputs}
    outs, loaded = _fresh(
        tmp_path,
        "from gatelab import evaluate, sfa\n"
        f"result = evaluate(sfa(), {vector!r})",
    )
    assert outs == evaluate(c, vector)
    assert "numpy" not in loaded
