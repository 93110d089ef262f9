"""Exit codes, stream separation, determinism, and the run manifest."""

from __future__ import annotations

import json
import os
import stat

import pytest

from gatelab import cli, generators
from gatelab.core import CircuitBuilder
from gatelab.export import from_json


def patched_block(monkeypatch, name, factory):
    info = generators.REGISTRY[name]
    monkeypatch.setitem(
        generators.REGISTRY,
        name,
        generators.GeneratorInfo(factory, {}, info.oracle),
    )


def broken_full_adder():
    b = CircuitBuilder("traditional_fa", ["A", "B", "C"])
    a, x, c = (b.input(p) for p in ("A", "B", "C"))
    b.set_output("Carry", b.and_(a, x, name="carry"))
    b.set_output("Sum", b.xor(b.xor(a, x), c, name="sum"))
    return b.seal()


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_writes_default_file(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli("build", "sorter2")
    assert code == 0
    assert out == ""
    assert "wrote sorter2.json" in err
    circuit = from_json((tmp_path / "sorter2.json").read_text())
    assert circuit.name == "sorter2"


def test_build_to_stdout(run_cli):
    code, out, err = run_cli("build", "sorter2", "--out", "-")
    assert code == 0
    assert json.loads(out)["name"] == "sorter2"


def test_build_dot_with_annotations(run_cli):
    code, out, _ = run_cli(
        "build", "adjusted_fa", "--format", "dot", "--annotate", "--out", "-"
    )
    assert code == 0
    assert out.startswith("digraph")
    assert "@4" in out


def test_build_parameter_flags(run_cli):
    code, out, _ = run_cli(
        "build", "kogge_stone", "--width", "4", "--out", "-"
    )
    assert code == 0
    assert json.loads(out)["inputs"] == (
        [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)] + ["cin"]
    )


def test_parameter_flags_come_from_the_registry(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["build", "--help"])
    usage = " ".join(capsys.readouterr().out.split())
    for info in generators.REGISTRY.values():
        for key, spec in info.params.items():
            assert f"--{key.replace('_', '-')}" in usage
            assert spec.help and spec.help in usage


def test_unknown_block_is_a_usage_error(run_cli):
    code, out, err = run_cli("build", "nosuchblock")
    assert code == 2
    assert "unknown generator" in err


def test_bad_parameter_is_a_usage_error(run_cli):
    code, _, err = run_cli("build", "kogge_stone", "--width", "0")
    assert code == 2
    assert "width" in err
    # --middle-pick belongs to sfa alone
    blocks = ("compressor72_cascade", "compressor72_proposed", "array_reducer", "pipeline")
    for block in blocks:
        code, _, err = run_cli("build", block, "--middle-pick", "first")
        assert code == 2
        assert f"{block} does not take --middle-pick" in err


def test_unwritable_output_is_an_io_error(run_cli):
    code, _, err = run_cli("build", "sorter2", "--out", "/nonexistent-dir/x.json")
    assert code == 3
    assert "io error" in err


def test_directory_output_is_an_io_error_that_names_it(run_cli, tmp_path):
    code, _, err = run_cli("build", "sorter2", "--out", str(tmp_path))
    assert code == 3
    assert str(tmp_path) in err
    assert ".gatelab-" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "exc", [MemoryError("cannot allocate 80.0 TiB"), RuntimeError("boom")]
)
def test_unexpected_exception_is_an_internal_error(run_cli, monkeypatch, exc):
    # Raised by a stub: a real oversized allocation could start the OOM killer.
    def explode(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_verify", explode)
    code, out, err = run_cli("verify", "sorter2")
    assert code == 4
    assert out == ""
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_argparse_usage_errors_exit_2(run_cli):
    assert run_cli("build")[0] == 2
    assert run_cli("frobnicate")[0] == 2
    assert run_cli("build", "sorter2", "--format", "svg")[0] == 2
    assert run_cli("build", "array_reducer", "--rows", "7")[0] == 2
    assert run_cli("export", "sfa")[0] == 2
    assert run_cli("verify", "sorter2", "--schema-version", "1")[0] == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_exhaustive_pass(run_cli):
    code, out, err = run_cli("verify", "compressor72_proposed", "--exhaustive")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["vectors_tried"] == 512
    assert "pass (512 vectors)" in err


def test_verify_failure_exits_1_with_counterexample(run_cli, monkeypatch):
    patched_block(monkeypatch, "traditional_fa", broken_full_adder)
    code, out, _ = run_cli("verify", "traditional_fa", "--exhaustive")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["counterexample"]["vector"] == {"A": 0, "B": 1, "C": 1}


def test_verify_random_mode(run_cli):
    code, out, _ = run_cli(
        "verify", "pipeline", "--cols", "8", "--random", "--seed", "1",
        "--count", "2000",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "random"
    assert doc["seed"] == 1
    assert doc["status"] == "pass"


def test_verify_wide_adder_is_exact(run_cli):
    code, out, _ = run_cli(
        "verify", "kogge_stone", "--width", "64", "--random", "--count", "500"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["random_count"] == 500


def test_verify_negative_seed_is_a_usage_error(run_cli):
    code, out, err = run_cli("verify", "sorter2", "--random", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "seed" in err


def test_verify_mode_defaults_track_the_bound(run_cli):
    _, out, _ = run_cli("verify", "sorter2")
    assert json.loads(out)["mode"] == "exhaustive"
    _, out, _ = run_cli("verify", "pipeline", "--count", "50")
    assert json.loads(out)["mode"] == "random"


def test_verify_exhaustive_too_wide_exits_2(run_cli):
    code, _, err = run_cli("verify", "pipeline", "--exhaustive")
    assert code == 2
    assert "random" in err  # the message points at the fallback


def test_verify_cin_independence(run_cli):
    code, out, _ = run_cli(
        "verify", "compressor72_cascade", "--check", "cin-independence"
    )
    assert code == 0
    assert json.loads(out)["mode"] == "cin-independence"


# ---------------------------------------------------------------------------
# depth / compare
# ---------------------------------------------------------------------------

def test_depth_reports_arrivals(run_cli):
    code, out, err = run_cli("depth", "traditional_fa")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"] == {"Carry": 3, "Sum": 4}
    assert doc["depth"] == 4
    assert "depth 4" in err


def test_depth_with_late_arrival(run_cli):
    code, out, _ = run_cli("depth", "adjusted_fa", "--arrival", "C=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["Sum"] == 4
    assert doc["input_arrivals"]["C"] == 2


def test_depth_arrival_validation(run_cli):
    assert run_cli("depth", "adjusted_fa", "--arrival", "Q=1")[0] == 2
    assert run_cli("depth", "adjusted_fa", "--arrival", "C2")[0] == 2
    assert run_cli("depth", "adjusted_fa", "--arrival", "C=x")[0] == 2


def test_depth_inv_cost(run_cli):
    code, out, _ = run_cli("depth", "sfa", "--inv-cost", "1")
    assert code == 0
    assert json.loads(out)["outputs"]["Sum"] == 5


def test_compare_pair(run_cli):
    code, out, err = run_cli(
        "compare", "compressor72_proposed", "compressor72_cascade"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"]["depth"] == 2
    assert "cells" in err and "compressor72_cascade" in err


def test_compare_needs_two_blocks(run_cli):
    code, _, err = run_cli("compare", "compressor72_proposed")
    assert code == 2
    assert "two blocks" in err


def test_compare_shares_flags_across_blocks(run_cli):
    code, out, _ = run_cli(
        "compare", "sfa", "traditional_fa", "--middle-pick", "second",
    )
    assert code == 0
    assert len(json.loads(out)["blocks"]) == 2


# ---------------------------------------------------------------------------
# cross-cutting contracts
# ---------------------------------------------------------------------------

def test_json_reports_are_byte_deterministic(run_cli):
    first = run_cli("compare", "compressor72_proposed", "compressor72_cascade")
    second = run_cli("compare", "compressor72_proposed", "compressor72_cascade")
    assert first == second
    a = run_cli("verify", "sfa", "--random", "--seed", "5", "--count", "100")
    b = run_cli("verify", "sfa", "--random", "--seed", "5", "--count", "100")
    assert a == b


def test_manifest_records_the_run(run_cli, tmp_path):
    manifest = tmp_path / "run.json"
    report = tmp_path / "report.json"
    argv = (
        "verify", "pipeline", "--cols", "4", "--random", "--seed", "7",
        "--count", "50", "--out", str(report), "--manifest", str(manifest),
    )
    code, _, _ = run_cli(*argv)
    assert code == 0
    doc = json.loads(manifest.read_text())
    assert doc["argv"] == list(argv)
    assert doc["command"] == "verify"
    assert doc["blocks"] == [{"generator": "pipeline", "params": {"cols": 4}}]
    assert doc["settings"]["seed"] == 7
    assert doc["paths"]["out"] == str(report)
    # replaying the recorded argv reproduces the report byte for byte
    before = report.read_bytes()
    assert run_cli(*doc["argv"])[0] == 0
    assert report.read_bytes() == before


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "sfa", "--manifest", "sfa.json"),  # build's default output
        ("build", "sfa", "--out", "r.json", "--manifest", "./r.json"),
        ("verify", "sfa", "--manifest", "-"),
    ],
    ids=["default-output", "same-path", "dash"],
)
def test_manifest_may_not_name_the_output_or_stdout(run_cli, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
)
def test_written_files_take_the_mode_the_umask_gives(run_cli, tmp_path, umask, mode):
    out, manifest = tmp_path / "sfa.json", tmp_path / "run.json"
    previous = os.umask(umask)
    try:
        code, _, _ = run_cli(
            "build", "sfa", "--out", str(out), "--manifest", str(manifest)
        )
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert stat.S_IMODE(manifest.stat().st_mode) == mode


def test_version_flag(run_cli):
    code, out, _ = run_cli("--version")
    assert code == 0
