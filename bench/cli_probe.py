"""Run ``python -m gatelab.cli ARGS`` with the benchmark's probes around it.

    python bench/cli_probe.py verify compressor72_proposed

The CLI module runs as ``__main__`` through runpy, as ``-m`` runs it.  Around it this script times ``import gatelab``, records
where gatelab was imported from and, when GATELAB_BENCH_TRACE is
``spans`` or ``memory``, traces the CLI's calls into gatelab.  It
writes one ``@gatelab-bench {json}`` line to stderr and exits with the
CLI's own exit code.
"""

import time

_start = time.perf_counter()
import gatelab  # noqa: E402

_import_s = time.perf_counter() - _start

import json  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

from harness import RECORD_PREFIX, Tracer  # noqa: E402


def main() -> int:
    mode = os.environ.get("GATELAB_BENCH_TRACE", "")
    tracer = Tracer(memory=mode == "memory") if mode else None
    sys.argv = ["gatelab"] + sys.argv[1:]
    code: object = 0
    try:
        if tracer is None:
            runpy.run_module("gatelab.cli", run_name="__main__")
        else:
            tracer.install()
            tracer.call("cli.main", runpy.run_module, "gatelab.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        layers = spans = None
        if tracer is not None:
            tracer.uninstall()
            layers = tracer.summary()
            layers["cli.import"] = {"calls": 1, "total_s": _import_s, "self_s": _import_s}
            spans = tracer.records()
        record = {
            "gatelab_file": gatelab.__file__,
            "import_s": _import_s,
            "layers": layers,
            "spans": spans,
        }
        print(RECORD_PREFIX + json.dumps(record), file=sys.stderr)
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
