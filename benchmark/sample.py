"""One benchmark sample: `qbsde run` of one config, in this process.

Calls the CLI's own ``main`` and records, from inside the process:

- ``import_s``: ``import qbsde.cli`` (which imports the whole package);
- ``load_config_s``: the CLI's ``load_config`` call;
- ``run_s``: the CLI's ``run_experiment`` plus ``emit_report`` calls;
- ``maxrss_mb``: peak resident set size of the process.

With ``--trace`` every layer boundary listed in ``layertrace.install`` is
wrapped as well and the span summary is added to the result. With
``--setup-only`` the process stops after ``load_config``.

Usage:
    python3 benchmark/sample.py --config CFG --out DIR --seed N \
        --result FILE [--trace | --setup-only]

The result is written as JSON to FILE; the exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qbsde.cli as cli
    import_s = time.perf_counter() - t0

    from layertrace import Tracer, install

    tracer = Tracer()
    tracer.wrap(cli, "load_config", "harness.load_config")
    tracer.wrap(cli, "run_experiment", "harness.run_experiment")
    tracer.wrap(cli, "emit_report", "harness.emit_report")
    if args.trace:
        install(tracer)

    if args.setup_only:
        cli.load_config(args.config)
        rc = 0
    else:
        rc = cli.main(["run", "--config", args.config, "--out", args.out,
                       "--seed-override", str(args.seed)])
    trace = tracer.summary()
    spans = trace["spans"]

    def total(name):
        return spans.get(name, {}).get("s", 0.0)

    result = {
        "rc": rc,
        "qbsde_file": cli.__file__,
        "import_s": import_s,
        "load_config_s": total("harness.load_config"),
        "run_s": total("harness.run_experiment") + total("harness.emit_report"),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["trace"] = trace
    Path(args.result).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
