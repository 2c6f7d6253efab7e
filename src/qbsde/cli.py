"""Command-line interface: validate, run, report, list-registry."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .errors import InvalidArgument, QbsdeError
from .harness import (RunRecord, emit_report, load_config, run_experiment,
                      validate_config)
from .registry import available


def _load_record(out: Path) -> RunRecord:
    """The run record in `out`: record.json holds a JSON object with every
    RunRecord field but out_dir, and each required one."""
    path = out / "record.json"
    if not path.is_file():
        raise InvalidArgument(f"{path} not found: not a run directory")
    try:
        data = json.loads(path.read_text())
    except ValueError as e:  # not JSON, or not UTF-8 text
        raise InvalidArgument(f"{path} is not JSON: {e}") from None
    if not isinstance(data, dict):
        raise InvalidArgument(f"{path} does not hold a JSON object")
    known = {f.name: f for f in fields(RunRecord) if f.name != "out_dir"}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise InvalidArgument(f"{path} has an unknown key '{unknown[0]}'")
    missing = [name for name, f in known.items() if name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise InvalidArgument(f"{path} lacks the key '{missing[0]}'")
    return RunRecord(out_dir=str(out), **data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbsde", description="Quadratic BSDE numerical laboratory")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_validate = sub.add_parser("validate", help="validate a config file")
    p_validate.add_argument("--config", required=True)

    p_run = sub.add_parser("run", help="run an experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed-override", type=int, default=None)

    p_report = sub.add_parser(
        "report", help="write a finished run's per-node curves as CSV")
    p_report.add_argument("--out", required=True)

    p_list = sub.add_parser("list-registry", help="list registered components")
    p_list.add_argument("--kind", default=None)

    args = parser.parse_args(argv)
    try:
        if args.verb == "validate":
            cfg = load_config(args.config)
            print(f"valid; config hash {cfg.config_hash}")
            return 0
        if args.verb == "run":
            cfg = load_config(args.config)
            if args.seed_override is not None:
                cfg = validate_config({**cfg.data, "sampling": {
                    **cfg["sampling"], "seed": args.seed_override}})
            record = run_experiment(cfg, args.out)
            for key, rep in record.reports.items():
                verdict = ("info" if "pass" not in rep
                           else "pass" if rep["pass"] else "FAIL")
                print(f"{key}: {verdict}")
            print(f"status: {record.status}; artifacts in {record.out_dir}")
            return 0 if (record.status == "complete" and record.all_pass) else 1
        if args.verb == "report":
            record = _load_record(Path(args.out))
            print("\n".join(map(str, emit_report(record)))
                  or "the run has no per-node curve reports; nothing written")
            return 0
        if args.verb == "list-registry":
            for kind, names in available(args.kind).items():
                print(f"{kind}: {', '.join(names)}")
            return 0
    except QbsdeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
