"""Command-line interface: validate, run, report, list-registry."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import QbsdeError
from .harness import RunRecord, emit_report, load_config, run_experiment
from .registry import available


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
                data = json.loads(json.dumps(cfg.data))
                data["sampling"]["seed"] = args.seed_override
                from .harness import validate_config
                cfg = validate_config(data)
            record = run_experiment(cfg, args.out)
            for key, rep in record.reports.items():
                verdict = "pass" if rep.get("pass", True) else "FAIL"
                print(f"{key}: {verdict}")
            print(f"status: {record.status}; artifacts in {record.out_dir}")
            return 0 if (record.status == "complete" and record.all_pass) else 1
        if args.verb == "report":
            # record.json holds every RunRecord field but out_dir
            payload = json.loads((Path(args.out) / "record.json").read_text())
            record = RunRecord(out_dir=args.out, **payload)
            for path in emit_report(record):
                print(path)
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
