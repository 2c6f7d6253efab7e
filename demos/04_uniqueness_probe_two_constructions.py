"""Uniqueness probe: one equation, two independent constructions.

The harness solves the same equation with the monolithic regression solver
and with a two-stage decomposition (quadratic stage plus residual stage,
glued by a measure change). If the equation is well posed the two value
processes must agree to Monte Carlo accuracy; the accompanying moment-ladder
report checks that the exponential moments the uniqueness argument needs
look finite on the sample.
"""

import json
import sys
import tempfile
from pathlib import Path

from qbsde.harness import load_config, run_experiment

CONFIG = Path(__file__).parent.parent / "configs" / "f1-test-problem.json"


def main():
    cfg = load_config(sys.argv[1] if len(sys.argv) > 1 else CONFIG)
    out = Path(tempfile.mkdtemp(prefix="qbsde-demo-"))
    record = run_experiment(cfg, out)
    summary = json.loads((out / "summary.json").read_text())

    probe = summary["reports"]["two_constructions"]
    print(f"config            : {cfg.config_hash[:16]}…  status={record.status}")
    print(f"constructions     : {probe['method_a']} vs {probe['method_b']}")
    print(f"sup-node mean |dY|: {probe['sup_mean_abs']:.3e} "
          f"(budget {probe['budget']:.3e})  pass={probe['pass']}")

    ladder = summary["reports"]["class_membership"]["entries"]
    print(f"{'p':>5s} {'eps':>5s} {'q':>7s} {'estimate':>12s} verdict")
    for e in ladder:
        print(f"{e['p']:5.1f} {e['eps']:5.1f} {e['q']:7.3f} "
              f"{e['estimate']:12.4e} {e['verdict']}")
    print(f"artifacts in {out}")


if __name__ == "__main__":
    main()
