"""Uniqueness probe: one equation, two constructions.

The harness solves the same equation with the monolithic regression solver
and with a two-stage decomposition (quadratic stage plus residual stage,
glued by a measure change). Both project onto one basis span on one
sample and reach the same Picard fixed point, so their value processes
agree to round-off (about 1e-12 on f1), far inside the probe's Monte
Carlo budget: the probe does not tell two solutions apart. The
accompanying moment-ladder report checks that the exponential moments the
uniqueness argument needs look finite on the sample.
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
