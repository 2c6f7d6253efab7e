"""Exact binary-tree backward induction vs regression Monte Carlo.

On a Bernoulli (±sqrt(dt)) driving noise the conditional expectations in the
backward induction are finite sums, so the tree solver is exact. Running the
regression solver on the saturated indicator basis over the same tree paths
must reproduce it to solver tolerance — a direct correctness oracle for the
whole LSMC pipeline (regression, Picard fixed point, Z extraction).
"""

import numpy as np

from qbsde import (
    GeneratorSpec,
    TreeIndicatorBasis,
    make_tree_bundle,
    solve_lsmc,
    solve_tree_exact,
)


def main():
    depth = 10
    paths = make_tree_bundle(depth, T=1.0)
    spec = GeneratorSpec(
        f=lambda t, y, z: 0.4 * np.asarray(y),
        h=lambda prefix: 0.5 * prefix.terminal[:, 0],  # reads X_T
    )
    tree = solve_tree_exact(spec, paths, tol=1e-13)
    lsmc = solve_lsmc(spec, paths, TreeIndicatorBasis(depth), tol=1e-13)
    print(f"tree  Y0 = {tree.y0:+.12f}")
    print(f"lsmc  Y0 = {lsmc.y0:+.12f}")
    print(f"max |dY| = {np.max(np.abs(lsmc.Y - tree.Y)):.2e}")
    print(f"max |dZ| = {np.max(np.abs(lsmc.Z - tree.Z)):.2e}")


if __name__ == "__main__":
    main()
