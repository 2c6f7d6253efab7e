"""Purely quadratic driver solved two ways: regression vs log transform.

For driver |z|^2/2 with zero state drift the solution admits a closed
expression Y_t = log E[exp(terminal) | F_t], evaluated here by Gauss-Hermite
quadrature. With terminal value W_T this gives Y_0 = 1/2 and Z identically 1,
so the regression solver can be checked node by node.
"""

import numpy as np

from qbsde import (
    GeneratorSpec,
    ModelSpec,
    TruncationSpec,
    make_grid,
    polynomial_basis,
    quadratic_driver,
    sample_brownian,
    simulate_forward,
    solve_cole_hopf,
    solve_lsmc,
)


def main():
    grid = make_grid(1.0, 50)
    model = ModelSpec(x0=np.zeros(1), drift=lambda x: np.zeros_like(x),
                      sigma=lambda t: 1.0, mode="F1")
    g, grad = quadratic_driver()  # g(prefix, z) = |z|^2 / 2, read once per node
    spec = GeneratorSpec(g=g, grad_z_g=grad,
                         h=lambda prefix: prefix.terminal[:, 0])  # W_T
    noise = sample_brownian(grid, 1, 100_000, seed=2024)
    paths = simulate_forward(model, noise)

    lsmc = solve_lsmc(spec, paths, polynomial_basis(2),
                      TruncationSpec(16.0))
    oracle = solve_cole_hopf(lambda x: np.asarray(x, float).ravel(), paths,
                             n_quad=96)

    print(f"closed form Y0 = 0.5,  Z = 1 at every node")
    print(f"lsmc   Y0 = {lsmc.y0:.6f} ± {lsmc.y0_se:.6f}")
    print(f"oracle Y0 = {oracle.y0:.6f}")
    z_dev = np.mean(np.abs(lsmc.Z[1:grid.n_steps, :, 0] - 1.0), axis=1)
    print(f"max over interior nodes of mean |Z - 1| = {z_dev.max():.4f}")


if __name__ == "__main__":
    main()
