"""Backward solvers: tree oracle, LSMC, closed forms, decompositions."""

import ast
import tracemalloc
from dataclasses import fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbsde import (
    BsdeSolution,
    GeneratorSpec,
    InvalidArgument,
    ModelSpec,
    PathBundle,
    RegressionBasis,
    TreeIndicatorBasis,
    TruncationSpec,
    canonical_nonconvex_driver,
    make_grid,
    make_tree_bundle,
    polynomial_basis,
    prefix_at,
    quadratic_driver,
    sample_brownian,
    simulate_forward,
    solve_cole_hopf,
    solve_decomposed_additive,
    solve_decomposed_malliavin,
    solve_lsmc,
    solve_tree_exact,
)
from qbsde import solvers
from qbsde.errors import (
    CapabilityMissing,
    DriverEvaluationError,
    OracleOverflow,
    ResourceLimit,
    SolverDiverged,
)
from qbsde.diagnostics import quantile, quantile_tail
from qbsde.solvers import COLE_HOPF_BLOCK_BYTES, logsumexp

# paths per block of the Cole-Hopf oracle's interpolation
PATH_BLOCK = COLE_HOPF_BLOCK_BYTES // 48


def _terminal_state(scale=1.0):
    return lambda p: scale * p.terminal[:, 0]


def _terminal_const(c):
    return lambda p: np.full(p.states.shape[1], float(c))


# ------------------------------------------------------------- tree oracle

def test_tree_zero_driver_martingale():
    spec = GeneratorSpec(h=_terminal_state())
    sol = solve_tree_exact(spec, make_tree_bundle(6, 1.0))
    assert abs(sol.y0) <= 1e-14


def test_every_solver_owns_the_bundle_it_solved_on(bm_paths):
    # a solution reads its paths, noise and grid from its bundle; neither it
    # nor the bundle stores a grid of its own
    assert "grid" not in {f.name for f in fields(BsdeSolution)}
    assert "grid" not in {f.name for f in fields(PathBundle)}
    spec = GeneratorSpec(h=_terminal_state())
    basis = polynomial_basis(2)
    for paths, solve in (
            (make_tree_bundle(4, 1.0), lambda p: solve_tree_exact(spec, p)),
            (bm_paths, lambda p: solve_lsmc(spec, p, basis)),
            (bm_paths, lambda p: solve_cole_hopf(lambda x: x, p)),
            (bm_paths, lambda p: solve_decomposed_additive(spec, p, basis)),
            (bm_paths, lambda p: solve_decomposed_malliavin(spec, p, basis))):
        sol = solve(paths)
        assert sol.bundle is paths
        assert sol.grid is paths.grid is paths.noise.grid
    with pytest.raises(InvalidArgument, match="bundle's shape"):
        BsdeSolution(bm_paths, sol.Y[:, :10], sol.Z[:, :10], "cut")


def test_tree_constant_driver_integral():
    spec = GeneratorSpec(f=lambda prefix, y: np.full(np.shape(y), 0.7),
                         xi=_terminal_const(0.0))
    sol = solve_tree_exact(spec, make_tree_bundle(5, 1.0))
    assert abs(sol.y0 - 0.7) <= 1e-12


def _solve_on_tree(method, spec, paths, depth):
    basis = TreeIndicatorBasis()
    return {"tree": lambda: solve_tree_exact(spec, paths, tol=1e-13),
            "lsmc": lambda: solve_lsmc(spec, paths, basis, tol=1e-13),
            "additive": lambda: solve_decomposed_additive(spec, paths, basis,
                                                          tol=1e-13),
            "malliavin": lambda: solve_decomposed_malliavin(spec, paths, basis,
                                                            tol=1e-13),
            }[method]()


@pytest.mark.parametrize("method", ["tree", "lsmc", "additive", "malliavin"])
def test_f_reads_the_node_time_from_the_prefix(method):
    # f = c t with t = prefix.times[-1]: node i adds dt_i c t_i, so
    # Y0 = E[xi] + c sum_i t_i dt_i
    depth, c = 6, 0.7
    paths = make_tree_bundle(depth, 2.0)
    spec = GeneratorSpec(
        f=lambda prefix, y: np.full(np.shape(y), c * prefix.times[-1]),
        h=_terminal_state(), xi=_terminal_const(0.5))
    sol = _solve_on_tree(method, spec, paths, depth)
    grid = paths.grid
    exact = (np.mean(spec.terminal(prefix_at(paths, depth)))
             + c * np.sum(grid.nodes[:-1] * grid.steps))
    assert abs(sol.y0 - exact) <= 1e-12


def test_f_reading_the_running_sup_agrees_on_the_tree():
    # the regression on the saturated basis and the exact recursion hand f
    # the same prefix at each node, so they agree on a path-dependent f
    depth = 6
    paths = make_tree_bundle(depth, 1.0)
    spec = GeneratorSpec(
        f=lambda prefix, y: 0.3 * np.tanh(np.asarray(y)) + 0.2 * prefix.sup,
        h=_terminal_state())
    tree = _solve_on_tree("tree", spec, paths, depth)
    lsmc = _solve_on_tree("lsmc", spec, paths, depth)
    np.testing.assert_allclose(lsmc.Y, tree.Y, rtol=0, atol=1e-10)
    np.testing.assert_allclose(lsmc.Z, tree.Z, rtol=0, atol=1e-10)
    no_sup = _solve_on_tree("tree", replace(
        spec, f=lambda prefix, y: 0.3 * np.tanh(np.asarray(y))), paths, depth)
    assert tree.y0 - no_sup.y0 > 0.05


def test_tree_depth_one_z_by_hand():
    spec = GeneratorSpec(h=_terminal_state())
    sol = solve_tree_exact(spec, make_tree_bundle(1, 1.0))
    # Z_0 = (xi_up - xi_down) / (2 sqrt(dt)) = 1 for xi = W_T
    np.testing.assert_allclose(sol.Z[0, :, 0], 1.0)


def test_tree_linear_driver_vs_independent_recursion():
    # independent oracle: scalar backward recursion on the binary tree
    # for f = a*y, xi = W_T, written directly over level arrays
    a, depth, T = 0.3, 6, 1.0
    dt = T / depth
    step = np.sqrt(dt)
    # terminal values on the bit-ordered enumeration (bit 0 of block = last step)
    w = np.zeros(1 << depth)
    for j in range(depth):
        sign = 1.0 - 2.0 * ((np.arange(1 << depth) >> (depth - 1 - j)) & 1)
        w += sign * step
    vals = w.copy()
    for i in range(depth - 1, -1, -1):
        pair = vals.reshape(-1, 2)
        ce = pair.mean(axis=1)
        # implicit fixed point y = ce + dt*a*y in closed form
        vals = ce / (1.0 - dt * a)
    spec = GeneratorSpec(f=lambda prefix, y: a * np.asarray(y),
                         h=_terminal_state())
    sol = solve_tree_exact(spec, make_tree_bundle(depth, T), tol=1e-14)
    assert abs(sol.y0 - vals[0]) <= 1e-12


def test_tree_depth_limit():
    with pytest.raises(ResourceLimit):
        make_tree_bundle(23, 1.0)


# ------------------------------------------------------------- projectors

def _lstsq_fitted(phi, target):
    return phi @ np.linalg.lstsq(phi, target, rcond=None)[0]


def _targets(paths, node):
    x_T = paths.states[-1, :, 0]
    y = np.sin(x_T) + 0.5 * x_T
    return y, y[:, None] * paths.noise.increments[node]


@pytest.mark.parametrize("case", ["full", "duplicate_column", "node0",
                                  "degree5", "ou_x0_0.7", "ou_x0_2",
                                  "ou_x0_0.7_node0"])
def test_default_projector_matches_lstsq(case, bm_paths, ou_model, noise25):
    basis = polynomial_basis(5 if case == "degree5" else 3)
    if case == "duplicate_column":
        poly = basis.columns
        basis = RegressionBasis(lambda p: [*poly(p), p.terminal[:, 0]])
    paths, node = bm_paths, 7
    if case.startswith("ou_x0_"):
        # off-centre OU states make node 1's features nearly collinear: a
        # scaled condition number of about 2e2 at x0 = 0.7 and 4e3 at x0 = 2,
        # where the fit needs its refinement pass to stay within 1e-12
        x0 = float(case.split("_")[2])
        paths = simulate_forward(replace(ou_model, x0=np.array([x0])),
                                 noise25)
        node = 1
    # x0 is deterministic, so every feature is constant at node 0
    if case.endswith("node0"):
        node = 0
    phi = basis.design(paths, node)
    state = dict(vars(basis))
    project, rank_deficient = basis.projector(paths, node)
    for target in _targets(paths, node):
        np.testing.assert_allclose(project(target), _lstsq_fitted(phi, target),
                                   rtol=0, atol=1e-12)
    assert rank_deficient == (case in ("duplicate_column", "node0",
                                       "ou_x0_0.7_node0"))
    assert vars(basis) == state  # the basis holds no per-solve state


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_projector_refuses_a_non_finite_design(bad):
    # a single non-finite entry used to give zero fitted values for every
    # target, with the node flagged rank-deficient and no warning
    phi = np.arange(18.0).reshape(6, 3) / 7.0
    phi[4, 1] = bad
    with pytest.raises(InvalidArgument, match="node 5 has a non-finite Gram"):
        solvers.design_projector(phi, 5)


_SOLVES = {"svd", "lstsq", "qr", "eig", "eigh", "pinv", "solve", "inv",
           "cholesky"}


def test_every_fit_goes_through_design_projector():
    # README: every least-squares fit goes through one projector, so the one
    # factorisation or solve from a linalg module is design_projector's eigh
    src = Path(solvers.__file__).parent
    calls = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    assert "linalg" not in (node.module or ""), path.name
                    assert all(a.name != "linalg" for a in node.names)
                if (isinstance(node, ast.Attribute) and node.attr in _SOLVES
                        and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "linalg"):
                    calls.append((path.name, getattr(top, "name", None),
                                  node.attr))
    assert calls == [("solvers.py", "design_projector", "eigh")]


def test_running_sup_is_read_only_where_it_is_needed():
    # the bundle derives its running sup on first read, so an eager read (a
    # shape template, a design column no basis asked for) would derive it
    # for a run whose data never need it; `.running_sup` is read only in
    # prefix_at's row reader and in z_growth_report, which reads every row
    src = Path(solvers.__file__).parent
    reads = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "running_sup":
                    reads.append((path.name, getattr(top, "name", None)))
    assert reads == [("diagnostics.py", "z_growth_report"),
                     ("generators.py", "prefix_at")]


@pytest.mark.parametrize("depth", range(1, 9))
def test_tree_projector_matches_dense_indicators(depth):
    paths = make_tree_bundle(depth, 1.0)
    basis = TreeIndicatorBasis()
    P = paths.n_paths
    for node in range(depth):
        phi = np.zeros((P, 1 << node))
        phi[np.arange(P), np.arange(P) >> (depth - node)] = 1.0
        project, rank_deficient = basis.projector(paths, node)
        for target in _targets(paths, node):
            np.testing.assert_allclose(project(target),
                                       _lstsq_fitted(phi, target),
                                       rtol=0, atol=1e-12)
        assert rank_deficient is False


def test_tree_projector_requires_full_tree(bm_paths):
    with pytest.raises(InvalidArgument, match="full enumerated tree"):
        TreeIndicatorBasis().projector(bm_paths, 3)


def test_tree_solvers_refuse_gaussian_bundle_of_tree_size(bm_model):
    # 2^4 Gaussian paths on 4 steps have the tree's path count; the exact
    # values for xi = W_T are y0 = 0 and Z = 1, and at 2^n paths alone both
    # entry points used to solve it to y0 = -0.073, Z0 = -0.67
    grid = make_grid(1.0, 4)
    paths = simulate_forward(bm_model, sample_brownian(grid, 1, 16, seed=3))
    spec = GeneratorSpec(h=_terminal_state())
    with pytest.raises(InvalidArgument, match="full enumerated tree"):
        solve_tree_exact(spec, paths)
    with pytest.raises(InvalidArgument, match="full enumerated tree"):
        TreeIndicatorBasis().projector(paths, 2)
    with pytest.raises(InvalidArgument, match="full enumerated tree"):
        solve_lsmc(spec, paths, TreeIndicatorBasis())


# ------------------------------------------------------------------- LSMC

def test_lsmc_zero_data_is_exactly_zero(bm_paths):
    spec = GeneratorSpec()
    sol = solve_lsmc(spec, bm_paths, polynomial_basis(2))
    np.testing.assert_array_equal(sol.Y, 0.0)
    np.testing.assert_array_equal(sol.Z, 0.0)


def test_lsmc_truncation_level_validated(bm_paths):
    with pytest.raises(InvalidArgument):
        solve_lsmc(GeneratorSpec(), bm_paths, polynomial_basis(2),
                   TruncationSpec(1.5))


def test_lsmc_matches_tree_on_saturated_basis():
    depth = 8
    paths = make_tree_bundle(depth, 1.0)
    spec = GeneratorSpec(f=lambda prefix, y: 0.4 * np.asarray(y),
                         h=_terminal_state(0.5))
    lsmc = solve_lsmc(spec, paths, TreeIndicatorBasis(), tol=1e-13)
    tree = solve_tree_exact(spec, paths, tol=1e-13)
    assert np.max(np.abs(lsmc.Y - tree.Y)) <= 1e-10
    assert np.max(np.abs(lsmc.Z - tree.Z)) <= 1e-8


def test_lsmc_matches_tree_at_depth_14():
    # the block-mean projector makes 16384 paths cheap; the dense
    # indicator design did not
    depth = 14
    paths = make_tree_bundle(depth, 1.0)
    variants = (
        GeneratorSpec(f=lambda prefix, y: np.full(np.shape(y), 0.3),
                      h=_terminal_state(0.5)),
        GeneratorSpec(f=lambda prefix, y: 0.4 * np.asarray(y),
                      h=_terminal_state(0.5)),
    )
    for spec in variants:
        lsmc = solve_lsmc(spec, paths, TreeIndicatorBasis(), tol=1e-13)
        tree = solve_tree_exact(spec, paths, tol=1e-13)
        assert np.max(np.abs(lsmc.Y - tree.Y)) <= 1e-10
        assert np.max(np.abs(lsmc.Z - tree.Z)) <= 1e-8


def test_lsmc_terminal_consistency(bm_paths):
    g, grad = quadratic_driver()
    spec = GeneratorSpec(g=g, grad_z_g=grad,
                         h=_terminal_state(0.3))
    sol = solve_lsmc(spec, bm_paths, polynomial_basis(3),
                     TruncationSpec(8.0))
    whole = prefix_at(bm_paths, bm_paths.grid.n_steps)
    np.testing.assert_array_equal(sol.Y[-1], spec.terminal(whole))
    assert np.all(np.isfinite(sol.Y)) and np.all(np.isfinite(sol.Z))


def test_lsmc_picard_residual_monotone_after_first(bm_paths):
    g, grad = canonical_nonconvex_driver(2.0)
    spec = GeneratorSpec(g=g, grad_z_g=grad, h=_terminal_state(0.3))
    sol = solve_lsmc(spec, bm_paths, polynomial_basis(3),
                     TruncationSpec(16.0))
    for residuals in sol.picard_residuals:
        tail = residuals[1:]
        assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))


def test_lsmc_rank_deficiency_flagged_not_fatal(bm_paths):
    basis = RegressionBasis(lambda p: [np.ones(p.terminal.shape[0])] * 2)
    spec = GeneratorSpec(h=_terminal_state())
    sol = solve_lsmc(spec, bm_paths, basis)
    # two copies of the constant feature: every node is deficient
    assert sol.rank_deficient_nodes == tuple(range(25))
    assert np.all(np.isfinite(sol.Y))


def test_lsmc_picard_divergence_detected():
    grid = make_grid(1.0, 1)
    model = ModelSpec(x0=np.zeros(1), drift=lambda x: np.zeros_like(x),
                      sigma=lambda t: 1.0, mode="F1")
    paths = simulate_forward(model, sample_brownian(grid, 1, 16, seed=0))
    spec = GeneratorSpec(f=lambda prefix, y: np.asarray(y) ** 2,
                         xi=_terminal_const(10.0))
    with pytest.raises(SolverDiverged):
        solve_lsmc(spec, paths, polynomial_basis(1))


def test_lsmc_truncation_saturation_lipschitz_regime(f2_model):
    # bounded sigma + Lipschitz terminal: Z bounded, so rho_N is inactive
    # beyond some N* and Y_0 stabilizes
    grid = make_grid(1.0, 20)
    paths = simulate_forward(f2_model,
                             sample_brownian(grid, 1, 20_000, seed=13))
    g, grad = quadratic_driver()
    spec = GeneratorSpec(g=g, grad_z_g=grad,
                         h=lambda p: 0.2 * np.abs(p.terminal[:, 0]))
    y0 = {}
    se = {}
    for N in (4, 8, 16, 32):
        sol = solve_lsmc(spec, paths, polynomial_basis(3),
                         TruncationSpec(float(N)))
        y0[N], se[N] = sol.y0, sol.y0_se
    assert abs(y0[16] - y0[32]) <= 3 * (se[16] + se[32]) + 1e-12
    assert abs(y0[8] - y0[32]) <= 3 * (se[8] + se[32]) + 1e-12


# ----------------------------------------------------------- closed forms

def test_cole_hopf_linear_case(bm_model):
    grid = make_grid(1.0, 20)
    paths = simulate_forward(bm_model, sample_brownian(grid, 1, 2000, seed=4))
    sol = solve_cole_hopf(lambda x: np.asarray(x, float).ravel(), paths)
    # Y_t = X_t + (T - t)/2 and Z == 1
    assert abs(sol.y0 - 0.5) <= 1e-8
    expect = paths.states[:, :, 0] + (1.0 - grid.nodes)[:, None] / 2
    np.testing.assert_allclose(sol.Y, expect, atol=1e-7)
    np.testing.assert_allclose(sol.Z[:-1, :, 0], 1.0, atol=1e-6)


def test_cole_hopf_constant_terminal(bm_model, bm_paths):
    sol = solve_cole_hopf(lambda x: np.full(np.shape(x)[0], 0.9), bm_paths)
    np.testing.assert_allclose(sol.Y, 0.9, atol=1e-12)
    np.testing.assert_allclose(sol.Z, 0.0, atol=1e-9)


def test_cole_hopf_bounded_terminal_monotone(bm_model, bm_paths):
    sol = solve_cole_hopf(lambda x: np.tanh(np.asarray(x).ravel()), bm_paths)
    assert -1.0 <= sol.y0 <= 1.0
    assert np.all(sol.Y >= -1.0 - 1e-12) and np.all(sol.Y <= 1.0 + 1e-12)


def test_cole_hopf_requires_zero_drift(ou_model, noise25):
    # the oracle reads the model the paths were simulated with
    with pytest.raises(CapabilityMissing, match="zero drift"):
        solve_cole_hopf(lambda x: np.asarray(x).ravel(),
                        simulate_forward(ou_model, noise25))


def test_cole_hopf_refuses_f2_paths(f2_model, noise25):
    with pytest.raises(CapabilityMissing, match="F1 diffusion"):
        solve_cole_hopf(lambda x: np.asarray(x).ravel(),
                        simulate_forward(f2_model, noise25))


def _scaled_bm(sigma):
    return ModelSpec(x0=np.zeros(1), drift=lambda x: np.zeros_like(x),
                     sigma=sigma, mode="F1")


@pytest.mark.parametrize("case", ["linear", "quadratic"])
def test_cole_hopf_stein_z_closed_forms(case):
    # X = 0.8 W; s = remaining variance 0.64 (T - t)
    sig, c = 0.8, 0.5
    model = _scaled_bm(lambda t: sig)
    grid = make_grid(1.0, 10)
    paths = simulate_forward(model, sample_brownian(grid, 1, 3000, seed=11))
    x = paths.states[:, :, 0]
    s = sig ** 2 * (1.0 - grid.nodes)[:, None]
    if case == "linear":  # xi = x: Y = x + s/2, Z = sigma
        terminal = lambda v: np.asarray(v, float)
        y_exact = x + s / 2
        z_exact = np.full_like(x, sig)
    else:  # xi = c x^2/2 with c s < 1
        terminal = lambda v: c * np.asarray(v, float) ** 2 / 2
        y_exact = -0.5 * np.log(1 - c * s) + c * x ** 2 / (2 * (1 - c * s))
        z_exact = sig * c * x / (1 - c * s)
    sol = solve_cole_hopf(terminal, paths)
    np.testing.assert_allclose(sol.Y, y_exact, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sol.Z[:-1, :, 0], z_exact[:-1],
                               rtol=1e-12, atol=1e-12)
    assert np.all(sol.Z[-1, :, 0] == 0.0)


def test_cole_hopf_zero_variance_nodes():
    # no diffusion from t = 1/2 on: those nodes keep Y = xi(x) and Z = 0
    model = _scaled_bm(lambda t: 1.0 if t < 0.5 else 0.0)
    grid = make_grid(1.0, 4)
    paths = simulate_forward(model, sample_brownian(grid, 1, 500, seed=12))
    terminal = lambda v: np.tanh(np.asarray(v, float))
    sol = solve_cole_hopf(terminal, paths)
    x = paths.states[:, :, 0]
    for i in (2, 3, 4):
        np.testing.assert_array_equal(sol.Y[i], np.tanh(x[i]))
        assert np.all(sol.Z[i, :, 0] == 0.0)
    assert np.all(np.abs(sol.Z[:2, :, 0]) > 0)


def test_cole_hopf_prefix_stable_across_chunks(bm_model):
    # a path's values depend on its own state alone, for a kinked xi too
    grid = make_grid(1.0, 3)
    smooth = lambda v: np.tanh(np.asarray(v, float)) + 0.1 * np.asarray(v) ** 2
    kinked = lambda v: 0.2 * np.abs(np.asarray(v, float))
    for terminal in (smooth, kinked):
        big = solve_cole_hopf(terminal, simulate_forward(
            bm_model, sample_brownian(grid, 1, 2 * PATH_BLOCK + 3, seed=13)))
        for P in (PATH_BLOCK - 1, PATH_BLOCK, PATH_BLOCK + 1):
            sol = solve_cole_hopf(terminal, simulate_forward(
                bm_model, sample_brownian(grid, 1, P, seed=13)))
            np.testing.assert_array_equal(sol.Y, big.Y[:, :P])
            np.testing.assert_array_equal(sol.Z, big.Z[:, :P])


def _oracle_case(bm_model):
    grid = make_grid(1.0, 4)
    paths = simulate_forward(bm_model, sample_brownian(
        grid, 1, 2 * PATH_BLOCK + 5, seed=15))
    terminal = lambda v: np.tanh(np.asarray(v, float)) + 0.1 * np.asarray(v) ** 2
    return paths, terminal


def test_cole_hopf_job_error_reaches_caller(bm_model):
    paths, terminal = _oracle_case(bm_model)

    class Boom(Exception):
        pass

    boom = Boom("one block fails")
    calls = []

    def failing(v):
        calls.append(None)
        if len(calls) == 3:
            raise boom
        return terminal(v)

    with pytest.raises(Boom) as caught:
        solve_cole_hopf(failing, paths)
    assert caught.value is boom


@pytest.mark.parametrize("n_quad", [3, 10, 20, 96])
@pytest.mark.parametrize("c", [1.0, 1.5])
def test_cole_hopf_refuses_divergent_moment(bm_model, c, n_quad):
    # xi = c x^2/2: E[e^xi] over the remaining variance s = 1 - t is finite
    # only for c s < 1. At c = 1.5 node 1 would be refused too, but the error
    # is node 0's (s = 1), the first node the oracle evaluates
    grid = make_grid(1.0, 4)
    paths = simulate_forward(bm_model, sample_brownian(grid, 1, 200, seed=16))
    with pytest.raises(OracleOverflow, match="at node 0$"):
        solve_cole_hopf(lambda v: c * np.asarray(v, float) ** 2 / 2, paths,
                        n_quad=n_quad)


def test_cole_hopf_refuses_a_one_point_rule(bm_model):
    # one node at u = 0 drops the variance term: it returned Y = xi(x) and
    # Z = 0 on xi = x, off by (T - t)/2 and 1, without an error
    grid = make_grid(1.0, 4)
    paths = simulate_forward(bm_model, sample_brownian(grid, 1, 30, seed=17))
    for n_quad in (0, 1):
        with pytest.raises(InvalidArgument, match="at least 2 points"):
            solve_cole_hopf(lambda v: np.asarray(v, float), paths,
                            n_quad=n_quad)


@pytest.mark.parametrize("n_quad, tol", [
    (2, 0.1),
    pytest.param(3, 1e-2, marks=pytest.mark.xfail(
        strict=True, raises=OracleOverflow, reason="ROADMAP item 3")),
    (10, 1e-10), (20, 1e-12)])
def test_cole_hopf_solves_at_few_quadrature_points(bm_model, n_quad, tol):
    # the refusal reads the shape of the integrand, not a share that depends
    # on the node count: a constant and the shipped cole-hopf-check terminal
    # xi = x (Y = x + (T - t)/2) solve at these point counts
    grid = make_grid(1.0, 4)
    paths = simulate_forward(bm_model, sample_brownian(grid, 1, 300, seed=17))
    x = paths.states[:, :, 0]
    const = solve_cole_hopf(lambda v: np.full(np.shape(v), 0.3), paths,
                            n_quad=n_quad)
    np.testing.assert_allclose(const.Y, 0.3, rtol=0, atol=1e-12)
    linear = solve_cole_hopf(lambda v: np.asarray(v, float), paths,
                             n_quad=n_quad)
    np.testing.assert_allclose(linear.Y, x + (1.0 - grid.nodes)[:, None] / 2,
                               rtol=0, atol=tol)


# a smooth terminal and a kinked one: the oracle's blocking and memory must
# not depend on the shape of xi
_TERMINALS = {"tanh": lambda v: np.tanh(np.asarray(v, float)),
              "abs": lambda v: 0.2 * np.abs(np.asarray(v, float))}


@pytest.mark.parametrize("xi", list(_TERMINALS))
def test_cole_hopf_allocates_no_path_by_quadrature_temporary(bm_model, xi):
    # the quadrature runs a block of knots at a time, so the peak stays
    # below one P x quad_points array of float64
    grid = make_grid(1.0, 2)
    P = 4 * PATH_BLOCK
    paths = simulate_forward(bm_model, sample_brownian(grid, 1, P, seed=18))
    tracemalloc.start()
    solve_cole_hopf(_TERMINALS[xi], paths)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < P * 96 * 8, peak


@pytest.mark.parametrize("xi", list(_TERMINALS))
def test_cole_hopf_blocks_change_no_bit(bm_model, monkeypatch, xi):
    # one quadrature row and 20 paths per block give the default's Y and Z
    grid = make_grid(1.0, 4)
    paths = simulate_forward(bm_model, sample_brownian(grid, 1, 1500, seed=20))
    terminal = _TERMINALS[xi]
    default = solve_cole_hopf(terminal, paths)
    monkeypatch.setattr(solvers, "COLE_HOPF_BLOCK_BYTES", 1000)
    tiny = solve_cole_hopf(terminal, paths)
    assert tiny.Y.tobytes() == default.Y.tobytes()
    assert tiny.Z.tobytes() == default.Z.tobytes()


@pytest.mark.parametrize("xi", list(_TERMINALS))
def test_cole_hopf_temporaries_do_not_grow_with_paths(bm_model, xi):
    # the traced peak above the solution's own Y and Z is the blocks' (and
    # the knot table's, which grows with the states' range), whatever the
    # path count; the parent's whole-node temporaries read 1.86 and 1.57
    # times more at the larger count
    grid = make_grid(1.0, 2)
    terminal = _TERMINALS[xi]
    solve_cole_hopf(terminal, simulate_forward(  # first-call allocations
        bm_model, sample_brownian(grid, 1, 100, seed=21)))
    above = {}
    for P in (8192, 65536):
        paths = simulate_forward(bm_model, sample_brownian(grid, 1, P, seed=21))
        tracemalloc.start()
        try:
            sol = solve_cole_hopf(terminal, paths)
            above[P] = (tracemalloc.get_traced_memory()[1] - sol.Y.nbytes
                        - sol.Z.nbytes)
        finally:
            tracemalloc.stop()
    assert above[65536] <= 1.1 * above[8192], above


def _per_path_oracle(terminal, paths, n_quad=96):
    """The per-path quadrature the knot table replaces: one Gauss-Hermite
    quadrature at every path's state at every node (constant sigma)."""
    grid = paths.grid
    sig = float(np.asarray(paths.model.sigma(0.0)).reshape(-1)[0])
    tail_var = np.append(np.cumsum((sig ** 2 * grid.steps)[::-1])[::-1], 0.0)
    u, w = np.polynomial.hermite_e.hermegauss(n_quad)
    logw = np.log(w) - 0.5 * np.log(2 * np.pi)
    Y = np.empty(paths.states.shape[:2])
    Z = np.zeros(paths.states.shape)
    for i, s in enumerate(tail_var):
        x = paths.states[i, :, 0]
        if s <= 0:
            Y[i] = terminal(x)
            continue
        sd = np.sqrt(s)
        e = terminal((x[:, None] + sd * u).reshape(-1)).reshape(-1, n_quad)
        e = e + logw
        m = np.max(e, axis=1, keepdims=True)
        e = np.exp(e - m)
        total = e.sum(axis=1)
        Y[i] = np.log(total) + m[:, 0]
        Z[i, :, 0] = sig * (e * u).sum(axis=1) / (sd * total)
    return Y, Z


def _abs_closed_form(a, paths):
    """Y and Z of xi = a|x| (constant sigma): with s the remaining variance
    and E[e^{a|x + sqrt(s) U|}] = e^{a^2 s/2} (e^{ax} Phi(d+) +
    e^{-ax} Phi(d-)), d+- = (a s +- x) / sqrt(s), the Phi densities cancel
    in dY/dx = a (e^{ax} Phi(d+) - e^{-ax} Phi(d-)) / (the same sum)."""
    from scipy.special import ndtr
    grid = paths.grid
    sig = float(np.asarray(paths.model.sigma(0.0)).reshape(-1)[0])
    s = sig ** 2 * (grid.horizon - grid.nodes[:-1, None])
    x = paths.states[:-1, :, 0]
    up = np.exp(a * x) * ndtr((a * s + x) / np.sqrt(s))
    down = np.exp(-a * x) * ndtr((a * s - x) / np.sqrt(s))
    total = up + down
    return a * a * s / 2 + np.log(total), sig * a * (up - down) / total


def test_cole_hopf_table_matches_per_path_quadrature_and_closed_form():
    grid = make_grid(1.0, 50)
    paths = simulate_forward(_scaled_bm(lambda t: 0.8),
                             sample_brownian(grid, 1, 5000, seed=19))
    # smooth xi: the knot table stays within 1e-7 of the per-path quadrature
    smooth = lambda v: np.tanh(2.0 * np.asarray(v, float))
    sol = solve_cole_hopf(smooth, paths)
    Y, Z = _per_path_oracle(smooth, paths)
    assert np.max(np.abs(sol.Y - Y)) <= 1e-7
    assert np.max(np.abs(sol.Z - Z)) <= 1e-7
    assert not np.array_equal(sol.Y, Y)  # interpolated, not recomputed
    # kinked xi = a|x|: both miss the closed form by the Gauss-Hermite rule's
    # error at the kink, and the table misses it by no more than the
    # quadrature at every path's own state
    for a in (0.2, 1.0):
        kinked = lambda v: a * np.abs(np.asarray(v, float))
        y_exact, z_exact = _abs_closed_form(a, paths)
        sol = solve_cole_hopf(kinked, paths)
        Y, Z = _per_path_oracle(kinked, paths)
        assert (np.max(np.abs(sol.Y[:-1] - y_exact))
                <= np.max(np.abs(Y[:-1] - y_exact)))
        assert (np.max(np.abs(sol.Z[:-1, :, 0] - z_exact))
                <= np.max(np.abs(Z[:-1, :, 0] - z_exact)))


def test_logsumexp_matches_scipy():
    from scipy.special import logsumexp as scipy_lse
    rng = np.random.default_rng(14)
    a = 30.0 * rng.standard_normal((40, 96))
    np.testing.assert_allclose(logsumexp(a, axis=1), scipy_lse(a, axis=1),
                               rtol=1e-14)
    np.testing.assert_allclose(logsumexp(a, axis=0), scipy_lse(a, axis=0),
                               rtol=1e-14)
    a[3, :10] = -np.inf
    a[7, :] = -np.inf
    ours, ref = logsumexp(a, axis=1), scipy_lse(a, axis=1)
    assert ours[7] == ref[7] == -np.inf
    np.testing.assert_allclose(ours, ref, rtol=1e-14)
    b = rng.standard_normal(1000)
    assert np.isclose(logsumexp(b), scipy_lse(b), rtol=1e-14, atol=0)
    assert np.isclose(logsumexp(a), scipy_lse(a), rtol=1e-14, atol=0)


# few distinct values, so ties are common, with both zeros, both infs, nan
_TIED = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, np.inf, -np.inf, np.nan])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_TIED, st.floats(-1e3, 1e3)), min_size=1,
                max_size=40),
       st.one_of(st.sampled_from([0.0, 0.5, 0.999, 1.0]), st.floats(0, 1)))
@example([2.0], 0.999)
@example([np.inf], 0.999)
@example([1.0, 1.0], 0.999)
@example([-np.inf, np.inf], 0.999)
@example([np.nan, 1.0], 0.999)
@example([0.0, -0.0, 0.0], 0.5)
def test_quantile_matches_numpy_bit_for_bit(values, q):
    a = np.array(values)
    with np.errstate(invalid="ignore"):  # inf - inf, in both
        ref = np.quantile(a, q)
        got = quantile(a.copy(), q)
    assert type(got) is type(ref) and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("size", [1, 2, 3, 1000, 1001, 12345])
def test_quantile_of_the_largest_values_alone(size):
    # the q-quantile of `size` values from their largest quantile_tail(size,
    # q), in any order; one fewer is refused
    a = np.random.default_rng(size).standard_normal(size)
    m = quantile_tail(size, 0.999)
    assert m == size - int(np.floor(0.999 * (size - 1)))
    top = np.sort(a)[size - m:][::-1].copy()
    assert quantile(top, 0.999, size).tobytes() == np.quantile(
        a, 0.999).tobytes()
    if m > 1:
        with pytest.raises(InvalidArgument, match="largest"):
            quantile(top[1:].copy(), 0.999, size)


def test_polynomial_design_matches_powers_to_two_ulp(bm_paths):
    # the shipped degree 3: x * x * x against libm's pow
    basis = polynomial_basis(degree=3, include_sup=True)
    for node in (0, 7, 25):
        phi = basis.design(bm_paths, node)
        x = bm_paths.states[node, :, 0]
        assert phi.shape == (bm_paths.n_paths, 5) and phi.flags.f_contiguous
        np.testing.assert_array_equal(phi[:, 0], 1.0)
        for k in range(1, 4):
            np.testing.assert_array_max_ulp(phi[:, k], x ** k, maxulp=2)
        np.testing.assert_array_equal(phi[:, 4], bm_paths.running_sup[node])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_polynomial_design_reads_the_state_dimension(d):
    # one polynomial basis serves a bundle of any dimension: the constant,
    # x_j, x_j^2, x_j^3 for each component j as running products, then the
    # running sup, bit for bit
    model = ModelSpec(x0=np.linspace(0.1, 0.3, d), drift=lambda x: -0.3 * x,
                      sigma=lambda t: np.eye(d), mode="F1")
    paths = simulate_forward(model, sample_brownian(make_grid(1.0, 5), d,
                                                    300, seed=11))
    basis = polynomial_basis(3)
    for node in (0, 2, 5):
        x = paths.states[node]
        cols = [np.ones(paths.n_paths)]
        for j in range(d):
            cols += [x[:, j], x[:, j] * x[:, j], x[:, j] * x[:, j] * x[:, j]]
        cols.append(paths.running_sup[node])
        phi = basis.design(paths, node)
        assert phi.shape == (paths.n_paths, 1 + 3 * d + 1)
        assert np.array_equal(phi, np.stack(cols, axis=1))


def _count_sup_derivations(monkeypatch) -> list:
    """Patch PathBundle.running_sup to log each bundle that derives it."""
    real = PathBundle.__dict__["running_sup"].func
    derived = []

    def logged(paths):
        derived.append(paths)
        return real(paths)

    prop = cached_property(logged)
    prop.__set_name__(PathBundle, "running_sup")
    monkeypatch.setattr(PathBundle, "running_sup", prop)
    return derived


@pytest.mark.parametrize("reader", ["basis", "f", "tree"])
def test_a_sup_read_at_every_node_derives_the_array_once(monkeypatch,
                                                         bm_model, reader):
    # a basis column or an f that reads prefix.sup at every node reads the
    # bundle's cached rows: one derivation per bundle, none per node
    derived = _count_sup_derivations(monkeypatch)
    f = lambda prefix, y: 0.1 * np.tanh(np.asarray(y)) + 0.2 * prefix.sup
    if reader == "tree":
        paths = make_tree_bundle(6, 1.0)
        solve_tree_exact(GeneratorSpec(f=f, h=_terminal_state()), paths)
    else:
        paths = simulate_forward(bm_model, sample_brownian(
            make_grid(1.0, 8), 1, 500, seed=3))
        spec = GeneratorSpec(f=f if reader == "f" else None,
                             h=_terminal_state())
        solve_lsmc(spec, paths,
                   polynomial_basis(2, include_sup=reader == "basis"))
    assert derived == [paths]


def test_a_basis_without_sup_never_derives_it(monkeypatch, bm_model):
    derived = _count_sup_derivations(monkeypatch)
    paths = simulate_forward(bm_model, sample_brownian(make_grid(1.0, 8), 1,
                                                       500, seed=3))
    spec = GeneratorSpec(h=_terminal_state())
    for solve in (solve_lsmc, solve_decomposed_additive):
        solve(spec, paths, polynomial_basis(2, include_sup=False))
    assert derived == []


def test_polynomial_basis_options_are_keyword_only():
    # polynomial_basis(2, 1) used to mean degree 2 in one dimension; the
    # dimension is the bundle's now, and a stale call must not read 1 as
    # include_sup
    with pytest.raises(TypeError):
        polynomial_basis(2, 1)


def test_regression_basis_needs_a_feature(bm_paths):
    with pytest.raises(InvalidArgument, match="at least one feature"):
        RegressionBasis(lambda p: []).design(bm_paths, 3)


@pytest.mark.parametrize(
    "solve", [solve_lsmc, solve_decomposed_additive,
              solve_decomposed_malliavin], ids=lambda solve: solve.__name__)
def test_lsmc_y0_is_path_mean_of_path_sum(bm_paths, solve):
    # a split's S sums its stages' path sums
    g, grad = quadratic_driver()
    spec = GeneratorSpec(f=lambda prefix, y: 0.5 * np.asarray(y), g=g,
                         grad_z_g=grad, h=_terminal_state())
    sol = solve(spec, bm_paths, polynomial_basis(2), TruncationSpec(8.0))
    S = sol.path_sum
    assert abs(S.mean() - sol.y0) <= 1e-12
    assert sol.y0_se == np.std(S) / np.sqrt(S.size)


@pytest.mark.parametrize("construction", ["lsmc", "additive", "malliavin"])
def test_y0_se_matches_seed_to_seed_spread(bm_model, construction):
    # the path sum S is an i.i.d. sample when the driver does not read
    # (y, z); the empirical std of y0 over seeds must then match the mean
    # reported y0_se
    grid = make_grid(1.0, 10)
    spec = GeneratorSpec(
        g=lambda prefix, z: np.cos(prefix.terminal[:, 0]) + prefix.sup,
        h=_terminal_state(), xi=lambda p: np.tanh(p.terminal[:, 0]))
    y0, se = [], []
    for seed in range(100):
        paths = simulate_forward(bm_model,
                                 sample_brownian(grid, 1, 4000, seed))
        basis = polynomial_basis(2)
        if construction == "lsmc":
            sol = solve_lsmc(spec, paths, basis)
        elif construction == "additive":
            sol = solve_decomposed_additive(spec, paths, basis)
        else:
            sol = solve_decomposed_malliavin(spec, paths, basis)
        y0.append(sol.y0)
        se.append(sol.y0_se)
    assert 0.8 <= np.std(y0) / np.mean(se) <= 1.25


def test_decomposition_rank_flags_per_node(bm_paths):
    # both stages project on the same designs; only node 0 (x0 = 0) is flat
    g, grad = quadratic_driver()
    spec = GeneratorSpec(g=g, grad_z_g=grad, h=_terminal_state(0.3))
    basis = polynomial_basis(2)
    for sol in (solve_decomposed_additive(spec, bm_paths, basis,
                                          TruncationSpec(8.0)),
                solve_decomposed_malliavin(spec, bm_paths, basis,
                                           TruncationSpec(8.0))):
        assert sol.rank_deficient_nodes == (0,)


@pytest.mark.parametrize("split", [solve_decomposed_additive,
                                   solve_decomposed_malliavin])
def test_split_frozen_terms_evaluated_once_per_node(bm_model, split):
    # the second stage's driver is F(Y1 + y, Z1 + z) - F1(Y1, Z1); the
    # frozen term F1(Y1, Z1) (g in the additive split, F(R, 0) in the
    # Malliavin split) is evaluated once per node, not once per Picard
    # iteration. g does not read y, so each stage's Picard loop, at fixed z,
    # calls it once per node too, though a negative tol runs every node for
    # exactly `budget` iterations: 3n calls in all.
    n, budget = 6, 3
    grid = make_grid(1.0, n)
    paths = simulate_forward(bm_model, sample_brownian(grid, 1, 500, seed=3))
    g, grad = canonical_nonconvex_driver(2.0)
    calls = []

    def counted_g(prefix, z):
        calls.append(1)
        return g(prefix, z)

    spec = GeneratorSpec(f=lambda prefix, y: 0.1 * np.tanh(np.asarray(y)),
                         g=counted_g, grad_z_g=grad, h=_terminal_state(0.3),
                         xi=lambda p: np.tanh(p.terminal[:, 0]))
    sol = split(spec, paths, polynomial_basis(2), TruncationSpec(8.0),
                picard_budget=budget, tol=-1.0)
    assert [len(r) for r in sol.picard_residuals] == [budget] * n
    assert len(calls) == 3 * n


def test_lsmc_evaluates_g_once_per_node(bm_model):
    # g does not read y, so a Picard loop at fixed z evaluates it once; a
    # negative tol runs every node for the whole budget
    n, budget = 6, 4
    paths = simulate_forward(
        bm_model, sample_brownian(make_grid(1.0, n), 1, 500, seed=3))
    g, grad = canonical_nonconvex_driver(2.0)
    calls = []

    def counted_g(prefix, z):
        calls.append(1)
        return g(prefix, z)

    spec = GeneratorSpec(f=lambda prefix, y: 0.1 * np.tanh(np.asarray(y)),
                         g=counted_g, grad_z_g=grad, h=_terminal_state(0.3))
    sol = solve_lsmc(spec, paths, polynomial_basis(2), TruncationSpec(8.0),
                     picard_budget=budget, tol=-1.0)
    assert [len(r) for r in sol.picard_residuals] == [budget] * n
    assert len(calls) == n


@pytest.mark.parametrize("parts", ["f", "g", "both"])
def test_node_driver_calls_eval_driver_once_per_picard_iteration(
        bm_model, monkeypatch, parts):
    # the tracer's generators.eval_driver.calls counts these: one call per
    # node for g (if any), one per Picard iteration for f (if any)
    n, budget = 6, 4
    paths = simulate_forward(
        bm_model, sample_brownian(make_grid(1.0, n), 1, 300, seed=3))
    g, grad = canonical_nonconvex_driver(2.0)
    spec = GeneratorSpec(
        f=(lambda prefix, y: 0.1 * np.tanh(np.asarray(y)))
        if parts != "g" else None,
        g=g if parts != "f" else None, grad_z_g=grad, h=_terminal_state(0.3))
    calls = []
    real = solvers.eval_driver

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(solvers, "eval_driver", counted)
    sol = solve_lsmc(spec, paths, polynomial_basis(2), TruncationSpec(8.0),
                     picard_budget=budget, tol=-1.0)
    assert [len(r) for r in sol.picard_residuals] == [budget] * n
    per_node = {"f": budget, "g": 1, "both": 1 + budget}[parts]
    assert len(calls) == n * per_node


def test_picard_refuses_a_driver_sum_that_overflows(bm_paths):
    # f and g are each finite, so each passes eval_driver's check; their sum,
    # formed in the solver once g is read per node, must be checked too
    spec = GeneratorSpec(f=lambda prefix, y: np.full(np.shape(y), 1e308),
                         g=lambda prefix, z: np.full(len(z), 1e308),
                         h=_terminal_state())
    with np.errstate(over="ignore"), pytest.raises(DriverEvaluationError,
                                                   match="non-finite"):
        solve_lsmc(spec, bm_paths, polynomial_basis(2))


# --------------------------------------------------------- decompositions

def _f1_setup(P=4000, n=20, seed=17):
    grid = make_grid(1.0, n)
    model = ModelSpec(x0=np.zeros(1), drift=lambda x: -0.5 * x,
                      sigma=lambda t: 1.0, mode="F1")
    paths = simulate_forward(model, sample_brownian(grid, 1, P, seed=seed))
    g, grad = canonical_nonconvex_driver(2.0)
    spec = GeneratorSpec(
        f=lambda prefix, y: 0.1 * np.tanh(np.asarray(y)),
        g=g, grad_z_g=grad,
        h=lambda p: 0.2 * p.sup ** 1.5 / 1.5,
        xi=lambda p: 0.2 * np.tanh(p.terminal[:, 0]))
    return grid, paths, spec


def test_additive_refuses_f2_paths(f2_model, noise25):
    # the split reads the model the paths were simulated with
    with pytest.raises(InvalidArgument, match="F1"):
        solve_decomposed_additive(GeneratorSpec(h=_terminal_state()),
                                  simulate_forward(f2_model, noise25),
                                  polynomial_basis(2))


def test_additive_zero_f_second_stage_vanishes():
    grid, paths, spec = _f1_setup(P=1000)
    g_only = GeneratorSpec(g=spec.g, grad_z_g=spec.grad_z_g, h=spec.h)
    basis = polynomial_basis(3)
    sol = solve_decomposed_additive(g_only, paths, basis,
                                    trunc=TruncationSpec(16.0))
    stage1 = solve_lsmc(g_only, paths, polynomial_basis(3),
                        TruncationSpec(16.0))
    np.testing.assert_allclose(sol.Y, stage1.Y, atol=1e-12)


def test_additive_degenerate_split_equals_lsmc():
    grid, paths, spec = _f1_setup(P=1000)
    f_only = GeneratorSpec(f=spec.f, xi=spec.xi)
    basis = polynomial_basis(3)
    sol = solve_decomposed_additive(f_only, paths, basis,
                                    trunc=TruncationSpec(16.0))
    plain = solve_lsmc(f_only, paths, polynomial_basis(3),
                       TruncationSpec(16.0))
    np.testing.assert_allclose(sol.Y, plain.Y, atol=1e-12)


def test_additive_full_split_agrees_with_monolithic():
    grid, paths, spec = _f1_setup()
    basis = polynomial_basis(3)
    mono = solve_lsmc(spec, paths, polynomial_basis(3),
                      TruncationSpec(16.0))
    split = solve_decomposed_additive(spec, paths, basis,
                                      trunc=TruncationSpec(16.0))
    sup_mean = np.max(np.mean(np.abs(mono.Y - split.Y), axis=1))
    budget = 3 * (mono.se_nodes.max() + split.se_nodes.max()) + 2e-2
    assert sup_mean <= budget


@pytest.mark.parametrize("split", [solve_decomposed_additive,
                                   solve_decomposed_malliavin])
def test_split_matches_tree_exact_on_saturated_basis(split):
    # the tree indicator basis projects onto exact conditional expectations,
    # so both stages of a split reproduce the exact tree recursion
    depth = 3
    paths = make_tree_bundle(depth, 1.0)
    g, grad = canonical_nonconvex_driver(2.0)
    spec = GeneratorSpec(
        f=lambda prefix, y: 0.2 * np.tanh(np.asarray(y)),
        g=g, grad_z_g=grad, h=_terminal_state(0.4))
    exact = solve_tree_exact(spec, paths, tol=1e-13)
    sol = split(spec, paths, TreeIndicatorBasis(),
                trunc=TruncationSpec(16.0), tol=1e-13)
    assert np.max(np.abs(sol.Y - exact.Y)) <= 1e-8
    assert np.max(np.abs(sol.Z - exact.Z)) <= 1e-8


def _f2_setup(P=4000, seed=19, n=20):
    grid = make_grid(1.0, n)
    model = ModelSpec(
        x0=np.zeros(1), drift=lambda x: -0.3 * x,
        sigma=lambda x: 1.0 + 0.5 * np.tanh(x[:, 0]), mode="F2")
    paths = simulate_forward(model, sample_brownian(grid, 1, P, seed=seed))
    g, grad = quadratic_driver()
    spec = GeneratorSpec(
        f=lambda prefix, y: 0.2 * np.tanh(np.asarray(y)),
        g=g, grad_z_g=grad,
        h=lambda p: 0.2 * np.abs(p.terminal[:, 0]))
    return grid, paths, spec


def test_malliavin_trivial_integral_case():
    grid, paths, _ = _f2_setup(P=500)
    spec = GeneratorSpec(f=lambda prefix, y: np.full(np.shape(y), 0.3),
                         xi=_terminal_const(0.0))
    sol = solve_decomposed_malliavin(spec, paths, polynomial_basis(2))
    # driver independent of (y, z): Y_t = 0.3 (T - t), U == 0
    expect = 0.3 * (1.0 - grid.nodes)
    np.testing.assert_allclose(sol.Y, np.broadcast_to(expect[:, None],
                                                      sol.Y.shape),
                               atol=1e-9)


def test_malliavin_agrees_with_monolithic():
    grid, paths, spec = _f2_setup()
    mono = solve_lsmc(spec, paths, polynomial_basis(3),
                      TruncationSpec(16.0))
    split = solve_decomposed_malliavin(spec, paths, polynomial_basis(3),
                                       trunc=TruncationSpec(16.0))
    sup_mean = np.max(np.mean(np.abs(mono.Y - split.Y), axis=1))
    budget = 3 * (mono.se_nodes.max() + split.se_nodes.max()) + 2e-2
    assert sup_mean <= budget


# ------------------------------------------------------- projector builds

class _CountingBasis(RegressionBasis):
    """A basis that counts its design builds, one per projector built."""

    def __init__(self, basis):
        super().__init__(basis.columns)
        self.builds = 0

    def design(self, paths, node):
        self.builds += 1
        return super().design(paths, node)


def _split_setup(split, P, n):
    if split is solve_decomposed_additive:
        return _f1_setup(P=P, n=n)
    return _f2_setup(P=P, n=n)


@pytest.mark.parametrize("split", [solve_decomposed_additive,
                                   solve_decomposed_malliavin])
def test_shared_fits_build_each_node_once(split):
    # both stages of a split read a node in one sweep, so the split builds
    # each node's projector once
    grid, paths, spec = _split_setup(split, P=600, n=8)
    basis = _CountingBasis(polynomial_basis(3))
    split(spec, paths, basis, TruncationSpec(16.0))
    assert basis.builds == grid.n_steps


def test_lone_lsmc_builds_each_node_once_and_keeps_nothing(bm_paths):
    spec = GeneratorSpec(h=_terminal_state())
    basis = _CountingBasis(polynomial_basis(2))
    solve_lsmc(spec, bm_paths, basis)
    assert basis.builds == bm_paths.grid.n_steps


@pytest.mark.parametrize("split", [solve_decomposed_additive,
                                   solve_decomposed_malliavin])
def test_split_peak_memory_on_a_plain_basis(split):
    # a split holds one (n+1, P) Y and Z pair: both stages run in one sweep
    # and write their sum, and each node's projector lives while the sweep
    # is at that node. The peaks read 2.01 (additive) and 2.01 (Malliavin)
    # times Y + Z
    grid, paths, spec = _split_setup(split, P=4000, n=10)
    trunc = TruncationSpec(16.0)
    # warm-up: what a first call loads or caches stays out of the peak
    split(spec, paths, polynomial_basis(3), trunc)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sol = split(spec, paths, polynomial_basis(3), trunc)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (sol.Y.nbytes + sol.Z.nbytes)


# ----------------------------------------------------- node-major results

def _every_solver_solution(name):
    if name == "tree":
        paths = make_tree_bundle(6, 1.0)
        return solve_tree_exact(GeneratorSpec(xi=_terminal_state()), paths)
    if name == "cole_hopf":
        paths = simulate_forward(_scaled_bm(lambda t: 0.8),
                                 sample_brownian(make_grid(1.0, 6), 1, 300, 3))
        return solve_cole_hopf(np.tanh, paths)
    if name == "malliavin":
        _, paths, spec = _f2_setup(P=300, n=6)
        return solve_decomposed_malliavin(spec, paths, polynomial_basis(2))
    _, paths, spec = _f1_setup(P=300, n=6)
    solve = {"lsmc": solve_lsmc, "additive": solve_decomposed_additive}[name]
    return solve(spec, paths, polynomial_basis(2))


@pytest.mark.parametrize("name", ["tree", "cole_hopf", "lsmc", "additive",
                                  "malliavin"])
def test_every_solver_returns_c_contiguous_path_major_y_and_z(name):
    # Y and Z are node-major, like the bundle, and C-contiguous: each node's
    # values are one contiguous row (the test's name predates the layout)
    sol = _every_solver_solution(name)
    nodes, P, d = sol.bundle.states.shape
    assert sol.Y.shape == (nodes, P) and sol.Z.shape == (nodes, P, d)
    for arr in (sol.Y, sol.Z):
        assert arr.flags.c_contiguous
        assert np.ascontiguousarray(arr, dtype="<f8") is arr
    assert np.all(sol.Z[-1] == 0.0)


def _hermite_one_table(v, slope, h, k, t):
    """The interpolant of one knot table, as the oracle evaluated it before
    both tables were read from one gather."""
    s = 1.0 - t
    return (v[k] * (1.0 + 2.0 * t) * s * s + v[k + 1] * t * t * (3.0 - 2.0 * t)
            + h * t * s * (slope[k] * s - slope[k + 1] * t))


def test_hermite_one_gather_is_bitwise_each_table():
    rng = np.random.default_rng(23)
    knots = rng.normal(size=(3, 40)) * [[3.0], [1.0], [0.5]]
    k = rng.integers(0, 39, size=5000)
    t = rng.random(5000)
    h = 0.037
    both = solvers._hermite(knots, h, k, t)
    y, dy, d2y = knots
    assert both.shape == (2, 5000)
    assert both[0].tobytes() == _hermite_one_table(y, dy, h, k, t).tobytes()
    assert both[1].tobytes() == _hermite_one_table(dy, d2y, h, k, t).tobytes()
