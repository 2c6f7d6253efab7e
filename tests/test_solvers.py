"""Backward solvers: tree oracle, LSMC, closed forms, decompositions."""

import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from qbsde import (
    BsdeSolution,
    GeneratorSpec,
    InvalidArgument,
    ModelSpec,
    NodeFits,
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
    solve_linear,
    solve_lsmc,
    solve_tree_exact,
)
from qbsde import solvers
from qbsde.errors import (
    CapabilityMissing,
    OracleOverflow,
    ResourceLimit,
    SolverDiverged,
)
from qbsde.solvers import COLE_HOPF_CHUNK, logsumexp


def _terminal_state(scale=1.0):
    return lambda p: scale * p.terminal[:, 0]


def _terminal_const(c):
    return lambda p: np.full(p.states.shape[0], float(c))


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
    basis = polynomial_basis(2, 1)
    for paths, solve in (
            (make_tree_bundle(4, 1.0), lambda p: solve_tree_exact(spec, p)),
            (bm_paths, lambda p: solve_lsmc(spec, p, basis)),
            (bm_paths, lambda p: solve_linear(spec, p, basis, 0.0)),
            (bm_paths, lambda p: solve_cole_hopf(lambda x: x, p)),
            (bm_paths, lambda p: solve_decomposed_additive(spec, p, basis)),
            (bm_paths, lambda p: solve_decomposed_malliavin(spec, p, basis))):
        sol = solve(paths)
        assert sol.bundle is paths
        assert sol.grid is paths.grid is paths.noise.grid
    with pytest.raises(InvalidArgument, match="bundle's shape"):
        BsdeSolution(bm_paths, sol.Y[:10], sol.Z[:10], "cut")


def test_tree_constant_driver_integral():
    spec = GeneratorSpec(f=lambda t, y, z: np.full(np.shape(y), 0.7),
                         xi=_terminal_const(0.0))
    sol = solve_tree_exact(spec, make_tree_bundle(5, 1.0))
    assert abs(sol.y0 - 0.7) <= 1e-12


def test_tree_depth_one_z_by_hand():
    spec = GeneratorSpec(h=_terminal_state())
    sol = solve_tree_exact(spec, make_tree_bundle(1, 1.0))
    # Z_0 = (xi_up - xi_down) / (2 sqrt(dt)) = 1 for xi = W_T
    np.testing.assert_allclose(sol.Z[:, 0, 0], 1.0)


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
    spec = GeneratorSpec(f=lambda t, y, z: a * np.asarray(y),
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
    x_T = paths.states[:, -1, 0]
    y = np.sin(x_T) + 0.5 * x_T
    return y, y[:, None] * paths.noise.increments[:, node, :]


@pytest.mark.parametrize("case", ["full", "duplicate_column", "node0"])
def test_default_projector_matches_lstsq(case, bm_paths):
    basis = polynomial_basis(3, 1)
    if case == "duplicate_column":
        basis = RegressionBasis(basis.features + [basis.features[1]])
    # x0 is deterministic, so every feature is constant at node 0
    node = 0 if case == "node0" else 7
    phi = basis.design(bm_paths, node)
    state = dict(vars(basis))
    project, rank_deficient = basis.projector(bm_paths, node)
    for target in _targets(bm_paths, node):
        np.testing.assert_allclose(project(target), _lstsq_fitted(phi, target),
                                   rtol=0, atol=1e-12)
    assert rank_deficient == (case != "full")
    assert vars(basis) == state  # the basis holds no per-solve state


@pytest.mark.parametrize("depth", range(1, 9))
def test_tree_projector_matches_dense_indicators(depth):
    paths = make_tree_bundle(depth, 1.0)
    basis = TreeIndicatorBasis(depth)
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
        TreeIndicatorBasis(12).projector(bm_paths, 3)
    paths = make_tree_bundle(5, 1.0)
    with pytest.raises(InvalidArgument, match="full enumerated tree"):
        TreeIndicatorBasis(6).projector(paths, 3)


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
        TreeIndicatorBasis(4).projector(paths, 2)
    with pytest.raises(InvalidArgument, match="full enumerated tree"):
        solve_lsmc(spec, paths, TreeIndicatorBasis(4))


# ------------------------------------------------------------------- LSMC

def test_lsmc_zero_data_is_exactly_zero(bm_paths):
    spec = GeneratorSpec()
    sol = solve_lsmc(spec, bm_paths, polynomial_basis(2, 1))
    np.testing.assert_array_equal(sol.Y, 0.0)
    np.testing.assert_array_equal(sol.Z, 0.0)


def test_lsmc_truncation_level_validated(bm_paths):
    with pytest.raises(InvalidArgument):
        solve_lsmc(GeneratorSpec(), bm_paths, polynomial_basis(2, 1),
                   TruncationSpec(1.5))


def test_lsmc_matches_tree_on_saturated_basis():
    depth = 8
    paths = make_tree_bundle(depth, 1.0)
    spec = GeneratorSpec(f=lambda t, y, z: 0.4 * np.asarray(y),
                         h=_terminal_state(0.5))
    lsmc = solve_lsmc(spec, paths, TreeIndicatorBasis(depth), tol=1e-13)
    tree = solve_tree_exact(spec, paths, tol=1e-13)
    assert np.max(np.abs(lsmc.Y - tree.Y)) <= 1e-10
    assert np.max(np.abs(lsmc.Z - tree.Z)) <= 1e-8


def test_lsmc_matches_tree_at_depth_14():
    # the block-mean projector makes 16384 paths cheap; the dense
    # indicator design did not
    depth = 14
    paths = make_tree_bundle(depth, 1.0)
    variants = (
        GeneratorSpec(f=lambda t, y, z: np.full(np.shape(y), 0.3),
                      h=_terminal_state(0.5)),
        GeneratorSpec(f=lambda t, y, z: 0.4 * np.asarray(y),
                      h=_terminal_state(0.5)),
    )
    for spec in variants:
        lsmc = solve_lsmc(spec, paths, TreeIndicatorBasis(depth), tol=1e-13)
        tree = solve_tree_exact(spec, paths, tol=1e-13)
        assert np.max(np.abs(lsmc.Y - tree.Y)) <= 1e-10
        assert np.max(np.abs(lsmc.Z - tree.Z)) <= 1e-8


def test_lsmc_terminal_consistency(bm_paths):
    g, grad = quadratic_driver()
    spec = GeneratorSpec(g=g, grad_z_g=grad,
                         h=_terminal_state(0.3))
    sol = solve_lsmc(spec, bm_paths, polynomial_basis(3, 1),
                     TruncationSpec(8.0))
    whole = prefix_at(bm_paths, bm_paths.grid.n_steps)
    np.testing.assert_array_equal(sol.Y[:, -1], spec.terminal(whole))
    assert np.all(np.isfinite(sol.Y)) and np.all(np.isfinite(sol.Z))


def test_lsmc_picard_residual_monotone_after_first(bm_paths):
    g, grad = canonical_nonconvex_driver(2.0)
    spec = GeneratorSpec(g=g, grad_z_g=grad, h=_terminal_state(0.3))
    sol = solve_lsmc(spec, bm_paths, polynomial_basis(3, 1),
                     TruncationSpec(16.0))
    for residuals in sol.picard_residuals:
        tail = residuals[1:]
        assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))


def test_lsmc_rank_deficiency_flagged_not_fatal(bm_paths):
    basis = RegressionBasis([lambda t, x, s: np.ones(x.shape[0]),
                             lambda t, x, s: np.ones(x.shape[0])])
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
    spec = GeneratorSpec(f=lambda t, y, z: np.asarray(y) ** 2,
                         xi=_terminal_const(10.0))
    with pytest.raises(SolverDiverged):
        solve_lsmc(spec, paths, polynomial_basis(1, 1))


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
        sol = solve_lsmc(spec, paths, polynomial_basis(3, 1),
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
    expect = paths.states[:, :, 0] + (1.0 - grid.nodes)[None, :] / 2
    np.testing.assert_allclose(sol.Y, expect, atol=1e-7)
    np.testing.assert_allclose(sol.Z[:, :-1, 0], 1.0, atol=1e-6)


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
    s = sig ** 2 * (1.0 - grid.nodes)[None, :]
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
    np.testing.assert_allclose(sol.Z[:, :-1, 0], z_exact[:, :-1],
                               rtol=1e-12, atol=1e-12)
    assert np.all(sol.Z[:, -1, 0] == 0.0)


def test_cole_hopf_zero_variance_nodes():
    # no diffusion from t = 1/2 on: those nodes keep Y = xi(x) and Z = 0
    model = _scaled_bm(lambda t: 1.0 if t < 0.5 else 0.0)
    grid = make_grid(1.0, 4)
    paths = simulate_forward(model, sample_brownian(grid, 1, 500, seed=12))
    terminal = lambda v: np.tanh(np.asarray(v, float))
    sol = solve_cole_hopf(terminal, paths)
    x = paths.states[:, :, 0]
    for i in (2, 3, 4):
        np.testing.assert_array_equal(sol.Y[:, i], np.tanh(x[:, i]))
        assert np.all(sol.Z[:, i, 0] == 0.0)
    assert np.all(np.abs(sol.Z[:, :2, 0]) > 0)


def test_cole_hopf_prefix_stable_across_chunks(bm_model):
    grid = make_grid(1.0, 3)
    terminal = lambda v: np.tanh(np.asarray(v, float)) + 0.1 * np.asarray(v) ** 2
    big = solve_cole_hopf(terminal, simulate_forward(
        bm_model, sample_brownian(grid, 1, 2 * COLE_HOPF_CHUNK + 3, seed=13)))
    for P in (COLE_HOPF_CHUNK - 1, COLE_HOPF_CHUNK, COLE_HOPF_CHUNK + 1):
        sol = solve_cole_hopf(terminal, simulate_forward(
            bm_model, sample_brownian(grid, 1, P, seed=13)))
        np.testing.assert_array_equal(sol.Y, big.Y[:P])
        np.testing.assert_array_equal(sol.Z, big.Z[:P])


def _oracle_case(bm_model):
    grid = make_grid(1.0, 4)
    paths = simulate_forward(bm_model, sample_brownian(
        grid, 1, 2 * COLE_HOPF_CHUNK + 5, seed=15))
    terminal = lambda v: np.tanh(np.asarray(v, float)) + 0.1 * np.asarray(v) ** 2
    return paths, terminal


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


def test_cole_hopf_same_bytes_for_any_cpu_count(bm_model, monkeypatch):
    paths, terminal = _oracle_case(bm_model)
    monkeypatch.setattr(solvers.threading, "Thread", _CountedThread)
    runs = {}
    for cpus in (1, 2, 3, 64):
        monkeypatch.setattr(solvers, "_usable_cpus", lambda c=cpus: c)
        _CountedThread.started = 0
        callers = set()

        def traced(v):
            callers.add(threading.get_ident())
            return terminal(v)

        runs[cpus] = solve_cole_hopf(traced, paths)
        # the calling thread works too: workers - 1 helpers start, none with
        # one CPU, and no more than the row budget allows on a large host
        workers = min(cpus, COLE_HOPF_CHUNK // solvers.COLE_HOPF_MIN_ROWS)
        assert _CountedThread.started == workers - 1
        if cpus == 1:
            assert callers == {threading.get_ident()}
    for cpus in (2, 3, 64):
        for attr in ("Y", "Z", "se_nodes"):
            assert (getattr(runs[cpus], attr).tobytes()
                    == getattr(runs[1], attr).tobytes())


def test_cole_hopf_job_error_reaches_caller(bm_model, monkeypatch):
    paths, terminal = _oracle_case(bm_model)
    monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)

    class Boom(Exception):
        pass

    calls = []
    lock = threading.Lock()

    def failing(v):
        with lock:
            calls.append(None)
            third = len(calls) == 3
        if third:
            raise Boom("one block fails")
        return terminal(v)

    before = threading.active_count()
    with pytest.raises(Boom, match="one block fails"):
        solve_cole_hopf(failing, paths)
    assert threading.active_count() == before


def test_run_jobs_runs_each_job_once_under_contention():
    # more threads than cores and a short switch interval: a job lost or
    # taken twice from the shared queue leaves a count other than one
    counts = np.zeros(3000, dtype=int)

    def body(k):
        counts[k] += 1  # each job owns its slot, as oracle blocks own rows

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        solvers._run_jobs(body, [(k,) for k in range(counts.size)], 8)
    finally:
        sys.setswitchinterval(interval)
    assert np.all(counts == 1)


@pytest.mark.parametrize("n_quad", [3, 10, 20, 96])
@pytest.mark.parametrize("c", [1.0, 1.5])
def test_cole_hopf_refuses_divergent_moment(bm_model, c, n_quad, monkeypatch):
    # xi = c x^2/2: E[e^xi] over the remaining variance s = 1 - t is finite
    # only for c s < 1. At c = 1.5 node 1 is refused too, on whichever thread
    # runs it, but the error is node 0's (s = 1), the first job of the list
    monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
    grid = make_grid(1.0, 4)
    paths = simulate_forward(bm_model, sample_brownian(grid, 1, 200, seed=16))
    with pytest.raises(OracleOverflow, match="at node 0$"):
        solve_cole_hopf(lambda v: c * np.asarray(v, float) ** 2 / 2, paths,
                        n_quad=n_quad)


@pytest.mark.parametrize("n_quad, tol", [(1, 0.5), (2, 0.1), (10, 1e-10),
                                         (20, 1e-12)])
def test_cole_hopf_solves_at_few_quadrature_points(bm_model, n_quad, tol):
    # the refusal reads the shape of the integrand, not a share that depends
    # on the node count: a constant and the shipped cole-hopf-check terminal
    # xi = x (Y = x + (T - t)/2) solve at any quad_points
    grid = make_grid(1.0, 4)
    paths = simulate_forward(bm_model, sample_brownian(grid, 1, 300, seed=17))
    x = paths.states[:, :, 0]
    const = solve_cole_hopf(lambda v: np.full(np.shape(v), 0.3), paths,
                            n_quad=n_quad)
    np.testing.assert_allclose(const.Y, 0.3, rtol=0, atol=1e-12)
    linear = solve_cole_hopf(lambda v: np.asarray(v, float), paths,
                             n_quad=n_quad)
    np.testing.assert_allclose(linear.Y, x + (1.0 - grid.nodes) / 2,
                               rtol=0, atol=tol)


def test_cole_hopf_memory_does_not_grow_with_cpus(bm_model, monkeypatch):
    # COLE_HOPF_CHUNK paths are in flight in all, split among the workers, so
    # the jobs' temporaries peak near the same bytes on any host
    grid = make_grid(1.0, 2)
    paths = simulate_forward(bm_model, sample_brownian(
        grid, 1, 4 * COLE_HOPF_CHUNK, seed=18))
    terminal = lambda v: np.tanh(np.asarray(v, float))
    peaks = {}
    for cpus in (1, 8):
        monkeypatch.setattr(solvers, "_usable_cpus", lambda c=cpus: c)
        tracemalloc.start()
        solve_cole_hopf(terminal, paths)
        peaks[cpus] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[8] <= 1.25 * peaks[1], peaks


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


def _linear_f(a):
    return lambda t, y, z: a * np.asarray(y, float)


def test_linear_solver_closed_forms(bm_paths):
    basis = polynomial_basis(2, 1)
    mart = GeneratorSpec(h=_terminal_state())
    sol0 = solve_linear(mart, bm_paths, basis, 0.0)
    assert abs(sol0.y0) <= 3 * sol0.y0_se + 1e-10
    for a, target in ((1.0, np.e), (-1.0, 1.0 / np.e)):
        const = GeneratorSpec(f=_linear_f(a), xi=_terminal_const(1.0))
        sol = solve_linear(const, bm_paths, basis, a)
        assert abs(sol.y0 - target) <= 1e-10


@pytest.mark.parametrize("f, g, a", [
    (None, None, 1.0),  # F = 0 against a = 1
    (_linear_f(0.5), quadratic_driver()[0], 0.5),  # a z-term
    (_linear_f(0.5), None, 0.4),  # another rate
    (lambda t, y, z: 0.5 * np.asarray(y) + np.sin(y), None, 0.5),
])
def test_linear_solver_refuses_other_drivers(bm_paths, f, g, a):
    # the closed form ignores the driver, so one other than a*y used to be
    # solved as if it were a*y
    spec = GeneratorSpec(f=f, g=g, h=_terminal_state())
    with pytest.raises(InvalidArgument, match="only F = a"):
        solve_linear(spec, bm_paths, polynomial_basis(2, 1), a)


def test_lsmc_y0_is_path_mean_of_path_sum(bm_paths):
    g, grad = quadratic_driver()
    spec = GeneratorSpec(f=lambda t, y, z: 0.5 * np.asarray(y), g=g,
                         grad_z_g=grad, h=_terminal_state())
    sol = solve_lsmc(spec, bm_paths, polynomial_basis(2, 1),
                     TruncationSpec(8.0))
    S = sol.extras["path_sum"]
    assert abs(S.mean() - sol.y0) <= 1e-12
    assert sol.y0_se == np.std(S) / np.sqrt(S.size)


@pytest.mark.parametrize("construction", ["linear", "lsmc", "additive",
                                          "malliavin"])
def test_y0_se_matches_seed_to_seed_spread(bm_model, construction):
    # the path sum S is an i.i.d. sample when the driver does not read
    # (y, z), and for solve_linear, where S = e^{aT} xi; the empirical std of
    # y0 over seeds must then match the mean reported y0_se
    grid = make_grid(1.0, 10)
    spec = GeneratorSpec(
        g=lambda prefix, y, z: np.cos(prefix.terminal[:, 0]) + prefix.sup,
        h=_terminal_state(), xi=lambda p: np.tanh(p.terminal[:, 0]))
    y0, se = [], []
    for seed in range(100):
        paths = simulate_forward(bm_model,
                                 sample_brownian(grid, 1, 4000, seed))
        basis = polynomial_basis(2, 1)
        if construction == "linear":
            sol = solve_linear(GeneratorSpec(f=_linear_f(0.7),
                                             h=_terminal_state()),
                               paths, basis, 0.7)
        elif construction == "lsmc":
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
    basis = polynomial_basis(2, 1)
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
    # iteration. A negative tol runs every node for exactly `budget`
    # iterations, so each stage calls g budget * n times besides.
    n, budget = 6, 3
    grid = make_grid(1.0, n)
    paths = simulate_forward(bm_model, sample_brownian(grid, 1, 500, seed=3))
    g, grad = canonical_nonconvex_driver(2.0)
    calls = []

    def counted_g(prefix, y, z):
        calls.append(1)
        return g(prefix, y, z)

    spec = GeneratorSpec(f=lambda t, y, z: 0.1 * np.tanh(np.asarray(y)),
                         g=counted_g, grad_z_g=grad, h=_terminal_state(0.3),
                         xi=lambda p: np.tanh(p.terminal[:, 0]))
    sol = split(spec, paths, polynomial_basis(2, 1), TruncationSpec(8.0),
                picard_budget=budget, tol=-1.0)
    assert [len(r) for r in sol.picard_residuals] == [budget] * n
    assert len(calls) == 2 * budget * n + n


# --------------------------------------------------------- decompositions

def _f1_setup(P=4000, n=20, seed=17):
    grid = make_grid(1.0, n)
    model = ModelSpec(x0=np.zeros(1), drift=lambda x: -0.5 * x,
                      sigma=lambda t: 1.0, mode="F1",
                      drift_jac=lambda x: np.full((x.shape[0], 1, 1), -0.5))
    paths = simulate_forward(model, sample_brownian(grid, 1, P, seed=seed))
    g, grad = canonical_nonconvex_driver(2.0)
    spec = GeneratorSpec(
        f=lambda t, y, z: 0.1 * np.tanh(np.asarray(y)),
        g=g, grad_z_g=grad,
        h=lambda p: 0.2 * p.sup ** 1.5 / 1.5,
        xi=lambda p: 0.2 * np.tanh(p.terminal[:, 0]))
    return grid, paths, spec


def test_additive_refuses_f2_paths(f2_model, noise25):
    # the split reads the model the paths were simulated with
    with pytest.raises(InvalidArgument, match="F1"):
        solve_decomposed_additive(GeneratorSpec(h=_terminal_state()),
                                  simulate_forward(f2_model, noise25),
                                  polynomial_basis(2, 1))


def test_additive_zero_f_second_stage_vanishes():
    grid, paths, spec = _f1_setup(P=1000)
    g_only = GeneratorSpec(g=spec.g, grad_z_g=spec.grad_z_g, h=spec.h)
    basis = polynomial_basis(3, 1)
    sol = solve_decomposed_additive(g_only, paths, basis,
                                    trunc=TruncationSpec(16.0))
    stage1 = solve_lsmc(g_only, paths, polynomial_basis(3, 1),
                        TruncationSpec(16.0))
    np.testing.assert_allclose(sol.Y, stage1.Y, atol=1e-12)


def test_additive_degenerate_split_equals_lsmc():
    grid, paths, spec = _f1_setup(P=1000)
    f_only = GeneratorSpec(f=spec.f, xi=spec.xi)
    basis = polynomial_basis(3, 1)
    sol = solve_decomposed_additive(f_only, paths, basis,
                                    trunc=TruncationSpec(16.0))
    plain = solve_lsmc(f_only, paths, polynomial_basis(3, 1),
                       TruncationSpec(16.0))
    np.testing.assert_allclose(sol.Y, plain.Y, atol=1e-12)


def test_additive_full_split_agrees_with_monolithic():
    grid, paths, spec = _f1_setup()
    basis = polynomial_basis(3, 1)
    mono = solve_lsmc(spec, paths, polynomial_basis(3, 1),
                      TruncationSpec(16.0))
    split = solve_decomposed_additive(spec, paths, basis,
                                      trunc=TruncationSpec(16.0))
    sup_mean = np.max(np.mean(np.abs(mono.Y - split.Y), axis=0))
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
        f=lambda t, y, z: 0.2 * np.tanh(np.asarray(y)),
        g=g, grad_z_g=grad, h=_terminal_state(0.4))
    exact = solve_tree_exact(spec, paths, tol=1e-13)
    sol = split(spec, paths, TreeIndicatorBasis(depth),
                trunc=TruncationSpec(16.0), tol=1e-13)
    assert np.max(np.abs(sol.Y - exact.Y)) <= 1e-8
    assert np.max(np.abs(sol.Z - exact.Z)) <= 1e-8


def _f2_setup(P=4000, seed=19, n=20):
    grid = make_grid(1.0, n)
    model = ModelSpec(
        x0=np.zeros(1), drift=lambda x: -0.3 * x,
        sigma=lambda x: 1.0 + 0.5 * np.tanh(x[:, 0]), mode="F2",
        drift_jac=lambda x: np.full((x.shape[0], 1, 1), -0.3),
        sigma_jac=lambda x: (0.5 / np.cosh(x[:, 0]) ** 2)[:, None, None, None])
    paths = simulate_forward(model, sample_brownian(grid, 1, P, seed=seed))
    g, grad = quadratic_driver()
    spec = GeneratorSpec(
        f=lambda t, y, z: 0.2 * np.tanh(np.asarray(y)),
        g=g, grad_z_g=grad,
        h=lambda p: 0.2 * np.abs(p.terminal[:, 0]))
    return grid, paths, spec


def test_malliavin_trivial_integral_case():
    grid, paths, _ = _f2_setup(P=500)
    spec = GeneratorSpec(f=lambda t, y, z: np.full(np.shape(y), 0.3),
                         xi=_terminal_const(0.0))
    sol = solve_decomposed_malliavin(spec, paths, polynomial_basis(2, 1))
    # driver independent of (y, z): Y_t = 0.3 (T - t), U == 0
    expect = 0.3 * (1.0 - grid.nodes)
    np.testing.assert_allclose(sol.Y, np.broadcast_to(expect, sol.Y.shape),
                               atol=1e-9)


def test_malliavin_agrees_with_monolithic():
    grid, paths, spec = _f2_setup()
    mono = solve_lsmc(spec, paths, polynomial_basis(3, 1),
                      TruncationSpec(16.0))
    split = solve_decomposed_malliavin(spec, paths, polynomial_basis(3, 1),
                                       trunc=TruncationSpec(16.0))
    sup_mean = np.max(np.mean(np.abs(mono.Y - split.Y), axis=0))
    budget = 3 * (mono.se_nodes.max() + split.se_nodes.max()) + 2e-2
    assert sup_mean <= budget


def test_malliavin_stage1_s_bound_finite_and_stable():
    sups, q999s = [], []
    for P in (2000, 8000):
        grid, paths, spec = _f2_setup(P=P)
        sol = solve_decomposed_malliavin(spec, paths, polynomial_basis(3, 1),
                                         trunc=TruncationSpec(16.0))
        assert np.isfinite(sol.extras["s_empirical_sup"])
        sups.append(sol.extras["s_empirical_sup"])
        q999s.append(sol.extras["s_q999"])
    # the raw sup is a tail-extrapolation statistic; the boundedness signature
    # is the stability of the high quantile under path-count x4
    assert abs(q999s[1] - q999s[0]) <= 0.2 * max(q999s)


# -------------------------------------------------------- shared node fits

class _CountingBasis(RegressionBasis):
    """A basis that counts its design builds, one per projector built."""

    def __init__(self, basis):
        super().__init__(basis.features, basis.name)
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
    # lsmc and a split on one bundle are two readers of the fits, counted as
    # the harness counts them; each node's design is built once and the
    # last reader releases it
    grid, paths, spec = _split_setup(split, P=600, n=8)
    basis = _CountingBasis(polynomial_basis(3, 1))
    fits = NodeFits(basis, paths, readers=2)
    solve_lsmc(spec, paths, fits, TruncationSpec(16.0))
    assert len(fits) == grid.n_steps
    split(spec, paths, fits, TruncationSpec(16.0))
    assert basis.builds == grid.n_steps
    assert len(fits) == 0
    # the same split alone builds each node once for both of its stages
    basis = _CountingBasis(polynomial_basis(3, 1))
    split(spec, paths, basis, TruncationSpec(16.0))
    assert basis.builds == grid.n_steps


@pytest.mark.parametrize("split", [solve_decomposed_additive,
                                   solve_decomposed_malliavin])
def test_lone_split_is_one_reader(split):
    # both stages of a split read a node in one sweep: a store declared for
    # one reader builds each node once and holds nothing afterwards
    grid, paths, spec = _split_setup(split, P=600, n=8)
    fits = NodeFits(_CountingBasis(polynomial_basis(3, 1)), paths, readers=1)
    split(spec, paths, fits, TruncationSpec(16.0))
    assert fits.basis.builds == grid.n_steps
    assert len(fits) == 0


def test_lone_lsmc_builds_each_node_once_and_keeps_nothing(bm_paths):
    spec = GeneratorSpec(h=_terminal_state())
    basis = _CountingBasis(polynomial_basis(2, 1))
    solve_lsmc(spec, bm_paths, basis)
    assert basis.builds == bm_paths.grid.n_steps
    fits = NodeFits(_CountingBasis(polynomial_basis(2, 1)), bm_paths, readers=1)
    solve_lsmc(spec, bm_paths, fits)
    assert fits.basis.builds == bm_paths.grid.n_steps
    assert len(fits) == 0


def test_node_fits_refuse_another_bundle(bm_model, bm_paths, noise25):
    # equal values on another bundle object are still another bundle
    other = simulate_forward(bm_model, noise25)
    fits = NodeFits(polynomial_basis(2, 1), bm_paths, readers=2)
    with pytest.raises(InvalidArgument, match="another path bundle"):
        fits.projector(other, 3)
    with pytest.raises(InvalidArgument, match="another path bundle"):
        solve_lsmc(GeneratorSpec(h=_terminal_state()), other, fits)


def _shared_cases(case):
    """(paths, spec, basis factory) for one byte-identity case."""
    g, grad = canonical_nonconvex_driver(2.0)
    spec = GeneratorSpec(f=lambda t, y, z: 0.2 * np.tanh(np.asarray(y)),
                         g=g, grad_z_g=grad, h=_terminal_state(0.4),
                         xi=lambda p: np.tanh(p.terminal[:, 0]))
    if case == "tree":
        return make_tree_bundle(5, 1.0), spec, lambda: TreeIndicatorBasis(5)
    d = 2 if case == "d2" else 1
    grid = make_grid(1.0, 8)
    model = ModelSpec(x0=np.zeros(d), drift=lambda x: -0.3 * x,
                      sigma=lambda t: np.eye(d), mode="F1")
    paths = simulate_forward(model, sample_brownian(grid, d, 800, seed=5))
    return paths, spec, lambda: polynomial_basis(2, d)


@pytest.mark.parametrize("case", ["poly", "tree", "d2"])
def test_shared_fits_match_fresh_basis_solves(case):
    paths, spec, make_basis = _shared_cases(case)
    trunc = TruncationSpec(8.0)
    solves = [
        lambda b: solve_lsmc(spec, paths, b, trunc),
        lambda b: solve_decomposed_additive(spec, paths, b, trunc),
        lambda b: solve_decomposed_malliavin(spec, paths, b, trunc),
        lambda b: solve_linear(
            replace(spec, f=_linear_f(0.4), g=None, grad_z_g=None),
            paths, b, 0.4),
    ]
    fits = NodeFits(make_basis(), paths, readers=4)
    for solve in solves:
        shared, fresh = solve(fits), solve(make_basis())
        for name in ("Y", "Z", "se_nodes"):
            assert np.array_equal(getattr(shared, name), getattr(fresh, name))
        assert shared.picard_residuals == fresh.picard_residuals
        assert shared.rank_deficient_nodes == fresh.rank_deficient_nodes
        assert shared.extras.keys() == fresh.extras.keys()
        for key, value in shared.extras.items():
            assert np.array_equal(value, fresh.extras[key])
    assert len(fits) == 0


@pytest.mark.parametrize("split", [solve_decomposed_additive,
                                   solve_decomposed_malliavin])
def test_split_peak_memory_with_shared_fits(split):
    # with fits shared as in the harness, a split holds one (P, n+1) Y and Z
    # pair: both stages run in one sweep and write their sum
    grid, paths, spec = _split_setup(split, P=4000, n=10)
    trunc = TruncationSpec(16.0)
    # warm-up: the first np.quantile call imports numpy.ma
    split(spec, paths, polynomial_basis(3, 1), trunc)
    fits = NodeFits(polynomial_basis(3, 1), paths, readers=2)
    solve_lsmc(spec, paths, fits, trunc)  # builds the shared fits
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sol = split(spec, paths, fits, trunc)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (sol.Y.nbytes + sol.Z.nbytes)
