"""Z-growth ratios, exponential moments, stochastic exponentials, BMO/p*."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from qbsde import (
    BsdeSolution,
    DiagnosticsOverflow,
    GeneratorSpec,
    InvalidArgument,
    PathFunctional,
    bmo_estimate,
    class_membership,
    exp_moment,
    exp_moment_of_samples,
    make_grid,
    polynomial_basis,
    pstar_from_bmo,
    reverse_holder_phi,
    sample_brownian,
    simulate_forward,
    solve_cole_hopf,
    solve_lsmc,
    stochastic_exponential,
    uniqueness_probe,
    z_growth_report,
)

# closed form E[e^{|W_1|}] = 2 e^{1/2} Phi(1)
FOLDED_EXP_MOMENT = 2.0 * np.exp(0.5) * norm.cdf(1.0)


def _const_solution(grid, P, y=0.0, z=1.0):
    Y = np.full((P, grid.n_steps + 1), float(y))
    Z = np.zeros((P, grid.n_steps + 1, 1))
    Z[:, :-1, 0] = z
    return BsdeSolution(grid, Y, Z, method="synthetic",
                        se_nodes=np.zeros(grid.n_steps + 1))


# --------------------------------------------------------------- z growth

def test_z_growth_constant_inputs(bm_paths, grid25):
    # Z == 1 and r=0 gives denominator 2 everywhere
    sol = _const_solution(grid25, bm_paths.n_paths)
    rep = z_growth_report(sol, bm_paths, r=0.0)
    np.testing.assert_allclose(rep.mean_ratio, 0.5)
    np.testing.assert_allclose(rep.max_ratio, 0.5)


def test_z_growth_linear_case_bounded(bm_paths, grid25):
    # Z == 1, X = W, r = 1: every ratio 1/(1+sup|W|) <= 1
    sol = _const_solution(grid25, bm_paths.n_paths)
    rep = z_growth_report(sol, bm_paths, r=1.0)
    assert rep.max_ratio <= 1.0
    expected = 1.0 / (1.0 + bm_paths.running_sup[:, 0])
    np.testing.assert_allclose(rep.max_ratio_per_node[0], expected.max())


def test_z_growth_rows_schema(bm_paths, grid25):
    sol = _const_solution(grid25, bm_paths.n_paths)
    rows = z_growth_report(sol, bm_paths, r=0.5).as_rows()
    assert len(rows) == grid25.n_steps
    assert set(rows[0]) == {"t", "mean_ratio", "q999_ratio", "max_ratio"}


# -------------------------------------------------------------- exp moment

def test_exp_moment_degenerate(grid25):
    sol = _const_solution(grid25, 100, y=0.0)
    est = exp_moment(sol, 1.0)
    assert est.estimate == 1.0 and est.se == 0.0


def test_exp_moment_folded_gaussian_closed_form():
    rng = np.random.Generator(np.random.Philox(key=123))
    samples = np.abs(rng.standard_normal(100_000))
    est = exp_moment_of_samples(samples, 1.0)
    assert abs(est.estimate - FOLDED_EXP_MOMENT) <= 3 * est.se


def test_exp_moment_monotone_in_q():
    rng = np.random.Generator(np.random.Philox(key=5))
    samples = np.abs(rng.standard_normal(5000))
    e1 = exp_moment_of_samples(samples, 1.0).estimate
    e2 = exp_moment_of_samples(samples, 2.0).estimate
    assert e2 >= e1 >= 1.0


def test_exp_moment_rejects_nonpositive_q(grid25):
    with pytest.raises(InvalidArgument):
        exp_moment(_const_solution(grid25, 10), 0.0)


# -------------------------------------------------- stochastic exponential

def test_stoch_exp_zero_integrand(grid25, noise25):
    theta = np.zeros_like(noise25.increments)
    rep = stochastic_exponential(theta, noise25)
    np.testing.assert_array_equal(rep.samples, 1.0)
    assert rep.mean == 1.0 and rep.se == 0.0
    assert all(abs(v - 1.0) <= 1e-12 for v in rep.lp_norms.values())


def test_stoch_exp_unit_integrand_martingale():
    grid = make_grid(1.0, 50)
    noise = sample_brownian(grid, 1, 100_000, seed=21)
    theta = np.ones_like(noise.increments)
    rep = stochastic_exponential(theta, noise)
    assert abs(rep.mean - 1.0) <= 3 * rep.se
    # E[E_T^p] = e^{p(p-1)/2}: check p=2 via the L^2 norm
    l2_sq = rep.lp_norms[2.0] ** 2
    assert abs(l2_sq - np.e) <= 0.1
    assert rep.novikov == pytest.approx(np.exp(0.5), rel=1e-12)


def test_stoch_exp_log_domain_never_degenerates(grid25, noise25):
    theta = np.full_like(noise25.increments, 1e3)
    rep = stochastic_exponential(theta, noise25)
    assert np.all(np.isfinite(rep.log_samples))


def test_stoch_exp_nonfinite_integrand_reports_path(grid25, noise25):
    theta = np.ones_like(noise25.increments)
    theta[7, 3, 0] = np.inf
    with pytest.raises(DiagnosticsOverflow) as e:
        stochastic_exponential(theta, noise25)
    assert e.value.path_index == 7


# --------------------------------------------------------------- BMO / p*

def test_bmo_constant_integrand(grid25):
    theta = np.full((50, grid25.n_steps, 1), 0.7)
    assert bmo_estimate(theta, grid25) == pytest.approx(0.7, rel=1e-12)


def test_bmo_zero(grid25):
    assert bmo_estimate(np.zeros((10, grid25.n_steps, 1)), grid25) == 0.0


def test_bmo_piecewise_integrand():
    grid = make_grid(1.0, 50)
    theta = np.zeros((20, 50, 1))
    theta[:, :25, :] = 1.0
    assert bmo_estimate(theta, grid) == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_phi_at_two():
    assert reverse_holder_phi(2.0) == pytest.approx(
        np.sqrt(1 + 0.25 * np.log(1.5)) - 1)
    assert abs(reverse_holder_phi(2.0) - 0.04946) <= 1e-5


@given(p=st.floats(1.01, 100.0))
@settings(max_examples=60, deadline=None)
def test_pstar_round_trip(p):
    res = pstar_from_bmo(reverse_holder_phi(p))
    assert not res.saturated
    assert abs(res.value - p) / p <= 1e-8


def test_pstar_saturates_at_large_bmo():
    res = pstar_from_bmo(reverse_holder_phi(1.0 + 1e-6) * 2)
    assert res.saturated and res.value <= 1.0 + 1e-6


def test_pstar_monotone():
    a = pstar_from_bmo(0.01).value
    b = pstar_from_bmo(0.05).value
    assert a > b


def test_pstar_rejects_nonpositive():
    with pytest.raises(InvalidArgument):
        pstar_from_bmo(0.0)


# ------------------------------------------------------- class membership

def test_class_membership_bounded_y(grid25):
    sol = _const_solution(grid25, 4000, y=0.8)
    rep = class_membership(sol, 1.0)
    assert rep.all_finite_looking
    for e in rep.entries:
        assert e["estimate"] <= np.exp(e["q"]) * (1 + 1e-12)


def test_class_membership_ladder_ordering(grid25):
    rep = class_membership(_const_solution(grid25, 100, y=0.1), 1.0,
                           p_grid=(1.5, 2.0, 4.0), eps_grid=(0.5,))
    qs = [e["q"] for e in rep.entries]
    # 2p/(p-1) decreases in p for fixed eps
    assert qs == sorted(qs, reverse=True)


def test_class_membership_cole_hopf_consistency(bm_model):
    # substitute the closed-form Y along simulated paths and compare the
    # ladder estimates against the same estimator fed the closed form directly
    grid = make_grid(1.0, 25)
    noise = sample_brownian(grid, 1, 20_000, seed=23)
    paths = simulate_forward(bm_model, noise)
    sol = solve_cole_hopf(lambda x: 0.3 * np.asarray(x).ravel(), paths)
    closed = 0.3 * paths.states[:, :, 0] + \
        0.09 * (1.0 - grid.nodes)[None, :] / 2
    ystar_closed = np.max(np.abs(closed), axis=1)
    rep = class_membership(sol, 0.3, p_grid=(2.0,), eps_grid=(0.1,))
    e = rep.entries[0]
    direct = exp_moment_of_samples(ystar_closed, e["q"])
    assert abs(e["estimate"] - direct.estimate) <= 3 * (e["se"] + direct.se)


# ------------------------------------------------------- uniqueness probe

def test_uniqueness_identical_solutions(grid25):
    sol = _const_solution(grid25, 500, y=0.3)
    v = uniqueness_probe(sol, sol)
    assert v.sup_mean_abs == 0.0 and v.passed
    assert v.delta_z_l2 == 0.0


def test_uniqueness_probe_symmetric(bm_paths, grid25):
    g_spec = GeneratorSpec(
        h=PathFunctional(lambda t, X, n: 0.3 * X[:, n, 0]), K_h=0.3)
    a = solve_lsmc(g_spec, bm_paths, polynomial_basis(2, 1))
    b = _const_solution(grid25, bm_paths.n_paths, y=0.05)
    va = uniqueness_probe(a, b)
    vb = uniqueness_probe(b, a)
    assert va.sup_mean_abs == vb.sup_mean_abs
    assert va.sup_max_abs == vb.sup_max_abs
    assert va.budget == vb.budget and va.passed == vb.passed


def test_uniqueness_grid_mismatch_rejected(grid25):
    a = _const_solution(grid25, 10)
    b = _const_solution(make_grid(1.0, 10), 10)
    with pytest.raises(InvalidArgument):
        uniqueness_probe(a, b)
