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
    ModelSpec,
    bmo_estimate,
    class_membership,
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


def _const_solution(paths, y=0.0, z=1.0):
    nodes, P, _ = paths.states.shape
    Y = np.full((nodes, P), float(y))
    Z = np.zeros((nodes, P, 1))
    Z[:-1, :, 0] = z
    return BsdeSolution(paths, Y, Z, method="synthetic",
                        se_nodes=np.zeros(nodes))


# --------------------------------------------------------------- z growth

def test_z_growth_constant_inputs(bm_paths):
    # Z == 1 and r=0 gives denominator 2 everywhere
    sol = _const_solution(bm_paths)
    rep = z_growth_report(sol, r=0.0)
    np.testing.assert_allclose(rep.mean_ratio, 0.5)
    np.testing.assert_allclose(rep.max_ratio, 0.5)


def test_z_growth_linear_case_bounded(bm_paths):
    # Z == 1, X = W, r = 1: every ratio 1/(1+sup|W|) <= 1
    sol = _const_solution(bm_paths)
    rep = z_growth_report(sol, r=1.0)
    assert rep.max_ratio <= 1.0
    expected = 1.0 / (1.0 + bm_paths.running_sup[0])
    np.testing.assert_allclose(rep.max_ratio_per_node[0], expected.max())


def test_z_growth_rows_schema(bm_paths, grid25):
    sol = _const_solution(bm_paths)
    rows = z_growth_report(sol, r=0.5).as_rows()
    assert len(rows) == grid25.n_steps
    assert set(rows[0]) == {"t", "mean_ratio", "q999_ratio", "max_ratio"}


@pytest.mark.parametrize("n, P", [(1, 1), (1, 2), (3, 2), (2, 600),
                                  (25, 40)])
def test_z_growth_quantiles_equal_numpys_on_every_ratio(n, P):
    # the overall quantile is read from each node's largest
    # quantile_tail(n P, 0.999) ratios, the whole row where that is >= P, as
    # in the first three cases; ratios with ties and r = 0.5
    grid = make_grid(1.0, n)
    model = ModelSpec(x0=np.zeros(2), drift=lambda x: np.zeros_like(x),
                      sigma=lambda t: 1.0, mode="F1")
    paths = simulate_forward(model, sample_brownian(grid, 2, P, seed=n * P))
    rng = np.random.default_rng(P)
    Z = rng.choice([0.0, 0.5, 1.0, 3.0], size=(n + 1, P, 2))
    sol = BsdeSolution(paths, np.zeros((n + 1, P)), Z, method="synthetic")
    rep = z_growth_report(sol, r=0.5)
    ratios = (np.linalg.norm(Z[:n], axis=-1)
              / (1.0 + paths.running_sup[:n] ** 0.5))
    assert rep.q999_overall == float(np.quantile(ratios, 0.999))
    assert rep.q999_ratio.tobytes() == np.quantile(ratios, 0.999,
                                                   axis=1).tobytes()
    assert rep.mean_ratio.tobytes() == ratios.mean(axis=1).tobytes()
    assert rep.max_ratio_per_node.tobytes() == ratios.max(axis=1).tobytes()


def test_z_growth_reads_nan_as_numpy_does(bm_paths):
    sol = _const_solution(bm_paths)
    sol.Z[3, 7, 0] = np.nan
    rep = z_growth_report(sol, r=0.0)
    assert np.isnan(rep.q999_overall) and np.isnan(rep.q999_ratio[3])
    assert not np.isnan(rep.q999_ratio[4])


# -------------------------------------------------------------- exp moment

def test_exp_moment_degenerate(bm_paths):
    sol = _const_solution(bm_paths, y=0.0)
    est = exp_moment_of_samples(sol.y_star(), 1.0)
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


def test_exp_moment_rejects_nonpositive_q(bm_paths):
    with pytest.raises(InvalidArgument):
        exp_moment_of_samples(_const_solution(bm_paths).y_star(), 0.0)
    # e^{qS} <= 1 for q <= 0, so the estimate would look finite whatever S
    for q in (0.0, -6.0):
        with pytest.raises(InvalidArgument, match="q must be positive"):
            exp_moment_of_samples(np.arange(10.0), q)


def test_exp_moment_overflow_reads_inf_and_unstable():
    # e^800 is past the largest float: the estimate says so, it does not raise
    est = exp_moment_of_samples([1.0, 800.0], 1.0)
    assert est.estimate == np.inf and est.se == np.inf
    assert est.stable is False
    assert est.log_estimate == pytest.approx(800.0 - np.log(2.0), rel=1e-15)


def test_exp_moment_below_overflow_keeps_its_bits():
    samples = np.array([1.0, 700.0, 3.5])
    est = exp_moment_of_samples(samples, 1.0)
    w = np.exp(samples - 700.0)
    assert est.estimate == np.exp(700.0) * float(w.mean())
    assert est.se == np.exp(700.0) * float(w.std()) / np.sqrt(3.0)
    assert est.stable is True


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


@pytest.mark.filterwarnings("error")
def test_stoch_exp_overflow_reads_inf():
    # theta = dW/dt gives log E_T = sum dW^2 / (2 dt), about n/2 = 1000 per
    # path: E_T, its mean, its L^p norms and novikov are past the largest
    # float, and each reads inf without a warning
    noise = sample_brownian(make_grid(1.0, 2000), 1, 2, seed=5)
    theta = noise.increments / noise.grid.steps[:, None, None]
    rep = stochastic_exponential(theta, noise)
    assert np.all(rep.log_samples > 800)
    assert rep.mean == np.inf and rep.se == np.inf
    assert all(v == np.inf for v in rep.lp_norms.values())
    assert rep.novikov == np.inf and np.isfinite(rep.log_novikov)


def test_stoch_exp_nonfinite_integrand_reports_path(grid25, noise25):
    theta = np.ones_like(noise25.increments)
    theta[3, 7, 0] = np.inf
    with pytest.raises(DiagnosticsOverflow) as e:
        stochastic_exponential(theta, noise25)
    assert e.value.path_index == 7


# --------------------------------------------------------------- BMO / p*

def test_bmo_constant_integrand(grid25):
    theta = np.full((grid25.n_steps, 50, 1), 0.7)
    assert bmo_estimate(theta, grid25) == pytest.approx(0.7, rel=1e-12)


def test_bmo_zero(grid25):
    assert bmo_estimate(np.zeros((grid25.n_steps, 10, 1)), grid25) == 0.0


def test_bmo_features_condition_on_the_first_increment():
    # theta = 1 + 1{dW_0 > 0} from node 1 on: the tails from node i >= 1 are
    # theta^2 (T - t_i), exactly fitted by [1, 1{dW_0 > 0}], so the sup is
    # sqrt(4 (T - t_1)); node 0 sees only the constant
    grid = make_grid(1.0, 10)
    noise = sample_brownian(grid, 1, 2000, seed=7)
    up = (noise.increments[0, :, 0] > 0).astype(float)
    theta = np.ones((10, 2000, 1))
    theta[1:, :, 0] += up
    features = np.ones((10, 2000, 2))
    features[0, :, 1] = 0.0
    features[1:, :, 1] = up
    expect = np.sqrt(4.0 * (1.0 - grid.nodes[1]))
    assert bmo_estimate(theta, grid, features) == pytest.approx(expect,
                                                                rel=1e-12)
    # plain means average the two branches: well below the conditional sup
    assert bmo_estimate(theta, grid) < 1.6


@pytest.mark.parametrize("features", [False, True])
def test_bmo_refuses_non_finite_theta(grid25, features):
    # max(worst, nan) kept worst: one NaN entry read 0.5 for theta = 1, an
    # all-NaN theta 0.0, which the harness reported as a pass
    feats = np.ones((grid25.n_steps, 50, 1)) if features else None
    theta = np.ones((grid25.n_steps, 50, 1))
    theta[2, 7, 0] = np.nan
    with pytest.raises(DiagnosticsOverflow, match="at node 2") as e:
        bmo_estimate(theta, grid25, feats)
    assert e.value.path_index == 7
    last = grid25.n_steps - 1  # the first node the backward sweep reads
    with pytest.raises(DiagnosticsOverflow, match=f"at node {last}"):
        bmo_estimate(np.full_like(theta, np.nan), grid25, feats)
    assert bmo_estimate(np.ones_like(theta), grid25, feats) == pytest.approx(
        1.0, rel=1e-12)


def test_bmo_piecewise_integrand():
    grid = make_grid(1.0, 50)
    theta = np.zeros((50, 20, 1))
    theta[:25] = 1.0
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

def test_class_membership_bounded_y(bm_paths):
    sol = _const_solution(bm_paths, y=0.8)
    rep = class_membership(sol, 1.0)
    assert rep.all_finite_looking
    for e in rep.entries:
        assert e["estimate"] <= np.exp(e["q"]) * (1 + 1e-12)


def test_class_membership_overflowing_entry_is_unstable(bm_paths):
    # Y* = 100: q Y* passes 709.78 at q = 12 (p = 1.5, eps = 1) but not at
    # q = 2.93 (p = 4, eps = 0.1)
    rep = class_membership(_const_solution(bm_paths, y=100.0), 1.0,
                           p_grid=(1.5, 4.0), eps_grid=(0.1, 1.0))
    by_q = {round(e["q"], 6): e for e in rep.entries}
    assert by_q[12.0]["estimate"] == np.inf
    assert by_q[12.0]["verdict"] == "unstable"
    assert np.isfinite(by_q[round(8 / 3 * 1.1, 6)]["estimate"])
    assert by_q[round(8 / 3 * 1.1, 6)]["verdict"] == "finite-looking"
    assert not rep.all_finite_looking


def test_class_membership_ladder_ordering(bm_paths):
    rep = class_membership(_const_solution(bm_paths, y=0.1), 1.0,
                           p_grid=(1.5, 2.0, 4.0), eps_grid=(0.5,))
    qs = [e["q"] for e in rep.entries]
    # 2p/(p-1) decreases in p for fixed eps
    assert qs == sorted(qs, reverse=True)


@pytest.mark.parametrize("eps", [-1.0, -2.0])
def test_class_membership_refuses_eps_at_or_below_minus_one(bm_paths, eps):
    # eps <= -1 gives q <= 0, where every entry would pass untested
    with pytest.raises(InvalidArgument, match="q must be positive"):
        class_membership(_const_solution(bm_paths, y=0.8), 1.0,
                         eps_grid=(0.5, eps))


def test_class_membership_cole_hopf_consistency(bm_model):
    # substitute the closed-form Y along simulated paths and compare the
    # ladder estimates against the same estimator fed the closed form directly
    grid = make_grid(1.0, 25)
    noise = sample_brownian(grid, 1, 20_000, seed=23)
    paths = simulate_forward(bm_model, noise)
    sol = solve_cole_hopf(lambda x: 0.3 * np.asarray(x).ravel(), paths)
    closed = 0.3 * paths.states[:, :, 0] + \
        0.09 * (1.0 - grid.nodes)[:, None] / 2
    ystar_closed = np.max(np.abs(closed), axis=0)
    rep = class_membership(sol, 0.3, p_grid=(2.0,), eps_grid=(0.1,))
    e = rep.entries[0]
    direct = exp_moment_of_samples(ystar_closed, e["q"])
    assert abs(e["estimate"] - direct.estimate) <= 3 * (e["se"] + direct.se)


# ------------------------------------------------------- uniqueness probe

def test_uniqueness_identical_solutions(bm_paths):
    sol = _const_solution(bm_paths, y=0.3)
    v = uniqueness_probe(sol, sol)
    assert v.sup_mean_abs == 0.0 and v.passed
    assert v.delta_z_l2 == 0.0


def _bmo_by_concatenated_tails(theta, grid):
    """bmo_estimate without features, as written before its tails were
    accumulated in place."""
    n, P, _ = theta.shape
    qv = np.sum(theta * theta, axis=2) * grid.steps[:, None]
    tails = np.concatenate(
        [np.cumsum(qv[::-1], axis=0)[::-1], np.zeros((1, P))], axis=0)
    return np.sqrt(max(max(float(tails[i].mean()), 0.0) for i in range(n)))


@pytest.mark.parametrize("d", [1, 2])
def test_in_place_diagnostics_keep_bits_and_inputs(d):
    # uniqueness_probe and bmo_estimate form their squares in their own
    # buffers: read-only inputs are accepted, and every value equals the
    # out-of-place formula bit for bit
    grid = make_grid(1.0, 8)
    model = ModelSpec(x0=np.zeros(d), drift=lambda x: -0.5 * x,
                      sigma=lambda t: 1.0, mode="F1")
    paths = simulate_forward(model, sample_brownian(grid, d, 400, seed=31))
    rng = np.random.default_rng(d)
    sols = []
    for _ in range(2):
        Y, Z = rng.normal(size=(9, 400)), rng.normal(size=(9, 400, d))
        Y.setflags(write=False)
        Z.setflags(write=False)
        sols.append(BsdeSolution(paths, Y, Z, method="synthetic",
                                 se_nodes=np.zeros(9)))
    a, b = sols
    v = uniqueness_probe(a, b)
    dY = np.abs(a.Y - b.Y)
    assert v.mean_abs_per_node.tobytes() == dY.mean(axis=1).tobytes()
    assert v.max_abs_per_node.tobytes() == dY.max(axis=1).tobytes()
    dz = a.Z[:8] - b.Z[:8]
    assert v.delta_z_l2 == float(np.mean(np.sum(
        np.sum(dz * dz, axis=2) * grid.steps[:, None], axis=0)))
    theta = a.Z[:8]
    assert bmo_estimate(theta, grid) == _bmo_by_concatenated_tails(theta, grid)


def test_uniqueness_probe_symmetric(bm_paths):
    g_spec = GeneratorSpec(
        h=lambda p: 0.3 * p.terminal[:, 0])
    a = solve_lsmc(g_spec, bm_paths, polynomial_basis(2))
    b = _const_solution(bm_paths, y=0.05)
    va = uniqueness_probe(a, b)
    vb = uniqueness_probe(b, a)
    assert va.sup_mean_abs == vb.sup_mean_abs
    assert va.sup_max_abs == vb.sup_max_abs
    assert va.budget == vb.budget and va.passed == vb.passed


def test_uniqueness_refuses_solutions_on_different_bundles(bm_model, grid25):
    # same grid and path count, other noise: the per-path difference would
    # compare unrelated paths
    spec = GeneratorSpec(h=lambda p: 0.3 * p.terminal[:, 0])
    a, b = (solve_lsmc(spec, simulate_forward(
        bm_model, sample_brownian(grid25, 1, 500, seed=seed)),
        polynomial_basis(2)) for seed in (1, 2))
    with pytest.raises(InvalidArgument, match="different bundles"):
        uniqueness_probe(a, b)
    # an equal bundle built twice is the same bundle
    c = solve_lsmc(spec, simulate_forward(
        bm_model, sample_brownian(grid25, 1, 500, seed=1)),
        polynomial_basis(2))
    assert uniqueness_probe(a, c).sup_mean_abs == 0.0


def test_uniqueness_refuses_a_solution_built_on_another_bundle(bm_model,
                                                              grid25):
    # the same Y and Z handed another bundle of the same grid and path count;
    # a solution without a bundle used to skip the check and compare
    # unrelated paths one by one
    spec = GeneratorSpec(h=lambda p: 0.3 * p.terminal[:, 0])
    a = solve_lsmc(spec, simulate_forward(
        bm_model, sample_brownian(grid25, 1, 500, seed=1)),
        polynomial_basis(2))
    other = simulate_forward(bm_model, sample_brownian(grid25, 1, 500, seed=2))
    b = BsdeSolution(other, a.Y, a.Z, method="moved")
    with pytest.raises(InvalidArgument, match="different bundles"):
        uniqueness_probe(a, b)
    assert uniqueness_probe(a, a).sup_mean_abs == 0.0


def test_uniqueness_grid_mismatch_rejected(bm_model, grid25):
    a, b = (_const_solution(simulate_forward(
        bm_model, sample_brownian(grid, 1, 10, seed=1)))
        for grid in (grid25, make_grid(1.0, 10)))
    with pytest.raises(InvalidArgument):
        uniqueness_probe(a, b)
