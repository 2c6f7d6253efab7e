"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single PASS line on
success (run with ``pytest -v`` to see one line per criterion either way).
Tolerances are fixed and must not be loosened: a red test here means the
library genuinely fails the corresponding guarantee.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from qbsde import (
    GeneratorSpec,
    ModelSpec,
    TreeIndicatorBasis,
    TruncationSpec,
    exp_moment_of_samples,
    make_grid,
    make_tree_bundle,
    polynomial_basis,
    pstar_from_bmo,
    quadratic_driver,
    reverse_holder_phi,
    sample_brownian,
    simulate_forward,
    simulate_tangent,
    solve_lsmc,
    solve_tree_exact,
    stochastic_exponential,
    z_growth_report,
)
from qbsde.harness import load_config, run_experiment
from qbsde.registry import resolve

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def _ok(n, msg):
    print(f"[criterion {n:2d}] PASS — {msg}")


def _terminal_state(scale=1.0):
    return lambda p: scale * p.terminal[:, 0]


# 1 ------------------------------------------------------------------------

def test_criterion_01_tree_oracle_equivalence():
    """LSMC on the saturated indicator basis reproduces the exact tree."""
    t0 = time.perf_counter()
    depth = 10
    paths = make_tree_bundle(depth, 1.0)
    variants = {
        "constant": GeneratorSpec(
            f=lambda prefix, y: np.full(np.shape(y), 0.3),
            h=_terminal_state(0.5)),
        "linear_y": GeneratorSpec(
            f=lambda prefix, y: 0.4 * np.asarray(y),
            h=_terminal_state(0.5)),
    }
    worst_y = worst_z = 0.0
    for spec in variants.values():
        lsmc = solve_lsmc(spec, paths, TreeIndicatorBasis(), tol=1e-13)
        tree = solve_tree_exact(spec, paths, tol=1e-13)
        worst_y = max(worst_y, float(np.max(np.abs(lsmc.Y - tree.Y))))
        worst_z = max(worst_z, float(np.max(np.abs(lsmc.Z - tree.Z))))
    elapsed = time.perf_counter() - t0
    assert worst_y <= 1e-10
    assert worst_z <= 1e-8
    assert elapsed < 10.0
    _ok(1, f"|dY|={worst_y:.2e} |dZ|={worst_z:.2e} in {elapsed:.2f}s")


# 2 ------------------------------------------------------------------------

def test_criterion_02_quadratic_driver_log_transform_check():
    """Driver |z|^2/2 with terminal W_T has Y_0 = 1/2 and Z = 1."""
    t0 = time.perf_counter()
    grid = make_grid(1.0, 50)
    model = ModelSpec(x0=np.zeros(1), drift=lambda x: np.zeros_like(x),
                      sigma=lambda t: 1.0, mode="F1")
    g, grad = quadratic_driver()
    spec = GeneratorSpec(g=g, grad_z_g=grad, h=_terminal_state())
    noise = sample_brownian(grid, 1, 100_000, seed=2024)
    paths = simulate_forward(model, noise)
    sol = solve_lsmc(spec, paths, polynomial_basis(2), TruncationSpec(16.0))
    elapsed = time.perf_counter() - t0
    tol = max(1e-2, 3 * sol.y0_se)
    err = abs(sol.y0 - 0.5)
    z_dev = np.mean(np.abs(sol.Z[1:grid.n_steps, :, 0] - 1.0), axis=1)
    assert err <= tol
    assert float(z_dev.max()) <= 5e-2
    assert elapsed < 60.0
    _ok(2, f"Y0={sol.y0:.4f} (err {err:.1e} <= {tol:.1e}), "
           f"max mean|Z-1|={z_dev.max():.3f}, {elapsed:.1f}s")


# 3 ------------------------------------------------------------------------

def test_criterion_03_stochastic_exponential_normalization():
    """theta = 1: E[E_T] = 1 and E[E_T^2] = e within Monte Carlo error."""
    grid = make_grid(1.0, 50)
    noise = sample_brownian(grid, 1, 100_000, seed=3)
    theta = np.ones_like(noise.increments)
    rep = stochastic_exponential(theta, noise)
    assert abs(rep.mean - 1.0) <= 3 * rep.se
    sq = np.exp(2.0 * rep.log_samples)
    se_sq = float(sq.std(ddof=1) / np.sqrt(sq.size))
    assert abs(float(sq.mean()) - np.e) <= 3 * se_sq
    _ok(3, f"mean={rep.mean:.4f}±{rep.se:.4f}, "
           f"second moment={sq.mean():.4f}±{se_sq:.4f} (e={np.e:.4f})")


# 4 ------------------------------------------------------------------------

def test_criterion_04_pstar_round_trip():
    """pstar_from_bmo inverts the reverse-Hölder threshold formula."""
    for p in (1.01, 1.5, 2.0, 5.0, 100.0):
        res = pstar_from_bmo(reverse_holder_phi(p))
        assert abs(res.value - p) / p <= 1e-8, (p, res.value)
        assert not res.saturated
    # independent evaluation: phi(p) = sqrt(1 + log((2p-1)/(2p-2))/p^2) - 1
    phi2 = np.sqrt(1.0 + np.log(1.5) / 4.0) - 1.0
    assert abs(reverse_holder_phi(2.0) - phi2) <= 1e-12
    assert abs(phi2 - 0.04946) <= 1e-5
    _ok(4, f"round trip to 1e-8 on 5 points, phi(2)={phi2:.6f}")


# 5 ------------------------------------------------------------------------

def test_criterion_05_z_growth_signature_locally_lipschitz_terminal():
    """|Z_t|/(1 + sup|X|^r) stays bounded as truncation and paths refine."""
    grid = make_grid(1.0, 25)
    model = ModelSpec(x0=np.zeros(1), drift=lambda x: np.zeros_like(x),
                      sigma=lambda t: 1.0, mode="F1")
    g, grad = resolve("g", "canonical_nonconvex", {"gamma": 2.0})
    spec = GeneratorSpec(
        g=g, grad_z_g=grad,
        h=lambda p: p.sup ** 1.5 / 1.5)
    basis = polynomial_basis(2, include_sup=True)

    def max_ratio(n_paths, level):
        noise = sample_brownian(grid, 1, n_paths, seed=37)
        paths = simulate_forward(model, noise)
        sol = solve_lsmc(spec, paths, basis, TruncationSpec(float(level)))
        assert np.isfinite(sol.Y).all() and np.isfinite(sol.Z).all()
        return z_growth_report(sol, r=0.5).max_ratio

    by_level = [max_ratio(25_000, n) for n in (8, 16, 32)]
    spread = (max(by_level) - min(by_level)) / min(by_level)
    assert spread <= 0.20
    big = max_ratio(100_000, 16)
    drift = abs(big - by_level[1]) / by_level[1]
    assert drift <= 0.20
    _ok(5, f"max ratio {by_level[1]:.3f}; spread across N {spread:.1%}, "
           f"paths x4 change {drift:.1%}")


# 6 ------------------------------------------------------------------------

def test_criterion_06_bounded_z_signature_state_dependent_sigma():
    """Bounded sigma + Lipschitz terminal: |Z| tail and Y_0 saturate."""
    grid = make_grid(1.0, 25)
    model = ModelSpec(
        x0=np.zeros(1), drift=lambda x: -0.3 * x,
        sigma=lambda x: 1.0 + 0.5 * np.tanh(x[:, 0]), mode="F2")
    g, grad = quadratic_driver()
    spec = GeneratorSpec(
        g=g, grad_z_g=grad,
        h=lambda p: np.abs(p.terminal[:, 0]))
    basis = polynomial_basis(3, include_sup=False)

    def solve(n_paths, level):
        noise = sample_brownian(grid, 1, n_paths, seed=37)
        paths = simulate_forward(model, noise)
        return solve_lsmc(spec, paths, basis, TruncationSpec(float(level)))

    def q999(sol):
        return float(np.quantile(np.abs(sol.Z[:grid.n_steps, :, 0]), 0.999))

    sols = {n: solve(25_000, n) for n in (8, 16, 32)}
    tails = [q999(s) for s in sols.values()]
    spread = (max(tails) - min(tails)) / min(tails)
    assert spread <= 0.10
    big = q999(solve(100_000, 16))
    drift = abs(big - tails[1]) / tails[1]
    assert drift <= 0.10
    dy = abs(sols[16].y0 - sols[32].y0)
    budget = 3 * (sols[16].y0_se + sols[32].y0_se)
    assert dy <= budget
    _ok(6, f"q999|Z|={tails[1]:.3f}; spread across N {spread:.1%}, "
           f"paths x4 change {drift:.1%}, |dY0|={dy:.1e} <= {budget:.1e}")


# 7 ------------------------------------------------------------------------

@pytest.mark.parametrize("config_name", ["f1-test-problem.json",
                                         "f2-test-problem.json"])
def test_criterion_07_uniqueness_probes(config_name, tmp_path):
    """Monolithic and decomposed constructions agree; moment ladders finite."""
    cfg = load_config(CONFIG_DIR / config_name)
    record = run_experiment(cfg, tmp_path / "out")
    assert record.status == "complete"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    probe = summary["reports"]["two_constructions"]
    assert probe["pass"], probe
    cm = summary["reports"]["class_membership"]
    assert cm["pass"]
    assert all(e["verdict"] == "finite-looking" for e in cm["entries"])
    _ok(7, f"{config_name}: sup mean|dY|={probe['sup_mean_abs']:.2e} "
           f"<= {probe['budget']:.2e}; {len(cm['entries'])} ladder entries "
           "finite-looking")


# 8 ------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["F1", "F2"])
def test_criterion_08_tangent_matches_bump_and_revalue(mode):
    """Pathwise tangent equals central finite differences under CRN."""
    if mode == "F1":
        model = ModelSpec(x0=np.array([0.4]), drift=lambda x: -0.5 * x,
                          sigma=lambda t: 1.0, mode="F1")
    else:
        model = ModelSpec(
            x0=np.array([0.4]), drift=lambda x: -0.3 * x,
            sigma=lambda x: 1.0 + 0.5 * np.tanh(x[:, 0]), mode="F2")
    grid = make_grid(1.0, 100)
    noise = sample_brownian(grid, 1, 500, seed=8)
    tangent = simulate_tangent(simulate_forward(model, noise))
    h = 1e-5 * (1 + abs(float(model.x0[0])))
    bumped = []
    for s in (+h, -h):
        m = ModelSpec(x0=model.x0 + s, drift=model.drift, sigma=model.sigma,
                      mode=model.mode)
        bumped.append(simulate_forward(m, noise).states)
    fd = (bumped[0] - bumped[1]) / (2 * h)
    rel = np.abs(tangent[:, :, 0, 0] - fd[:, :, 0])
    rel /= np.maximum(np.abs(tangent[:, :, 0, 0]), 1e-8)
    assert float(rel.max()) <= 1e-3
    _ok(8, f"{mode}: max relative tangent error {rel.max():.2e}")


# 9 ------------------------------------------------------------------------

def test_criterion_09_exponential_moment_estimator():
    """Matches E[e^{|W_1|}] = 2 e^{1/2} Phi(1) and is monotone in q."""
    closed_form = 2.0 * np.exp(0.5) * norm.cdf(1.0)  # = 2.77428...
    grid = make_grid(1.0, 1)
    noise = sample_brownian(grid, 1, 100_000, seed=3)
    samples = np.abs(noise.increments[0, :, 0])
    est = exp_moment_of_samples(samples, 1.0)
    assert abs(est.estimate - closed_form) <= 3 * est.se
    ladder = [exp_moment_of_samples(samples, q).estimate
              for q in (0.5, 1.0, 1.5, 2.0)]
    assert all(a <= b for a, b in zip(ladder, ladder[1:]))
    _ok(9, f"estimate {est.estimate:.5f}±{est.se:.5f} vs "
           f"{closed_form:.5f}; monotone in q")


# 10 -----------------------------------------------------------------------

def test_criterion_10_determinism_and_thread_independence(tmp_path):
    """Three runs of one config produce byte-identical artifacts; none
    writes the noise or the states, which its config.json rebuilds."""
    deterministic = ("summary.json", "config.json")
    checked = 0
    for name in ("tree-oracle.json", "f1-test-problem.json"):
        cfg = load_config(CONFIG_DIR / name)
        dirs = [tmp_path / name / tag for tag in ("a", "b", "c")]
        for d in dirs:
            run_experiment(cfg, d)
            assert not list(d.glob("noise*")) + list(d.glob("paths*")), (
                name, "noise or states written")
        files = sorted(p.name for p in dirs[0].iterdir()
                       if p.name in deterministic or p.suffix == ".bin")
        for f in files:
            ref = (dirs[0] / f).read_bytes()
            assert (dirs[1] / f).read_bytes() == ref, (name, f, "rerun")
            assert (dirs[2] / f).read_bytes() == ref, (name, f, "third run")
            checked += 1
    assert checked >= 8
    _ok(10, f"{checked} artifacts byte-identical across three runs")
