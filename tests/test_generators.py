"""Driver specs, truncation, gradient evaluation, growth validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsde import (
    DriverEvaluationError,
    GeneratorSpec,
    InvalidArgument,
    TruncationSpec,
    canonical_nonconvex_driver,
    eval_driver,
    grad_z,
    prefix_at,
    quadratic_driver,
    truncate_z,
    validate_growth,
)


def _prefix(bm_paths):
    return prefix_at(bm_paths, 3)


# ---------------------------------------------------------- eval_driver

def test_zero_driver(bm_paths):
    spec = GeneratorSpec()
    out = eval_driver(spec, _prefix(bm_paths), np.zeros(2),
                      np.ones((2, 1)))
    np.testing.assert_array_equal(out, 0.0)


def test_half_square_driver_value(bm_paths):
    g, _ = quadratic_driver()
    spec = GeneratorSpec(g=g)
    out = eval_driver(spec, _prefix(bm_paths), np.zeros(1),
                      np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(out, 1.0)


def test_canonical_driver_value_at_zero(bm_paths):
    g, _ = canonical_nonconvex_driver(2.0)
    spec = GeneratorSpec(g=g)
    out = eval_driver(spec, _prefix(bm_paths), np.zeros(1),
                      np.zeros((1, 1)))
    np.testing.assert_allclose(out, 2.0)


def test_driver_nonfinite_raises(bm_paths):
    spec = GeneratorSpec(g=lambda p, z: np.full(len(z), np.inf))
    with pytest.raises(DriverEvaluationError):
        eval_driver(spec, _prefix(bm_paths), np.zeros(1),
                    np.zeros((1, 1)))


@pytest.mark.parametrize("parts", ["f", "g", "both"])
def test_driver_broadcasts_a_scalar_part_to_one_value_per_row(bm_paths,
                                                               parts):
    # a part that returns a Python scalar still gives one value per row
    f = (lambda p, y: 0.25) if parts in ("f", "both") else None
    g = (lambda p, z: 0.5) if parts in ("g", "both") else None
    out = eval_driver(GeneratorSpec(f=f, g=g), _prefix(bm_paths),
                      np.zeros(7), np.zeros((7, 1)))
    expect = {"f": 0.25, "g": 0.5, "both": 0.75}[parts]
    assert out.shape == (7,)
    np.testing.assert_array_equal(out, expect)


def test_driver_with_a_scalar_part_still_refuses_a_non_finite_sum(bm_paths):
    spec = GeneratorSpec(f=lambda p, y: 1e308, g=lambda p, z: 1e308)
    with np.errstate(over="ignore"), pytest.raises(DriverEvaluationError):
        eval_driver(spec, _prefix(bm_paths), np.zeros(3), np.zeros((3, 1)))


@pytest.mark.parametrize("parts", ["neither", "xi", "h", "both"])
def test_terminal_broadcasts_a_scalar_part_to_one_value_per_path(bm_paths,
                                                                 parts):
    spec = GeneratorSpec(xi=(lambda p: 2.0) if parts in ("xi", "both")
                         else None,
                         h=(lambda p: 0.5) if parts in ("h", "both") else None)
    out = spec.terminal(prefix_at(bm_paths, bm_paths.grid.n_steps))
    expect = {"neither": 0.0, "xi": 2.0, "h": 0.5, "both": 2.5}[parts]
    assert out.shape == (bm_paths.n_paths,)
    np.testing.assert_array_equal(out, expect)


# --------------------------------------------------------------- grad_z

def test_grad_quadratic_exact(bm_paths):
    g, grad = quadratic_driver()
    spec = GeneratorSpec(g=g, grad_z_g=grad)
    z = np.array([[0.3, -1.2]])
    np.testing.assert_array_equal(
        grad_z(spec, _prefix(bm_paths), z), z)


def test_grad_canonical_driver_at_zero(bm_paths):
    g, grad = canonical_nonconvex_driver(2.0)
    spec = GeneratorSpec(g=g, grad_z_g=grad)
    out = grad_z(spec, _prefix(bm_paths), np.zeros((1, 1)))
    np.testing.assert_allclose(out, 0.0)


def test_grad_broadcasts_a_scalar_gradient_to_the_shape_of_z(bm_paths):
    spec = GeneratorSpec(g=lambda p, z: 0.0, grad_z_g=lambda p, z: 1.5)
    out = grad_z(spec, _prefix(bm_paths), np.zeros((5, 2)))
    assert out.shape == (5, 2)
    np.testing.assert_array_equal(out, 1.5)
    np.testing.assert_array_equal(
        grad_z(GeneratorSpec(), _prefix(bm_paths), np.ones((5, 2))), 0.0)


def test_grad_fd_matches_analytic(bm_paths):
    g, grad = canonical_nonconvex_driver(2.0)
    analytic = GeneratorSpec(g=g, grad_z_g=grad)
    numeric = GeneratorSpec(g=g)
    rng = np.random.default_rng(1)
    z = rng.normal(size=(100, 1)) * 3.0
    prefix = prefix_at(bm_paths, 3)
    # prefix carries 4000 paths but the driver only reads z here
    a = grad_z(analytic, prefix, z)
    b = grad_z(numeric, prefix, z)
    rel = np.abs(a - b) / np.maximum(np.abs(a), 1.0)
    assert rel.max() <= 1e-6


# ------------------------------------------------------------ truncation

def test_truncation_requires_level_above_one():
    # one rule for every solver, N >= 2: the Malliavin split once took 1.5
    for level in (1.0, 1.5):
        with pytest.raises(InvalidArgument, match=">= 2"):
            TruncationSpec(level)
    TruncationSpec(2.0)


def test_truncation_identity_inside_ball():
    t = TruncationSpec(2.0)
    z = np.array([[0.6, 0.8]])  # |z| = 1 = N - 1
    np.testing.assert_allclose(truncate_z(t, z), z)


def test_truncation_caps_norm():
    t = TruncationSpec(2.0)
    z = np.array([[6.0, 8.0]])  # |z| = 10
    out = truncate_z(t, z)
    assert np.linalg.norm(out) <= 2.0
    # direction preserved (radial map)
    np.testing.assert_allclose(out / np.linalg.norm(out), z / 10.0)


def test_truncation_fixes_origin():
    np.testing.assert_array_equal(
        truncate_z(TruncationSpec(4.0), np.zeros((3, 2))), 0.0)


@given(level=st.floats(2.0, 64.0), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_truncation_properties(level, seed):
    t = TruncationSpec(level)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(10_000, 2)) * level
    out = truncate_z(t, z)
    norms = np.linalg.norm(out, axis=1)
    assert np.all(norms <= level + 1e-12)
    inside = np.linalg.norm(z, axis=1) <= level - 1.0
    np.testing.assert_array_equal(out[inside], z[inside])
    # 1-Lipschitz on sampled pairs
    a, b = z[:5000], z[5000:]
    ta, tb = out[:5000], out[5000:]
    lhs = np.linalg.norm(ta - tb, axis=1)
    rhs = np.linalg.norm(a - b, axis=1)
    assert np.all(lhs <= rhs + 1e-9)


def test_truncated_driver_is_globally_lipschitz(bm_paths):
    # z -> g(rho_N(z)) has difference quotients bounded by K_z * N
    g, _ = canonical_nonconvex_driver(2.0)
    spec, K_z = GeneratorSpec(g=g), 3.0
    t = TruncationSpec(8.0)
    rng = np.random.default_rng(2)
    prefix = _prefix(bm_paths)
    z1 = rng.normal(size=(4000, 1)) * 30
    z2 = rng.normal(size=(4000, 1)) * 30
    y = np.zeros(4000)
    v1 = eval_driver(spec, prefix, y, truncate_z(t, z1))
    v2 = eval_driver(spec, prefix, y, truncate_z(t, z2))
    quot = np.abs(v1 - v2) / np.maximum(
        np.linalg.norm(z1 - z2, axis=1), 1e-12)
    assert quot.max() <= K_z * t.level


# ------------------------------------------------------- validate_growth

def test_growth_compliant_driver_clean(bm_paths):
    g, grad = quadratic_driver()
    spec = GeneratorSpec(g=g, grad_z_g=grad)
    report = validate_growth(spec, 0.0, 1.0, 0.0, n_samples=2000, eta=0.5,
                             seed=0)
    assert report.violations == []


def test_growth_misdeclared_kz_flagged(bm_paths):
    g, grad = quadratic_driver()
    spec = GeneratorSpec(g=g, grad_z_g=grad)
    report = validate_growth(spec, 0.0, 0.5, 0.0, n_samples=2000, eta=0.1,
                             seed=0)
    assert any("quadratic" in v or "bound" in v for v in report.violations)


def test_growth_bounded_f_clean(bm_paths):
    spec = GeneratorSpec(f=lambda prefix, y: np.tanh(np.zeros(np.shape(y))))
    report = validate_growth(spec, 0.0, 1.0, 3.0, n_samples=2000, eta=0.5,
                             seed=0)
    assert report.violations == []


@pytest.mark.parametrize("K_y, K_z, C_f", [
    (-1.0, 1.0, 0.0), (0.0, -0.5, 0.0), (0.0, 1.0, np.inf),
    (np.nan, 1.0, 0.0)],
    ids=["K_y_negative", "K_z_negative", "C_f_inf", "K_y_nan"])
def test_growth_refuses_a_negative_or_non_finite_constant(K_y, K_z, C_f):
    g, grad = quadratic_driver()
    with pytest.raises(InvalidArgument, match="finite and nonnegative"):
        validate_growth(GeneratorSpec(g=g, grad_z_g=grad), K_y, K_z, C_f)


def test_generator_spec_is_only_the_equation():
    from dataclasses import fields
    assert [f.name for f in fields(GeneratorSpec)] == [
        "f", "g", "h", "xi", "grad_z_g"]
