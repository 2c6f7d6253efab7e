"""Grids, noise, forward simulation, tangent processes, path functionals."""

import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsde import (
    GeneratorSpec,
    InvalidArgument,
    ModelSpec,
    SimulationDiverged,
    bernoulli_bundle,
    canonical_nonconvex_driver,
    make_grid,
    prefix_at,
    sample_brownian,
    simulate_forward,
    simulate_tangent,
)
from qbsde import engine
from qbsde.engine import FD_STEP, NOISE_BLOCK, central_diff
from qbsde.errors import ResourceLimit
from qbsde.generators import GRAD_FD_STEP
from qbsde.registry import resolve

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ------------------------------------------------------------------ grids

def test_grid_uniform_partition():
    g = make_grid(1.0, 4)
    np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_single_step():
    g = make_grid(2.0, 1)
    np.testing.assert_allclose(g.nodes, [0.0, 2.0])


@pytest.mark.parametrize("T,n", [(1.0, 0), (0.0, 4), (-1.0, 3)])
def test_grid_rejects_bad_arguments(T, n):
    with pytest.raises(InvalidArgument):
        make_grid(T, n)


@given(T=st.floats(1e-3, 1e3), n=st.integers(1, 200))
@settings(max_examples=50, deadline=None)
def test_grid_invariants(T, n):
    g = make_grid(T, n)
    assert g.nodes[0] == 0.0
    assert np.isclose(g.nodes[-1], T)
    steps = np.diff(g.nodes)
    assert np.all(steps > 0)
    np.testing.assert_allclose(steps, T / n, rtol=1e-12)


# ------------------------------------------------------------------ noise

def test_brownian_deterministic():
    g = make_grid(1.0, 10)
    a = sample_brownian(g, 2, 50, seed=42)
    b = sample_brownian(g, 2, 50, seed=42)
    np.testing.assert_array_equal(a.increments, b.increments)
    c = sample_brownian(g, 2, 50, seed=43)
    assert not np.array_equal(a.increments, c.increments)


def test_brownian_path_streams_are_prefix_stable():
    # path i's draws depend only on (seed, i): a larger batch reproduces
    # the smaller batch's leading rows
    g = make_grid(1.0, 10)
    small = sample_brownian(g, 1, 8, seed=9)
    large = sample_brownian(g, 1, 64, seed=9)
    np.testing.assert_array_equal(small.increments, large.increments[:, :8])


def test_brownian_moments():
    g = make_grid(1.0, 20)
    P = 100_000
    dw = sample_brownian(g, 1, P, seed=1).increments[:, :, 0]
    dt = 1.0 / 20
    assert np.all(np.abs(dw.mean(axis=1)) <= 3.0 * np.sqrt(dt / P))
    assert np.all(np.abs(dw.var(axis=1) / dt - 1.0) <= 0.05)


B = NOISE_BLOCK


@pytest.mark.parametrize("d", [1, 2])
def test_brownian_prefix_stable_across_block_edges(d):
    g = make_grid(1.0, 3)
    large = sample_brownian(g, d, 3 * B + 7, seed=5).increments
    for P in (B - 1, B, B + 1, 2 * B + 3):
        small = sample_brownian(g, d, P, seed=5).increments
        np.testing.assert_array_equal(small, large[:, :P])


def test_brownian_blocks_are_distinct_streams():
    dw = sample_brownian(make_grid(1.0, 3), 1, 2 * B + 1, seed=5).increments
    assert not np.array_equal(dw[:, 0], dw[:, B])
    assert not np.array_equal(dw[:, B], dw[:, 2 * B])


def test_brownian_moments_at_block_edges():
    # the rows within 512 of each interior block edge of a 100k-path bundle
    g = make_grid(1.0, 20)
    dw = sample_brownian(g, 1, 100_000, seed=1).increments[:, :, 0]
    edges = np.arange(B, dw.shape[1], B)
    rows = (edges[:, None] + np.arange(-512, 512)[None, :]).ravel()
    dw = dw[:, rows]
    P, dt = rows.size, 1.0 / 20
    assert np.all(np.abs(dw.mean(axis=1)) <= 3.0 * np.sqrt(dt / P))
    assert np.all(np.abs(dw.var(axis=1) / dt - 1.0) <= 0.05)


@pytest.mark.parametrize("P", [1, B, B + 1, 3 * B + 7])
def test_brownian_one_generator_per_block(monkeypatch, P):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(kwargs.get("counter"))
        return philox(*args, **kwargs)

    monkeypatch.setattr(engine.np.random, "Philox", counting)
    sample_brownian(make_grid(1.0, 2), 1, P, seed=3)
    n_blocks = -(-P // B)
    assert built == [b << 128 for b in range(n_blocks)]


def test_bernoulli_bundle_structure():
    g = make_grid(1.0, 4)
    b = bernoulli_bundle(g)
    dw = b.increments[:, :, 0].T  # one row per path
    step = np.sqrt(0.25)
    assert dw.shape == (16, 4)
    assert set(np.unique(dw)) == {-step, step}
    # bit-ordered enumeration: the first increment is constant on each half
    assert np.all(dw[:8, 0] == dw[0, 0])
    assert np.all(dw[8:, 0] == -dw[0, 0])
    # all 2^4 sign patterns appear exactly once
    codes = ((dw < 0) * (2 ** np.arange(3, -1, -1))).sum(axis=1)
    assert sorted(codes) == list(range(16))


def test_bernoulli_bundle_is_built_in_place_with_the_bit_rule():
    # step j's row follows bit (n-1-j) of the path index, as the (2^n, n)
    # bit matrix gave it, and building it allocates no more than the
    # increments and one row of them
    n = 14
    grid = make_grid(1.0, n)
    bits = (np.arange(1 << n)[:, None] >> (n - 1 - np.arange(n))) & 1
    want = ((1.0 - 2.0 * bits) * np.sqrt(grid.steps)).T[:, :, None]
    tracemalloc.start()
    try:
        inc = bernoulli_bundle(grid).increments
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inc.tobytes() == want.tobytes()
    assert peak <= inc.nbytes + inc[0].nbytes


def test_bernoulli_depth_limit():
    # a 22-step tree's increments, states and running sup take 2.1 GiB, past
    # the 2 GiB budget: it is refused before anything is allocated, and so
    # is a tree whose 2^n alone would not fit in memory
    for n in (22, 100_000):
        grid = make_grid(1.0, n)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit, match=f"{n}-step tree"):
                bernoulli_bundle(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# ------------------------------------------------------------ forward SDE

def test_forward_identity_scheme(bm_model):
    g = make_grid(1.0, 30)
    noise = sample_brownian(g, 1, 100, seed=2)
    paths = simulate_forward(bm_model, noise)
    w = np.concatenate([np.zeros((1, 100, 1)),
                        np.cumsum(noise.increments, axis=0)], axis=0)
    np.testing.assert_array_equal(paths.states, w)
    # running sup at the final node is the max over nodes of |X|
    np.testing.assert_allclose(paths.running_sup[-1],
                               np.abs(w[:, :, 0]).max(axis=0))


def test_forward_deterministic_ode_limit():
    # b(x) = -x, sigma = 0: Euler approximates e^{-T}
    g = make_grid(1.0, 1000)
    noise = sample_brownian(g, 1, 3, seed=0)
    model = ModelSpec(x0=np.ones(1), drift=lambda x: -x,
                      sigma=lambda t: 0.0, mode="F1")
    paths = simulate_forward(model, noise)
    assert abs(paths.states[-1, 0, 0] - np.exp(-1.0)) <= 2e-3


def test_forward_running_sup_monotone(bm_paths):
    sup = bm_paths.running_sup
    assert np.all(np.diff(sup, axis=0) >= 0)
    np.testing.assert_allclose(sup[0],
                               np.abs(bm_paths.states[0, :, 0]))


def test_forward_weak_error_first_order():
    # E[X_T] vs x e^{-T}: bias at least roughly halves as the step halves
    model = ModelSpec(x0=np.ones(1), drift=lambda x: -x,
                      sigma=lambda t: 1.0, mode="F1")
    biases = []
    for n in (8, 16, 32):
        g = make_grid(1.0, n)
        noise = sample_brownian(g, 1, 400_000, seed=3)
        paths = simulate_forward(model, noise)
        m = paths.states[-1, :, 0].mean()
        se = paths.states[-1, :, 0].std() / np.sqrt(paths.n_paths)
        biases.append((abs(m - np.exp(-1.0)), se))
    # each refinement keeps the bias within 3 se + C*dt with a first-order C
    for (bias, se), n in zip(biases, (8, 16, 32)):
        assert bias <= 3 * se + 0.5 / n
    assert biases[-1][0] <= biases[0][0] + 3 * (biases[0][1] + biases[-1][1])


def test_forward_divergence_reports_path_index():
    g = make_grid(1.0, 40)
    noise = sample_brownian(g, 1, 4, seed=5)
    model = ModelSpec(x0=np.ones(1), drift=lambda x: x ** 9,
                      sigma=lambda t: 0.0, mode="F1")
    with pytest.raises(SimulationDiverged) as e:
        simulate_forward(model, noise)
    assert e.value.path_index is not None


@pytest.mark.parametrize("d", [1, 2])
def test_forward_f2_scalar_sigma_matches_per_path_sigma(d):
    # the registry's constant sigma returns a scalar under F2 as under F1;
    # the states equal those of a per-path np.full sigma, bit for bit
    value = resolve("sigma", "constant", {"value": 0.8})
    noise = sample_brownian(make_grid(1.0, 20), d, 300, seed=5)
    states = []
    for sigma in (value, lambda x: np.full(x.shape[0], 0.8)):
        model = ModelSpec(x0=np.full(d, 0.3), drift=lambda x: -0.5 * x,
                          sigma=sigma, mode="F2")
        states.append(simulate_forward(model, noise).states)
    assert states[0].tobytes() == states[1].tobytes()



# ------------------------------------------------- node-major helpers

_EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, 1e-200, 1.7e308, -1e200,
                np.inf, -np.inf, np.nan, 1.0, -3.5]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_row_norm_is_bitwise_linalg_norm(d):
    # every pair or triple of edge values, and a three-axis array of them
    rng = np.random.default_rng(d)
    a = rng.choice(_EDGE_VALUES, size=(600, d))
    for arr in (a, a.reshape(20, 30, d)):
        with np.errstate(over="ignore"):
            want = np.linalg.norm(arr, axis=-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing square is silent
            got = engine.row_norm(arr)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # row_sum is np.sum on squares, which are never -0.0
        with np.errstate(over="ignore", invalid="ignore"):
            sq = arr * arr
            assert (engine.row_sum(sq).tobytes()
                    == np.sum(sq, axis=-1).tobytes())


def _model_2d():
    return ModelSpec(x0=np.array([0.4, -0.2]),
                     drift=lambda x: -0.5 * x + 0.1 * x[:, ::-1],
                     sigma=lambda t: np.array([[1.0, 0.0], [0.3, 0.8]]),
                     mode="F1")


@pytest.mark.parametrize("which", ["F1", "F2", "d2"])
def test_running_sup_is_bitwise_accumulated_norm(which, ou_model, f2_model):
    # set once per step, the running sup equals the accumulated norm over
    # all nodes at once; the bundle's node-major arrays, the noise's too,
    # are C-contiguous and read-only
    model = {"F1": ou_model, "F2": f2_model, "d2": _model_2d()}[which]
    noise = sample_brownian(make_grid(1.0, 30), model.dim, 500, seed=13)
    paths = simulate_tangent(simulate_forward(model, noise))
    want = np.maximum.accumulate(np.linalg.norm(paths.states, axis=2), axis=0)
    assert paths.running_sup.tobytes() == want.tobytes()
    for arr in (paths.states, paths.running_sup, paths.tangent,
                noise.increments):
        assert arr.flags.c_contiguous and not arr.flags.writeable
    assert paths.states.shape == (31, 500, model.dim)
    assert paths.running_sup.shape == (31, 500)
    assert paths.tangent.shape == (31, 500, model.dim, model.dim)
    assert noise.increments.shape == (30, 500, model.dim)


# ---------------------------------------------------------------- tangent

def test_tangent_constant_coefficients_is_identity(bm_model, noise25):
    tp = simulate_tangent(simulate_forward(bm_model, noise25))
    np.testing.assert_allclose(tp.tangent, 1.0)


def test_tangent_linear_drift_closed_form():
    g = make_grid(1.0, 1000)
    noise = sample_brownian(g, 1, 5, seed=6)
    model = ModelSpec(x0=np.ones(1), drift=lambda x: 0.5 * x,
                      sigma=lambda t: 1.0, mode="F1")
    tp = simulate_tangent(simulate_forward(model, noise))
    assert np.all(np.abs(tp.tangent[-1, :, 0, 0] - np.exp(0.5)) <= 1e-3)


@pytest.mark.parametrize("which", ["f1", "f2"])
def test_tangent_vs_bump(which, ou_model, f2_model):
    model = ou_model if which == "f1" else f2_model
    model = ModelSpec(x0=np.array([0.4]), drift=model.drift,
                      sigma=model.sigma, mode=model.mode,
                      drift_jac=model.drift_jac, sigma_jac=model.sigma_jac)
    g = make_grid(1.0, 100)
    noise = sample_brownian(g, 1, 200, seed=8)
    tp = simulate_tangent(simulate_forward(model, noise))
    h = 1e-5 * (1 + abs(model.x0[0]))
    bumped = []
    for s in (+h, -h):
        m = ModelSpec(x0=model.x0 + s, drift=model.drift, sigma=model.sigma,
                      mode=model.mode, drift_jac=model.drift_jac,
                      sigma_jac=model.sigma_jac)
        bumped.append(simulate_forward(m, noise).states)
    fd = (bumped[0] - bumped[1]) / (2 * h)
    rel = np.abs(tp.tangent[:, :, 0, 0] - fd[:, :, 0])
    rel /= np.maximum(np.abs(tp.tangent[:, :, 0, 0]), 1e-8)
    assert rel.max() <= 1e-3


def test_tangent_fd_fallback_and_capability(f2_model, noise25):
    exact = simulate_tangent(simulate_forward(f2_model, noise25))
    # the Jacobian-free model has the same drift and sigma, so the same states
    bare = ModelSpec(x0=f2_model.x0, drift=f2_model.drift,
                     sigma=f2_model.sigma, mode="F2")
    fd = simulate_tangent(simulate_forward(bare, noise25))
    assert np.array_equal(fd.states, exact.states)
    assert np.max(np.abs(exact.tangent - fd.tangent)) <= 1e-4


def test_tangent_fd_matches_analytic_ou_2d():
    drift = resolve("drift", "ou", {"kappa": 0.7})
    drift_jac = lambda x: -0.7 * np.broadcast_to(np.eye(2), (x.shape[0], 2, 2))
    g = make_grid(1.0, 20)
    noise = sample_brownian(g, 2, 300, seed=9)
    kw = dict(x0=np.array([0.3, -0.2]), drift=drift, sigma=lambda t: np.eye(2),
              mode="F1")
    exact_model = ModelSpec(drift_jac=drift_jac, **kw)
    exact = simulate_tangent(simulate_forward(exact_model, noise))
    fd = simulate_tangent(simulate_forward(ModelSpec(**kw), noise))
    assert np.array_equal(fd.states, exact.states)
    assert np.max(np.abs(exact.tangent - fd.tangent)) <= 1e-8


# ------------------------------------------------------ central differences

def test_central_diff_ou_drift_jacobian():
    drift = resolve("drift", "ou", {"kappa": 0.7})
    x = np.random.default_rng(2).standard_normal((50, 3))
    fd = central_diff(drift, x, FD_STEP)
    assert fd.shape == (50, 3, 3)
    # the drift -kappa x has Jacobian -kappa I
    np.testing.assert_allclose(fd, np.broadcast_to(-0.7 * np.eye(3), fd.shape),
                               rtol=0, atol=1e-9)


def test_central_diff_tanh_sigma_jacobian():
    sigma = resolve("sigma", "tanh_bounded", {"base": 1.0, "amplitude": 0.5})
    x = 2.0 * np.random.default_rng(3).standard_normal((50, 1))
    fd = central_diff(sigma, x, FD_STEP)
    assert fd.shape == (50, 1, 1)
    # d/dx (base + amplitude tanh x) = amplitude / cosh^2 x
    np.testing.assert_allclose(fd, (0.5 / np.cosh(x) ** 2)[:, :, None],
                               rtol=0, atol=1e-9)


def test_central_diff_canonical_driver_gradient():
    g, grad = canonical_nonconvex_driver(2.0)
    z = 3.0 * np.random.default_rng(4).standard_normal((50, 2))
    fd = central_diff(lambda zz: g(None, zz), z, GRAD_FD_STEP)
    assert fd.shape == (50, 1, 2)
    np.testing.assert_allclose(fd[:, 0, :], grad(None, z),
                               rtol=0, atol=1e-6)


# ------------------------------------------------------- path functionals

def test_functional_terminal_projection(bm_paths, grid25):
    h = resolve("h", "terminal_value")
    for i in (3, grid25.n_steps):
        np.testing.assert_array_equal(h(prefix_at(bm_paths, i)),
                                      bm_paths.states[i, :, 0])


def test_functional_sup_on_monotone_path(grid25):
    g = make_grid(1.0, 4)
    noise = sample_brownian(g, 1, 1, seed=0)
    model = ModelSpec(x0=np.zeros(1), drift=lambda x: np.ones_like(x),
                      sigma=lambda t: 0.0, mode="F1")
    paths = simulate_forward(model, noise)
    vals = resolve("h", "sup_norm")(prefix_at(paths, g.n_steps))
    np.testing.assert_allclose(vals, np.abs(paths.states[-1, :, 0]))


def test_functional_lipschitz_transport(bm_paths):
    # |h(A) - h(B)| <= K_h * sup-node distance for h = K_h * sup|x|
    K_h = 0.7
    n = bm_paths.grid.n_steps
    vals = resolve("h", "sup_norm", {"scale": K_h})(prefix_at(bm_paths, n))
    rng = np.random.default_rng(0)
    for _ in range(1000):
        i, j = rng.integers(0, bm_paths.n_paths, size=2)
        dist = np.max(np.abs(bm_paths.states[:, i, 0]
                             - bm_paths.states[:, j, 0]))
        assert abs(vals[i] - vals[j]) <= K_h * dist + 1e-12


def test_functional_sees_only_its_prefix(bm_paths):
    # xi and h are handed the path cut at the node: exactly i+1 nodes, read
    # only, so an adapted functional needs no runtime check
    seen = []

    def h(prefix):
        seen.append(prefix)
        return prefix.terminal[:, 0]

    n = bm_paths.grid.n_steps
    for i in (0, 3):
        h(prefix_at(bm_paths, i))
    GeneratorSpec(h=h).terminal(prefix_at(bm_paths, n))  # the whole path
    for i, prefix in zip((0, 3, n), seen, strict=True):
        assert prefix.times.shape == (i + 1,)
        assert prefix.states.shape == (i + 1, bm_paths.n_paths, 1)
        assert not prefix.states.flags.writeable
        # the prefix is a view of the bundle's first i+1 rows, not a copy
        assert prefix.states.base is bm_paths.states
        assert prefix.states.flags.c_contiguous
        assert np.shares_memory(prefix.sup, bm_paths.running_sup)
        np.testing.assert_array_equal(prefix.terminal, bm_paths.states[i])
        np.testing.assert_array_equal(prefix.sup, bm_paths.running_sup[i])


@pytest.mark.parametrize("name", ["f1-test-problem.json",
                                  "f2-test-problem.json"])
def test_sup_functionals_read_the_running_sup_bit_for_bit(name):
    # sup_norm and sup_power read prefix.sup; on the shipped models' paths it
    # equals the sup recomputed over the prefix's states, bit for bit
    from qbsde import validate_config
    from qbsde.harness import build_model
    raw = json.loads((CONFIG_DIR / name).read_text())
    model = build_model(validate_config(raw))
    grid = make_grid(raw["grid"]["T"], raw["grid"]["steps"])
    paths = simulate_forward(model, sample_brownian(
        grid, model.dim, raw["sampling"]["paths"], raw["sampling"]["seed"]))
    sup_power = resolve("h", "sup_power", {"power": 1.5, "scale": 0.2})
    sup_norm = resolve("h", "sup_norm", {"scale": 0.7})
    for i in (0, 7, grid.n_steps):
        sup = np.max(np.linalg.norm(paths.states[: i + 1], axis=2),
                     axis=0)
        prefix = prefix_at(paths, i)
        assert sup_power(prefix).tobytes() == \
            (0.2 * sup ** 1.5 / 1.5).tobytes()
        assert sup_norm(prefix).tobytes() == (0.7 * sup).tobytes()
