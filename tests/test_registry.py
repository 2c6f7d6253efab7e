"""Registry lookups, parameterization and custom registration."""

import numpy as np
import pytest

from qbsde import GeneratorSpec, ModelSpec, PathPrefix, grad_z, make_grid
from qbsde.errors import CapabilityMissing, SchemaViolation, UnknownRegistryName
from qbsde.registry import available, register, resolve
from qbsde.solvers import require_cole_hopf


def test_available_covers_all_kinds():
    table = available()
    assert set(table) == {"drift", "sigma", "f", "g", "h", "xi"}
    assert "ou" in table["drift"]
    assert "canonical_nonconvex" in table["g"]
    assert "sup_power" in table["h"]


def test_unknown_name_lists_alternatives():
    with pytest.raises(UnknownRegistryName) as e:
        resolve("drift", "does_not_exist")
    assert "does_not_exist" in str(e.value)
    assert "ou" in str(e.value)


def test_resolve_with_params():
    fn = resolve("drift", "ou", {"kappa": 2.0})
    x = np.array([[1.0], [2.0]])
    np.testing.assert_allclose(fn(x), -2.0 * x)


def test_resolve_refuses_unknown_params():
    with pytest.raises(SchemaViolation, match="kapa") as e:
        resolve("drift", "ou", {"kapa": 2.0})
    assert "accepted: kappa" in str(e.value)


def test_sup_power_growth_exponent():
    h = resolve("h", "sup_power", {"power": 1.5, "scale": 2.0})
    X = np.zeros((4, 3, 1))
    X[:, :, 0] = np.transpose([[0, 1, -2, 0.5], [0, 0, 0, 0], [1, 1, 1, 1]])
    # the prefix's sup is the running sup at its last node: 2, 0 and 1
    prefix = PathPrefix(np.linspace(0, 1, 4), X)
    vals = h(prefix)
    np.testing.assert_allclose(vals, 2.0 * np.array([2.0, 0.0, 1.0]) ** 1.5 / 1.5)


def test_custom_registration():
    @register("f", "test_only_cubic")
    def _make(c: float = 1.0):
        return lambda prefix, y: c * np.asarray(y) ** 3

    f = resolve("f", "test_only_cubic", {"c": 2.0})
    np.testing.assert_allclose(f(None, np.array([2.0])), 16.0)


def test_every_f_reads_prefix_and_y_and_has_no_z_gradient():
    # each shipped f is f(prefix, y): one finite value per path, and the
    # z-gradient of a spec holding only f is exactly zero
    rng = np.random.default_rng(5)
    y = 3.0 * rng.standard_normal(40)
    z = 3.0 * rng.standard_normal((40, 2))
    prefix = PathPrefix(np.array([0.0, 0.3]),
                        np.swapaxes(rng.standard_normal((40, 2, 2)), 0, 1))
    shipped = [n for n in available("f")["f"] if not n.startswith("test_only")]
    assert {"zero", "constant", "linear_y", "scaled_tanh_y"} <= set(shipped)
    for name in shipped:
        f = resolve("f", name)
        if f is None:
            continue
        value = f(prefix, y)
        assert value.shape == (40,) and np.all(np.isfinite(value))
        grad = grad_z(GeneratorSpec(f=f), prefix, z)
        assert grad.shape == (40, 2)
        np.testing.assert_array_equal(grad, 0.0)


def test_oracle_reads_what_each_functional_reads():
    # no entry declares what it reads: the oracle's check reads xi + h on a
    # terminal prefix, which holds no running sup
    model = ModelSpec(x0=np.full(1, 0.4), drift=lambda x: np.zeros_like(x),
                      sigma=lambda t: 1.0, mode="F1")
    grid = make_grid(1.0, 4)
    g, grad = resolve("g", "half_square")
    for kind, name in [("h", "zero"), ("h", "terminal_value"),
                       ("h", "terminal_abs"), ("xi", "zero"),
                       ("xi", "constant"), ("xi", "tanh_terminal")]:
        spec = GeneratorSpec(g=g, grad_z_g=grad, **{kind: resolve(kind, name)})
        require_cole_hopf(spec, model, grid)

    @register("h", "test_only_sup_reader")
    def _make():
        return lambda prefix: prefix.terminal[:, 0] + 0.0 * prefix.sup

    for name in ("sup_norm", "sup_power", "test_only_sup_reader"):
        spec = GeneratorSpec(g=g, grad_z_g=grad, h=resolve("h", name))
        with pytest.raises(CapabilityMissing, match="terminal state alone"):
            require_cole_hopf(spec, model, grid)
