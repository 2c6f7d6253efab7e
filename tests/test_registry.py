"""Registry lookups, parameterization and custom registration."""

import numpy as np
import pytest

from qbsde import PathPrefix
from qbsde.errors import SchemaViolation, UnknownRegistryName
from qbsde.registry import available, is_terminal_only, register, resolve


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
    X = np.zeros((3, 4, 1))
    X[:, :, 0] = [[0, 1, -2, 0.5], [0, 0, 0, 0], [1, 1, 1, 1]]
    # the prefix's sup is the running sup at its last node: 2, 0 and 1
    prefix = PathPrefix(np.linspace(0, 1, 4), X, np.array([2.0, 0.0, 1.0]))
    vals = h(prefix)
    np.testing.assert_allclose(vals, 2.0 * np.array([2.0, 0.0, 1.0]) ** 1.5 / 1.5)


def test_custom_registration():
    @register("f", "test_only_cubic")
    def _make(c: float = 1.0):
        return lambda t, y, z: c * np.asarray(y) ** 3

    f = resolve("f", "test_only_cubic", {"c": 2.0})
    np.testing.assert_allclose(f(0.0, np.array([2.0]), None), 16.0)


def test_terminal_only_tags():
    for kind, name in [("h", "zero"), ("h", "terminal_value"),
                       ("h", "terminal_abs"), ("xi", "zero"),
                       ("xi", "constant"), ("xi", "tanh_terminal")]:
        assert is_terminal_only(kind, name), (kind, name)
    for name in ("sup_norm", "sup_power"):
        assert not is_terminal_only("h", name)

    @register("h", "test_only_untagged")
    def _make():
        return None

    assert not is_terminal_only("h", "test_only_untagged")
