"""Named registries for drifts, diffusions, drivers and path functionals.

Experiment configs select entries by name plus a parameter map; custom
entries register through the `register` decorator. An f entry returns
f(prefix, y), which reads the time as prefix.times[-1] and not z; a g entry
returns g(prefix, z) and its z-gradient as a pair. Path functionals (h, xi)
map a PathPrefix to one value per path; a solver that reads less of the
path checks what the built entries read (solvers.require_cole_hopf).
"""

from __future__ import annotations

import inspect
import sys
from typing import Callable

import numpy as np

from .engine import row_norm
from .errors import SchemaViolation, UnknownRegistryName
from .generators import canonical_nonconvex_driver, quadratic_driver

_REGISTRIES: dict[str, dict[str, Callable]] = {
    "drift": {},
    "sigma": {},
    "f": {},
    "g": {},
    "h": {},
    "xi": {},
}


def register(kind: str, name: str):
    def deco(factory):
        _REGISTRIES[kind][name] = factory
        return factory
    return deco


def _param_rule(default) -> tuple[str, Callable]:
    """What a factory parameter's value must be, from its default: a string
    for a string default, an integer for an int default, else a finite
    number; true and false are neither."""
    if isinstance(default, str):
        return "a string", lambda v: isinstance(v, str)
    kinds = int if type(default) is int else (int, float)
    return ("an integer" if kinds is int else "a finite number",
            lambda v: isinstance(v, kinds) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def resolve(kind: str, name: str, params: dict | None = None):
    """Build the named entry; params must bind to its factory's signature,
    each value of the kind its default has (see _param_rule)."""
    reg = _REGISTRIES[kind]
    if name not in reg:
        raise UnknownRegistryName(kind, name, list(reg))
    params, factory = params or {}, reg[name]
    signature = inspect.signature(factory)
    try:
        signature.bind(**params)
    except TypeError as e:
        accepted = ", ".join(signature.parameters) or "none"
        raise SchemaViolation(f"{kind} '{name}' params",
                              f"{e}; accepted: {accepted}") from None
    for key, value in params.items():
        what, ok = _param_rule(signature.parameters[key].default)
        if not ok(value):
            raise SchemaViolation(f"{kind} '{name}' params.{key}",
                                  f"must be {what}, got {value!r}")
    return factory(**params)


def available(kind: str | None = None) -> dict[str, list[str]]:
    if kind is not None:
        return {kind: sorted(_REGISTRIES[kind])}
    return {k: sorted(v) for k, v in _REGISTRIES.items()}


# ---------------------------------------------------------------- drifts

@register("drift", "zero")
def _drift_zero():
    return lambda x: np.zeros_like(x)


@register("drift", "linear")
def _drift_linear(coef: float = 1.0):
    return lambda x: coef * x


@register("drift", "ou")
def _drift_ou(kappa: float = 1.0):
    return lambda x: -kappa * x


# ------------------------------------------------------------- diffusions

@register("sigma", "constant")
def _sigma_constant(value: float = 1.0):
    # value * I whatever the argument: t under F1, the states under F2
    return lambda _: value


@register("sigma", "tanh_bounded")
def _sigma_tanh(base: float = 1.0, amplitude: float = 0.5):
    # sigma(x) = base + amplitude*tanh(x_1): bounded, Lipschitz (F2)
    return lambda x: base + amplitude * np.tanh(x[:, 0])


# ---------------------------------------------------------------- drivers f

@register("f", "zero")
def _f_zero():
    return None


@register("f", "constant")
def _f_constant(c: float = 1.0):
    return lambda prefix, y: np.full(np.shape(y), c, dtype=float)


@register("f", "linear_y")
def _f_linear_y(a: float = 1.0):
    return lambda prefix, y: a * np.asarray(y, float)


@register("f", "scaled_tanh_y")
def _f_scaled_tanh(c: float = 0.5):
    return lambda prefix, y: c * np.tanh(np.asarray(y, float))


# ---------------------------------------------------------------- drivers g

@register("g", "zero")
def _g_zero():
    return None, None


@register("g", "half_square")
def _g_half_square():
    return quadratic_driver()


@register("g", "canonical_nonconvex")
def _g_canonical(gamma: float = 2.0):
    return canonical_nonconvex_driver(gamma)


# -------------------------------------------------------- path functionals

@register("h", "zero")
def _h_zero():
    return None


@register("h", "terminal_value")
def _h_terminal(component: int = 0, scale: float = 1.0):
    return lambda prefix: scale * prefix.terminal[:, component]


@register("h", "terminal_abs")
def _h_terminal_abs(scale: float = 1.0):
    return lambda prefix: scale * row_norm(prefix.terminal)


@register("h", "sup_norm")
def _h_sup(scale: float = 1.0):
    return lambda prefix: scale * prefix.sup


@register("h", "sup_power")
def _h_sup_power(power: float = 1.5, scale: float = 1.0):
    # locally Lipschitz with growth exponent r = power - 1
    return lambda prefix: scale * prefix.sup ** power / power


@register("xi", "zero")
def _xi_zero():
    return None


@register("xi", "constant")
def _xi_constant(c: float = 1.0):
    return lambda prefix: np.full(prefix.states.shape[1], c, dtype=float)


@register("xi", "tanh_terminal")
def _xi_tanh(scale: float = 1.0, component: int = 0):
    return lambda prefix: scale * np.tanh(prefix.terminal[:, component])
