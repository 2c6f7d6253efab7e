"""BSDE data (xi, f, g, h), the smooth z-truncation and growth probes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .engine import Array, PathBundle, central_diff
from .errors import DriverEvaluationError, InvalidArgument

GRAD_FD_STEP = 1e-6


@dataclass(frozen=True)
class PathPrefix:
    """The path seen up to a node: times, states and running sup at the node.

    g, h and xi read the path only through a prefix, so none of them can read
    past its node.
    """

    times: Array  # (i+1,)
    states: Array  # (P, i+1, d)
    sup: Array  # (P,)

    @property
    def terminal(self) -> Array:
        return self.states[:, -1, :]


def prefix_at(paths: PathBundle, node: int) -> PathPrefix:
    return PathPrefix(paths.grid.nodes[: node + 1],
                      paths.states[:, : node + 1, :],
                      paths.running_sup[:, node])


@dataclass(frozen=True)
class GeneratorSpec:
    """Driver f(t,y,z) + path driver g(prefix,y,z), terminal xi + h(prefix).

    f is the bounded perturbation; the quadratic growth in z lives in g. xi
    and h map a PathPrefix to one value per path.
    """

    f: Callable[[float, Array, Array], Array] | None = None
    g: Callable[[PathPrefix, Array, Array], Array] | None = None
    h: Callable[[PathPrefix], Array] | None = None
    xi: Callable[[PathPrefix], Array] | None = None
    grad_z_f: Callable[[float, Array, Array], Array] | None = None
    grad_z_g: Callable[[PathPrefix, Array, Array], Array] | None = None

    def terminal(self, prefix: PathPrefix) -> Array:
        """xi + h read on the prefix (the whole path: node n), one per path."""
        out = np.zeros(prefix.states.shape[0])
        for fn in (self.xi, self.h):
            if fn is not None:
                out = out + fn(prefix)
        return out


def eval_driver(spec: GeneratorSpec, t: float, prefix: PathPrefix,
                y: Array, z: Array) -> Array:
    """f(t,y,z) + g(prefix,y,z); raises on non-finite output."""
    y = np.asarray(y, float)
    z = np.atleast_2d(np.asarray(z, float))
    out = np.zeros(np.broadcast_shapes(y.shape, z.shape[:1]))
    if spec.f is not None:
        out = out + np.asarray(spec.f(t, y, z), float)
    if spec.g is not None:
        out = out + np.asarray(spec.g(prefix, y, z), float)
    if not np.all(np.isfinite(out)):
        raise DriverEvaluationError(f"driver returned non-finite value at t={t}")
    return out


def grad_z(spec: GeneratorSpec, t: float, prefix: PathPrefix,
           y: Array, z: Array) -> Array:
    """Gradient of f+g in z, shape (P, d); analytic when supplied, else FD."""
    y = np.asarray(y, float)
    z = np.atleast_2d(np.asarray(z, float))
    P, d = z.shape
    out = np.zeros((P, d))
    # f reads t, g the path prefix
    for fn, grad_fn, arg in ((spec.f, spec.grad_z_f, t),
                             (spec.g, spec.grad_z_g, prefix)):
        if fn is None:
            continue
        if grad_fn is not None:
            out = out + np.asarray(grad_fn(arg, y, z), float)
        else:
            jac = central_diff(lambda zz: fn(arg, y, zz), z, GRAD_FD_STEP)
            out = out + jac[:, 0, :]
    return out


@dataclass(frozen=True)
class TruncationSpec:
    """Smooth radial projection rho_N: identity below N-1, image inside N.

    N >= 2, so the identity ball of radius N-1 has at least unit radius.
    """

    level: float

    def __post_init__(self):
        if not self.level >= 2:
            raise InvalidArgument(f"truncation level must be >= 2, got {self.level}")


def truncate_z(trunc: TruncationSpec, z: Array) -> Array:
    """Apply rho_N rowwise: z -> z * R(|z|)/|z| with a saturating radius map.

    R(s) = s below N-1 and N-1 + (1 - exp(-(s-N+1))) above, which keeps the
    map 1-Lipschitz, C^1, equal to the identity on |z| <= N-1, and the image
    radius strictly below N.
    """
    N = trunc.level
    z = np.asarray(z, float)
    flat = np.atleast_2d(z)
    s = np.linalg.norm(flat, axis=-1)
    over = s > N - 1
    scale = np.ones_like(s)
    if np.any(over):
        so = s[over]
        scale[over] = (N - 1 + (1.0 - np.exp(-(so - (N - 1))))) / so
    out = flat * scale[..., None]
    return out.reshape(z.shape)


@dataclass
class GrowthValidationReport:
    """Outcome of sampling-based probes of the declared driver constants."""

    n_samples: int
    eta: float
    max_growth_slack: float  # max of |F| - bound; negative means compliant
    max_lipschitz_y_slack: float
    max_f_bound_slack: float
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_growth(spec: GeneratorSpec, K_y: float, K_z: float, C_f: float,
                    n_samples: int = 2000, eta: float = 0.5, seed: int = 0,
                    prefix: PathPrefix | None = None,
                    tol: float = 1e-9) -> GrowthValidationReport:
    """Probe the constants K_y, K_z and C_f on random (t, y, z) samples.

    Checks the gradient-Lipschitz growth bound
    |F(t,y,z)| <= |F(t,0,0)| + |grad_z F(t,0,0)|^2/(4 eta) + K_y|y|
                  + (K_z/2 + eta)|z|^2,
    the Lipschitz-in-y bound, and the bound |f| <= C_f on f alone.
    Violations are report entries, never exceptions.
    """
    for name, v in (("K_y", K_y), ("K_z", K_z), ("C_f", C_f)):
        if not (np.isfinite(v) and v >= 0):
            raise InvalidArgument(f"{name} must be finite and nonnegative")
    if not eta > 0:
        raise InvalidArgument("eta must be positive")
    rng = np.random.Generator(np.random.Philox(key=seed))
    d = 1 if prefix is None else prefix.states.shape[2]
    if prefix is None:
        states = np.zeros((n_samples, 1, d))
        prefix = PathPrefix(np.zeros(1), states, np.zeros(n_samples))
    t = float(rng.uniform(0, 1))
    scales = np.power(10.0, rng.uniform(-1, 2, size=n_samples))
    y = rng.standard_normal(n_samples) * scales
    z = rng.standard_normal((n_samples, d)) * scales[:, None]
    zero_y = np.zeros(n_samples)
    zero_z = np.zeros((n_samples, d))

    F = eval_driver(spec, t, prefix, y, z)
    F00 = eval_driver(spec, t, prefix, zero_y, zero_z)
    G00 = grad_z(spec, t, prefix, zero_y, zero_z)
    bound = (np.abs(F00) + np.linalg.norm(G00, axis=1) ** 2 / (4 * eta)
             + K_y * np.abs(y)
             + (K_z / 2 + eta) * np.linalg.norm(z, axis=1) ** 2)
    growth_slack = float(np.max(np.abs(F) - bound))

    y2 = rng.standard_normal(n_samples) * scales
    F2 = eval_driver(spec, t, prefix, y2, z)
    denom = np.abs(y2 - y)
    keep = denom > 1e-12
    lip_slack = float(np.max(
        np.abs(F2 - F)[keep] - K_y * denom[keep], initial=-np.inf))

    f_slack = -np.inf
    if spec.f is not None:
        fv = np.asarray(spec.f(t, y, z), float)
        f_slack = float(np.max(np.abs(fv) - C_f))

    violations = []
    if growth_slack > tol:
        violations.append(f"growth bound exceeded by {growth_slack:.3g}")
    if lip_slack > tol:
        violations.append(f"K_y Lipschitz bound exceeded by {lip_slack:.3g}")
    if f_slack > tol:
        violations.append(f"C_f bound on f exceeded by {f_slack:.3g}")
    return GrowthValidationReport(n_samples, eta, growth_slack,
                                  lip_slack, f_slack, violations)


def canonical_nonconvex_driver(gamma: float = 2.0):
    """The standard non-convex test driver |z|^2/2 + gamma * sum_i cos(z_i).

    Returns (g, grad_z_g) ready to place in a GeneratorSpec; the gradient
    z - gamma*sin(z) is (1+gamma)-Lipschitz and the Hessian is indefinite
    wherever gamma*cos(z_i) > 1.
    """

    def g(prefix: PathPrefix, y: Array, z: Array) -> Array:
        z = np.atleast_2d(z)
        return 0.5 * np.sum(z * z, axis=-1) + gamma * np.sum(np.cos(z), axis=-1)

    def grad(prefix: PathPrefix, y: Array, z: Array) -> Array:
        z = np.atleast_2d(z)
        return z - gamma * np.sin(z)

    return g, grad


def quadratic_driver():
    """g(z) = |z|^2/2 with its gradient, the Cole-Hopf-solvable driver."""

    def g(prefix: PathPrefix, y: Array, z: Array) -> Array:
        z = np.atleast_2d(z)
        return 0.5 * np.sum(z * z, axis=-1)

    def grad(prefix: PathPrefix, y: Array, z: Array) -> Array:
        return np.atleast_2d(z)

    return g, grad
