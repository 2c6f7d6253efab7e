"""BSDE data (xi, f, g, h), the smooth z-truncation and growth probes."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .engine import Array, PathBundle, central_diff, row_norm
from .errors import CapabilityMissing, DriverEvaluationError, InvalidArgument

GRAD_FD_STEP = 1e-6


@dataclass(frozen=True)
class PathPrefix:
    """The path seen up to a node: its times and states, and the running sup
    of |X| at the node, derived on first read.

    g, h and xi read the path only through a prefix, which hands them the
    rows up to its node alone; from prefix_at those rows are a view of the
    bundle's whole states, and nothing checks that a function reads no
    further. A prefix from prefix_at reads its sup from the bundle's
    running sup; one built from bare states derives it from those states.
    """

    times: Array  # (i+1,)
    states: Array  # (i+1, P, d)
    # reads the sup from elsewhere (prefix_at, rows); None: from the states
    _sup_row: Callable[[], Array] | None = field(
        default=None, repr=False, compare=False, kw_only=True)

    @property
    def terminal(self) -> Array:
        """The states at the node, (P, d)."""
        return self.states[-1]

    @cached_property
    def sup(self) -> Array:
        """The running sup of |X| at the node, (P,): the running max of
        row_norm over the states, or the row `_sup_row` reads."""
        if self._sup_row is not None:
            return self._sup_row()
        sup = row_norm(self.states[0])
        for x in self.states[1:]:
            np.maximum(sup, row_norm(x), out=sup)
        return sup

    def rows(self, index) -> PathPrefix:
        """The prefix of the paths `index` picks, whose sup is this prefix's
        at those paths, read when first asked for."""
        return PathPrefix(self.times, self.states[:, index],
                          _sup_row=lambda: self.sup[index])


def prefix_at(paths: PathBundle, node: int) -> PathPrefix:
    """The bundle's path up to `node`: views of its first node + 1 rows; the
    sup, when read, is row `node` of the bundle's running sup."""
    return PathPrefix(paths.grid.nodes[: node + 1], paths.states[: node + 1],
                      _sup_row=lambda: paths.running_sup[node])


def terminal_prefix(t: float, x: Array) -> PathPrefix:
    """The one-node prefix at time t of paths known only by their states x
    there, (P, d) or (P,) for d = 1; reading its sup raises
    CapabilityMissing."""
    def no_sup():
        raise CapabilityMissing("the running sup needs the path before its "
                                "last node; a terminal prefix has none")
    x = np.asarray(x, float)
    return PathPrefix(np.array([t]), (x[:, None] if x.ndim == 1 else x)[None],
                      _sup_row=no_sup)


@dataclass(frozen=True)
class GeneratorSpec:
    """Driver f(prefix,y) + g(prefix,z), terminal xi + h(prefix).

    Each reads the path through a PathPrefix, the time as prefix.times[-1].
    f does not read z and g does not read y, so the growth in z is g's, a
    Picard iteration at fixed z evaluates g once, and the z-gradient is g's
    alone. No bound on f is assumed or checked.
    """

    f: Callable[[PathPrefix, Array], Array] | None = None
    g: Callable[[PathPrefix, Array], Array] | None = None
    h: Callable[[PathPrefix], Array] | None = None
    xi: Callable[[PathPrefix], Array] | None = None
    grad_z_g: Callable[[PathPrefix, Array], Array] | None = None

    def terminal(self, prefix: PathPrefix) -> Array:
        """xi + h read on the prefix (the whole path: node n), one per path."""
        return _sum_parts([fn(prefix) for fn in (self.xi, self.h)
                           if fn is not None], (prefix.states.shape[1],))


def _sum_parts(parts: list, shape: tuple) -> Array:
    """The parts' float sum, a scalar broadcast to `shape`; zeros if none."""
    if not parts:
        return np.zeros(shape)
    parts = [np.asarray(v, float) for v in parts]
    out = sum(parts[1:], parts[0])
    return out if out.shape == shape else np.full(shape, out)


def eval_driver(spec: GeneratorSpec, prefix: PathPrefix, y: Array,
                z: Array) -> Array:
    """f(prefix,y) + g(prefix,z), one value per row of y and z; raises on a
    non-finite value. Every driver value a solver reads is summed and checked
    here, the Picard loops' too (their g returns its value at the node)."""
    y = np.asarray(y, float)
    z = np.atleast_2d(np.asarray(z, float))
    out = _sum_parts([fn(prefix, v) for fn, v in ((spec.f, y), (spec.g, z))
                      if fn is not None],
                     np.broadcast_shapes(y.shape, z.shape[:1]))
    if not np.all(np.isfinite(out)):
        raise DriverEvaluationError(
            f"driver returned non-finite value at t={prefix.times[-1]}")
    return out


def grad_z(spec: GeneratorSpec, prefix: PathPrefix, z: Array) -> Array:
    """Gradient of the driver in z, shape (P, d): g's, since f does not read
    z; analytic when supplied, else a central difference, zero without g."""
    z = np.atleast_2d(np.asarray(z, float))
    if spec.grad_z_g is not None:
        return _sum_parts([spec.grad_z_g(prefix, z)], z.shape)
    if spec.g is not None:
        return central_diff(lambda zz: spec.g(prefix, zz), z,
                            GRAD_FD_STEP)[:, 0, :]
    return np.zeros(z.shape)


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
    s = row_norm(flat)
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
    """Probe K_y, K_z, C_f on random (y, z) at `prefix` (default t = 0, x = 0).

    Checks the gradient-Lipschitz growth bound of F = f + g at prefix p,
    |F(p,y,z)| <= |F(p,0,0)| + |grad_z F(p,0,0)|^2/(4 eta) + K_y|y|
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
    if prefix is None:
        prefix = PathPrefix(np.zeros(1), np.zeros((1, n_samples, 1)))
    d = prefix.states.shape[2]
    scales = np.power(10.0, rng.uniform(-1, 2, size=n_samples))
    y = rng.standard_normal(n_samples) * scales
    z = rng.standard_normal((n_samples, d)) * scales[:, None]
    zero_y = np.zeros(n_samples)
    zero_z = np.zeros((n_samples, d))

    F = eval_driver(spec, prefix, y, z)
    F00 = eval_driver(spec, prefix, zero_y, zero_z)
    G00 = grad_z(spec, prefix, zero_z)
    bound = (np.abs(F00) + np.linalg.norm(G00, axis=1) ** 2 / (4 * eta)
             + K_y * np.abs(y)
             + (K_z / 2 + eta) * np.linalg.norm(z, axis=1) ** 2)
    growth_slack = float(np.max(np.abs(F) - bound))

    y2 = rng.standard_normal(n_samples) * scales
    F2 = eval_driver(spec, prefix, y2, z)
    denom = np.abs(y2 - y)
    keep = denom > 1e-12
    lip_slack = float(np.max(
        np.abs(F2 - F)[keep] - K_y * denom[keep], initial=-np.inf))

    f_slack = -np.inf
    if spec.f is not None:
        fv = np.asarray(spec.f(prefix, y), float)
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
    """The standard non-convex test driver g(prefix, z) = |z|^2/2 + gamma *
    sum_i cos(z_i).

    Returns (g, grad_z_g) ready to place in a GeneratorSpec; the gradient
    z - gamma*sin(z) is (1+gamma)-Lipschitz and the Hessian is indefinite
    wherever gamma*cos(z_i) > 1.
    """

    def g(prefix: PathPrefix, z: Array) -> Array:
        z = np.atleast_2d(z)
        return 0.5 * np.sum(z * z, axis=-1) + gamma * np.sum(np.cos(z), axis=-1)

    def grad(prefix: PathPrefix, z: Array) -> Array:
        z = np.atleast_2d(z)
        return z - gamma * np.sin(z)

    return g, grad


def quadratic_driver():
    """g(prefix, z) = |z|^2/2 with its gradient, the Cole-Hopf-solvable
    driver; it reads neither the prefix nor y."""

    def g(prefix: PathPrefix, z: Array) -> Array:
        z = np.atleast_2d(z)
        return 0.5 * np.sum(z * z, axis=-1)

    def grad(prefix: PathPrefix, z: Array) -> Array:
        return np.atleast_2d(z)

    return g, grad
