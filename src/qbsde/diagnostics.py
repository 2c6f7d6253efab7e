"""Quantitative checks of the a-priori estimates: Z-growth ratios, exponential
moments of the running sup of Y, stochastic exponentials and their L^p norms,
grid-proxy BMO norms with the reverse-Holder exponent, and uniqueness probes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import Array, BrownianBundle, TimeGrid, row_norm, row_sum
from .errors import DiagnosticsOverflow, InvalidArgument
from .solvers import BsdeSolution, logsumexp, quantile

DEFAULT_LP_LADDER = (1.25, 1.5, 2.0, 3.0, 4.0)


@dataclass
class ZGrowthReport:
    """Distribution of |Z_t| / (1 + sup_{s<=t} |X_s|^r) over nodes and paths."""

    r: float
    node_times: Array
    mean_ratio: Array
    q999_ratio: Array
    max_ratio_per_node: Array
    max_ratio: float
    q999_overall: float

    def as_rows(self):
        return [
            {"t": float(t), "mean_ratio": float(m), "q999_ratio": float(q),
             "max_ratio": float(x)}
            for t, m, q, x in zip(self.node_times, self.mean_ratio,
                                  self.q999_ratio, self.max_ratio_per_node)
        ]


def z_growth_report(solution: BsdeSolution, r: float) -> ZGrowthReport:
    """Per-node ratios rho_t = |Z_t| / (1 + sup_{s<=t}|X_s|^r), nodes 0..n-1,
    along the paths of the solution's own bundle."""
    n = solution.grid.n_steps
    # ratios are formed in place, and denom is freed before the quantile's
    # copy, so the report holds three (n, P) arrays at most
    ratios = row_norm(solution.Z[:n])  # (n, P)
    denom = solution.bundle.running_sup[:n] ** r
    denom += 1.0
    ratios /= denom
    del denom
    max_per_node = ratios.max(axis=1)
    return ZGrowthReport(
        r=r,
        node_times=solution.grid.nodes[:n],
        mean_ratio=ratios.mean(axis=1),
        q999_ratio=quantile(ratios, 0.999, axis=1),
        max_ratio_per_node=max_per_node,
        max_ratio=float(max_per_node.max()),
        q999_overall=float(quantile(ratios, 0.999)),  # partitions `ratios`
    )


@dataclass
class ExpMomentEstimate:
    """Overflow-safe Monte-Carlo estimate of E[e^{q Y*}]."""

    q: float
    log_estimate: float
    estimate: float
    se: float
    stable: bool = True


def _exp(x: float) -> float:
    """math.exp(x), inf where that overflows instead of raising."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _shifted_mean_se(logs: Array) -> tuple[float, float]:
    """Mean of e^logs and its standard error, accumulated after a max shift;
    both inf when e^max(logs) is past the largest float."""
    shift = logs.max()
    scale = _exp(shift)
    if math.isinf(scale):
        return scale, scale
    w = np.exp(logs - shift)
    return (scale * float(w.mean()),
            scale * float(w.std()) / math.sqrt(logs.size))


def exp_moment_of_samples(samples: Array, q: float) -> ExpMomentEstimate:
    """Estimate E[e^{q S}] from nonnegative samples S, for q > 0."""
    if not q > 0:
        raise InvalidArgument(f"q must be positive, got {q}")
    logs = q * np.asarray(samples, float)
    log_mean = logsumexp(logs) - math.log(logs.size)
    est, se = _shifted_mean_se(logs)
    stable = math.isfinite(est) and math.isfinite(se)
    return ExpMomentEstimate(q, float(log_mean), est, se, stable)


def exp_moment(solution: BsdeSolution, q: float) -> ExpMomentEstimate:
    """Estimate E[e^{q Y*}] with Y* = max over nodes of |Y|."""
    return exp_moment_of_samples(solution.y_star(), q)


@dataclass
class GirsanovReport:
    """Samples of the discrete stochastic exponential, their L^p norms and
    the martingale check."""

    log_samples: Array
    mean: float
    se: float
    lp_norms: dict[float, float]
    novikov: float  # E[e^{1/2 int |theta|^2 ds}]; inf when it overflows
    log_novikov: float = float("nan")  # always finite for finite theta

    @property
    def samples(self) -> Array:
        return np.exp(self.log_samples)

    @property
    def martingale_ok(self) -> bool:
        """E[E_T] = 1 within 3 finite standard errors (an inf mean fails)."""
        return (math.isfinite(self.se)
                and abs(self.mean - 1) <= 3 * self.se + 1e-12)


def stochastic_exponential(theta: Array, noise: BrownianBundle,
                           p_ladder=DEFAULT_LP_LADDER) -> GirsanovReport:
    """Discrete E_T per path via log accumulation of theta dW - |theta|^2/2 dt.

    theta has the increments' shape (n, P, d), read at each step's left node.
    """
    inc = noise.increments
    if theta.shape != inc.shape:
        raise InvalidArgument(
            f"theta shape {theta.shape} does not match increments {inc.shape}")
    dt = noise.grid.steps[:, None]
    with np.errstate(invalid="ignore"):  # non-finite theta detected below
        half_qv = 0.5 * np.sum(row_sum(theta * theta) * dt, axis=0)
        log_e = np.sum(theta * inc, axis=(0, 2)) - half_qv
    if not np.all(np.isfinite(log_e)):
        bad = int(np.argwhere(~np.isfinite(log_e))[0][0])
        raise DiagnosticsOverflow("non-finite stochastic exponential",
                                  path_index=bad)
    P = log_e.size
    mean, se = _shifted_mean_se(log_e)
    lp = {p: _exp((logsumexp(p * log_e) - math.log(P)) / p) for p in p_ladder}
    log_novikov = float(logsumexp(half_qv) - math.log(P))
    with np.errstate(over="ignore"):  # inf, silently, on overflow
        novikov = float(np.exp(log_novikov))
    return GirsanovReport(log_e, mean, se, lp, novikov, log_novikov)


def bmo_estimate(theta: Array, grid: TimeGrid,
                 features: Array | None = None) -> float:
    """Grid proxy of the BMO_2 norm of int theta dW, theta of shape (n, P, d).

    For each node i the conditional expectation E_i[sum_{j>=i} |theta_j|^2 Dt_j]
    is estimated by regression on the supplied (n, P, k) per-node features
    (default: plain means, exact for deterministic integrands); the norm proxy
    is the sup over nodes and paths of the square root. Stopping times are
    restricted to grid nodes, so this is a lower-bound proxy of the true norm.
    """
    theta = np.asarray(theta, float)
    n, P, d = theta.shape
    if n != grid.n_steps:
        raise InvalidArgument("theta step count does not match the grid")
    qv = row_sum(theta * theta)  # (n, P), squared in a fresh array
    qv *= grid.steps[:, None]
    tails = np.zeros((n + 1, P))  # node n's tail is 0
    np.cumsum(qv[::-1], axis=0, out=tails[n - 1::-1])
    del qv
    worst = 0.0
    for i in range(n):
        if features is None:
            fitted = np.full(P, tails[i].mean())
        else:
            phi = features[i]
            coef, _, _, _ = np.linalg.lstsq(phi, tails[i], rcond=None)
            fitted = phi @ coef
        worst = max(worst, float(np.max(np.clip(fitted, 0.0, None))))
    return math.sqrt(worst)


def reverse_holder_phi(p: float) -> float:
    """phi(p) = (1 + p^-2 log((2p-1)/(2p-2)))^(1/2) - 1, decreasing on (1, inf)."""
    if not p > 1:
        raise InvalidArgument("phi is defined for p > 1")
    return math.sqrt(1.0 + math.log((2 * p - 1) / (2 * p - 2)) / (p * p)) - 1.0


@dataclass
class PStarResult:
    value: float
    saturated: bool = False


def pstar_from_bmo(bmo: float, rel_tol: float = 1e-10,
                   p_max: float = 1e6) -> PStarResult:
    """Invert the reverse-Holder exponent map: p* = phi^{-1}(bmo) by bisection."""
    if not bmo > 0:
        raise InvalidArgument("bmo must be positive")
    lo, hi = 1.0 + 1e-12, p_max
    if bmo >= reverse_holder_phi(lo):
        # larger BMO than phi can reach: exponent pinned at 1
        return PStarResult(lo, saturated=True)
    if bmo <= reverse_holder_phi(hi):
        return PStarResult(hi, saturated=True)
    while (hi - lo) > rel_tol * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if reverse_holder_phi(mid) > bmo:
            lo = mid
        else:
            hi = mid
    return PStarResult(0.5 * (lo + hi))


@dataclass
class ClassMembershipReport:
    """Exponential-moment ladder over (p, eps) with stability verdicts."""

    K_z: float
    entries: list[dict] = field(default_factory=list)

    @property
    def all_finite_looking(self) -> bool:
        return all(e["verdict"] == "finite-looking" for e in self.entries)


def class_membership(solution: BsdeSolution, K_z: float,
                     p_grid=(1.5, 2.0, 4.0),
                     eps_grid=(0.1, 0.5, 1.0),
                     stability_tol: float = 0.2) -> ClassMembershipReport:
    """Evaluate E[e^{q|Y*|}] on the ladder q = 2p/(p-1) K_z (1+eps), which
    needs eps > -1 for q > 0.

    Each entry carries a stability verdict: the estimate from the first half
    of the sample must agree with the full-sample estimate within
    stability_tol relative drift ("finite-looking"), else "unstable".
    """
    if not K_z > 0:
        raise InvalidArgument("K_z must be positive")
    ystar = solution.y_star()
    half = ystar[: max(1, ystar.size // 2)]
    report = ClassMembershipReport(K_z=K_z)
    for p in p_grid:
        if not p > 1:
            raise InvalidArgument("p grid entries must exceed 1")
        for eps in eps_grid:
            q = 2.0 * p / (p - 1.0) * K_z * (1.0 + eps)
            full = exp_moment_of_samples(ystar, q)
            part = exp_moment_of_samples(half, q)
            drift = abs(math.exp(part.log_estimate - full.log_estimate) - 1.0)
            verdict = ("finite-looking"
                       if full.stable and drift <= stability_tol else "unstable")
            report.entries.append({
                "p": p, "eps": eps, "q": q,
                "estimate": full.estimate, "log_estimate": full.log_estimate,
                "se": full.se, "half_sample_drift": drift, "verdict": verdict,
            })
    return report


@dataclass
class UniquenessVerdict:
    """Node-wise |delta Y| statistics of two solutions against an MC budget."""

    method_a: str
    method_b: str
    mean_abs_per_node: Array
    max_abs_per_node: Array
    sup_mean_abs: float
    sup_max_abs: float
    budget: float
    passed: bool
    delta_z_l2: float  # time-integrated squared Z difference, mean over paths


def uniqueness_probe(sol_a: BsdeSolution, sol_b: BsdeSolution,
                     budget: float | None = None,
                     scheme_tol: float = 2e-2) -> UniquenessVerdict:
    """Compare two solutions on the same bundle: sup-node mean |dY| vs budget.

    The bundles must be one object or hold equal grid nodes, states and
    increments. Default budget is 3*(se_a + se_b) + scheme_tol with the
    per-solution MC standard errors at their worst node. Symmetric in (a, b).
    """
    a, b = sol_a.bundle, sol_b.bundle
    if a is not b and not (
            np.array_equal(a.grid.nodes, b.grid.nodes)
            and np.array_equal(a.states, b.states)
            and np.array_equal(a.noise.increments, b.noise.increments)):
        raise InvalidArgument("solutions live on different bundles")
    dY = np.subtract(sol_a.Y, sol_b.Y)  # |dY| and dZ^2 formed in place
    np.abs(dY, out=dY)
    mean_abs = dY.mean(axis=1)
    max_abs = dY.max(axis=1)
    del dY
    if budget is None:
        se_a = float(np.max(sol_a.se_nodes)) if sol_a.se_nodes is not None else 0.0
        se_b = float(np.max(sol_b.se_nodes)) if sol_b.se_nodes is not None else 0.0
        budget = 3.0 * (se_a + se_b) + scheme_tol
    n = sol_a.grid.n_steps
    dz = np.subtract(sol_a.Z[:n], sol_b.Z[:n])
    dz *= dz
    dz = row_sum(dz)
    dz *= sol_a.grid.steps[:, None]
    dz_l2 = float(np.mean(np.sum(dz, axis=0)))
    sup_mean = float(mean_abs.max())
    return UniquenessVerdict(
        method_a=sol_a.method, method_b=sol_b.method,
        mean_abs_per_node=mean_abs, max_abs_per_node=max_abs,
        sup_mean_abs=sup_mean, sup_max_abs=float(max_abs.max()),
        budget=float(budget), passed=sup_mean <= budget, delta_z_l2=dz_l2)
