"""Backward solvers: exact tree oracle, regression LSMC, closed forms and the
two decomposition constructions (additive split and z-free/residual split)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .engine import (
    Array,
    BrownianBundle,
    ModelSpec,
    PathBundle,
    TimeGrid,
    bernoulli_bundle,
    make_grid,
    simulate_forward,
)
from .errors import (
    CapabilityMissing,
    InvalidArgument,
    OracleOverflow,
    ResourceLimit,
    SolverDiverged,
)
from .generators import (
    GeneratorSpec,
    PathPrefix,
    TruncationSpec,
    eval_driver,
    grad_z,
    prefix_at,
    truncate_z,
)

MAX_TREE_DEPTH = 22

# paths per quadrature block in the Cole-Hopf oracle; bounds the
# (rows, n_quad) temporaries independently of the path count
COLE_HOPF_CHUNK = 4096


def _finite_max(a: Array, axis) -> Array:
    """Max of `a` along `axis` (dimensions kept), 0 where it is not finite."""
    m = np.max(a, axis=axis, keepdims=True)
    return np.where(np.isfinite(m), m, 0.0)


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along `axis` (all entries when None), max-shifted.

    The shift is the max only where that max is finite, so -inf entries add
    nothing, an all -inf slice gives -inf and +inf propagates, as in
    scipy.special.logsumexp.
    """
    a = np.asarray(a, float)
    m = _finite_max(a, axis)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - m).sum(axis=axis)) + np.squeeze(m, axis=axis)


@dataclass
class RegressionBasis:
    """Feature functions of (t, X_t, running sup_t) used per backward node.

    `projector` gives the least-squares projection onto a node's feature
    span. A node whose features are linearly dependent gets the minimum-norm
    fit and is recorded in `rank_deficient_nodes`.
    """

    features: list[Callable[[float, Array, Array], Array]]
    name: str = "custom"
    rank_deficient_nodes: set = field(default_factory=set)

    def __post_init__(self):
        if not self.features:
            raise InvalidArgument("basis needs at least one feature")

    def design(self, paths: PathBundle, node: int) -> Array:
        t = float(paths.grid.nodes[node])
        x = paths.states[:, node, :]
        sup = paths.running_sup[:, node]
        cols = [np.asarray(f(t, x, sup), float) for f in self.features]
        return np.column_stack(cols)

    def projector(self, paths: PathBundle, node: int) -> Callable[[Array], Array]:
        """Map a (P,) or (P, r) target to its fitted values on the node's span.

        One thin SVD of the design per node; singular values at or below
        lstsq's cutoff eps * max(P, k) * s_max are dropped, so the fitted
        values are those of the minimum-norm least-squares fit.
        """
        phi = self.design(paths, node)
        u, s, _ = np.linalg.svd(phi, full_matrices=False)
        cutoff = np.finfo(float).eps * max(phi.shape) * s[0]
        rank = int(np.count_nonzero(s > cutoff))
        if rank < phi.shape[1]:
            self.rank_deficient_nodes.add(node)
        u = u[:, :rank]
        return lambda target: u @ (u.T @ target)

    def reset(self):
        self.rank_deficient_nodes = set()


def polynomial_basis(degree: int = 3, dim: int = 1,
                     include_sup: bool = True) -> RegressionBasis:
    """Monomials of each state component up to `degree`, plus the running sup."""
    feats = [lambda t, x, s: np.ones(x.shape[0])]
    for j in range(dim):
        for k in range(1, degree + 1):
            feats.append(lambda t, x, s, j=j, k=k: x[:, j] ** k)
    if include_sup:
        feats.append(lambda t, x, s: s)
    return RegressionBasis(feats, name=f"poly{degree}" + ("+sup" if include_sup else ""))


class TreeIndicatorBasis(RegressionBasis):
    """Saturated basis on the enumerated Bernoulli tree: one indicator per node.

    Requires the canonical bernoulli_bundle path ordering, where paths sharing
    the first `node` steps form contiguous blocks of size 2^(depth-node). The
    basis owns its projection: the mean over each block, repeated over the
    block, in O(P) and without a design matrix (the inherited `design` holds
    only the constant feature).
    """

    def __init__(self, depth: int):
        super().__init__([lambda t, x, s: np.ones(x.shape[0])],
                         name=f"tree-indicators-{depth}")
        self.depth = depth

    def projector(self, paths: PathBundle, node: int) -> Callable[[Array], Array]:
        P = paths.n_paths
        if P != 1 << self.depth:
            raise InvalidArgument("bundle is not a full enumerated tree")
        block = 1 << (self.depth - node)

        def project(target: Array) -> Array:
            blocks = target.reshape(P // block, block, *target.shape[1:])
            return np.repeat(blocks.mean(axis=1), block, axis=0)

        return project


@dataclass
class BsdeSolution:
    """Per-path, per-node (Y, Z) with solver provenance.

    Z is stored at nodes 0..n-1 (node n set to zero by convention); Y at the
    last node equals xi + h(path) exactly as evaluated.
    """

    grid: TimeGrid
    Y: Array  # (P, n+1)
    Z: Array  # (P, n+1, d)
    method: str
    bundle: PathBundle | None = None
    trunc_level: float | None = None
    picard_iterations: int = 0
    residual: float = 0.0
    picard_residuals: list = field(default_factory=list)  # per node (backward)
    rank_deficient_nodes: tuple = ()  # sorted nodes with a rank-deficient fit
    se_nodes: Array | None = None
    extras: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.Y.shape[0]

    @property
    def y0(self) -> float:
        return float(np.mean(self.Y[:, 0]))

    @property
    def y0_se(self) -> float:
        return float(self.se_nodes[0]) if self.se_nodes is not None else 0.0

    def y_star(self) -> Array:
        """Per-path running-sup of |Y| over all nodes."""
        return np.max(np.abs(self.Y), axis=1)


def _mc_se(Y: Array, S: Array) -> Array:
    """Per-node standard errors: the spread of Y_{t_i} across paths / sqrt(P).

    Node 0's fitted values are constant, so its error is taken from the path
    sum S = Y_n + sum_i (Y_i - E_i[Y_{i+1}]). A projector that keeps the
    constants in its span preserves path means, so y0 is the path mean of S
    and its standard error is std(S) / sqrt(P). S is an i.i.d. sample when
    the driver does not read (y, z); when it does, the fitted values feed
    back into S and this value understates the seed-to-seed spread.
    """
    se = np.std(Y, axis=0) / np.sqrt(Y.shape[0])
    se[0] = np.std(S) / np.sqrt(S.size)
    return se


def _rank_nodes(*node_sets) -> tuple:
    """Sorted union of per-stage rank-deficient node sets."""
    return tuple(sorted(set().union(*node_sets)))


def _regress_node(project: Callable[[Array], Array], target: Array,
                  dw: Array, dt: float) -> tuple[Array, Array]:
    """E_i[target] and Z_i = E_i[(target - E_i[target]) DW_i] / Dt_i."""
    ce = project(target)
    return ce, project((target - ce)[:, None] * dw) / dt


def _picard(ce: Array, z: Array, dt: float, driver: Callable[[Array, Array], Array],
            budget: int, tol: float) -> tuple[Array, list[float]]:
    """Fixed point of y = ce + dt * driver(y, z), Picard from y0 = ce."""
    y = ce
    residuals: list[float] = []
    grew = 0
    for _ in range(budget):
        y_new = ce + dt * driver(y, z)
        resid = float(np.max(np.abs(y_new - y))) if y_new.size else 0.0
        if residuals and resid > residuals[-1]:
            grew += 1
            if grew >= 3:
                raise SolverDiverged(
                    f"Picard residual grew 3 consecutive iterations ({resid:.3g})")
        else:
            grew = 0
        residuals.append(resid)
        y = y_new
        if resid <= tol:
            break
    return y, residuals


def _picard_summary(residual_log: list[list[float]]) -> tuple[int, float]:
    """Most Picard iterations at any node and the largest final residual."""
    iters = max((len(r) for r in residual_log), default=0)
    resid = max((r[-1] for r in residual_log if r), default=0.0)
    return iters, resid


def _backward_regression(
    terminal: Array,
    paths: PathBundle,
    noise: BrownianBundle,
    basis: RegressionBasis,
    driver_fn: Callable,  # (node, prefix, y, z) -> (P,)
    trunc: TruncationSpec | None,
    picard_budget: int,
    tol: float,
    weights_fn: Callable[[int], Array] | None = None,
) -> tuple[Array, Array, Array, list, int, float]:
    """Shared backward induction, one basis projector per node.

    Returns Y, Z, the path sum S of `_mc_se`, the per-node Picard residuals
    and their `_picard_summary`.

    Without weights: conditional expectations under P via regression, Z from
    the centered Delta-W representation. With weights (d=1 only): conditional
    expectations under the measure with discrete density increments
    rho_i = 1 + theta_i DW_i, Z from the variance-normalized W^Q representation
    (algebraically identical to the drift-in-driver route on a saturated basis).
    """
    grid = paths.grid
    n = grid.n_steps
    P, _, d = paths.states.shape
    if weights_fn is not None and d != 1:
        raise CapabilityMissing("weighted (Girsanov) route supports d=1 only")
    basis.reset()
    Y = np.empty((P, n + 1))
    Z = np.zeros((P, n + 1, d))
    Y[:, n] = terminal
    S = Y[:, n].copy()
    residual_log: list[list[float]] = []
    for i in range(n - 1, -1, -1):
        dt = float(grid.steps[i])
        dw = noise.increments[:, i, :]
        project = basis.projector(paths, i)
        y_next = Y[:, i + 1]
        if weights_fn is None:
            ce, z = _regress_node(project, y_next, dw, dt)
        else:
            theta = np.atleast_2d(weights_fn(i))
            rho = 1.0 + np.sum(theta * dw, axis=1)
            ce = project(rho * y_next) / project(rho)
            dwq = dw - theta * dt
            num = project((rho * (y_next - ce))[:, None] * dwq)
            den = project(rho * np.sum(dwq * dwq, axis=1))
            z = num / den[:, None]
        z_used = truncate_z(trunc, z) if trunc is not None else z
        prefix = prefix_at(paths, i)
        y, residuals = _picard(
            ce, z_used, dt,
            lambda yy, zz, i=i, prefix=prefix: driver_fn(i, prefix, yy, zz),
            picard_budget, tol)
        residual_log.append(residuals)
        Y[:, i] = y
        Z[:, i, :] = z
        S += y - ce
    residual_log.reverse()
    return (Y, Z, S, residual_log) + _picard_summary(residual_log)


def solve_lsmc(
    spec: GeneratorSpec,
    trunc: TruncationSpec | None,
    paths: PathBundle,
    noise: BrownianBundle,
    basis: RegressionBasis,
    picard_budget: int = 20,
    tol: float = 1e-9,
) -> BsdeSolution:
    """Backward regression Picard solver for the rho_N-truncated driver.

    extras["path_sum"] holds the per-path sum S of `_mc_se`, whose mean is y0.
    """
    if trunc is not None and trunc.level < 2:
        raise InvalidArgument("truncation level must be >= 2")
    terminal = spec.terminal(paths)

    def driver(i, prefix, y, z):
        return eval_driver(spec, float(paths.grid.nodes[i]), prefix, y, z)

    Y, Z, S, res_log, iters, resid = _backward_regression(
        terminal, paths, noise, basis, driver, trunc, picard_budget, tol)
    return BsdeSolution(
        paths.grid, Y, Z, "lsmc", bundle=paths,
        trunc_level=None if trunc is None else trunc.level,
        picard_iterations=iters, residual=resid, picard_residuals=res_log,
        rank_deficient_nodes=_rank_nodes(basis.rank_deficient_nodes),
        se_nodes=_mc_se(Y, S), extras={"path_sum": S})


def make_tree_bundle(depth: int, T: float,
                     model: ModelSpec | None = None) -> tuple[PathBundle, BrownianBundle]:
    """Enumerated Bernoulli bundle and its forward paths (default X = W)."""
    if depth > MAX_TREE_DEPTH:
        raise ResourceLimit(f"tree depth {depth} exceeds {MAX_TREE_DEPTH}")
    grid = make_grid(T, depth)
    noise = bernoulli_bundle(grid)
    if model is None:
        model = ModelSpec(x0=np.zeros(1), drift=lambda x: np.zeros_like(x),
                          sigma=lambda t: np.eye(1), mode="F1")
    paths = simulate_forward(model, noise, grid)
    return paths, noise


def solve_tree_exact(
    spec: GeneratorSpec,
    depth: int,
    T: float,
    model: ModelSpec | None = None,
    bundle: tuple[PathBundle, BrownianBundle] | None = None,
    picard_budget: int = 20,
    tol: float = 1e-9,
) -> BsdeSolution:
    """Exact backward recursion on the full (non-recombining) Bernoulli tree.

    Conditional expectations are exact pair averages over the up/down children;
    the driver is resolved by the same Picard fixed point as solve_lsmc so the
    two agree to round-off on tree-compatible configurations. d=1 only.
    """
    if depth > MAX_TREE_DEPTH:
        raise ResourceLimit(f"tree depth {depth} exceeds {MAX_TREE_DEPTH}")
    if bundle is None:
        paths, noise = make_tree_bundle(depth, T, model)
    else:
        paths, noise = bundle
    if paths.dim != 1:
        raise CapabilityMissing("tree oracle supports d=1 only")
    grid = paths.grid
    n = grid.n_steps
    P = paths.n_paths
    Y = np.empty((P, n + 1))
    Z = np.zeros((P, n + 1, 1))
    Y[:, n] = spec.terminal(paths)
    S = Y[:, n].copy()
    # level `values` has 2^(i+1) entries after processing step i+1
    values = Y[:, n].copy()  # level n: one value per leaf
    residual_log: list[list[float]] = []
    for i in range(n - 1, -1, -1):
        m = 1 << (i + 1)  # node count at level i+1
        block = P // m
        lvl = values.reshape(m, block)[:, 0] if values.size == P else values
        pairs = lvl.reshape(-1, 2)
        ce = 0.5 * (pairs[:, 0] + pairs[:, 1])  # (2^i,)
        sqrt_dt = np.sqrt(grid.steps[i])
        z = ((pairs[:, 0] - pairs[:, 1]) / (2.0 * sqrt_dt))[:, None]
        # representative path rows for each level-i node (prefix evaluation)
        reps = np.arange(1 << i) * (P >> i)
        prefix = prefix_at(paths, i)
        rep_prefix = PathPrefix(prefix.times, prefix.states[reps],
                                prefix.sup[reps])
        dt = float(grid.steps[i])
        y, residuals = _picard(
            ce, z, dt,
            lambda yy, zz, t=float(grid.nodes[i]), pp=rep_prefix:
                eval_driver(spec, t, pp, yy, zz),
            picard_budget, tol)
        residual_log.append(residuals)
        values = y
        S += np.repeat(y - ce, P >> i)
        Y[:, i] = np.repeat(y, P >> i)
        Z[:, i, 0] = np.repeat(z[:, 0], P >> i)
    residual_log.reverse()
    max_iters, max_resid = _picard_summary(residual_log)
    return BsdeSolution(grid, Y, Z, "tree-exact", bundle=paths,
                        picard_iterations=max_iters, residual=max_resid,
                        picard_residuals=residual_log, se_nodes=_mc_se(Y, S))


def solve_cole_hopf(
    model: ModelSpec,
    terminal_fn: Callable[[Array], Array],
    paths: PathBundle,
    n_quad: int = 96,
) -> BsdeSolution:
    """Closed-form oracle for the driver |z|^2/2: Y_t = log E_t[exp(xi)].

    Requires zero drift, d=1 and time-only (F1) diffusion. With s the
    remaining variance and U standard normal, one Gauss-Hermite quadrature per
    node gives Y = log E[e^{xi(x + sqrt(s) U)}] in log domain and, by Stein's
    identity on the same values, Z = sigma E[U e^xi] / (sqrt(s) E[e^xi]).
    A node with no remaining variance has Y = xi(x) and Z = 0.
    """
    if model.dim != 1 or model.mode != "F1":
        raise CapabilityMissing("Cole-Hopf oracle requires d=1 and F1 diffusion")
    probe_x = np.array([[0.0], [1.0], [-0.7]])
    probe = np.asarray(model.drift(probe_x), float)
    if np.any(probe != 0):
        raise CapabilityMissing("Cole-Hopf oracle requires zero drift")
    grid = paths.grid
    n = grid.n_steps
    P = paths.n_paths
    sig = np.array([float(np.asarray(model.sigma(t)).reshape(-1)[0])
                    for t in grid.nodes[:-1]])
    # remaining integrated variance from each node to T
    tail_var = np.concatenate(
        [np.cumsum((sig ** 2 * grid.steps)[::-1])[::-1], [0.0]])
    u, w = np.polynomial.hermite_e.hermegauss(n_quad)  # weight e^{-u^2/2}
    logw = np.log(w) - 0.5 * np.log(2 * np.pi)

    Y = np.empty((P, n + 1))
    Z = np.zeros((P, n + 1, 1))
    for i in range(n + 1):
        x = paths.states[:, i, 0]
        if tail_var[i] <= 0:
            Y[:, i] = np.asarray(terminal_fn(x), float)
            continue
        sd = np.sqrt(tail_var[i])
        for lo in range(0, P, COLE_HOPF_CHUNK):
            rows = slice(lo, lo + COLE_HOPF_CHUNK)
            pts = x[rows, None] + sd * u
            xi = np.asarray(terminal_fn(pts.reshape(-1)), float)
            e = xi.reshape(pts.shape) + logw  # fresh array, updated in place
            m = _finite_max(e, 1)
            e -= m
            np.exp(e, out=e)
            total = e.sum(axis=1)
            Y[rows, i] = np.log(total) + m[:, 0]
            e *= u
            Z[rows, i, 0] = sig[i] * e.sum(axis=1) / (sd * total)
    if not np.all(np.isfinite(Y)):
        raise OracleOverflow("exponential moment overflow in Cole-Hopf oracle")
    return BsdeSolution(grid, Y, Z, "cole-hopf", bundle=paths,
                        se_nodes=np.zeros(n + 1))


def solve_linear(
    model: ModelSpec,
    a: float,
    spec: GeneratorSpec,
    paths: PathBundle,
    noise: BrownianBundle,
    basis: RegressionBasis,
) -> BsdeSolution:
    """Closed form Y_t = e^{a(T-t)} E_t[xi] for the driver f(y) = a*y.

    E_t[xi] is estimated by regressing xi itself on the basis at each node;
    Z by the centered Delta-W representation scaled the same way.
    """
    grid = paths.grid
    n = grid.n_steps
    P = paths.n_paths
    basis.reset()
    xi = spec.terminal(paths)
    Y = np.empty((P, n + 1))
    Z = np.zeros((P, n + 1, paths.dim))
    Y[:, n] = xi
    scale = np.exp(a * (grid.horizon - grid.nodes))
    for i in range(n - 1, -1, -1):
        ce, z = _regress_node(basis.projector(paths, i), xi,
                              noise.increments[:, i, :], float(grid.steps[i]))
        Y[:, i] = scale[i] * ce
        Z[:, i, :] = scale[i] * z
    return BsdeSolution(grid, Y, Z, "linear-closed-form", bundle=paths,
                        rank_deficient_nodes=_rank_nodes(basis.rank_deficient_nodes),
                        se_nodes=_mc_se(Y, scale[0] * xi), extras={"a": a})


def solve_decomposed_additive(
    spec: GeneratorSpec,
    model: ModelSpec,
    paths: PathBundle,
    noise: BrownianBundle,
    basis: RegressionBasis,
    trunc: TruncationSpec | None = None,
    picard_budget: int = 20,
    tol: float = 1e-9,
    measure_route: str = "drift",
) -> BsdeSolution:
    """Two-stage additive construction for the (F1) setting.

    Stage 1 solves the path-dependent part (terminal h, driver g); stage 2
    solves the bounded remainder (terminal xi, driver built from the increment
    of f+g around the stage-1 solution). measure_route selects how the
    stage-2 Girsanov drift is realized: "drift" adds the z.grad_z g term to
    the driver under P; "weighted" uses discrete density increments
    (importance weights) — the two are algebraically identical on a saturated
    basis.
    """
    if model.mode != "F1":
        raise InvalidArgument("additive decomposition requires an (F1) model")
    if measure_route not in ("drift", "weighted"):
        raise InvalidArgument(f"unknown measure_route {measure_route!r}")
    grid = paths.grid
    stage1 = GeneratorSpec(g=spec.g, grad_z_g=spec.grad_z_g, h=spec.h,
                           K_y=spec.K_y, K_z=spec.K_z, K_g=spec.K_g,
                           K_h=spec.K_h, M_z=spec.M_z, r=spec.r,
                           fd_fallback=spec.fd_fallback)
    sol1 = solve_lsmc(stage1, trunc, paths, noise, basis, picard_budget, tol)
    Y1, Z1 = sol1.Y, sol1.Z

    # stage-1 driver values and z-gradients frozen along the paths
    def g_at(i, prefix):
        if spec.g is None:
            return np.zeros(paths.n_paths)
        return np.asarray(spec.g(prefix, Y1[:, i], Z1[:, i, :]), float)

    theta_cache: dict[int, Array] = {}

    def theta_at(i):
        if i in theta_cache:
            return theta_cache[i]
        prefix = prefix_at(paths, i)
        if spec.g is None:
            theta = np.zeros((paths.n_paths, paths.dim))
        else:
            probe = GeneratorSpec(g=spec.g, grad_z_g=spec.grad_z_g,
                                  fd_fallback=spec.fd_fallback)
            theta = grad_z(probe, float(grid.nodes[i]), prefix,
                           Y1[:, i], Z1[:, i, :])
        theta_cache[i] = theta
        return theta

    def driver2(i, prefix, y, z):
        t = float(grid.nodes[i])
        total = np.zeros(paths.n_paths)
        if spec.f is not None:
            total = total + np.asarray(spec.f(t, Y1[:, i] + y, Z1[:, i, :] + z), float)
        if spec.g is not None:
            total = total + np.asarray(
                spec.g(prefix, Y1[:, i] + y, Z1[:, i, :] + z), float)
            total = total - g_at(i, prefix)
        if measure_route == "weighted":
            total = total - np.sum(z * theta_at(i), axis=1)
        return total

    terminal2 = (spec.xi(grid.nodes, paths.states, grid.n_steps)
                 if spec.xi is not None else np.zeros(paths.n_paths))
    weights = theta_at if measure_route == "weighted" else None
    Y2, Z2, S2, res_log, iters, resid = _backward_regression(
        terminal2, paths, noise, basis, driver2, trunc,
        picard_budget, tol, weights_fn=weights)
    Y = Y1 + Y2
    Z = Z1 + Z2
    return BsdeSolution(
        grid, Y, Z, f"decomposed-additive[{measure_route}]", bundle=paths,
        trunc_level=None if trunc is None else trunc.level,
        picard_iterations=max(iters, sol1.picard_iterations),
        residual=max(resid, sol1.residual), picard_residuals=res_log,
        rank_deficient_nodes=_rank_nodes(sol1.rank_deficient_nodes,
                                         basis.rank_deficient_nodes),
        se_nodes=_mc_se(Y, sol1.extras["path_sum"] + S2),
        extras={"stage1_residual": sol1.residual, "stage2_residual": resid})


def solve_decomposed_malliavin(
    spec: GeneratorSpec,
    model: ModelSpec,
    paths: PathBundle,
    noise: BrownianBundle,
    basis: RegressionBasis,
    trunc: TruncationSpec | None = None,
    picard_budget: int = 20,
    tol: float = 1e-9,
) -> BsdeSolution:
    """Two-stage (R,S) + (U,V) construction for the (F2) setting.

    Stage 1 solves the z-free Lipschitz equation R_t = xi_total +
    int f(s,R_s,0) ds - int S dW (regression in y only); stage 2 solves the
    residual BSDE for (U, V) with truncated LSMC. Returns (Y, Z) = (U+R, V+S)
    and reports the empirical sup of |S| (bounded by theory)."""
    grid = paths.grid

    def driver1(i, prefix, y, z):
        zero = np.zeros_like(np.atleast_2d(z))
        return eval_driver(spec, float(grid.nodes[i]), prefix, y, zero)

    terminal = spec.terminal(paths)
    R, S, sum1, _, it1, res1 = _backward_regression(
        terminal, paths, noise, basis, driver1, None, picard_budget, tol)
    nodes1 = set(basis.rank_deficient_nodes)

    def driver2(i, prefix, y, v):
        t = float(grid.nodes[i])
        full = eval_driver(spec, t, prefix, R[:, i] + y, S[:, i, :] + v)
        base = eval_driver(spec, t, prefix, R[:, i],
                           np.zeros((paths.n_paths, paths.dim)))
        return full - base

    zero_terminal = np.zeros(paths.n_paths)
    U, V, sum2, res_log, it2, res2 = _backward_regression(
        zero_terminal, paths, noise, basis, driver2, trunc, picard_budget, tol)
    Y = R + U
    Z = S + V
    s_norms = np.linalg.norm(S[:, :-1, :], axis=2)
    s_sup = float(np.max(s_norms)) if grid.n_steps else 0.0
    # the raw sup is dominated by basis extrapolation at extreme states; the
    # high quantile is the statistic that is stable under path-count growth
    s_q999 = float(np.quantile(s_norms, 0.999)) if grid.n_steps else 0.0
    return BsdeSolution(
        grid, Y, Z, "decomposed-malliavin", bundle=paths,
        trunc_level=None if trunc is None else trunc.level,
        picard_iterations=max(it1, it2), residual=max(res1, res2),
        picard_residuals=res_log,
        rank_deficient_nodes=_rank_nodes(nodes1, basis.rank_deficient_nodes),
        se_nodes=_mc_se(Y, sum1 + sum2),
        extras={"stage1_residual": res1, "stage2_residual": res2,
                "s_empirical_sup": s_sup, "s_q999": s_q999})
