"""Backward solvers: exact tree oracle, regression LSMC, the Cole-Hopf closed
form and the two decomposition constructions (additive split and
z-free/residual split).

Each solver's loop over grid nodes writes one contiguous row per node of
the node-major Y (n+1, P) and Z (n+1, P, d) that its BsdeSolution holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .engine import (
    Array,
    ModelSpec,
    PathBundle,
    TimeGrid,
    _sigma_at,
    bernoulli_bundle,
    make_grid,
    simulate_forward,
)
from .errors import (
    CapabilityMissing,
    InvalidArgument,
    OracleOverflow,
    SolverDiverged,
)
from .generators import (
    GeneratorSpec,
    PathPrefix,
    TruncationSpec,
    eval_driver,
    grad_z,  # unused here; benchmark/layertrace.py wraps solvers.grad_z
    prefix_at,
    terminal_prefix,
    truncate_z,
)

# bytes of each temporary of the Cole-Hopf oracle, whatever the path count:
# its quadrature runs COLE_HOPF_BLOCK_BYTES // (8 n_quad) knots at a time (512
# at 96 points), and its Hermite interpolation and terminal values
# COLE_HOPF_BLOCK_BYTES // 48 paths at a time (8192; the gather holds six
# knot rows per path). glibc maps a larger temporary afresh on each
# allocation, faulting in its pages, unless an earlier free of a larger
# block has raised its mmap threshold. Oracle solve at 25k paths and 50
# steps, median of 7 fresh processes on a 2-vCPU VM: 2048-row quadrature
# blocks with whole-node interpolation took 333 ms and 48.8k minor page
# faults (206 ms and 2.6k after a 10 MB free), this budget 190 ms and 1.2k
COLE_HOPF_BLOCK_BYTES = 384 << 10
# the oracle's knots are sqrt(total variance) / COLE_HOPF_KNOTS apart
COLE_HOPF_KNOTS = 128


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


def design_projector(phi: Array, node: int) -> tuple[Callable, bool]:
    """(project, rank_deficient) for the column span of the (P, k) design
    at grid node `node`.

    `project` maps a (P,) or (P, r) target to its fitted values. The fit
    solves the normal equations on the column-scaled Gram D^-1 Phi^T Phi
    D^-1, D the column norms (a zero column keeps scale 1), by one k x k
    eigendecomposition. Eigenvalues at or below eps * max(P, k) * lambda_max
    are dropped, which drops the directions past a scaled condition number
    of about 1 / sqrt(eps P), and `rank_deficient` is true when any were.
    With C the Gram's pseudo-inverse, a target t is fitted as
    f = Phi C Phi^T t and refined once, f + Phi C Phi^T (t - f) (the
    corrected seminormal equations), so the fitted values are those of the
    minimum-norm least-squares fit on the kept directions. A design whose
    Gram is not finite (a nan feature, or one too large to square) is
    refused with InvalidArgument.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        gram = phi.T @ phi
    if not np.all(np.isfinite(gram)):
        raise InvalidArgument(
            f"regression design at node {node} has a non-finite Gram: a "
            "basis feature is nan, or too large to square")
    scale = np.sqrt(np.diag(gram))
    scale[scale == 0] = 1.0
    lam, vec = np.linalg.eigh(gram / np.outer(scale, scale))
    keep = lam > np.finfo(float).eps * max(phi.shape) * lam[-1]
    half = vec[:, keep] / np.sqrt(lam[keep]) / scale[:, None]
    c = half @ half.T

    def project(target: Array) -> Array:
        fit = phi @ (c @ (phi.T @ target))
        return fit + phi @ (c @ (phi.T @ (target - fit)))

    return project, not np.all(keep)


@dataclass
class RegressionBasis:
    """Feature columns of the path prefix used per backward node.

    `columns(prefix)` returns the node's feature columns, each (P,) or a
    scalar, read from the node's prefix_at: its time prefix.times[-1], its
    states prefix.terminal of shape (P, d) with any d, and its running sup
    prefix.sup, which a basis that never reads it never derives.
    `projector` builds the least-squares projection onto a node's feature
    span with design_projector, afresh on each call. A node whose features are
    linearly dependent, or so nearly that design_projector drops a
    direction, gets the minimum-norm fit on the directions kept, and the
    projector says so; the basis itself holds no state.
    """

    columns: Callable[[PathPrefix], list]

    def design(self, paths: PathBundle, node: int) -> Array:
        """The node's (P, k) feature matrix, stored column-major, so each
        feature column is written contiguously; another layout could move
        the bits of design_projector's Gram."""
        with np.errstate(over="ignore"):  # design_projector refuses an inf
            cols = self.columns(prefix_at(paths, node))
        if len(cols) == 0:
            raise InvalidArgument("basis needs at least one feature")
        phi = np.empty((len(cols), paths.n_paths))
        for row, col in zip(phi, cols):
            row[:] = col
        return phi.T

    def projector(self, paths: PathBundle, node: int) -> tuple[Callable, bool]:
        """design_projector of the node's design."""
        return design_projector(self.design(paths, node), node)


def polynomial_basis(degree: int = 3, *,
                     include_sup: bool = True) -> RegressionBasis:
    """The constant, then x_j, x_j^2, ..., x_j^degree for each state
    component j, then the running sup. x_j^k is the running product
    x_j * x_j * ... * x_j (within 2 ulp of x_j ** k, which calls libm pow
    for k > 2)."""
    def columns(prefix):
        x = prefix.terminal
        cols = [np.ones(x.shape[0])]
        for xj in x.T:
            for k in range(degree):
                cols.append(xj if k == 0 else cols[-1] * xj)
        if include_sup:
            cols.append(prefix.sup)
        return cols
    return RegressionBasis(columns)


def _require_tree(paths: PathBundle) -> None:
    """Refuse a bundle whose noise is not bernoulli_bundle's enumeration of
    the tree on its grid."""
    if not paths.noise.enumerated:
        raise InvalidArgument("bundle is not a full enumerated tree")


@dataclass(frozen=True)
class TreeIndicatorBasis:
    """Saturated basis on the enumerated Bernoulli tree: one indicator per node.

    Requires the canonical bernoulli_bundle path ordering, where paths sharing
    the first `node` steps of an n-step tree form contiguous blocks of size
    2^(n-node), and refuses any other bundle; n is the bundle's step count.
    Its projector is the mean over each block, repeated over the block, in
    O(P) and without a design matrix.
    """

    def projector(self, paths: PathBundle, node: int) -> tuple[Callable, bool]:
        _require_tree(paths)
        block = 1 << (paths.grid.n_steps - node)

        def project(target: Array) -> Array:
            blocks = target.reshape(-1, block, *target.shape[1:])
            return np.repeat(blocks.mean(axis=1), block, axis=0)

        return project, False


Basis = RegressionBasis | TreeIndicatorBasis  # each has projector(paths, i)


@dataclass
class BsdeSolution:
    """Per-path, per-node (Y, Z) on the bundle it was solved on, whose paths,
    noise and grid diagnostics read, with solver provenance.

    Z is stored at nodes 0..n-1 (node n set to zero by convention); Y at the
    last node equals xi + h(path) exactly as evaluated.
    """

    bundle: PathBundle
    Y: Array  # (n+1, P)
    Z: Array  # (n+1, P, d)
    method: str
    trunc_level: float | None = None
    picard_iterations: int = 0
    residual: float = 0.0
    picard_residuals: list = field(default_factory=list)  # per node (backward)
    rank_deficient_nodes: tuple = ()  # sorted nodes with a rank-deficient fit
    se_nodes: Array | None = None
    path_sum: Array | None = None  # (P,) S of `_mc_se`; regression only

    def __post_init__(self):
        nodes, P, d = self.bundle.states.shape
        if self.Y.shape != (nodes, P) or self.Z.shape != (nodes, P, d):
            raise InvalidArgument("Y and Z do not match the bundle's shape")

    @property
    def grid(self) -> TimeGrid:
        return self.bundle.grid

    @property
    def y0(self) -> float:
        return float(np.mean(self.Y[0]))

    @property
    def y0_se(self) -> float:
        return float(self.se_nodes[0]) if self.se_nodes is not None else 0.0

    def y_star(self) -> Array:
        """Per-path running-sup of |Y| over all nodes, a running max over
        the node rows."""
        out = np.abs(self.Y[0])
        for row in self.Y[1:]:
            np.maximum(out, np.abs(row), out=out)
        return out


def _mc_se(Y: Array, S: Array) -> Array:
    """Per-node standard errors: the spread of Y_{t_i} across paths / sqrt(P).

    Computed once per solution, on its final Y. Node 0's fitted values are
    constant, so its error is taken from the path sum
    S = Y_n + sum_i (Y_i - E_i[Y_{i+1}]), summed over a split's stages. A
    projector that keeps the constants in its span preserves path means, so
    y0 is the path mean of S and its standard error is std(S) / sqrt(P). S
    is an i.i.d. sample when the driver does not read (y, z); when it does,
    the fitted values feed back into S and this value understates the
    seed-to-seed spread.
    """
    se = np.array([np.std(row) for row in Y]) / np.sqrt(Y.shape[1])
    se[0] = np.std(S) / np.sqrt(S.size)
    return se


def _regress_node(project: Callable[[Array], Array], target: Array,
                  dw: Array, dt: float) -> tuple[Array, Array]:
    """E_i[target] and Z_i = E_i[(target - E_i[target]) DW_i] / Dt_i."""
    ce = project(target)
    return ce, project((target - ce)[:, None] * dw) / dt


def _picard(ce: Array, dt: float, driver: Callable[[Array], Array],
            budget: int, tol: float) -> tuple[Array, list[float]]:
    """Fixed point of y = ce + dt * driver(y), Picard from y0 = ce; the
    node's z is bound in the driver."""
    y = ce
    residuals: list[float] = []
    grew = 0
    for _ in range(budget):
        y_new = ce + dt * driver(y)
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


def _spec_driver(spec: GeneratorSpec):
    """Node driver of f + g: (prefix, z) -> (y -> (P,)) at that z.

    g does not read y, so eval_driver evaluates it once per node on a g-only
    spec; each Picard iteration then makes one eval_driver call, whose g
    returns that node value, and eval_driver sums and checks f + g.
    """
    g_only = replace(spec, f=None)

    def node_driver(prefix: PathPrefix, z: Array):
        if spec.g is None:
            return lambda y: eval_driver(spec, prefix, y, z)
        g = eval_driver(g_only, prefix, np.zeros(len(z)), z)
        if spec.f is None:
            return lambda y: g
        frozen = replace(spec, g=lambda *_: g)
        return lambda y: eval_driver(frozen, prefix, y, z)
    return node_driver


def _backward_regression(
    method: str,
    paths: PathBundle,
    basis: Basis,
    stages: list[tuple[Array, Callable, TruncationSpec | None]],
    picard_budget: int,
    tol: float,
) -> BsdeSolution:
    """Shared backward induction: every stage in one sweep, one projector
    per node, built from `basis` when the sweep reaches that node and
    released when it leaves it.

    A stage is (terminal, node driver, trunc). Conditional expectations under
    P by regression, Z from the centered Delta-W representation with the
    increments that drove the bundle's paths. Each stage regresses its own
    y at the next node and runs its own Picard iteration at its (truncated) z,
    and (Y, Z) is the sum of the stages' values. The first stage's node
    driver is node_driver(prefix, z), with `prefix` the path up to node i;
    a later stage's is node_driver(prefix, z, y1, z1), where (y1, z1) sums
    the earlier stages' values at node i. The solution carries the worst
    Picard count and residual over the stages, the last stage's per-node
    residuals, the rank-deficient nodes, and se_nodes from the stages' path
    sums S of `_mc_se`, whose total is path_sum.
    """
    grid = paths.grid
    n = grid.n_steps
    Y = np.empty(paths.states.shape[:2])
    Z = np.zeros_like(paths.states)
    targets = [np.ascontiguousarray(t, float) for t, _, _ in stages]
    sums = [t.copy() for t in targets]
    Y[n] = sum(sums[1:], sums[0])
    logs: list[list[list[float]]] = [[] for _ in stages]
    deficient: list[int] = []
    for i in range(n - 1, -1, -1):
        dt = float(grid.steps[i])
        dw = paths.noise.increments[i]
        project, flat = basis.projector(paths, i)
        if flat:
            deficient.append(i)
        prefix = prefix_at(paths, i)
        summed: tuple = ()
        for k, (_, node_driver, trunc) in enumerate(stages):
            ce, z = _regress_node(project, targets[k], dw, dt)
            z_used = truncate_z(trunc, z) if trunc is not None else z
            drive = node_driver(prefix, z_used, *summed)
            del z_used  # the driver keeps what it reads of it
            y, residuals = _picard(ce, dt, drive, picard_budget, tol)
            logs[k].append(residuals)
            sums[k] += y - ce
            targets[k] = y
            del drive, ce  # before the next stage's temporaries
            summed = (y, z) if not summed else (summed[0] + y, summed[1] + z)
        Y[i], Z[i] = summed
    S = sum(sums[1:], sums[0])
    iters, resid = _picard_summary([res for log in logs for res in log])
    trunc = stages[-1][2]
    return BsdeSolution(
        paths, Y, Z, method,
        trunc_level=None if trunc is None else trunc.level,
        picard_iterations=iters, residual=resid,
        picard_residuals=logs[-1][::-1],
        rank_deficient_nodes=tuple(deficient[::-1]), se_nodes=_mc_se(Y, S),
        path_sum=S)


def solve_lsmc(
    spec: GeneratorSpec,
    paths: PathBundle,
    basis: Basis,
    trunc: TruncationSpec | None = None,
    picard_budget: int = 20,
    tol: float = 1e-9,
) -> BsdeSolution:
    """Backward regression Picard solver for the rho_N-truncated driver.

    One sweep, which builds one projector per node from `basis`.
    path_sum holds the per-path sum S of `_mc_se`, whose mean is y0.
    """
    whole = prefix_at(paths, paths.grid.n_steps)
    return _backward_regression(
        "lsmc", paths, basis,
        [(spec.terminal(whole), _spec_driver(spec), trunc)],
        picard_budget, tol)


def make_tree_bundle(depth: int, T: float) -> PathBundle:
    """X = W on the enumerated Bernoulli tree of `depth` steps on [0, T].

    The bundle carries its noise and model; for another model, pass it to
    simulate_forward with bernoulli_bundle(make_grid(T, depth)).
    """
    model = ModelSpec(x0=np.zeros(1), drift=lambda x: np.zeros_like(x),
                      sigma=lambda t: np.eye(1), mode="F1")
    return simulate_forward(model, bernoulli_bundle(make_grid(T, depth)))


def solve_tree_exact(
    spec: GeneratorSpec,
    paths: PathBundle,
    picard_budget: int = 20,
    tol: float = 1e-9,
) -> BsdeSolution:
    """Exact backward recursion on the full (non-recombining) Bernoulli tree.

    `paths` is a tree bundle (see make_tree_bundle), and a bundle whose
    noise is not bernoulli_bundle's is refused: its depth, horizon and model
    are the grid's and the bundle's own. Conditional expectations are
    exact pair averages over the up/down children; the driver is resolved by
    the same Picard fixed point as solve_lsmc so the two agree to round-off
    on tree-compatible configurations. d=1 only.
    """
    if paths.dim != 1:
        raise CapabilityMissing("tree oracle supports d=1 only")
    grid = paths.grid
    n = grid.n_steps
    _require_tree(paths)
    P = paths.n_paths
    node_driver = _spec_driver(spec)
    Y = np.empty(paths.states.shape[:2])
    Z = np.zeros_like(paths.states)
    Y[n] = spec.terminal(prefix_at(paths, n))
    S = Y[n].copy()
    # level `values` has 2^(i+1) entries after processing step i+1
    values = Y[n].copy()  # level n: one value per leaf
    residual_log: list[list[float]] = []
    for i in range(n - 1, -1, -1):
        pairs = values.reshape(-1, 2)
        ce = 0.5 * (pairs[:, 0] + pairs[:, 1])  # (2^i,)
        sqrt_dt = np.sqrt(grid.steps[i])
        z = ((pairs[:, 0] - pairs[:, 1]) / (2.0 * sqrt_dt))[:, None]
        # representative path rows for each level-i node (prefix evaluation)
        reps = np.arange(1 << i) * (P >> i)
        y, residuals = _picard(ce, float(grid.steps[i]),
                               node_driver(prefix_at(paths, i).rows(reps), z),
                               picard_budget, tol)
        residual_log.append(residuals)
        values = y
        S += np.repeat(y - ce, P >> i)
        Y[i] = np.repeat(y, P >> i)
        Z[i] = np.repeat(z, P >> i, axis=0)
    residual_log.reverse()
    max_iters, max_resid = _picard_summary(residual_log)
    return BsdeSolution(paths, Y, Z, "tree-exact",
                        picard_iterations=max_iters, residual=max_resid,
                        picard_residuals=residual_log, se_nodes=_mc_se(Y, S))


def _probe_driver(spec: GeneratorSpec, model: ModelSpec, grid: TimeGrid):
    """Yields (t, z, F) at each node time t of `grid`: the driver F at three
    (y, z) pairs, z != 0, on each of the states x0 and x0 +- 2 sigma
    sqrt(T), sigma the diffusion at (0, x0). Each node time is one
    eval_driver call on a one-node prefix, so no bundle is needed, and the
    cost is linear in the step count and the memory constant."""
    y = np.tile([1.0, -2.0, 0.5], 3)
    z = np.tile([[1.0], [0.5], [-3.0]], (3, model.dim))
    s = 2 * np.sqrt(grid.horizon) * np.abs(
        _sigma_at(model, 0.0, model.x0[None])).max()
    x = (model.x0 + np.repeat([0.0, s, -s], 3)[:, None])[None]
    for t in grid.nodes:
        yield t, z, eval_driver(spec, PathPrefix(np.array([t]), x), y, z)


def require_cole_hopf_model(model: ModelSpec) -> None:
    """Refuse a model other than the oracle's: zero drift, d=1, F1 sigma."""
    if model.dim != 1 or model.mode != "F1":
        raise CapabilityMissing("Cole-Hopf oracle requires d=1 and F1 diffusion")
    probe = np.asarray(model.drift(np.array([[0.0], [1.0], [-0.7]])), float)
    if np.any(probe != 0):
        raise CapabilityMissing("Cole-Hopf oracle requires zero drift")


def require_cole_hopf(spec: GeneratorSpec, model: ModelSpec,
                      grid: TimeGrid) -> None:
    """Refuse an equation other than the oracle's on `grid` with
    CapabilityMissing: a model that require_cole_hopf_model refuses, a
    driver F that differs from |z|^2/2 beyond round-off wherever
    _probe_driver reads it, or xi + h that cannot be read on
    terminal_prefix, as when they read the running sup."""
    require_cole_hopf_model(model)
    for t, z, F in _probe_driver(spec, model, grid):
        half = 0.5 * z[:, 0] ** 2
        if np.any(np.abs(F - half) > 1e-12 * (1.0 + half)):
            raise CapabilityMissing("Cole-Hopf oracle solves only F = "
                                    f"|z|^2/2; F differs at t = {t}")
    try:
        spec.terminal(terminal_prefix(0.0, model.x0))
    except CapabilityMissing as e:
        raise CapabilityMissing("Cole-Hopf oracle reads xi + h at the "
                                f"terminal state alone: {e}") from None


def _blocks(size: int, per_block: int) -> list[slice]:
    """Consecutive slices of max(1, per_block) indices that cover range(size)."""
    per_block = max(1, per_block)
    return [slice(lo, lo + per_block) for lo in range(0, size, per_block)]


def _quadrature(terminal_fn: Callable[[Array], Array], x: Array, sd: float,
                u: Array, logw: Array, node: int) -> Array:
    """Gauss-Hermite quadrature of E[e^{xi(x + sd U)}] in log domain, U
    standard normal, COLE_HOPF_BLOCK_BYTES // (8 u.size) points x at a time.

    Returns rows (y, total, s1, s2) over x: y = log E[e^xi] and, with e_q
    the max-shifted weighted terms at node u_q, total = sum e_q, s1 = sum
    e_q u_q and s2 = sum e_q u_q^2. Stein's identity on the same terms gives
    dY/dx = s1 / (sd total) and d2Y/dx2 = (s2 / total - 1) / sd^2 - (dY/dx)^2.
    Terms that do not fall toward both outermost nodes put the integrand's
    mass at or past them, as when E[e^xi] = inf, and are refused with
    OracleOverflow; with one or two nodes nothing is checked. At three
    points the test can refuse a finite moment: xi = x with unit variance
    is refused, although E[e^xi] = e^{x + 1/2}.
    """
    out = np.empty((4, x.size))
    for at in _blocks(x.size, COLE_HOPF_BLOCK_BYTES // (8 * u.size)):
        pts = x[at, None] + sd * u
        xi = np.asarray(terminal_fn(pts.reshape(-1)), float)
        e = xi.reshape(pts.shape) + logw  # fresh array, updated in place
        m = _finite_max(e, 1)
        e -= m
        np.exp(e, out=e)
        total = e.sum(axis=1)
        if u.size > 2 and np.any((e[:, 0] > e[:, 1]) | (e[:, -1] > e[:, -2])):
            raise OracleOverflow(
                "Cole-Hopf integrand not resolved by the quadrature: its "
                "terms do not fall toward the outermost nodes, so its mass "
                f"lies at or past them, at node {node}")
        e *= u
        out[:, at] = (np.log(total) + m[:, 0], total, e.sum(axis=1),
                      (e * u).sum(axis=1))
    return out


def _hermite(knots: Array, h: float, k: Array, t: Array) -> Array:
    """Cubic Hermite interpolants at offset t in [0, 1) of cell k, which runs
    from knot k to knot k + 1, of the knot rows (v, dv/dx, d2v/dx2): row 0 of
    the result interpolates v with slopes dv/dx, row 1 dv/dx with slopes
    d2v/dx2. One gather from a (6, cells) table of both ends' rows serves
    both interpolants, whose products associate as
    v_k (1 + 2t) s s + v_{k+1} t t (3 - 2t) + h t s (v'_k s - v'_{k+1} t)
    with s = 1 - t."""
    ends = np.take(np.concatenate([knots[:, :-1], knots[:, 1:]]), k, axis=1)
    lo, hi = ends[:3], ends[3:]
    s = 1.0 - t
    return (lo[:2] * (1.0 + 2.0 * t) * s * s + hi[:2] * t * t * (3.0 - 2.0 * t)
            + h * t * s * (lo[1:] * s - hi[1:] * t))


def solve_cole_hopf(
    terminal_fn: Callable[[Array], Array],
    paths: PathBundle,
    n_quad: int = 96,
) -> BsdeSolution:
    """Closed-form oracle for the driver |z|^2/2: Y_t = log E_t[exp(xi)].

    The bundle's model must pass `require_cole_hopf_model`; `terminal_fn`
    maps a terminal state to xi. A rule of fewer than 2 points is refused
    with InvalidArgument. With s the remaining variance, Y =
    log E[e^{xi(x + sqrt(s) U)}] and Z = sigma dY/dx by `_quadrature`; a
    node with no remaining variance has Y = xi(x), Z = 0.

    Y and Z at a node are functions of the state, so the quadrature runs at
    the knots x0 + j h (j an integer, h fixed by the grid and the model) of
    the cells the node's states occupy, and each path reads cubic Hermite
    interpolants of Y (slopes dY/dx) and of dY/dx (slopes d2Y/dx2). A path's
    values depend on its own state alone, never on the other paths, the
    host or the block sizes.

    No temporary grows with the path count: the quadrature runs a block of
    knots, and the interpolation and the terminal values a block of paths,
    at a time, each sized by COLE_HOPF_BLOCK_BYTES. The knot table grows
    only with the range of the node's states.
    """
    if n_quad < 2:
        raise InvalidArgument(
            f"Cole-Hopf quadrature needs at least 2 points, got {n_quad}")
    model = paths.model
    require_cole_hopf_model(model)
    grid = paths.grid
    n = grid.n_steps
    sig = np.array([_sigma_at(model, t, None).item() for t in grid.nodes[:-1]])
    # remaining integrated variance from each node to T
    tail_var = np.concatenate(
        [np.cumsum((sig ** 2 * grid.steps)[::-1])[::-1], [0.0]])
    u, w = np.polynomial.hermite_e.hermegauss(n_quad)  # weight e^{-u^2/2}
    logw = np.log(w) - 0.5 * np.log(2 * np.pi)
    h = np.sqrt(tail_var[0]) / COLE_HOPF_KNOTS
    x0 = float(np.asarray(model.x0).reshape(-1)[0])
    Y = np.empty(paths.states.shape[:2])
    Z = np.zeros_like(paths.states)
    path_blocks = _blocks(paths.n_paths, COLE_HOPF_BLOCK_BYTES // 48)
    for i, x, y_row, z_row in zip(range(n + 1), paths.states[:, :, 0], Y,
                                  Z[:, :, 0]):
        if tail_var[i] <= 0:
            for at in path_blocks:
                y_row[at] = terminal_fn(x[at])
            continue
        sd = np.sqrt(tail_var[i])
        # a state's cell is monotone in it: the lowest and highest states'
        # cells are the node's first and last
        first, last = np.floor((np.array([x.min(), x.max()]) - x0) / h)
        y, total, s1, s2 = _quadrature(
            terminal_fn, x0 + h * np.arange(first, last + 2), sd, u, logw, i)
        dy = s1 / (sd * total)
        knots = np.stack([y, dy, (s2 / total - 1) / sd ** 2 - dy * dy])
        for at in path_blocks:
            cell = np.floor((x[at] - x0) / h)
            t = (x[at] - x0) / h - cell
            y_row[at], z_row[at] = _hermite(
                knots, h, (cell - first).astype(np.intp), t)
            z_row[at] *= sig[i]
    if not all(np.isfinite(row).all() for row in Y):
        raise OracleOverflow("exponential moment overflow in Cole-Hopf oracle")
    return BsdeSolution(paths, Y, Z, "cole-hopf", se_nodes=np.zeros(n + 1))


def _remainder_driver(full: Callable, first_driver: Callable) -> Callable:
    """A split's second-stage node driver, (Y, Z) - (Y1, Z1) around the first
    stage's node values: F(Y1 + y, Z1 + z) - F1(Y1, Z1), with F the full
    node driver and F1 the first stage's, F1(Y1, Z1) evaluated once per
    node."""
    def node_driver(prefix, z, y1, z1):
        frozen = first_driver(prefix, z1)(y1)
        drive = full(prefix, z1 + z)
        return lambda y: drive(y1 + y) - frozen
    return node_driver


def solve_decomposed_additive(
    spec: GeneratorSpec,
    paths: PathBundle,
    basis: Basis,
    trunc: TruncationSpec | None = None,
    picard_budget: int = 20,
    tol: float = 1e-9,
) -> BsdeSolution:
    """Two-stage additive construction for a bundle with an (F1) model.

    Stage 1 solves the path-dependent part (terminal h, driver g); stage 2
    solves the bounded remainder (terminal xi) under P, with the driver
    F(Y1 + y, Z1 + z) - g(Z1), whose z-increment of g holds the
    Girsanov drift z.grad_z g of the paper's change of measure. Both stages
    run in one sweep and read one projector per node, built from `basis`.
    """
    if paths.model.mode != "F1":
        raise InvalidArgument("additive decomposition requires an (F1) model")
    stage1 = replace(spec, f=None, xi=None)
    first_driver = _spec_driver(stage1)
    whole = prefix_at(paths, paths.grid.n_steps)
    return _backward_regression(
        "decomposed-additive", paths, basis,
        [(stage1.terminal(whole), first_driver, trunc),
         (replace(spec, h=None).terminal(whole),
          _remainder_driver(_spec_driver(spec), first_driver), trunc)],
        picard_budget, tol)


def solve_decomposed_malliavin(
    spec: GeneratorSpec,
    paths: PathBundle,
    basis: Basis,
    trunc: TruncationSpec | None = None,
    picard_budget: int = 20,
    tol: float = 1e-9,
) -> BsdeSolution:
    """Two-stage (R,S) + (U,V) construction, the paper's for the (F2)
    setting; it reads the bundle's model whatever its mode and refuses none.

    Stage 1 solves the z-free Lipschitz equation R_t = xi_total +
    int F(prefix, R, 0) ds - int S dW, F(prefix, R, 0) = f + g(., 0),
    whose driver reads y only; its regression still gives S, from the
    centered Delta-W representation. Stage 2 solves the residual BSDE for
    (U, V) with truncated LSMC. Returns (Y, Z) = (U+R, V+S). Both stages
    run in one sweep and read one projector per node, built from `basis`.
    """
    full = _spec_driver(spec)

    def z_free(prefix, z):  # F(prefix, y, 0), the first equation's driver
        return full(prefix, np.zeros_like(z))

    return _backward_regression(
        "decomposed-malliavin", paths, basis,
        [(spec.terminal(prefix_at(paths, paths.grid.n_steps)), z_free, None),
         (np.zeros(paths.n_paths), _remainder_driver(full, z_free), trunc)],
        picard_budget, tol)
