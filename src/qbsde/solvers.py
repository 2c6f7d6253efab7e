"""Backward solvers: exact tree oracle, regression LSMC, closed forms and the
two decomposition constructions (additive split and z-free/residual split)."""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .engine import (
    Array,
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
    SolverDiverged,
)
from .generators import (
    GeneratorSpec,
    PathPrefix,
    TruncationSpec,
    eval_driver,
    grad_z,  # unused here; benchmark/layertrace.py wraps solvers.grad_z
    prefix_at,
    truncate_z,
)

# paths in flight across all of the Cole-Hopf oracle's jobs: with w workers
# each job takes COLE_HOPF_CHUNK // w rows, so the jobs' temporaries, about
# 2.6 MB per 1024 rows at 96 nodes, peak near the same bytes whatever the CPU
# count (with two 4096-row jobs live the oracle workload's peak RSS rose 13%)
COLE_HOPF_CHUNK = 2048
# fewest rows an oracle job takes, which caps its workers at
# COLE_HOPF_CHUNK // COLE_HOPF_MIN_ROWS; a smaller job would spend a larger
# share of its time in Python, holding the GIL the other workers wait for
COLE_HOPF_MIN_ROWS = 256


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
    fit, and the projector says so; the basis itself holds no state.
    """

    features: list[Callable[[float, Array, Array], Array]]
    name: str = "custom"

    def __post_init__(self):
        if not self.features:
            raise InvalidArgument("basis needs at least one feature")

    def design(self, paths: PathBundle, node: int) -> Array:
        t = float(paths.grid.nodes[node])
        x = paths.states[:, node, :]
        sup = paths.running_sup[:, node]
        cols = [np.asarray(f(t, x, sup), float) for f in self.features]
        return np.column_stack(cols)

    def projector(self, paths: PathBundle, node: int) -> tuple[Callable, bool]:
        """(project, rank_deficient) for the node's feature span.

        `project` maps a (P,) or (P, r) target to its fitted values. One thin
        SVD of the design per node; singular values at or below lstsq's
        cutoff eps * max(P, k) * s_max are dropped, so the fitted values are
        those of the minimum-norm least-squares fit. `rank_deficient` is true
        when any were dropped.
        """
        phi = self.design(paths, node)
        u, s, _ = np.linalg.svd(phi, full_matrices=False)
        cutoff = np.finfo(float).eps * max(phi.shape) * s[0]
        rank = int(np.count_nonzero(s > cutoff))
        u = u[:, :rank]
        return (lambda target: u @ (u.T @ target)), rank < phi.shape[1]


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


def _require_tree(paths: PathBundle, depth: int) -> None:
    """Refuse a bundle whose noise is not bernoulli_bundle's enumeration of
    a `depth`-step tree."""
    if not paths.noise.enumerated or paths.grid.n_steps != depth:
        raise InvalidArgument("bundle is not a full enumerated tree")


class TreeIndicatorBasis(RegressionBasis):
    """Saturated basis on the enumerated Bernoulli tree: one indicator per node.

    Requires the canonical bernoulli_bundle path ordering, where paths sharing
    the first `node` steps form contiguous blocks of size 2^(depth-node), and
    refuses any other bundle. The basis owns its projection: the mean over
    each block, repeated over the block, in O(P) and without a design matrix
    (the inherited `design` holds only the constant feature).
    """

    def __init__(self, depth: int):
        super().__init__([lambda t, x, s: np.ones(x.shape[0])],
                         name=f"tree-indicators-{depth}")
        self.depth = depth

    def projector(self, paths: PathBundle, node: int) -> tuple[Callable, bool]:
        _require_tree(paths, self.depth)
        P = paths.n_paths
        block = 1 << (self.depth - node)

        def project(target: Array) -> Array:
            blocks = target.reshape(P // block, block, *target.shape[1:])
            return np.repeat(blocks.mean(axis=1), block, axis=0)

        return project, False


class NodeFits:
    """A basis's node projectors on one bundle, built once per node and served
    to every regression solver over that bundle.

    `readers` is how many solvers will read each node; a solver reads each
    node once, a split too, since its stages share one sweep. A projector is
    held only while a later reader will still ask for it: the last reader
    releases it, and with one reader nothing is held. A held projector costs
    P * k * 8 bytes for a k-column design: its U, cut to the rank (at a
    rank-deficient node the cut is a view that keeps all k columns). A reader
    beyond the declared count still gets the right projector, rebuilt.
    Another bundle is refused.
    """

    def __init__(self, basis: RegressionBasis, paths: PathBundle, readers: int):
        self.basis = basis
        self.paths = paths
        self._readers = [readers] * paths.grid.n_steps  # readers still to come
        self._held: dict[int, tuple[Callable, bool]] = {}

    def __len__(self) -> int:
        """Number of node projectors held."""
        return len(self._held)

    def projector(self, paths: PathBundle, node: int) -> tuple[Callable, bool]:
        """The basis's (project, rank_deficient) at `node`, built at most once
        while held."""
        if paths is not self.paths:
            raise InvalidArgument("node fits were built on another path bundle")
        fit = self._held.pop(node, None)
        if fit is None:
            fit = self.basis.projector(paths, node)
        self._readers[node] -= 1
        if self._readers[node] > 0:
            self._held[node] = fit
        return fit


@dataclass
class BsdeSolution:
    """Per-path, per-node (Y, Z) on the bundle it was solved on, whose paths,
    noise and grid diagnostics read, with solver provenance.

    Z is stored at nodes 0..n-1 (node n set to zero by convention); Y at the
    last node equals xi + h(path) exactly as evaluated.
    """

    bundle: PathBundle
    Y: Array  # (P, n+1)
    Z: Array  # (P, n+1, d)
    method: str
    trunc_level: float | None = None
    picard_iterations: int = 0
    residual: float = 0.0
    picard_residuals: list = field(default_factory=list)  # per node (backward)
    rank_deficient_nodes: tuple = ()  # sorted nodes with a rank-deficient fit
    se_nodes: Array | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        P, nodes, d = self.bundle.states.shape
        if self.Y.shape != (P, nodes) or self.Z.shape != (P, nodes, d):
            raise InvalidArgument("Y and Z do not match the bundle's shape")

    @property
    def grid(self) -> TimeGrid:
        return self.bundle.grid

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

    Computed once per solution, on its final Y. Node 0's fitted values are
    constant, so its error is taken from the path sum
    S = Y_n + sum_i (Y_i - E_i[Y_{i+1}]), summed over a split's stages. A
    projector that keeps the constants in its span preserves path means, so
    y0 is the path mean of S and its standard error is std(S) / sqrt(P). S
    is an i.i.d. sample when the driver does not read (y, z); when it does,
    the fitted values feed back into S and this value understates the
    seed-to-seed spread.
    """
    se = np.std(Y, axis=0) / np.sqrt(Y.shape[0])
    se[0] = np.std(S) / np.sqrt(S.size)
    return se


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


def _spec_driver(spec: GeneratorSpec, grid: TimeGrid):
    """Node driver of f + g: (node, prefix) -> ((y, z) -> (P,))."""
    def node_driver(i: int, prefix: PathPrefix):
        t = float(grid.nodes[i])
        return lambda y, z: eval_driver(spec, t, prefix, y, z)
    return node_driver


def _backward_regression(
    method: str,
    paths: PathBundle,
    fits: RegressionBasis | NodeFits,
    stages: list[tuple[Array, Callable, TruncationSpec | None]],
    picard_budget: int,
    tol: float,
) -> BsdeSolution:
    """Shared backward induction: every stage in one sweep, one projector
    per node from `fits`.

    A stage is (terminal, node driver, trunc). Conditional expectations under
    P by regression, Z from the centered Delta-W representation with the
    increments that drove the bundle's paths. Each stage regresses its own
    rolling target and runs its own Picard iteration, and (Y, Z) is the sum
    of the stages' values. The first stage's node driver is
    node_driver(i, prefix); a later stage's is node_driver(i, prefix, y, z),
    where (y, z) sums the earlier stages' values at node i. The solution
    carries the worst Picard count and residual over the stages, the last
    stage's per-node residuals, the rank-deficient nodes, and se_nodes from
    the stages' path sums S of `_mc_se`, whose total is in extras["path_sum"].
    """
    grid = paths.grid
    n = grid.n_steps
    P, _, d = paths.states.shape
    Y = np.empty((P, n + 1))
    Z = np.zeros((P, n + 1, d))
    # each stage's target alternates between the two columns of one (P, 2)
    # array, so it is read as a strided column, as a column of Y would be:
    # BLAS then takes the same route and the fitted values carry the same bits
    rolling = [np.empty((P, 2)) for _ in stages]
    for r, (terminal, _, _) in zip(rolling, stages):
        r[:, n % 2] = terminal
    sums = [r[:, n % 2].copy() for r in rolling]
    Y[:, n] = sum(sums[1:], sums[0])
    logs: list[list[list[float]]] = [[] for _ in stages]
    deficient: list[int] = []
    for i in range(n - 1, -1, -1):
        dt = float(grid.steps[i])
        dw = paths.noise.increments[:, i, :]
        project, flat = fits.projector(paths, i)
        if flat:
            deficient.append(i)
        prefix = prefix_at(paths, i)
        summed: tuple = ()
        for (_, node_driver, trunc), r, S, log in zip(stages, rolling, sums,
                                                      logs):
            drive = node_driver(i, prefix, *summed)
            ce, z = _regress_node(project, r[:, (i + 1) % 2], dw, dt)
            z_used = truncate_z(trunc, z) if trunc is not None else z
            y, residuals = _picard(ce, z_used, dt, drive, picard_budget, tol)
            log.append(residuals)
            S += y - ce
            r[:, i % 2] = y
            del drive, ce, z_used  # before the next stage's temporaries
            summed = (y, z) if not summed else (summed[0] + y, summed[1] + z)
        Y[:, i], Z[:, i, :] = summed
    del project, z, y, summed, rolling  # before _mc_se's temporaries
    S = sum(sums[1:], sums[0])
    iters, resid = _picard_summary([res for log in logs for res in log])
    trunc = stages[-1][2]
    return BsdeSolution(
        paths, Y, Z, method,
        trunc_level=None if trunc is None else trunc.level,
        picard_iterations=iters, residual=resid,
        picard_residuals=logs[-1][::-1],
        rank_deficient_nodes=tuple(deficient[::-1]), se_nodes=_mc_se(Y, S),
        extras={"path_sum": S})


def solve_lsmc(
    spec: GeneratorSpec,
    paths: PathBundle,
    basis: RegressionBasis | NodeFits,
    trunc: TruncationSpec | None = None,
    picard_budget: int = 20,
    tol: float = 1e-9,
) -> BsdeSolution:
    """Backward regression Picard solver for the rho_N-truncated driver.

    One sweep; `basis` may be a NodeFits store shared with other solvers on
    the bundle. extras["path_sum"] holds the per-path sum S of `_mc_se`,
    whose mean is y0.
    """
    whole = prefix_at(paths, paths.grid.n_steps)
    return _backward_regression(
        "lsmc", paths, basis,
        [(spec.terminal(whole), _spec_driver(spec, paths.grid), trunc)],
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
    _require_tree(paths, n)
    P = paths.n_paths
    node_driver = _spec_driver(spec, grid)
    Y = np.empty((P, n + 1))
    Z = np.zeros((P, n + 1, 1))
    Y[:, n] = spec.terminal(prefix_at(paths, n))
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
        y, residuals = _picard(ce, z, float(grid.steps[i]),
                               node_driver(i, rep_prefix), picard_budget, tol)
        residual_log.append(residuals)
        values = y
        S += np.repeat(y - ce, P >> i)
        Y[:, i] = np.repeat(y, P >> i)
        Z[:, i, 0] = np.repeat(z[:, 0], P >> i)
    residual_log.reverse()
    max_iters, max_resid = _picard_summary(residual_log)
    return BsdeSolution(paths, Y, Z, "tree-exact",
                        picard_iterations=max_iters, residual=max_resid,
                        picard_residuals=residual_log, se_nodes=_mc_se(Y, S))


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask (all CPUs where there is none)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(body: Callable, jobs: list[tuple], workers: int) -> None:
    """Call body(*job) once for every job, on up to `workers` threads.

    The calling thread works too, so only workers - 1 threads start, and none
    with one worker. Threads take jobs in list order from a shared queue, and
    a failed job stops the queue. Every job before it has then been taken and
    runs to its end, so the lowest-indexed failure is the first failing job
    of the list whatever the schedule; its exception is re-raised here once
    every thread has finished.
    """
    queue = iter(enumerate(jobs))
    lock = threading.Lock()
    errors: list[tuple[int, BaseException]] = []

    def work():
        while not errors:
            with lock:
                k, job = next(queue, (None, None))
            if job is None:
                return
            try:
                body(*job)
            except BaseException as exc:
                errors.append((k, exc))

    helpers = [threading.Thread(target=work, daemon=True)
               for _ in range(min(workers, len(jobs)) - 1)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]


def solve_cole_hopf(
    terminal_fn: Callable[[Array], Array],
    paths: PathBundle,
    n_quad: int = 96,
) -> BsdeSolution:
    """Closed-form oracle for the driver |z|^2/2: Y_t = log E_t[exp(xi)].

    Requires the bundle's model to have zero drift, d=1 and time-only (F1)
    diffusion; `terminal_fn` maps a terminal state to xi. With s the
    remaining variance and U standard normal, one Gauss-Hermite quadrature per
    node gives Y = log E[e^{xi(x + sqrt(s) U)}] in log domain and, by Stein's
    identity on the same values, Z = sigma E[U e^xi] / (sqrt(s) E[e^xi]).
    A node with no remaining variance has Y = xi(x) and Z = 0. An integrand
    whose weighted terms do not fall toward both outermost quadrature nodes
    has its peak at or past them, as when E[e^xi] = inf, and is refused with
    OracleOverflow; with one or two nodes there is no inner neighbour and
    nothing is checked.

    Each (node, row block) is an independent job, and the jobs run on the
    CPUs this process may use, at most COLE_HOPF_CHUNK // COLE_HOPF_MIN_ROWS
    of them, with COLE_HOPF_CHUNK paths in flight in all. Every job writes
    only its own rows and every step is row-wise, so the output does not
    depend on the CPU count, the block size or the schedule.
    """
    model = paths.model
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

    workers = min(_usable_cpus(), COLE_HOPF_CHUNK // COLE_HOPF_MIN_ROWS)
    size = COLE_HOPF_CHUNK // workers
    Y = np.empty((P, n + 1))
    Z = np.zeros((P, n + 1, 1))

    def block(i: int, lo: int):
        # writes rows lo:lo+size of node i and nothing else
        rows = slice(lo, lo + size)
        x = paths.states[rows, i, 0]
        if tail_var[i] <= 0:
            Y[rows, i] = np.asarray(terminal_fn(x), float)
            return
        sd = np.sqrt(tail_var[i])
        pts = x[:, None] + sd * u
        xi = np.asarray(terminal_fn(pts.reshape(-1)), float)
        e = xi.reshape(pts.shape) + logw  # fresh array, updated in place
        m = _finite_max(e, 1)
        e -= m
        np.exp(e, out=e)
        total = e.sum(axis=1)
        if n_quad > 2 and np.any((e[:, 0] > e[:, 1]) | (e[:, -1] > e[:, -2])):
            raise OracleOverflow(
                "Cole-Hopf integrand not resolved by the quadrature: its "
                "terms do not fall toward the outermost nodes, so its mass "
                f"lies at or past them, at node {i}")
        Y[rows, i] = np.log(total) + m[:, 0]
        e *= u
        Z[rows, i, 0] = sig[i] * e.sum(axis=1) / (sd * total)

    _run_jobs(block, [(i, lo) for i in range(n + 1)
                      for lo in range(0, P, size)], workers)
    if not np.all(np.isfinite(Y)):
        raise OracleOverflow("exponential moment overflow in Cole-Hopf oracle")
    return BsdeSolution(paths, Y, Z, "cole-hopf", se_nodes=np.zeros(n + 1))


def solve_linear(
    spec: GeneratorSpec,
    paths: PathBundle,
    basis: RegressionBasis | NodeFits,
    a: float,
) -> BsdeSolution:
    """Closed form Y_t = e^{a(T-t)} E_t[xi] for the driver F(y, z) = a*y.

    E_t[xi] is estimated by regressing xi itself on the basis at each node;
    Z by the centered Delta-W representation scaled the same way. Any other
    F is refused: F - a*y must vanish to round-off at node 0 at a few z != 0.
    """
    grid = paths.grid
    n = grid.n_steps
    P = paths.n_paths
    y = np.resize([1.0, -2.0, 0.5], P)
    z = np.resize([1.0, 0.5, -3.0], (P, 1)) * np.ones(paths.dim)
    F = eval_driver(spec, 0.0, prefix_at(paths, 0), y, z)
    if np.any(np.abs(F - a * y) > 1e-12 * (1.0 + np.abs(a * y))):
        raise InvalidArgument(f"solve_linear solves only F = a*y, a = {a}")
    xi = spec.terminal(prefix_at(paths, n))
    Y = np.empty((P, n + 1))
    Z = np.zeros((P, n + 1, paths.dim))
    Y[:, n] = xi
    scale = np.exp(a * (grid.horizon - grid.nodes))
    deficient = []
    for i in range(n - 1, -1, -1):
        project, flat = basis.projector(paths, i)
        if flat:
            deficient.append(i)
        ce, z = _regress_node(project, xi, paths.noise.increments[:, i, :],
                              float(grid.steps[i]))
        Y[:, i] = scale[i] * ce
        Z[:, i, :] = scale[i] * z
    return BsdeSolution(paths, Y, Z, "linear-closed-form",
                        rank_deficient_nodes=tuple(deficient[::-1]),
                        se_nodes=_mc_se(Y, scale[0] * xi), extras={"a": a})


def _remainder_driver(spec: GeneratorSpec, grid: TimeGrid,
                      first_driver: Callable) -> Callable:
    """A split's second-stage node driver, (Y, Z) - (Y1, Z1) around the first
    stage's node values: F(Y1 + y, Z1 + z) - F1(Y1, Z1), with F the full
    driver and F1 the first stage's node driver, F1(Y1, Z1) evaluated once
    per node."""
    def node_driver(i, prefix, y1, z1):
        t = float(grid.nodes[i])
        frozen = first_driver(i, prefix)(y1, z1)
        return lambda y, z: eval_driver(spec, t, prefix, y1 + y, z1 + z) - frozen
    return node_driver


def solve_decomposed_additive(
    spec: GeneratorSpec,
    paths: PathBundle,
    basis: RegressionBasis | NodeFits,
    trunc: TruncationSpec | None = None,
    picard_budget: int = 20,
    tol: float = 1e-9,
) -> BsdeSolution:
    """Two-stage additive construction for a bundle with an (F1) model.

    Stage 1 solves the path-dependent part (terminal h, driver g); stage 2
    solves the bounded remainder (terminal xi) under P, with the driver
    F(Y1 + y, Z1 + z) - g(Y1, Z1), whose z-increment of g holds the
    Girsanov drift z.grad_z g of the paper's change of measure. Both stages
    run in one sweep and read one projector per node.
    """
    if paths.model.mode != "F1":
        raise InvalidArgument("additive decomposition requires an (F1) model")
    grid = paths.grid
    stage1 = replace(spec, f=None, grad_z_f=None, xi=None)
    first_driver = _spec_driver(stage1, grid)
    whole = prefix_at(paths, grid.n_steps)
    return _backward_regression(
        "decomposed-additive", paths, basis,
        [(stage1.terminal(whole), first_driver, trunc),
         (replace(spec, h=None).terminal(whole),
          _remainder_driver(spec, grid, first_driver), trunc)],
        picard_budget, tol)


def solve_decomposed_malliavin(
    spec: GeneratorSpec,
    paths: PathBundle,
    basis: RegressionBasis | NodeFits,
    trunc: TruncationSpec | None = None,
    picard_budget: int = 20,
    tol: float = 1e-9,
) -> BsdeSolution:
    """Two-stage (R,S) + (U,V) construction for the (F2) setting.

    Stage 1 solves the z-free Lipschitz equation R_t = xi_total +
    int f(s,R_s,0) ds - int S dW (regression in y only); stage 2 solves the
    residual BSDE for (U, V) with truncated LSMC. Returns (Y, Z) = (U+R, V+S)
    and reports the empirical sup of |S| (bounded by theory), read at each
    node from stage 1's z. Both stages run in one sweep and read one
    projector per node."""
    grid = paths.grid
    full = _spec_driver(spec, grid)

    def z_free(i, prefix):  # F(t, y, 0), the first equation's driver
        drive = full(i, prefix)
        return lambda y, z: drive(y, np.zeros_like(np.atleast_2d(z)))

    remainder = _remainder_driver(spec, grid, z_free)
    # one (P, n) array of |S|, filled at each node from stage 1's z there
    s_norms = np.empty((paths.n_paths, grid.n_steps))

    def second(i, prefix, r, s):
        s_norms[:, i] = np.linalg.norm(s, axis=1)
        return remainder(i, prefix, r, s)

    sol = _backward_regression(
        "decomposed-malliavin", paths, basis,
        [(spec.terminal(prefix_at(paths, grid.n_steps)), z_free, None),
         (np.zeros(paths.n_paths), second, trunc)], picard_budget, tol)
    # the raw sup is dominated by basis extrapolation at extreme states; the
    # high quantile is the statistic that is stable under path-count growth
    sol.extras["s_empirical_sup"] = float(np.max(s_norms))
    sol.extras["s_q999"] = float(np.quantile(s_norms, 0.999,
                                             overwrite_input=True))
    return sol
