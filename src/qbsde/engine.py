"""Time grids, Brownian sampling and forward SDE simulation.

All randomness is counter-based: paths come in blocks of ``NOISE_BLOCK``
rows, and block ``b`` draws from one Philox stream at counter offset
``b << 128`` under the master seed. Path ``i`` is row ``i % NOISE_BLOCK`` of
block ``i // NOISE_BLOCK``, so the first P paths of any larger batch are
bit-identical to the P-path batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidArgument, ResourceLimit, SimulationDiverged

Array = np.ndarray

# central-difference step of the tangent's Jacobians, scaled by (1 + |x|)
FD_STEP = 1e-5

# paths per Philox counter block in sample_brownian
NOISE_BLOCK = 4096

# deepest enumerated Bernoulli tree (2^22 paths)
MAX_TREE_DEPTH = 22


@dataclass(frozen=True)
class TimeGrid:
    """Partition 0 = t_0 < ... < t_n = T of the solve horizon."""

    nodes: Array

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise InvalidArgument("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise InvalidArgument("first node must be exactly 0")
        steps = np.diff(nodes)
        if np.any(steps <= 0):
            raise InvalidArgument("nodes must be strictly increasing")

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def steps(self) -> Array:
        return np.diff(self.nodes)


def make_grid(T: float, n_steps: int) -> TimeGrid:
    """Uniform grid on [0, T] with n_steps steps."""
    if not (T > 0):
        raise InvalidArgument(f"T must be positive, got {T}")
    if not (isinstance(n_steps, (int, np.integer)) and n_steps >= 1):
        raise InvalidArgument(f"n_steps must be a positive integer, got {n_steps}")
    return TimeGrid(np.linspace(0.0, float(T), int(n_steps) + 1))


@dataclass(frozen=True)
class BrownianBundle:
    """Simulated Brownian increments, shape (paths, steps, d).

    `enumerated` is set by bernoulli_bundle alone: the increments are then
    every +-sqrt(Delta) path in its canonical order, which the tree solvers
    require.
    """

    grid: TimeGrid
    increments: Array
    seed: int
    enumerated: bool = False

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def dim(self) -> int:
        return self.increments.shape[2]


def sample_brownian(grid: TimeGrid, d: int, n_paths: int, seed: int) -> BrownianBundle:
    """Draw centered Gaussian increments with per-step variance Delta_i.

    Deterministic in (grid, d, seed) and prefix-stable in n_paths: block b
    of NOISE_BLOCK paths is filled row by row from one Philox generator at
    counter b << 128, and a partial last block draws only its own rows.
    """
    if d < 1 or n_paths < 1:
        raise InvalidArgument("d and n_paths must be positive")
    n = grid.n_steps
    scale = np.sqrt(grid.steps)[:, None]  # (n, 1)
    out = np.empty((n_paths, n, d))
    for b, lo in enumerate(range(0, n_paths, NOISE_BLOCK)):
        rows = out[lo:lo + NOISE_BLOCK]
        gen = np.random.Generator(np.random.Philox(key=seed, counter=b << 128))
        gen.standard_normal(out=rows)
        rows *= scale
    out.setflags(write=False)
    return BrownianBundle(grid, out, int(seed))


def bernoulli_bundle(grid: TimeGrid) -> BrownianBundle:
    """Enumerate all 2^n Bernoulli paths with increments +-sqrt(Delta), d=1.

    Path p takes the up branch at step j iff bit (n-1-j) of p is 0, so paths
    sharing the first i steps form contiguous blocks of size 2^(n-i).
    """
    n = grid.n_steps
    if n > MAX_TREE_DEPTH:
        raise ResourceLimit(f"tree depth {n} exceeds {MAX_TREE_DEPTH}")
    p_count = 1 << n
    idx = np.arange(p_count)[:, None]
    bits = (idx >> (n - 1 - np.arange(n))[None, :]) & 1
    signs = 1.0 - 2.0 * bits
    inc = signs * np.sqrt(grid.steps)[None, :]
    inc = inc[:, :, None]
    inc.setflags(write=False)
    return BrownianBundle(grid, inc, 0, enumerated=True)


@dataclass(frozen=True)
class ModelSpec:
    """Forward SDE data: dX = b(X) dt + sigma dW.

    mode "F1": sigma = sigma(t), additive noise; mode "F2": sigma = sigma(x).
    Derivative evaluators db/dsigma are optional; without one the tangent
    uses central differences with step FD_STEP*(1+|x|). The PathBundle that
    `simulate_forward` returns carries its model, and the tangent and the
    solvers read the model from there.
    """

    x0: Array
    drift: Callable[[Array], Array]  # (P, d) -> (P, d)
    sigma: Callable  # F1: t -> (d, d); F2: (P, d) -> (P, d, d); or scalar * I
    mode: str = "F1"
    drift_jac: Callable[[Array], Array] | None = None  # (P,d) -> (P,d,d)
    sigma_jac: Callable[[Array], Array] | None = None  # (P,d) -> (P,d,d,d)

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, float)))
        if self.mode not in ("F1", "F2"):
            raise InvalidArgument(f"mode must be 'F1' or 'F2', got {self.mode!r}")

    @property
    def dim(self) -> int:
        return self.x0.size


@dataclass(frozen=True)
class PathBundle:
    """Forward paths on the noise's grid, running sup and optional tangent."""

    states: Array  # (P, n+1, d)
    running_sup: Array  # (P, n+1), sup over nodes <= i of |X|
    model: ModelSpec
    noise: BrownianBundle
    tangent: Array | None = None  # (P, n+1, d, d)

    @property
    def grid(self) -> TimeGrid:
        return self.noise.grid

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]


def _sigma_at(model: ModelSpec, t: float, x: Array) -> Array:
    """Diffusion matrix per path, broadcast shape (P, d, d) or (d, d)."""
    if model.mode == "F1":
        s = np.asarray(model.sigma(t), float)
    else:
        s = np.asarray(model.sigma(x), float)
    d = model.dim
    if s.ndim == 0:
        s = s * np.eye(d)
    elif s.ndim == 1 and model.mode == "F2":  # per-path scalar sigma
        s = s[:, None, None] * np.eye(d)[None, :, :]
    return s


def simulate_forward(model: ModelSpec, noise: BrownianBundle) -> PathBundle:
    """Euler-Maruyama trajectories X_{i+1} = X_i + b(X_i) Dt + sigma_i DW_i
    on the noise's grid; the bundle keeps both the model and the noise."""
    grid = noise.grid
    if noise.dim != model.dim:
        raise InvalidArgument(
            f"noise dimension {noise.dim} != model dimension {model.dim}")
    P, n, d = noise.increments.shape
    X = np.empty((P, n + 1, d))
    X[:, 0, :] = model.x0
    for i in range(n):
        x = X[:, i, :]
        drift = np.asarray(model.drift(x), float)
        sig = _sigma_at(model, grid.nodes[i], x)
        dw = noise.increments[:, i, :]
        if sig.ndim == 2:
            dX = drift * grid.steps[i] + dw @ sig.T
        else:
            dX = drift * grid.steps[i] + np.einsum("pij,pj->pi", sig, dw)
        X[:, i + 1, :] = x + dX
        if not np.all(np.isfinite(X[:, i + 1, :])):
            bad = int(np.argwhere(~np.isfinite(X[:, i + 1, :]))[0][0])
            raise SimulationDiverged(
                f"non-finite state at step {i + 1}", path_index=bad)
    sup = np.maximum.accumulate(np.linalg.norm(X, axis=2), axis=1)
    X.setflags(write=False)
    sup.setflags(write=False)
    return PathBundle(X, sup, model, noise)


def central_diff(fn: Callable[[Array], Array], x: Array, step: float) -> Array:
    """Central-difference Jacobian of a row-wise map of x (P, d): (P, m, d).

    fn's value per row is flattened to m entries; coordinate j is bumped by
    h = step * (1 + |x_j|) and the slope is (fn(x + h) - fn(x - h)) / (2h).
    """
    P, d = x.shape
    cols = []
    for j in range(d):
        h = step * (1.0 + np.abs(x[:, j]))
        xp, xm = x.copy(), x.copy()
        xp[:, j] += h
        xm[:, j] -= h
        diff = np.asarray(fn(xp), float) - np.asarray(fn(xm), float)
        cols.append(diff.reshape(P, -1) / (2 * h)[:, None])
    return np.stack(cols, axis=-1)


def simulate_tangent(paths: PathBundle) -> PathBundle:
    """Fill the first-variation process along each path, under the bundle's
    own model and noise.

    F1: dDX = db(X) DX dt.  F2 additionally carries the dsigma(X) DX dW term.
    """
    model, noise = paths.model, paths.noise
    P, n, d = noise.increments.shape
    grad = np.empty((P, n + 1, d, d))
    grad[:, 0] = np.eye(d)
    steps = paths.grid.steps
    for i in range(n):
        x = paths.states[:, i, :]
        if model.drift_jac is not None:
            db = np.asarray(model.drift_jac(x), float)
        else:
            db = central_diff(model.drift, x, FD_STEP)
        g = grad[:, i]
        step = np.einsum("pij,pjk->pik", db, g) * steps[i]
        if model.mode == "F2":
            if model.sigma_jac is not None:
                ds = np.asarray(model.sigma_jac(x), float)
            else:
                ds = central_diff(
                    lambda xx: np.broadcast_to(_sigma_at(model, 0.0, xx),
                                               (P, d, d)),
                    x, FD_STEP).reshape(P, d, d, d)
            dw = noise.increments[:, i, :]
            # sum_l dsigma_{kl}/dx_j DX_{jm} dW_l
            step = step + np.einsum("pklj,pjm,pl->pkm", ds, g, dw)
        grad[:, i + 1] = g + step
    grad.setflags(write=False)
    return replace(paths, tangent=grad)

