"""Shared fixtures: small models, grids and noise bundles."""

import numpy as np
import pytest

from qbsde import (
    ModelSpec,
    make_grid,
    sample_brownian,
    simulate_forward,
)


@pytest.fixture(scope="session")
def grid25():
    return make_grid(1.0, 25)


@pytest.fixture(scope="session")
def noise25(grid25):
    return sample_brownian(grid25, 1, 4000, seed=7)


@pytest.fixture(scope="session")
def bm_model():
    """X = W: zero drift, unit additive noise."""
    return ModelSpec(x0=np.zeros(1), drift=lambda x: np.zeros_like(x),
                     sigma=lambda t: 1.0, mode="F1")


@pytest.fixture(scope="session")
def bm_paths(bm_model, noise25):
    return simulate_forward(bm_model, noise25)


@pytest.fixture(scope="session")
def ou_model():
    return ModelSpec(
        x0=np.zeros(1), drift=lambda x: -0.5 * x, sigma=lambda t: 1.0,
        mode="F1")


@pytest.fixture(scope="session")
def f2_model():
    return ModelSpec(
        x0=np.zeros(1), drift=lambda x: -0.3 * x,
        sigma=lambda x: 1.0 + 0.5 * np.tanh(x[:, 0]), mode="F2")
