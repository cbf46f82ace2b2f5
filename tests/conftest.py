import numpy as np
import pytest

from srmq import (MotorParams, QKernel, TableTrainConfig, default_surface,
                  train_table)
from srmq.plant import InductanceSurface


@pytest.fixture(scope="session")
def params():
    return MotorParams()


@pytest.fixture(scope="session")
def surface(params):
    return default_surface(params)


@pytest.fixture(scope="session")
def trained_table(params, surface):
    """Full 16x8 table, shared read-only across tests; tests that mutate a
    table must train their own."""
    return train_table(params, surface)


@pytest.fixture
def fresh_table(params, surface):
    return train_table(params, surface)


def constant_surface(L, pitch=45.0, i_max=7.5):
    """Flat inductance surface, handy for frozen-dynamics checks."""
    theta = np.linspace(0.0, pitch, 5)
    current = np.linspace(0.0, i_max, 4)
    return InductanceSurface(theta, current, np.full((5, 4), L))


def core_G(table, a, b):
    """3x3 kernel of the stored core at node (a, b)."""
    return QKernel.from_vec(table.kernels[a, b]).G


@pytest.fixture
def flat_surface():
    return constant_surface(16e-3)
