import numpy as np
import pytest
from hypothesis import strategies as st

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
    return QKernel.from_vec(table.kernels[a][b]).G


def reference_blend(values, row, col, l1, l2):
    """Bilinear blend of the four node entries around a cell of a numpy
    grid (over its two leading axes), upper corner saturating at the last
    node: the numpy rule the list blends in src must reproduce bit for bit."""
    r1 = min(row + 1, values.shape[0] - 1)
    c1 = min(col + 1, values.shape[1] - 1)
    return ((1 - l1) * (1 - l2) * values[row, col]
            + l1 * (1 - l2) * values[r1, col]
            + (1 - l1) * l2 * values[row, c1]
            + l1 * l2 * values[r1, c1])


@pytest.fixture
def flat_surface():
    return constant_surface(16e-3)


def point_near(nodes, wrap):
    """A node, a node shifted by whole spans (wrap) or pushed past either
    end of the grid (clamp), a value inside the grid, or any value around
    it."""
    lo, hi = nodes[0], nodes[-1]
    shifted = (st.tuples(st.sampled_from(nodes), st.integers(-3, 3)).map(
        lambda p: p[0] + p[1] * (hi - lo)) if wrap else
        st.one_of(st.floats(lo - 100, lo), st.floats(hi, hi + 100)))
    return st.one_of(st.sampled_from(nodes), shifted, st.floats(lo, hi),
                     st.floats(lo - 100, hi + 100))
