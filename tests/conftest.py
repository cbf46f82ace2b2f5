import gc
import math
import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, strategies as st

from srmq import MotorParams, default_surface, train_table
from srmq.lqt import AugmentedModel
from srmq.plant import (InductanceSurface, _rotor_angles, _step_located,
                        _weights)
from srmq.scheduler import (QCoreTable, TableTrainConfig, _schedule_located,
                            locate, params_hash)


def assert_no_child():
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    """The process's open file descriptors, where /proc lists them."""
    return (sorted(os.listdir("/proc/self/fd"))
            if os.path.isdir("/proc/self/fd") else None)


@contextmanager
def leaves_no_child_or_fd():
    """The block leaves no child process and, once its garbage is
    collected, no file descriptor open (garbage from before the block is
    collected first)."""
    gc.collect()
    fds = open_fds()
    yield
    assert_no_child()
    gc.collect()
    assert open_fds() == fds


# the study's tracking weight, input weight and discount
STUDY = TableTrainConfig()


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


def coarse_table(table):
    """A fresh table of every third theta row of cores (six rows on the
    default grid), with the same hash: its shape is not the surface's
    grid, which the closed loop refuses."""
    return QCoreTable(table.kernels[::3], table.cfg, table.params_hash,
                      iterations=table.iterations[::3])


def one_core_table(params, surface, g):
    """A table for the motor and the surface, with the kernel vector g at
    every node of the surface's grid."""
    nt, ni = surface.values.shape
    return QCoreTable([[g] * ni] * nt, TableTrainConfig(),
                      params_hash(params, surface))


def flat_surface_on(theta, current, L=16e-3):
    """A flat surface on the given nodes: the grid that a table built on
    random nodes is read against."""
    return InductanceSurface(np.asarray(theta, float),
                             np.asarray(current, float),
                             np.full((len(theta), len(current)), L))


def schedule(table, surface, theta: float, i: float):
    """(k_x, k_r, (row, col)): the scheduled gain and the nearest core at
    (theta, i), from one cell lookup on the surface's grid: the closed
    loop's per-step read, _schedule_located, on scheduler.locate's cell."""
    row, col, l1, l2 = locate(surface, theta, i)
    return _schedule_located(table, row, col, l1, l2, _weights(l1, l2))


def constant_surface(L, pitch=45.0, i_max=7.5):
    """Flat inductance surface, handy for frozen-dynamics checks, on the
    default 16x8 grid: the trained_table fixture's nodes."""
    return flat_surface_on(np.linspace(0.0, pitch, 16),
                           np.linspace(0.0, i_max, 8), L)


def step_phase(x: float, theta: float, u: float, params: MotorParams,
               surface: InductanceSurface):
    """(x', theta'): the phase current and rotor angle one sample on under
    applied voltage u, locating the angle and the current on the surface
    itself (scheduler.locate): the one-step reference for _step_located and
    _rotor_angles; the simulator takes every step's angle cell from one
    _wrapped_cells pass over the run's angles, and shares its cell with the
    controller."""
    row, col, l1, l2 = locate(surface, theta, x)
    return (_step_located(x, u, params, surface, row, col, _weights(l1, l2)),
            _rotor_angles(params, theta, 1)[1])


def kernel_matrix(g):
    """The symmetric 3x3 kernel G of a kernel vector g, in the order at
    qlearn.NUM_PARAMS: (0,0) (0,1) (0,2) (1,1) (1,2) (2,2)."""
    a, b, c, d, e, f = g
    return np.array([[a, b, c], [b, d, e], [c, e, f]], float)


def kernel_vector(G):
    """The kernel vector of a symmetric 3x3 kernel G (kernel_matrix's
    inverse): its upper triangle, row by row."""
    return np.asarray(G, float)[np.triu_indices(3)]


def core_G(table, a, b):
    """3x3 kernel of the stored core at node (a, b)."""
    return kernel_matrix(table.kernels[a][b])


def _corners(grid: list, row: int, col: int):
    """The four node entries around a cell of a nested-list grid, in the
    order of plant._weights; the upper corner saturates at the last node,
    where its weight is zero: the reference for the cell views that
    plant._cell_corners builds."""
    lo, hi = grid[row], grid[min(row + 1, len(grid) - 1)]
    c1 = min(col + 1, len(lo) - 1)
    return lo[col], hi[col], lo[c1], hi[c1]


def reference_blend(values, row, col, l1, l2):
    """Bilinear blend of the four node entries around a cell of a numpy
    grid (over its two leading axes), upper corner saturating at the last
    node: the numpy rule the list blends in src must reproduce bit for bit.
    The cell and its offsets may be arrays that broadcast together."""
    r1 = np.minimum(row + 1, values.shape[0] - 1)
    c1 = np.minimum(col + 1, values.shape[1] - 1)
    return ((1 - l1) * (1 - l2) * values[row, col]
            + l1 * (1 - l2) * values[r1, col]
            + (1 - l1) * l2 * values[row, c1]
            + l1 * l2 * values[r1, c1])


def scheduled_q(table, surface, theta: float, i: float) -> np.ndarray:
    """The scheduled kernel: the numpy blend of the four kernel vectors
    around the cell of the surface's grid that scheduler.locate finds
    (theta wraps, current clamps), entrywise.  Exact at the nodes,
    continuous across cell edges, and convex; the reference whose greedy
    gain schedule must return."""
    row, col, l1, l2 = locate(surface, theta, i)
    return reference_blend(np.array(table.kernels), row, col, l1, l2)


def build_augmented(A, B, Q: float = STUDY.q_weight,
                    R_u: float = STUDY.r_weight,
                    gamma: float = STUDY.gamma) -> AugmentedModel:
    """The model of the plant scalars (or arrays of shape (N,), for N
    stacked models), with the study's weights and discount by default."""
    return AugmentedModel(A, B, float(Q), float(R_u), float(gamma))


def save_surface_csv(surface: InductanceSurface, path) -> None:
    """Write a surface file as load_surface_csv reads it: the first row is
    the current grid, the first column the theta grid."""
    with open(path, "w") as f:
        f.write("theta_deg," + ",".join(repr(float(c))
                                        for c in surface.current_grid) + "\n")
        for th, row in zip(surface.theta_grid, surface.values):
            f.write(repr(float(th)) + ","
                    + ",".join(repr(float(v)) for v in row) + "\n")


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


def distinct_offsets(theta) -> bool:
    """Whether an angle grid's offsets from its first node are strictly
    ascending floats, as InductanceSurface requires: where two round
    together (nodes a float apart beside a far larger origin), no offset
    tells those nodes apart."""
    offsets = [v - theta[0] for v in theta]
    return all(a < b for a, b in zip(offsets, offsets[1:]))


def ascending(size, lo, hi):
    """Strictly ascending lists of `size` floats, drawn without a rejection
    filter: a first node in [lo, hi], then size - 1 gaps, each of one float
    (a drawn 0) up to hi - lo, so the last node may pass hi."""
    def build(first_and_gaps):
        first, gaps = first_and_gaps
        nodes = [first]
        for gap in gaps:
            nodes.append(max(nodes[-1] + gap,
                             math.nextafter(nodes[-1], math.inf)))
        return nodes
    gaps = st.lists(st.floats(0.0, hi - lo), min_size=size - 1,
                    max_size=size - 1)
    return st.tuples(st.floats(lo, hi), gaps).map(build)


@st.composite
def random_surface(draw):
    """A valid random surface of 2 to 6 angle and 2 to 5 current nodes:
    periodic in angle, non-increasing in current, its angle nodes at
    distinct offsets from the first."""
    nt, ni = draw(st.integers(2, 6)), draw(st.integers(2, 5))
    theta = draw(ascending(nt, 0.0, 90.0))
    assume(distinct_offsets(theta))
    current = draw(ascending(ni, 0.0, 20.0))
    rows = [sorted(draw(st.lists(st.floats(1e-3, 2e-2), min_size=ni,
                                 max_size=ni)), reverse=True)
            for _ in range(nt - 1)]
    return InductanceSurface(np.array(theta), np.array(current),
                             np.array(rows + rows[:1]))
