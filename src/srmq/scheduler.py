"""Q-core table over (rotor angle, current) with bilinear scheduling.

A grid of independently trained action-value kernels covers the
inductance surface.  At runtime the four kernels around the operating
point are blended bilinearly (entrywise) and the greedy gain is taken
from the blended kernel; each core can also be refined online by
recursive least squares as the trajectory visits its cell.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import qlearn
from .plant import (MAX_AXIS_NODES, InductanceSurface, MotorParams,
                    _axis_locate, _cell_corners, _is_bool, _require_bound,
                    _require_count, _require_natural, _weights,
                    _wrapped_cells, frozen_grid)
from .qlearn import NUM_PARAMS

TABLE_FORMAT_VERSION = 3

# training work bounds: 10**5 tuples are about 30 MB of arrays per node
# iteration, and 10**3 iterations bound the run of a grid that never settles
MAX_TUPLES_PER_ITER = 10**5
MAX_TRAIN_ITERS = 10**3


class TableTrainError(RuntimeError):
    """One or more grid nodes failed to train.

    ``failures`` lists every failed node as (row, col, exception); the
    message summarises them: the failed count, a count per exception type
    with its first message, and the first few nodes.
    """

    def __init__(self, failures, total: int):
        by_kind = {}
        for _, _, exc in failures:
            by_kind.setdefault(type(exc).__name__, []).append(exc)
        reasons = "; ".join(f"{len(excs)} x {kind} (first: {excs[0]})"
                            for kind, excs in by_kind.items())
        nodes = ", ".join(f"({r},{c})" for r, c, _ in failures[:3])
        more = ", ..." if len(failures) > 3 else ""
        super().__init__(f"{len(failures)} of {total} nodes failed: "
                         f"{reasons}; nodes {nodes}{more}")
        self.failures = failures


class SafetyAbortError(RuntimeError):
    """Phase current exceeded the configured safety bound."""


class TableMismatchError(ValueError):
    """Table was trained for another motor or surface, or for another grid."""


@dataclass(frozen=True)
class TableTrainConfig:
    """Everything needed to train and refine a Q-core table."""

    q_weight: float = 100.0
    r_weight: float = 0.001
    gamma: float = 0.9
    K0: tuple = (100.0, -100.0)
    dither: float = 15.0           # exploration voltage amplitude, V
    tuples_per_iter: int = 6
    tol: float = 1e-4
    max_iters: int = 100
    online_tau: float = 1e3        # RLS covariance init for online refinement
    gain_clamp: float = 0.02       # max relative gain change per online update
    safety_factor: float = 3.0     # abort when |x| exceeds this times nominal
    seed: int = 0

    def __post_init__(self):
        for name in ("q_weight", "dither"):
            _require_bound(name, getattr(self, name))
        for name in ("r_weight", "gamma", "online_tau", "gain_clamp",
                     "safety_factor", "tol"):
            _require_bound(name, getattr(self, name), positive=True)
        if not self.gamma < 1:
            raise ValueError(
                f"gamma must be below 1, got {self.gamma!r}: training needs "
                "gamma < 1, as with r' = r the r^2 Bellman column vanishes "
                "and the kernel is unidentifiable")
        _require_natural("seed", self.seed)
        if len(self.K0) != 2:
            raise ValueError(f"K0 must be the two gains (k0_x, k0_r), got "
                             f"{self.K0!r}")
        for name, k in zip(("k0_x", "k0_r"), self.K0):
            if _is_bool(k) or not np.isfinite(k):
                raise ValueError(f"{name} must be finite, got {k!r}")
        _require_count("tuples_per_iter", self.tuples_per_iter,
                       qlearn.MIN_TUPLES, MAX_TUPLES_PER_ITER)
        _require_count("max_iters", self.max_iters, 1, MAX_TRAIN_ITERS)

    def tracking_weight(self) -> np.ndarray:
        q = self.q_weight
        return np.array([[q, -q], [-q, q]])


@dataclass
class QCoreTable:
    """Grid of trained kernels (gains derived) and per-core RLS state.

    Kernels are stored once, as a nested list of 6-float cores in the
    order at qlearn.NUM_PARAMS; `_cells[row][col]` holds the four core
    lists around each cell (see plant._cell_corners), which the per-step
    read uses.  They are validated here (G_uu > 0) and on every accepted
    online update, never per control step.  Its nodes are the grid of the
    surface whose hash it carries.  Single writer (update_core_online),
    which writes a core in place, so every cell that holds it sees the
    update; the program is single-threaded, so no read sees a half-written
    core.
    """

    kernels: list                   # [n_theta][n_current] -> 6 floats
    cfg: TableTrainConfig
    params_hash: str
    iterations: np.ndarray = None   # training iterations per core
    covariance: np.ndarray = field(init=False, repr=False)  # (.., 6, 6), online_tau*I

    def __post_init__(self):
        kernels = np.array(self.kernels, float)
        if not (kernels.shape[2:] == (NUM_PARAMS,) and all(
                2 <= n <= MAX_AXIS_NODES for n in kernels.shape[:2])):
            raise ValueError(f"cores must have shape (n_theta, n_current, "
                             f"{NUM_PARAMS}), 2 to {MAX_AXIS_NODES} nodes per "
                             f"axis, got {kernels.shape}")
        nt, ni = kernels.shape[:2]
        if not np.all(np.isfinite(kernels)):
            raise ValueError("kernel entries must be finite")
        if np.any(kernels[..., 5] <= 0):
            raise qlearn.ExcitationError(
                "a core has a non-positive G_uu; kernel is not a valid "
                "action value (insufficient excitation)")
        self.covariance = np.tile(self.cfg.online_tau * np.eye(NUM_PARAMS),
                                  (nt, ni, 1, 1))
        if self.iterations is None:
            self.iterations = np.zeros((nt, ni), int)
        self.iterations = np.asarray(self.iterations)
        if not (self.iterations.shape == (nt, ni)
                and np.issubdtype(self.iterations.dtype, np.integer)
                and np.all(self.iterations >= 0)):
            raise ValueError("iterations must be a non-negative integer per "
                             f"core, shape {(nt, ni)}")
        self.kernels = kernels.tolist()
        self._cells = _cell_corners(self.kernels)

    @property
    def gains(self) -> np.ndarray:
        """(n_theta, n_current, 2) greedy gains [G_ux, G_ur] / G_uu."""
        return qlearn.policy_improvement(np.array(self.kernels))

    @property
    def shape(self):
        return len(self.kernels), len(self.kernels[0])


def locate(surface: InductanceSurface, theta: float, i: float):
    """(row, col, l1, l2): the enclosing cell of the surface's grid, a
    table's nodes: its lower corner indices and the offsets in [0, 1)
    toward the next nodes, as Python ints and floats; theta wraps
    periodically (_wrapped_cells), current clamps (_axis_locate)."""
    (row,), (l1,) = (a.tolist() for a in _wrapped_cells(
        surface.theta_grid, np.array([theta], float)))
    col, l2 = _axis_locate(surface._current_list, i)
    return row, col, l1, l2


def _corner(row: int, col: int, l1: float, l2: float):
    """Node of the cell (row, col) nearest in normalized offsets; ties
    break toward the lower indices (the top node's offset is 0.0)."""
    return row + 1 if l1 > 0.5 else row, col + 1 if l2 > 0.5 else col


def _core_gain(table: QCoreTable, cell):
    """(k_x, k_r): the greedy gain of one core as Python floats (the same
    bits as QCoreTable.gains)."""
    g = table.kernels[cell[0]][cell[1]]
    return g[2] / g[5], g[4] / g[5]


def _schedule_located(table: QCoreTable, row: int, col: int, l1: float,
                      l2: float, w):
    """(k_x, k_r, (row, col)): the greedy gain of the scheduled kernel at
    the offsets (l1, l2) in the cell (row, col), w = _weights(l1, l2), and
    the nearest core, as Python floats and ints.  Only G_ux, G_ur and G_uu
    are blended; if the blended G_uu is not positive (subnormal ones can
    blend to 0), the nearest core's gain is returned.  Reads never write."""
    cell = _corner(row, col, l1, l2)
    w00, w10, w01, w11 = w
    g00, g10, g01, g11 = table._cells[row][col]
    g_uu = w00 * g00[5] + w10 * g10[5] + w01 * g01[5] + w11 * g11[5]
    if g_uu <= 0:
        return (*_core_gain(table, cell), cell)
    return ((w00 * g00[2] + w10 * g10[2] + w01 * g01[2] + w11 * g11[2]) / g_uu,
            (w00 * g00[4] + w10 * g10[4] + w01 * g01[4] + w11 * g11[4]) / g_uu,
            cell)


# test-only: stays public while srmqbench/tracer.py reads it by name
def scheduled_gain(table: QCoreTable, surface: InductanceSurface,
                   theta: float, i: float) -> np.ndarray:
    """Greedy gain of the scheduled kernel at (theta, i) on the surface's
    grid, as an array (see _schedule_located)."""
    row, col, l1, l2 = locate(surface, theta, i)
    k_x, k_r, _ = _schedule_located(table, row, col, l1, l2, _weights(l1, l2))
    return np.array([k_x, k_r])


def _node_collector(A: np.ndarray, B: np.ndarray, cfg: TableTrainConfig,
                    i_span: tuple, i_limit: float, rngs: list):
    """Tuple source for a stack of nodes: node j is a frozen locally-linear
    plant (A[j], B[j]) sampled at random operating points around the cell,
    with input dither.

    Each call draws, for every node not marked done, its count x 3 uniforms
    in one block from its own rngs[j], row by row in the order
    (x, r, dither) of one scalar rng.uniform per value, and scales them as
    rng.uniform does, so each node's tuples are its scalar draws bit for
    bit.  A node whose draw overshoots the safety bound is returned as a
    SafetyAbortError naming its first overshooting tuple.
    """
    Q_q = cfg.tracking_weight()
    lo, hi = i_span
    r_lo = max(lo, 0.1 * hi)
    A, B = A[:, None], B[:, None]

    def collect(K, count, done):
        U = np.zeros((len(rngs), count, 3))
        for j in np.flatnonzero(~done):
            U[j] = rngs[j].random((count, 3))
        x = 0.0 + (hi - 0.0) * U[..., 0]
        r = r_lo + (hi - r_lo) * U[..., 1]
        k_x, k_r = K[:, :1], K[:, 1:]
        u = -(k_x * x + k_r * r) + cfg.dither * (-1.0 + 2.0 * U[..., 2])
        x1 = A * x + B * u
        over = (np.abs(x1) > i_limit) & ~done[:, None]
        hit = over.any(axis=1, keepdims=True)
        aborted = {j: SafetyAbortError(
            f"training current {x1[j, over[j].argmax()]:#.4g} A exceeded "
            f"the {i_limit:#.4g} A safety bound") for j in np.flatnonzero(hit)}
        u1 = -(k_x * x1 + k_r * r)
        costs = qlearn._stage_costs(x.ravel(), r.ravel(), u.ravel(), Q_q,
                                    cfg.r_weight).reshape(x.shape)
        return qlearn.TupleBatch(np.stack((x, r, u), axis=-1),
                                 np.stack((x1, r, u1), axis=-1),
                                 costs), aborted

    return collect


def params_hash(params: MotorParams, surface: InductanceSurface) -> str:
    """Fingerprint of what a table is trained against: the motor parameters
    as text, then the shape and little-endian float64 bytes of each of the
    surface's grids and its values."""
    digest = hashlib.sha256(",".join(f"{f.name}={getattr(params, f.name)!r}"
                                     for f in fields(params)).encode())
    for grid in (surface.theta_grid, surface.current_grid, surface.values):
        digest.update(repr(grid.shape).encode())
        digest.update(grid.astype("<f8").tobytes())
    return digest.hexdigest()[:16]


def train_table(params: MotorParams, surface: InductanceSurface,
                cfg: TableTrainConfig = TableTrainConfig()) -> QCoreTable:
    """Train one Q-core per node of the surface's grid against its frozen
    local dynamics: the table's nodes are the surface's.

    Each node sees a linear plant with the inductance frozen at that
    node's surface value; the learner itself only ever receives sampled
    tuples.  Any non-converged node is reported with its coordinates and
    the whole table is rejected.
    """
    i_limit = cfg.safety_factor * params.i_nominal
    i_span = (float(surface.current_grid[0]), float(surface.current_grid[-1]))
    # bounds the initial gain's action on the sampled x, r in [0, i_span[1]]
    if not math.isfinite(sum(map(abs, cfg.K0)) * i_span[1]):
        raise ValueError(f"k0_x, k0_r = {list(cfg.K0)} overflow the training "
                         f"action -(k0_x x + k0_r r) at {i_span[1]!r} A")

    nt, ni = surface.values.shape
    _, A, B = frozen_grid(params, surface)
    rngs = [np.random.default_rng([cfg.seed, a, b])
            for a in range(nt) for b in range(ni)]
    collect = _node_collector(A, B, cfg, i_span, i_limit, rngs)
    result = qlearn.q_policy_iteration(
        collect, np.tile(np.asarray(cfg.K0, float), (nt * ni, 1)), cfg)
    if result.failures:
        raise TableTrainError([(*divmod(j, ni), exc)
                               for j, exc in result.failures], nt * ni)
    return QCoreTable(result.kernels.reshape(nt, ni, NUM_PARAMS), cfg,
                      params_hash(params, surface),
                      iterations=np.reshape(result.iterations, (nt, ni)))


def update_core_online(table: QCoreTable, cell, M_k, M_k1, cost) -> bool:
    """One RLS step on the core at cell = (row, col), the nearest core that
    _schedule_located returned, from one live-trajectory transition: M_k = [x, r, u],
    its successor M_{k+1} under the core's own gain, and the stage cost.
    The caller passes finite numbers; they are not checked here.

    The refreshed gain is rate-limited: an update that would move the
    core's gain by more than the configured clamp (or make its input
    block non-positive) is rejected outright, leaving the table as it was.
    An applied update writes the core's list in place, so the table's cell
    view (QCoreTable._cells) reads it at once.  Returns True if the update
    was applied.  An update whose kernel or covariance is not finite
    raises ValueError and writes nothing.

    The row and the gain checks run on Python floats; the RLS products stay
    numpy (BLAS) calls, as Python-float versions of them differ in the last
    bit.  Each norm is sqrt(v.dot(v)), what np.linalg.norm computes.
    """
    a, b = cell
    g, eta = qlearn.rls_update(
        np.array(table.kernels[a][b]), table.covariance[a, b],
        qlearn._bellman_row(M_k, M_k1, table.cfg.gamma), cost)
    g = g.tolist()
    if g[5] <= 0:
        return False
    k_x, k_r = _core_gain(table, cell)
    step = np.array([g[2] / g[5] - k_x, g[4] / g[5] - k_r])
    k_old = np.array([k_x, k_r])
    if (math.sqrt(step.dot(step))
            > table.cfg.gain_clamp * (1 + math.sqrt(k_old.dot(k_old)))):
        return False
    if not (all(map(math.isfinite, g)) and np.isfinite(eta).all()):
        raise ValueError(
            f"online update of core ({a},{b}) overflowed: its kernel or RLS "
            f"covariance is not finite (the table's online_tau is "
            f"{table.cfg.online_tau!r})")
    table.kernels[a][b][:] = g
    table.covariance[a, b] = eta
    return True


def save_table(table: QCoreTable, path) -> None:
    """Persist the training config, the hash and the cores; round-trips
    bit-exactly."""
    cfg = table.cfg
    doc = {
        "version": TABLE_FORMAT_VERSION,
        "params_hash": table.params_hash,
        "cfg": {f.name: (list(getattr(cfg, f.name))
                         if f.name == "K0" else getattr(cfg, f.name))
                for f in fields(cfg)},
        "iterations": table.iterations.tolist(),
        "cores": table.kernels,
    }
    # json.dumps takes the C encoder; json.dump streams through the Python one
    with open(path, "w") as f:
        f.write(json.dumps(doc))


def _holds_bool(value) -> bool:
    """A boolean anywhere in a parsed JSON value's nested lists: numpy
    would read a true among numbers as 1.  One type set per list, so a
    list of numbers costs no call per entry."""
    if type(value) is not list:
        return type(value) is bool
    types = set(map(type, value))
    return bool in types or list in types and any(map(_holds_bool, value))


def load_table(path) -> QCoreTable:
    """Load a table written by save_table; the RLS state is rebuilt."""
    try:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("version") != TABLE_FORMAT_VERSION:
            raise ValueError(f"table format version {doc.get('version')!r}"
                             f" is not {TABLE_FORMAT_VERSION}; retrain the table")
        for key in ("iterations", "cores"):
            if _holds_bool(doc[key]):
                raise ValueError(f"{key} must hold numbers, not JSON booleans")
        cfg_kwargs = dict(doc["cfg"])
        for f in fields(TableTrainConfig):
            if f.name not in cfg_kwargs:
                raise ValueError(f"cfg.{f.name} is missing; every training "
                                 "config key must be stored")
        cfg_kwargs["K0"] = tuple(cfg_kwargs["K0"])
        cfg = TableTrainConfig(**cfg_kwargs)
        return QCoreTable(doc["cores"], cfg, doc["params_hash"],
                          iterations=np.array(doc["iterations"]))
    except (AttributeError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: malformed table file ({exc})") from exc
    except (ValueError, qlearn.ExcitationError) as exc:
        # a bad version, training config, core shape or kernel; named by path
        raise ValueError(f"{path}: {exc}") from exc


def check_table_compatible(table: QCoreTable, params: MotorParams,
                           surface: InductanceSurface) -> None:
    """Refuse a table trained for another motor or surface (its hash), or
    one whose cores are not one per node of the surface's grid, as in a
    table file edited after training."""
    expected = params_hash(params, surface)
    if table.params_hash != expected:
        raise TableMismatchError(
            f"table was trained for motor/surface hash {table.params_hash}, "
            f"config gives {expected}; retrain or fix the config")
    if table.shape != surface.values.shape:
        raise TableMismatchError(
            "table has {} x {} cores, the surface's grid {} x {} nodes; "
            "retrain the table".format(*table.shape, *surface.values.shape))
