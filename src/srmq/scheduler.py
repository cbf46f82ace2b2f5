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
from .plant import (InductanceSurface, MotorParams, _axis_locate, _corners,
                    _is_bool, _locate, _require_ascending, _require_bound,
                    _require_count, _require_seed, _weights, frozen_dynamics)
from .qlearn import NUM_PARAMS, QKernel, QTrainConfig

TABLE_FORMAT_VERSION = 2

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
    """Table file was trained against a different motor or surface."""


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
        _require_seed("seed", self.seed)
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


@dataclass(frozen=True)
class CellLocation:
    """Enclosing cell (lower corner indices) and normalized offsets."""

    row: int     # theta index
    col: int     # current index
    l1: float    # theta offset in [0, 1)
    l2: float    # current offset in [0, 1)


@dataclass
class QCoreTable:
    """Grid of trained kernels (gains derived) and per-core RLS state.

    Kernels are stored once, as a nested list of 6-float cores in
    QKernel.to_vec order, which the per-step read uses; they are validated
    here (G_uu > 0) and on every accepted online update, never per control
    step.  The node grids are fixed once built and are also kept as lists
    of Python floats.  Single writer (update_core_online), many readers; an
    update replaces a whole core at once so readers never see a
    half-written kernel.
    """

    theta_nodes: np.ndarray
    current_nodes: np.ndarray
    kernels: list                   # [n_theta][n_current] -> 6 floats
    cfg: TableTrainConfig
    params_hash: str
    iterations: np.ndarray = None   # training iterations per core
    covariance: np.ndarray = field(init=False, repr=False)  # (.., 6, 6), online_tau*I

    def __post_init__(self):
        self.theta_nodes = np.asarray(self.theta_nodes, float)
        self.current_nodes = np.asarray(self.current_nodes, float)
        kernels = np.array(self.kernels, float)
        nt, ni = self.theta_nodes.size, self.current_nodes.size
        for name, nodes in (("theta nodes", self.theta_nodes),
                            ("current nodes", self.current_nodes)):
            if nodes.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {nodes.shape}")
            _require_ascending(name, nodes)
        if kernels.shape != (nt, ni, NUM_PARAMS):
            raise ValueError("core grid shape must match the node grids")
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
        self._theta_list = self.theta_nodes.tolist()
        self._current_list = self.current_nodes.tolist()

    @property
    def gains(self) -> np.ndarray:
        """(n_theta, n_current, 2) greedy gains [G_ux, G_ur] / G_uu."""
        kernels = np.array(self.kernels)
        return kernels[..., [2, 4]] / kernels[..., 5:]

    @property
    def shape(self):
        return (self.theta_nodes.size, self.current_nodes.size)


def locate(table: QCoreTable, theta: float, i: float) -> CellLocation:
    """Find the enclosing cell; theta wraps periodically, current clamps."""
    return CellLocation(*_locate(table._theta_list, table._current_list,
                                 theta, i))


def _corner(table: QCoreTable, row: int, col: int, l1: float, l2: float):
    """Node of the cell (row, col) nearest in normalized offsets; ties
    break toward the lower indices."""
    dr = 1 if (l1 > 0.5 and row + 1 < len(table._theta_list)) else 0
    dc = 1 if (l2 > 0.5 and col + 1 < len(table._current_list)) else 0
    return row + dr, col + dc


def _core_gain(table: QCoreTable, cell):
    """(k_x, k_r): the greedy gain of one core as Python floats (the same
    bits as QCoreTable.gains)."""
    g = table.kernels[cell[0]][cell[1]]
    return g[2] / g[5], g[4] / g[5]


def scheduled_q(table: QCoreTable, theta: float, i: float) -> QKernel:
    """Bilinear blend of the four enclosing corner kernels, entrywise.

    Exact at grid nodes, continuous across cell edges, and convex: every
    entry stays inside the range of the corner entries.  Degenerate
    single-row or single-column tables reduce to linear interpolation.
    """
    row, col, l1, l2 = _locate(table._theta_list, table._current_list,
                               theta, i)
    w00, w10, w01, w11 = _weights(l1, l2)
    return QKernel.from_vec([
        w00 * g00 + w10 * g10 + w01 * g01 + w11 * g11
        for g00, g10, g01, g11 in zip(*_corners(table.kernels, row, col))])


def _schedule_located(table: QCoreTable, row: int, l1: float, i: float):
    """schedule at the angle cell (row, l1) of the table's theta nodes and
    the current i, which clamps to the grid."""
    col, l2 = _axis_locate(table._current_list, i, wrap=False)
    cell = _corner(table, row, col, l1, l2)
    w00, w10, w01, w11 = _weights(l1, l2)
    g00, g10, g01, g11 = _corners(table.kernels, row, col)
    g_uu = w00 * g00[5] + w10 * g10[5] + w01 * g01[5] + w11 * g11[5]
    if g_uu <= 0:
        return (*_core_gain(table, cell), cell)
    return ((w00 * g00[2] + w10 * g10[2] + w01 * g01[2] + w11 * g11[2]) / g_uu,
            (w00 * g00[4] + w10 * g10[4] + w01 * g01[4] + w11 * g11[4]) / g_uu,
            cell)


def schedule(table: QCoreTable, theta: float, i: float):
    """(k_x, k_r, (row, col)): the greedy gain of the scheduled kernel and
    the nearest core, from one cell lookup, as Python floats and ints.

    Only the entries the gain needs (G_ux, G_ur, G_uu) are blended.  If the
    blended input block is not positive (subnormal G_uu can blend to 0),
    the nearest core's gain is returned instead.  Reads never write.
    """
    row, l1 = _axis_locate(table._theta_list, theta, wrap=True)
    return _schedule_located(table, row, l1, i)


def scheduled_gain(table: QCoreTable, theta: float, i: float) -> np.ndarray:
    """Greedy gain of the scheduled kernel as an array (see schedule)."""
    k_x, k_r, _ = schedule(table, theta, i)
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
    and the inductance surface (both grids and the values)."""
    payload = ",".join(f"{f.name}={getattr(params, f.name)!r}"
                       for f in fields(params))
    payload += "".join(f";{grid.tolist()!r}" for grid in (
        surface.theta_grid, surface.current_grid, surface.values))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def train_table(params: MotorParams, surface: InductanceSurface,
                theta_nodes=None, current_nodes=None,
                cfg: TableTrainConfig = TableTrainConfig()) -> QCoreTable:
    """Train one Q-core per grid node against its frozen local dynamics.

    Each node sees a linear plant with the inductance frozen at that
    node's surface value; the learner itself only ever receives sampled
    tuples.  Any non-converged node is reported with its coordinates and
    the whole table is rejected.
    """
    if theta_nodes is None:
        theta_nodes = np.linspace(0.0, params.rotor_pitch, 16)
    if current_nodes is None:
        current_nodes = np.linspace(0.0, 1.5 * params.i_nominal, 8)
    theta_nodes = np.asarray(theta_nodes, float)
    current_nodes = np.asarray(current_nodes, float)

    qcfg = QTrainConfig(gamma=cfg.gamma, tuples_per_iter=cfg.tuples_per_iter,
                        tol=cfg.tol, max_iters=cfg.max_iters)
    i_limit = cfg.safety_factor * params.i_nominal
    i_span = (float(current_nodes[0]), float(current_nodes[-1]))
    # bounds the initial gain's action on the sampled x, r in [0, i_span[1]]
    if not math.isfinite(sum(map(abs, cfg.K0)) * i_span[1]):
        raise ValueError(f"k0_x, k0_r = {list(cfg.K0)} overflow the training "
                         f"action -(k0_x x + k0_r r) at {i_span[1]!r} A")

    nt, ni = theta_nodes.size, current_nodes.size
    A, B = np.array([frozen_dynamics(params, surface, th, i_node)[1:]
                     for th in theta_nodes for i_node in current_nodes]).T
    rngs = [np.random.default_rng([cfg.seed, a, b])
            for a in range(nt) for b in range(ni)]
    collect = _node_collector(A, B, cfg, i_span, i_limit, rngs)
    result = qlearn.q_policy_iteration(
        collect, np.tile(np.asarray(cfg.K0, float), (nt * ni, 1)), qcfg)
    if result.failures:
        raise TableTrainError([(*divmod(j, ni), exc)
                               for j, exc in result.failures], nt * ni)
    return QCoreTable(theta_nodes, current_nodes,
                      result.kernels.reshape(nt, ni, NUM_PARAMS), cfg,
                      params_hash(params, surface),
                      iterations=np.reshape(result.iterations, (nt, ni)))


def update_core_online(table: QCoreTable, cell, M_k, M_k1, cost) -> bool:
    """One RLS step on the core at cell = (row, col), the nearest core that
    schedule returned, from one live-trajectory transition: M_k = [x, r, u],
    its successor M_{k+1} under the core's own gain, and the stage cost.
    The caller passes finite numbers; they are not checked here.

    The refreshed gain is rate-limited: an update that would move the
    core's gain by more than the configured clamp (or make its input
    block non-positive) is rejected outright, leaving the table as it was.
    Returns True if the update was applied.

    The row and the gain checks run on Python floats; the RLS products stay
    numpy (BLAS) calls, as Python-float versions of them differ in the last
    bit.  Each norm is sqrt(v.dot(v)), what np.linalg.norm computes.
    """
    a, b = cell
    g, eta = qlearn._rls_step(
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
    if not all(map(math.isfinite, g)):
        raise ValueError("kernel entries must be finite")
    table.kernels[a][b] = g
    table.covariance[a, b] = eta
    return True


def save_table(table: QCoreTable, path) -> None:
    """Persist grid, training config, and cores; round-trips bit-exactly."""
    cfg = table.cfg
    doc = {
        "version": TABLE_FORMAT_VERSION,
        "params_hash": table.params_hash,
        "cfg": {f.name: (list(getattr(cfg, f.name))
                         if f.name == "K0" else getattr(cfg, f.name))
                for f in fields(cfg)},
        "theta_nodes": [float(v) for v in table.theta_nodes],
        "current_nodes": [float(v) for v in table.current_nodes],
        "iterations": table.iterations.tolist(),
        "cores": table.kernels,
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_table(path) -> QCoreTable:
    """Load a table written by save_table; the RLS state is rebuilt."""
    try:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("version") != TABLE_FORMAT_VERSION:
            raise ValueError(f"table format version {doc.get('version')!r}"
                             f" is not {TABLE_FORMAT_VERSION}; retrain the table")
        cfg_kwargs = dict(doc["cfg"])
        for f in fields(TableTrainConfig):
            if f.name not in cfg_kwargs:
                raise ValueError(f"cfg.{f.name} is missing; every training "
                                 "config key must be stored")
        cfg_kwargs["K0"] = tuple(cfg_kwargs["K0"])
        cfg = TableTrainConfig(**cfg_kwargs)
        return QCoreTable(np.array(doc["theta_nodes"]),
                          np.array(doc["current_nodes"]),
                          doc["cores"], cfg, doc["params_hash"],
                          iterations=np.array(doc["iterations"]))
    except (AttributeError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: malformed table file ({exc})") from exc
    except (ValueError, qlearn.ExcitationError) as exc:
        # a bad version, training config, grid or kernel; named by path
        raise ValueError(f"{path}: {exc}") from exc


def check_table_compatible(table: QCoreTable, params: MotorParams,
                           surface: InductanceSurface) -> None:
    expected = params_hash(params, surface)
    if table.params_hash != expected:
        raise TableMismatchError(
            f"table was trained for motor/surface hash {table.params_hash}, "
            f"config gives {expected}; retrain or fix the config")
