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
from dataclasses import dataclass, field, fields

import numpy as np

from . import qlearn
from .plant import (InductanceSurface, MotorParams, _corners, _locate,
                    _require_bound, _weights, frozen_dynamics)
from .qlearn import NUM_PARAMS, DataTuple, QKernel, QTrainConfig

TABLE_FORMAT_VERSION = 2


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
        for name in ("r_weight", "online_tau", "gain_clamp", "safety_factor"):
            _require_bound(name, getattr(self, name), positive=True)

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

    Kernels are stored as 6-vectors in QKernel.to_vec order; they are
    validated here (G_uu > 0) and on every accepted online update, never
    per control step.  The node grids are fixed once built; the nodes and
    the kernels are also kept as (nested) lists of Python floats, which the
    per-step read uses.  Single writer (update_core_online, which also
    refreshes the kernel list of the core it changes), many readers; an
    update replaces a whole core at once so readers never see a
    half-written kernel.
    """

    theta_nodes: np.ndarray
    current_nodes: np.ndarray
    kernels: np.ndarray             # (n_theta, n_current, 6)
    cfg: TableTrainConfig
    params_hash: str
    iterations: np.ndarray = None   # training iterations per core
    covariance: np.ndarray = field(init=False, repr=False)  # (.., 6, 6), online_tau*I

    def __post_init__(self):
        self.theta_nodes = np.asarray(self.theta_nodes, float)
        self.current_nodes = np.asarray(self.current_nodes, float)
        self.kernels = np.array(self.kernels, float)
        nt, ni = self.theta_nodes.size, self.current_nodes.size
        if nt >= 2 and np.any(np.diff(self.theta_nodes) <= 0):
            raise ValueError("theta nodes must be strictly ascending")
        if ni >= 2 and np.any(np.diff(self.current_nodes) <= 0):
            raise ValueError("current nodes must be strictly ascending")
        if self.kernels.shape != (nt, ni, NUM_PARAMS):
            raise ValueError("core grid shape must match the node grids")
        if not np.all(np.isfinite(self.kernels)):
            raise ValueError("kernel entries must be finite")
        if np.any(self.kernels[..., 5] <= 0):
            raise qlearn.ExcitationError(
                "a core has a non-positive G_uu; kernel is not a valid "
                "action value (insufficient excitation)")
        self.covariance = np.tile(self.cfg.online_tau * np.eye(NUM_PARAMS),
                                  (nt, ni, 1, 1))
        if self.iterations is None:
            self.iterations = np.zeros((nt, ni), int)
        self._theta_list = self.theta_nodes.tolist()
        self._current_list = self.current_nodes.tolist()
        self._kernels_list = self.kernels.tolist()

    @property
    def gains(self) -> np.ndarray:
        """(n_theta, n_current, 2) greedy gains [G_ux, G_ur] / G_uu."""
        return self.kernels[..., [2, 4]] / self.kernels[..., 5:]

    @property
    def shape(self):
        return (self.theta_nodes.size, self.current_nodes.size)

    @property
    def pitch(self) -> float:
        return float(self.theta_nodes[-1] - self.theta_nodes[0])


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
    """(k_x, k_r): the greedy gain of one core as Python floats, from the
    kernel list (the same bits as QCoreTable.gains)."""
    g = table._kernels_list[cell[0]][cell[1]]
    return g[2] / g[5], g[4] / g[5]


def _nearest_node(table: QCoreTable, theta: float, i: float):
    """(row, col) of the core nearest to (theta, i); see _corner."""
    return _corner(table, *_locate(table._theta_list, table._current_list,
                                   theta, i))


def nearest_core(table: QCoreTable, theta: float, i: float) -> QKernel:
    """Corner kernel of the enclosing cell closest in normalized offsets;
    ties break toward the lower indices."""
    return QKernel.from_vec(table.kernels[_nearest_node(table, theta, i)])


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
        for g00, g10, g01, g11 in zip(*_corners(table._kernels_list, row, col))])


def schedule(table: QCoreTable, theta: float, i: float):
    """(k_x, k_r, (row, col)): the greedy gain of the scheduled kernel and
    the nearest core, from one cell lookup, as Python floats and ints.

    Only the entries the gain needs (G_ux, G_ur, G_uu) are blended.  If the
    blended input block is not positive (subnormal G_uu can blend to 0),
    the nearest core's gain is returned instead.  Reads never write.
    """
    row, col, l1, l2 = _locate(table._theta_list, table._current_list,
                               theta, i)
    cell = _corner(table, row, col, l1, l2)
    w00, w10, w01, w11 = _weights(l1, l2)
    g00, g10, g01, g11 = _corners(table._kernels_list, row, col)
    g_uu = w00 * g00[5] + w10 * g10[5] + w01 * g01[5] + w11 * g11[5]
    if g_uu <= 0:
        return (*_core_gain(table, cell), cell)
    return ((w00 * g00[2] + w10 * g10[2] + w01 * g01[2] + w11 * g11[2]) / g_uu,
            (w00 * g00[4] + w10 * g10[4] + w01 * g01[4] + w11 * g11[4]) / g_uu,
            cell)


def scheduled_gain(table: QCoreTable, theta: float, i: float) -> np.ndarray:
    """Greedy gain of the scheduled kernel as an array (see schedule)."""
    k_x, k_r, _ = schedule(table, theta, i)
    return np.array([k_x, k_r])


def _node_collector(A: float, B: float, cfg: TableTrainConfig,
                    i_span: tuple, i_limit: float, rng):
    """Tuple source for one node: a frozen locally-linear plant sampled at
    random operating points around the cell, with input dither."""
    Q_q = cfg.tracking_weight()
    lo, hi = i_span

    def collect(K, count):
        tuples = []
        for _ in range(count):
            x = rng.uniform(0.0, hi)
            r = rng.uniform(max(lo, 0.1 * hi), hi)
            u = -(K[0] * x + K[1] * r) + cfg.dither * rng.uniform(-1, 1)
            x1 = A * x + B * u
            if abs(x1) > i_limit:
                raise SafetyAbortError(
                    f"training current {x1:.2f} A exceeded the "
                    f"{i_limit:.2f} A safety bound")
            u1 = -(K[0] * x1 + K[1] * r)
            cost = qlearn.stage_cost((x, r), u, Q_q, cfg.r_weight)
            tuples.append(DataTuple(np.array([x, r, u]), np.array([x1, r, u1]), cost))
        return tuples

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

    if not cfg.gamma < 1:
        raise ValueError(
            f"training needs gamma < 1, got {cfg.gamma}: with r' = r the "
            "r^2 Bellman column vanishes and the kernel is unidentifiable")
    qcfg = QTrainConfig(gamma=cfg.gamma, tuples_per_iter=cfg.tuples_per_iter,
                        tol=cfg.tol, max_iters=cfg.max_iters)
    i_limit = cfg.safety_factor * params.i_nominal
    i_span = (float(current_nodes[0]), float(current_nodes[-1]))

    kernels = np.zeros((theta_nodes.size, current_nodes.size, NUM_PARAMS))
    iters = np.zeros((theta_nodes.size, current_nodes.size), int)
    failures = []
    for a, th in enumerate(theta_nodes):
        for b, i_node in enumerate(current_nodes):
            _, A, B = frozen_dynamics(params, surface, th, i_node)
            rng = np.random.default_rng([cfg.seed, a, b])
            collect = _node_collector(A, B, cfg, i_span, i_limit, rng)
            try:
                result = qlearn.q_policy_iteration(collect, cfg.K0, qcfg)
            except (qlearn.QTrainError, qlearn.RankDeficientError,
                    qlearn.ExcitationError, SafetyAbortError) as exc:
                failures.append((a, b, exc))
                continue
            kernels[a, b] = result.kernel.to_vec()
            iters[a, b] = result.iterations
    if failures:
        raise TableTrainError(failures, iters.size)
    return QCoreTable(theta_nodes, current_nodes, kernels, cfg,
                      params_hash(params, surface), iterations=iters)


def update_core_online(table: QCoreTable, tup: DataTuple, cell) -> bool:
    """One RLS step on the core at cell = (row, col), the nearest core that
    schedule returned, from a live-trajectory tuple.

    The refreshed gain is rate-limited: an update that would move the
    core's gain by more than the configured clamp (or make its input
    block non-positive) is rejected outright, leaving the table as it was.
    Returns True if the update was applied.
    """
    a, b = cell
    row = qlearn.sym_features(tup.M_k) - table.cfg.gamma * qlearn.sym_features(tup.M_k1)
    g, eta = qlearn._rls_step(table.kernels[a, b], table.covariance[a, b],
                              row, tup.stage_cost)
    if g[5] <= 0:
        return False
    K_new = np.array([g[2], g[4]]) / g[5]
    K_old = np.array(_core_gain(table, cell))
    if np.linalg.norm(K_new - K_old) > table.cfg.gain_clamp * (1 + np.linalg.norm(K_old)):
        return False
    if not np.all(np.isfinite(g)):
        raise ValueError("kernel entries must be finite")
    table.kernels[a, b] = g
    table._kernels_list[a][b] = g.tolist()
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
        "cores": table.kernels.tolist(),
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
        cfg_kwargs["K0"] = tuple(cfg_kwargs["K0"])
        cfg = TableTrainConfig(**cfg_kwargs)
        return QCoreTable(np.array(doc["theta_nodes"]),
                          np.array(doc["current_nodes"]),
                          doc["cores"], cfg, doc["params_hash"],
                          iterations=np.array(doc["iterations"], int))
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
