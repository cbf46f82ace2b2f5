"""Model-free Q-learning for the tracking problem.

Everything in this module works on sampled transition tuples
(M_k, M_{k+1}, stage cost) with M = [x, r, u]; no plant parameter ever
enters.  The quadratic action value 0.5 * M' G M is fitted in the
6-dimensional symmetric half-vectorization basis, by batch least squares
or recursively.  Every function works on arrays, and on stacks of them
over leading node axes: tuples in a TupleBatch, kernels as 6-vectors.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

# independent entries of a symmetric 3x3 kernel, the order of every kernel
# vector: (0,0) (0,1) (0,2) (1,1) (1,2) (2,2); the greedy gain reads
# G_ux, G_ur and G_uu, entries 2, 4 and 5
NUM_PARAMS = 6
MIN_TUPLES = NUM_PARAMS


class RankDeficientError(RuntimeError):
    """Regression design is not full rank; the dither was insufficient."""

    def __init__(self, rank: int):
        super().__init__(f"design matrix rank {rank} < {NUM_PARAMS}; "
                         "training data lacks persistent excitation")
        self.rank = rank


class ExcitationError(RuntimeError):
    """Fitted kernel has a non-positive input block; evaluation failed."""


class QTrainError(RuntimeError):
    """Policy iteration on sampled data failed to converge."""


class TupleBatch(NamedTuple):
    """z sampled transitions as arrays, over any leading node axes: M_k and
    M_{k+1} (..., z, 3) and the stage costs (..., z); build_ls_rows checks
    them once per batch."""

    M_k: np.ndarray
    M_k1: np.ndarray
    costs: np.ndarray


def sym_features(M: np.ndarray) -> np.ndarray:
    """Quadratic monomials of M in the symmetric basis, cross terms doubled,
    so that features(M) . vec(G) == M' G M.  A stack M of shape (z, 3)
    gives one row of features per vector."""
    m0, m1, m2 = np.asarray(M).T
    return np.array([m0 * m0, 2 * m0 * m1, 2 * m0 * m2,
                     m1 * m1, 2 * m1 * m2, m2 * m2]).T


def _bellman_row(M_k, M_k1, gamma: float) -> np.ndarray:
    """sym_features(M_k) - gamma * sym_features(M_k1) for one transition,
    built on Python floats: the same elementwise IEEE products and
    differences, so the same bits, without numpy's per-call overhead."""
    x0, x1, x2 = M_k
    y0, y1, y2 = M_k1
    return np.array([x0 * x0 - gamma * (y0 * y0),
                     2 * x0 * x1 - gamma * (2 * y0 * y1),
                     2 * x0 * x2 - gamma * (2 * y0 * y2),
                     x1 * x1 - gamma * (y1 * y1),
                     2 * x1 * x2 - gamma * (2 * y1 * y2),
                     x2 * x2 - gamma * (y2 * y2)])


def stage_cost(X, u: float, Q_q: np.ndarray, R_u: float) -> float:
    """One-step tracking cost X' Q_q X + R_u u^2."""
    X = np.asarray(X, float)
    return float(X @ Q_q @ X + R_u * u * u)


def _stage_costs(x: np.ndarray, r: np.ndarray, u: np.ndarray,
                 Q_q: np.ndarray, R_u: float) -> np.ndarray:
    """stage_cost of every step ([x, r], u) of the columns x, r, u in one
    stacked pass: the same products and sums, bit for bit."""
    X = np.stack((x, r), axis=1)
    return ((X[:, None, :] @ Q_q) @ X[:, :, None])[:, 0, 0] + R_u * u * u


def _excitation_error(g_uu: float) -> ExcitationError:
    return ExcitationError(
        f"G_uu = {g_uu:.3e} is not positive; kernel is not a valid "
        "action value (insufficient excitation)")


def policy_improvement(kernel: np.ndarray) -> np.ndarray:
    """Greedy gains K = G_uX / G_uu, (..., 2), of a stack of kernel vectors
    (..., 6); the control law is u = -K . [x, r]."""
    kernel = np.asarray(kernel, float)
    g_uu = kernel[..., 5:]
    if np.any(g_uu <= 0):
        raise _excitation_error(g_uu[g_uu <= 0][0])
    return kernel[..., [2, 4]] / g_uu


def build_ls_rows(tuples: TupleBatch, gamma: float):
    """Bellman regression rows features(M_k) - gamma * features(M_{k+1}),
    (..., z, 6), one per tuple, and the stage costs as targets (..., z).

    The batch is checked once: 3-entry vectors, at least 6 tuples per
    node, finite entries and non-negative costs.
    """
    M_k, M_k1, costs = (np.asarray(v, float) for v in tuples)
    z = costs.shape[-1] if costs.ndim else costs.size
    if z < MIN_TUPLES:
        raise ValueError(f"need at least {MIN_TUPLES} tuples, got {z}")
    if M_k.shape != costs.shape + (3,) or M_k1.shape != costs.shape + (3,):
        raise ValueError("tuple vectors must have 3 entries [x, r, u]")
    if not (np.isfinite(M_k).all() and np.isfinite(M_k1).all()
            and np.isfinite(costs).all()):
        raise ValueError("tuple entries must be finite")
    if np.any(costs < -1e-9):
        raise ValueError("stage cost must be non-negative")
    design = (sym_features(M_k.reshape(-1, 3))
              - gamma * sym_features(M_k1.reshape(-1, 3)))
    return design.reshape(costs.shape + (NUM_PARAMS,)), costs


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def batch_ls_solve(design: np.ndarray, targets: np.ndarray):
    """(g, rank): the least-squares kernel vectors and design ranks of a
    stack of regressions, (..., z, 6) and (..., z).  A rank below 6 means
    the data lacked excitation; the caller decides what to do with it.

    One call of the gufunc under np.linalg.lstsq, with its rcond and,
    whatever the caller's errstate, its LinAlgError rule, so each row is
    np.linalg.lstsq(rcond=None)'s bit for bit."""
    rcond = np.finfo(float).eps * max(design.shape[-2], NUM_PARAMS)
    with np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        g, _, rank, _ = _umath_linalg.lstsq(design, targets[..., None], rcond,
                                            signature="ddd->ddid")
    return g[..., 0], rank


def rls_update(g: np.ndarray, eta: np.ndarray, row: np.ndarray,
               target: float):
    """(g, eta) after one recursive least-squares step of the kernel vector
    g and its covariance eta on one regression row; unvalidated, and the
    new covariance is symmetric by construction."""
    eta_row = eta @ row
    denom = 1.0 + float(row @ eta_row)
    err = target - float(row @ g)
    g = g + eta_row * (err / denom)
    eta = eta - np.outer(eta_row, eta_row) / denom
    return g, (eta + eta.T) / 2


class QTrainBatchResult(NamedTuple):
    """Outcome per node of a stacked run, in node order; a failed node has
    a zero kernel and iteration count, and its exception in ``failures`` as
    (node, exception), ascending in node."""

    kernels: np.ndarray   # (n, 6) kernel vectors
    iterations: list      # n ints
    failures: list


Collector = Callable[..., tuple[TupleBatch, dict]]


# the overflow rule of plant._QUIET_OVERFLOW; the learner imports no plant
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def q_policy_iteration(collect: Collector, K0, cfg) -> QTrainBatchResult:
    """Sampled policy iteration: fit the kernel of the current gain from
    freshly collected tuples, take the greedy gain, repeat until the gain
    stops moving.  Convergence is declared on the gain, not the kernel:
    kernel null directions under limited excitation make the gain the
    robust criterion.

    cfg gives the discount gamma, the tuples collected per iteration
    (tuples_per_iter), the tolerance tol on the gain change between
    iterations and the iteration cap max_iters: the table's
    TableTrainConfig, which checks them where it is built.

    K0 holds one gain row per node, shape (n, 2), and the n nodes iterate
    in lockstep.  collect(gains, count, done) returns a TupleBatch of float
    (n, count, 3) and (n, count) stacks, gathered for node j under
    u = -gains[j] . [x, r] plus exploration dither with the successor
    action in M_{k+1} taken by the un-dithered policy, whose rows of the
    nodes marked done are ignored, and a dict {node: exception} of the
    nodes whose collection failed.  Each node keeps its kernel and
    iteration count from its own convergence on, and a node that fails
    (its collection, a rank-deficient design, a non-positive G_uu or no
    convergence) is reported in the result while the others go on.  Bad
    data (non-finite tuples or kernels) still raises.
    """
    K = np.array(K0, float)
    if K.ndim != 2 or K.shape[1] != 2:
        raise ValueError(f"K0 must hold one gain row [k_x, k_r] per node, "
                         f"shape (n, 2), got shape {K.shape}")
    n = K.shape[0]
    done = np.zeros(n, bool)
    failures = {}
    fit = np.zeros((n, NUM_PARAMS))
    iterations = np.zeros(n, int)

    def fail(excs):
        for j, exc in excs.items():
            failures[int(j)] = exc
            done[j] = True

    for i in range(1, cfg.max_iters + 1):
        tuples, aborted = collect(K, cfg.tuples_per_iter, done)
        fail(aborted)
        rows = np.flatnonzero(~done)
        g, rank = batch_ls_solve(*build_ls_rows(
            TupleBatch(*(v[rows] for v in tuples)), cfg.gamma))
        full = rank >= NUM_PARAMS
        fit[rows[full]] = g[full]
        fail({j: RankDeficientError(int(r))
              for j, r in zip(rows[~full], rank[~full])})
        # rows are written only while live and checked at once: all finite
        if not np.all(np.isfinite(fit)):
            raise ValueError("kernel entries must be finite")
        fail({j: _excitation_error(fit[j, 5])
              for j in np.flatnonzero(~done & (fit[:, 5] <= 0))})
        live = ~done
        K_prev, K = K, K.copy()
        K[live] = policy_improvement(fit[live])
        step = (K - K_prev)[:, None, :]
        converged = live & (np.sqrt(step @ step.swapaxes(-1, -2))[:, 0, 0]
                            < cfg.tol)
        iterations[converged] = i
        done |= converged
        if done.all():
            break
    fail({j: QTrainError(f"gain did not settle within {cfg.max_iters} "
                         f"iterations (last gain {K[j]})")
          for j in np.flatnonzero(~done)})
    # a converged node's fit is never written again
    return QTrainBatchResult(np.where(iterations[:, None] > 0, fit, 0.0),
                             iterations.tolist(), sorted(failures.items()))
