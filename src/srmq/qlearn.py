"""Model-free Q-learning for the tracking problem.

Everything in this module works on sampled transition tuples
(M_k, M_{k+1}, stage cost) with M = [x, r, u]; no plant parameter ever
enters.  The quadratic action value 0.5 * M' G M is fitted in the
6-dimensional symmetric half-vectorization basis, by batch least squares
or recursively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# independent entries of a symmetric 3x3 kernel, order:
# (0,0) (0,1) (0,2) (1,1) (1,2) (2,2)
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


@dataclass(frozen=True)
class QKernel:
    """Symmetric 3x3 action-value kernel over M = [x, r, u]."""

    G: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.G, float)
        if G.shape != (3, 3):
            raise ValueError("kernel must be 3x3")
        if not np.all(np.isfinite(G)):
            raise ValueError("kernel entries must be finite")
        # from_vec's kernels are exactly symmetric; skip the tolerance test
        if not ((G == G.T).all() or np.allclose(
                G, G.T, rtol=0, atol=1e-8 * (1 + np.abs(G).max()))):
            raise ValueError("kernel must be symmetric")
        object.__setattr__(self, "G", (G + G.T) / 2)

    @property
    def G_uX(self) -> np.ndarray:
        return self.G[2, :2]

    @property
    def G_uu(self) -> float:
        return float(self.G[2, 2])

    def to_vec(self) -> np.ndarray:
        G = self.G
        return np.array([G[0, 0], G[0, 1], G[0, 2], G[1, 1], G[1, 2], G[2, 2]])

    @classmethod
    def from_vec(cls, g: Sequence[float]) -> "QKernel":
        a, b, c, d, e, f = np.asarray(g, float)
        return cls(np.array([[a, b, c], [b, d, e], [c, e, f]]))


@dataclass(frozen=True)
class DataTuple:
    """One sampled transition: M_k, the successor M_{k+1} under the
    evaluated policy, and the observed stage cost."""

    M_k: np.ndarray
    M_k1: np.ndarray
    stage_cost: float

    def __post_init__(self):
        object.__setattr__(self, "M_k", np.asarray(self.M_k, float).ravel())
        object.__setattr__(self, "M_k1", np.asarray(self.M_k1, float).ravel())
        if self.M_k.shape != (3,) or self.M_k1.shape != (3,):
            raise ValueError("tuple vectors must have 3 entries [x, r, u]")
        if not (np.all(np.isfinite(self.M_k)) and np.all(np.isfinite(self.M_k1))
                and np.isfinite(self.stage_cost)):
            raise ValueError("tuple entries must be finite")
        if self.stage_cost < -1e-9:
            raise ValueError("stage cost must be non-negative")


class TupleBatch(NamedTuple):
    """z sampled transitions as arrays: rows of M_k and M_{k+1} (z, 3) and
    the stage costs (z,); build_ls_rows checks them with DataTuple's rules,
    once per batch."""

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


def policy_improvement(kernel: QKernel) -> np.ndarray:
    """Greedy gain K = G_uu^-1 G_uX; control law u = -K X."""
    if kernel.G_uu <= 0:
        raise _excitation_error(kernel.G_uu)
    return kernel.G_uX / kernel.G_uu


def _as_batch(tuples: TupleBatch | Sequence[DataTuple]) -> TupleBatch:
    """The tuples as float arrays; a list of DataTuples is stacked."""
    if isinstance(tuples, TupleBatch):
        return TupleBatch(*(np.asarray(v, float) for v in tuples))
    return TupleBatch(
        np.array([t.M_k for t in tuples], float).reshape(-1, 3),
        np.array([t.M_k1 for t in tuples], float).reshape(-1, 3),
        np.array([t.stage_cost for t in tuples], float))


def _ls_rows(batch: TupleBatch, gamma: float, live=True):
    """build_ls_rows on a batch that may carry leading node axes, (..., z, 3)
    and (..., z); the data checks apply to the nodes where `live` holds."""
    M_k, M_k1, costs = batch
    z = costs.shape[-1] if costs.ndim else costs.size
    if z < MIN_TUPLES:
        raise ValueError(f"need at least {MIN_TUPLES} tuples, got {z}")
    if M_k.shape != costs.shape + (3,) or M_k1.shape != costs.shape + (3,):
        raise ValueError("tuple vectors must have 3 entries [x, r, u]")
    finite = (np.isfinite(M_k).all(axis=(-2, -1))
              & np.isfinite(M_k1).all(axis=(-2, -1))
              & np.isfinite(costs).all(axis=-1))
    if np.any(live & ~finite):
        raise ValueError("tuple entries must be finite")
    if np.any(live & (costs < -1e-9).any(axis=-1)):
        raise ValueError("stage cost must be non-negative")
    design = (sym_features(M_k.reshape(-1, 3))
              - gamma * sym_features(M_k1.reshape(-1, 3)))
    return design.reshape(costs.shape + (NUM_PARAMS,)), costs


def build_ls_rows(tuples: TupleBatch | Sequence[DataTuple], gamma: float):
    """Bellman regression rows: features(M_k) - gamma * features(M_{k+1}),
    one per tuple, with the stage costs as targets.

    A list of DataTuples is stacked into a TupleBatch first; the batch is
    checked once, with DataTuple's rules.
    """
    return _ls_rows(_as_batch(tuples), gamma)


def _ls_fit(design: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares kernel vector; rejects rank-deficient designs."""
    g, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < NUM_PARAMS:
        raise RankDeficientError(int(rank))
    return g


def batch_ls_solve(design: np.ndarray, targets: np.ndarray) -> QKernel:
    """Least-squares kernel fit; rejects rank-deficient designs."""
    return QKernel.from_vec(_ls_fit(design, targets))


@dataclass(frozen=True)
class RlsState:
    """Recursive least-squares state: current coefficient estimate and
    covariance over the 6 kernel entries."""

    g_vec: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g_vec", np.asarray(self.g_vec, float).ravel())
        object.__setattr__(self, "eta", np.asarray(self.eta, float))
        if self.g_vec.shape != (NUM_PARAMS,):
            raise ValueError("coefficient vector must have 6 entries")
        if self.eta.shape != (NUM_PARAMS, NUM_PARAMS):
            raise ValueError("covariance must be 6x6")
        if not np.allclose(self.eta, self.eta.T):
            raise ValueError("covariance must be symmetric")


def rls_init(tau: float = 1e6, kernel: QKernel | None = None) -> RlsState:
    """Fresh RLS state: covariance tau*I, coefficients from kernel or zero."""
    g = kernel.to_vec() if kernel is not None else np.zeros(NUM_PARAMS)
    return RlsState(g, tau * np.eye(NUM_PARAMS))


def rls_update(state: RlsState, row: np.ndarray, target: float) -> RlsState:
    """One recursive least-squares step on a single regression row."""
    return RlsState(*_rls_step(state.g_vec, state.eta,
                               np.asarray(row, float).ravel(), target))


def _rls_step(g: np.ndarray, eta: np.ndarray, row: np.ndarray, target: float):
    """(g, eta) after one RLS step on plain arrays, unvalidated; the new
    covariance is symmetric by construction."""
    eta_row = eta @ row
    denom = 1.0 + float(row @ eta_row)
    err = target - float(row @ g)
    g = g + eta_row * (err / denom)
    eta = eta - np.outer(eta_row, eta_row) / denom
    return g, (eta + eta.T) / 2


@dataclass(frozen=True)
class QTrainConfig:
    gamma: float = 0.9
    tuples_per_iter: int = 6     # z; must be >= the 6 kernel parameters
    tol: float = 1e-4            # on the gain change between iterations
    max_iters: int = 100

    def __post_init__(self):
        if not (0 < self.gamma <= 1):
            raise ValueError("discount must be in (0, 1]")
        if self.tuples_per_iter < MIN_TUPLES:
            raise ValueError(f"need at least {MIN_TUPLES} tuples per iteration")


class QTrainResult(NamedTuple):
    kernel: QKernel
    gain: np.ndarray
    iterations: int


class QTrainBatchResult(NamedTuple):
    """Outcome per node of a stacked run, in node order; a failed node has
    a zero kernel and iteration count, and its exception in ``failures`` as
    (node, exception), ascending in node."""

    kernels: np.ndarray   # (n, 6) kernel vectors
    iterations: list      # n ints
    failures: list


Collector = Callable[..., TupleBatch | Sequence[DataTuple]
                     | tuple[TupleBatch, dict]]


# the overflow rule of plant._QUIET_OVERFLOW; the learner imports no plant
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def q_policy_iteration(collect: Collector, K0,
                       cfg: QTrainConfig = QTrainConfig()
                       ) -> QTrainResult | QTrainBatchResult:
    """Sampled policy iteration: fit the kernel of the current gain from
    freshly collected tuples, take the greedy gain, repeat until the gain
    stops moving.

    With K0 of shape (2,), collect(gain, count) must return `count` tuples
    (a TupleBatch or a list of DataTuples) gathered under
    u = -gain . [x, r] plus exploration dither, with the successor action in
    M_{k+1} taken by the un-dithered policy.  Convergence is declared on the
    gain, not the kernel: kernel null directions under limited excitation
    make the gain the robust criterion.  A failure raises.

    With K0 of shape (n, 2), n nodes iterate in lockstep, one gain row each:
    collect(gains, count, done) returns a TupleBatch of float (n, count, 3)
    and (n, count) stacks, whose rows of the nodes marked done are ignored,
    and a dict {node: exception} of the nodes whose collection failed.  Each
    node keeps its kernel and iteration count from its own convergence on,
    and a node that fails (its collection, a rank-deficient design, a
    non-positive G_uu or no convergence) is reported in the result while the
    others go on.  Bad data (non-finite tuples or kernels) still raises.
    """
    K = np.array(K0, float)
    single = K.ndim < 2
    if single:
        K, collect_one = K.reshape(1, -1), collect

        def collect(K, count, done):
            batch = _as_batch(collect_one(K[0], count))
            return TupleBatch(*(v[None] for v in batch)), {}
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
        design, targets = _ls_rows(tuples, cfg.gamma, ~done)
        for j in np.flatnonzero(~done):
            try:
                fit[j] = _ls_fit(design[j], targets[j])
            except RankDeficientError as exc:
                fail({j: exc})
        # rows are written only while live and checked at once: all finite
        if not np.all(np.isfinite(fit)):
            raise ValueError("kernel entries must be finite")
        fail({j: _excitation_error(fit[j, 5])
              for j in np.flatnonzero(~done & (fit[:, 5] <= 0))})
        live = ~done
        K_prev, K = K, np.where(live[:, None], fit[:, [2, 4]] / fit[:, 5:], K)
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
    failures = sorted(failures.items())
    if single:
        if failures:
            raise failures[0][1]
        kernel = QKernel.from_vec(fit[0])
        return QTrainResult(kernel, policy_improvement(kernel),
                            int(iterations[0]))
    # a converged node's fit is never written again
    return QTrainBatchResult(np.where(iterations[:, None] > 0, fit, 0.0),
                             iterations.tolist(), failures)
