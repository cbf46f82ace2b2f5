"""Model-based tracking oracle.

Builds the augmented plant+reference system, solves the discounted
Riccati equation in closed form (and, as the independent reference, by
fixed-point iteration), and runs model-based policy iteration.  This
module is the ground truth the model-free learner is validated against;
nothing here is used inside the learner itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .plant import _QUIET_OVERFLOW


class ConvergenceError(RuntimeError):
    """Iteration failed to reach tolerance; carries the worst unconverged
    residual and, for the Riccati solve, the flat batch indices that did
    not converge (``(0,)`` for an unbatched model)."""

    def __init__(self, message: str, residual: float | None = None,
                 indices: tuple = ()):
        super().__init__(message)
        self.residual = residual
        self.indices = indices


class NotStabilizingError(ValueError):
    """Initial policy does not stabilize the discounted closed loop; carries
    the flat batch indices where it fails (``(0,)`` for an unbatched
    model)."""

    def __init__(self, message: str, indices: tuple = ()):
        super().__init__(message)
        self.indices = indices


@dataclass(frozen=True)
class AugmentedModel:
    """The discounted tracking problem of the phase x' = A x + B u, with
    the reference held (r' = r) and the weight q on the error x - r.

    A and B may carry leading batch axes, one model per node, all sharing
    q, R_u and gamma.  The augmented system on X = [x, r] is built once:
    A_a = diag(A, 1), B_b = [B, 0]' and Q_q = q [[1, -1], [-1, 1]].
    """

    A: np.ndarray
    B: np.ndarray
    q: float
    R_u: float
    gamma: float

    def __post_init__(self):
        A, B = np.broadcast_arrays(np.asarray(self.A, float),
                                   np.asarray(self.B, float))
        for v in (A, B, self.q):
            if not np.all(np.isfinite(v)):
                raise ValueError("plant parameters must be finite")
        if not (0 < self.gamma <= 1):
            raise ValueError("discount must be in (0, 1]")
        if not (self.R_u > 0):
            raise ValueError("input weight must be positive")
        batch = A.shape
        A_a = np.zeros(batch + (2, 2))
        A_a[..., 0, 0], A_a[..., 1, 1] = A, 1.0
        B_b = np.zeros(batch + (2, 1))
        B_b[..., 0, 0] = B
        e = np.array([[1.0, -1.0]])
        Q_q = np.broadcast_to(e.T * self.q @ e, batch + (2, 2))
        for name, value in dict(A=A, B=B, A_a=A_a, B_b=B_b, Q_q=Q_q).items():
            object.__setattr__(self, name, value)


def closed_loop(model: AugmentedModel, K: np.ndarray) -> np.ndarray:
    """A_a - B_b K for a row gain K; K of shape (..., 2) gives one loop per
    node of a batched model."""
    return model.A_a - model.B_b @ np.asarray(K, float)[..., None, :]


def spectral_radius(M: np.ndarray):
    """Largest eigenvalue magnitude of M, per matrix of a stack."""
    return np.abs(np.linalg.eigvals(M)).max(axis=-1)


def is_stabilizing(model: AugmentedModel, K: np.ndarray):
    """Discounted stability: sqrt(gamma) * rho(A_a - B_b K) < 1, per node."""
    return np.sqrt(model.gamma) * spectral_radius(closed_loop(model, K)) < 1.0


# test-only: stays public while srmqbench/tracer.py reads it by name
@_QUIET_OVERFLOW
def are_fixed_point(model: AugmentedModel, tol: float = 1e-10,
                    max_iter: int = 10000) -> np.ndarray:
    """Solve the discounted Riccati equation by iterating from P = 0.

    Every model of a batch is iterated in one stacked pass; each keeps the
    first iterate whose own residual (Frobenius norm of the step) drops
    below tol, so its P does not depend on the rest of the batch.  The
    first nan residual (an overflow) stops the solve.
    """
    A, B, g, Ru = model.A_a, model.B_b, model.gamma, model.R_u
    At, Bt = A.swapaxes(-1, -2), B.swapaxes(-1, -2)
    batch = A.shape[:-2]
    P = np.zeros_like(A)
    done, residual = np.zeros(batch, bool), np.full(batch, np.inf)
    for _ in range(max_iter):
        S = Ru + g * (Bt @ P @ B)
        P_next = model.Q_q + g * At @ P @ A \
            - g ** 2 * (At @ P @ B) @ (Bt @ P @ A) / S
        P_next = (P_next + P_next.swapaxes(-1, -2)) / 2
        step = (P_next - P).reshape(batch + (1, 4))
        residual = np.sqrt(step @ step.swapaxes(-1, -2))[..., 0, 0]
        if math.isnan(np.dot(residual, residual)):   # nan if one node's is
            failed = np.flatnonzero(np.isnan(residual))
            raise ConvergenceError(
                f"Riccati iteration diverged (nan residual) at {failed.size} "
                f"of {done.size} nodes, first {failed[:5].tolist()}",
                math.nan, tuple(failed.tolist()))
        P = np.where(done[..., None, None], P, P_next)
        done |= residual < tol
        if done.all():
            return P
    failed = np.flatnonzero(~done)
    worst = float(residual[~done].max())
    raise ConvergenceError(
        f"Riccati iteration did not converge in {max_iter} steps at "
        f"{failed.size} of {done.size} nodes, first {failed[:5].tolist()} "
        f"(worst residual {worst:.3e})", worst, tuple(failed.tolist()))


@_QUIET_OVERFLOW
def are_closed_form(model: AugmentedModel) -> np.ndarray:
    """Solve the discounted Riccati equation in closed form, every node of
    a batch in one pass.

    The model's A_a = diag(A, 1), B_b = [B, 0]' and
    Q_q = q [[1, -1], [-1, 1]] decouple the equation when gamma < 1
    (Kiumarsi, Lewis et al. 2014).  P00 is the least non-negative root of

        gamma B^2 p^2 + (R (1 - gamma A^2) - q gamma B^2) p - q R = 0,

    the limit of the iteration from P = 0 that are_fixed_point runs; it is
    taken as 2c / (-b - sqrt(D)) = 2 q R / (b + sqrt(D)) where the linear
    coefficient b is positive, which avoids the cancellation.  With S = R + gamma B^2 P00,

        P01 = -q / (1 - gamma A + gamma^2 A B^2 P00 / S)
        P11 = (q - gamma^2 B^2 P01^2 / S) / (1 - gamma).
    """
    A, B, q, g, R = model.A, model.B, model.q, model.gamma, model.R_u
    if not g < 1:
        raise ValueError("the closed form needs gamma < 1, got gamma = 1")
    gB2 = g * B * B
    lin = R * (1 - g * A * A) - q * gB2
    root = np.sqrt(lin * lin + 4 * gB2 * q * R)
    P00 = np.where(lin > 0, 2 * q * R / (lin + root),
                   np.where(q > 0, (root - lin) / (2 * gB2), 0.0))
    S = R + gB2 * P00
    P01 = -q / (1 - g * A + g * gB2 * A * P00 / S)
    P11 = (q - g * gB2 * P01 * P01 / S) / (1 - g)
    P = np.stack((np.stack((P00, P01), -1), np.stack((P01, P11), -1)), -2)
    bad = ~np.isfinite(P).all(axis=(-2, -1))
    if bad.any():
        failed = np.flatnonzero(bad)
        raise ConvergenceError(
            f"Riccati closed form is not finite at {failed.size} of "
            f"{bad.size} nodes, first {failed[:5].tolist()}",
            math.nan, tuple(failed.tolist()))
    return P


def optimal_gain(P: np.ndarray, model: AugmentedModel) -> np.ndarray:
    """Greedy gain K = (R_u + g B'PB)^-1 g B'PA; control law u = -K X.

    K has shape (..., 2) for P of shape (..., 2, 2).
    """
    B, A, g = model.B_b, model.A_a, model.gamma
    Bt = B.swapaxes(-1, -2)
    S = model.R_u + g * (Bt @ P @ B)
    if np.any(S <= 0):
        raise ValueError(
            f"singular/indefinite input denominator {S.min():.3e}")
    return (g * Bt @ P @ A / S)[..., 0, :]


def evaluate_policy(model: AugmentedModel, K: np.ndarray) -> np.ndarray:
    """Exact policy evaluation: solve P = Q_K + gamma Ac' P Ac by vectorization.

    A batched model with gains K of shape (..., 2) is evaluated in one
    stacked solve.  The Kronecker product and Q_K = Q_q + R_u (K K') are
    the same products as np.kron and np.outer, so every node's P equals
    its unbatched evaluation bit for bit.
    """
    K = np.asarray(K, float)
    batch = model.A_a.shape[:-2]
    At = closed_loop(model, K).swapaxes(-1, -2)
    Q_K = model.Q_q + model.R_u * (K[..., :, None] * K[..., None, :])
    kron = At[..., :, None, :, None] * At[..., None, :, None, :]
    M = np.eye(4) - model.gamma * kron.reshape(batch + (4, 4))
    # column-major vec(Q_K) in, column-major vec(P) out
    p = np.linalg.solve(M, Q_K.swapaxes(-1, -2).reshape(batch + (4, 1)))
    P = p.reshape(batch + (2, 2)).swapaxes(-1, -2)
    return (P + P.swapaxes(-1, -2)) / 2


class PIResult(NamedTuple):
    P: np.ndarray
    K: np.ndarray
    iterations: int | np.ndarray


@_QUIET_OVERFLOW
def policy_iteration_model_based(model: AugmentedModel, K0,
                                 tol: float = 1e-10,
                                 max_iter: int = 200) -> PIResult:
    """Alternate exact policy evaluation and greedy improvement from K0.

    K0 is one gain, shared by every node of a batched model, and must
    stabilize each node's discounted closed loop, otherwise the evaluated
    cost is unbounded and the linear solve is meaningless.  Every node is
    evaluated in one stacked solve per iteration; each keeps its gain from
    its own convergence on, so its P, K and iteration count do not depend
    on the rest of the batch.  A batched model gives P (..., 2, 2),
    K (..., 2) and an integer array of iterations.
    """
    K0 = np.asarray(K0, float).ravel()
    if K0.shape != (2,):
        raise ValueError("initial gain must have two entries")
    batch = model.A_a.shape[:-2]
    K = np.broadcast_to(K0, batch + (2,))
    done = np.zeros(batch, bool)
    bad = np.flatnonzero(~is_stabilizing(model, K))
    if bad.size:
        where = (f" at {bad.size} of {done.size} nodes, first {bad[0]}"
                 if batch else "")
        raise NotStabilizingError(
            f"initial gain {K0} is not stabilizing for the discounted "
            f"loop{where}", tuple(bad.tolist()))
    iterations = np.zeros(batch, int)
    P = evaluate_policy(model, K)
    for i in range(1, max_iter + 1):
        if not np.all(np.isfinite(P)):
            raise ConvergenceError("policy evaluation diverged")
        K_next = optimal_gain(P, model)
        step = (K_next - K)[..., None, :]
        converged = np.sqrt(step @ step.swapaxes(-1, -2))[..., 0, 0] < tol
        K = np.where(done[..., None], K, K_next)
        iterations = np.where(done, iterations, i)
        done |= converged
        # a converged node's P is that of its final gain
        P = evaluate_policy(model, K)
        if done.all():
            return PIResult(P, K, iterations if batch else int(iterations))
    failed = np.flatnonzero(~done)
    raise ConvergenceError(
        f"policy iteration did not converge in {max_iter} steps at "
        f"{failed.size} of {done.size} nodes, first {failed[:5].tolist()}",
        indices=tuple(failed.tolist()))
