import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srmq.lqt import (AugmentedModel, ConvergenceError, NotStabilizingError,
                      are_closed_form, are_fixed_point, closed_loop,
                      evaluate_policy, is_stabilizing, optimal_gain,
                      policy_iteration_model_based, spectral_radius)
from srmq.plant import frozen_grid
from conftest import build_augmented

# dynamics of one phase frozen at the two inductance extremes:
# A = 1 - T*R/L, B = T/L with T = 1e-4 s, R = 2 ohm
A16, B16 = 0.9875, 0.00625
A6, B6 = 1 - 0.2 / 6, 1e-4 / 6e-3


def motor_model(A, B, **kw):
    return build_augmented(A, B, **kw)


def reference_are(model, tol=1e-10, max_iter=10000):
    """Plain per-node fixed-point loop on one unbatched model: the
    reference the stacked solver must reproduce bit for bit."""
    A, B = model.A_a, model.B_b
    g, Ru = model.gamma, model.R_u
    P = np.zeros((2, 2))
    for _ in range(max_iter):
        S = Ru + g * (B.T @ P @ B).item()
        P_next = model.Q_q + g * A.T @ P @ A \
            - g ** 2 * (A.T @ P @ B) @ (B.T @ P @ A) / S
        P_next = (P_next + P_next.T) / 2
        residual = float(np.linalg.norm(P_next - P))
        P = P_next
        if residual < tol:
            return P
    raise ConvergenceError("reference loop did not converge", residual)


def reference_evaluate_policy(model, K):
    """Per-node policy evaluation on one unbatched model, with np.kron and
    np.outer: the reference the stacked evaluation must reproduce."""
    K = np.asarray(K, float).ravel()
    Ac = model.A_a - model.B_b @ K.reshape(1, 2)
    Q_K = model.Q_q + model.R_u * np.outer(K, K)
    M = np.eye(4) - model.gamma * np.kron(Ac.T, Ac.T)
    p = np.linalg.solve(M, Q_K.flatten(order="F"))
    P = p.reshape(2, 2, order="F")
    return (P + P.T) / 2


def reference_policy_iteration(model, K0, tol=1e-10, max_iter=200):
    """Per-node policy iteration loop: (P, K, iterations), or None where
    it does not converge within max_iter."""
    K = np.asarray(K0, float).ravel()
    for i in range(1, max_iter + 1):
        P = reference_evaluate_policy(model, K)
        K_next = reference_gain(P, model)
        if np.linalg.norm(K_next - K) < tol:
            return reference_evaluate_policy(model, K_next), K_next, i
        K = K_next
    return None


def reference_gain(P, model):
    B, A, g = model.B_b, model.A_a, model.gamma
    S = model.R_u + g * (B.T @ P @ B).item()
    return (g * B.T @ P @ A / S).ravel()


def grid_dynamics(params, surface):
    """(A, B) of the frozen local model at every node of the default
    16x8 surface, row-major."""
    return frozen_grid(params, surface)[1:]


def random_dynamics(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.3, 0.995, n), rng.uniform(0.005, 0.5, n)


def overflowing_node_1():
    """Three stacked models whose node 1 has A = -1e160, a resistance so
    large that its Riccati solution overflows."""
    A, B = random_dynamics(3)
    A[1] = -1e160
    return build_augmented(A, B)


def random_stable_model(rng):
    A = rng.uniform(0.3, 0.995)
    B = rng.uniform(0.005, 0.5)
    return build_augmented(A, B)


class TestBuildAugmented:
    def test_holds_the_plant_and_the_weights(self):
        m = motor_model(A16, B16, Q=50.0, R_u=0.01, gamma=0.8)
        assert [f.name for f in fields(AugmentedModel)] == [
            "A", "B", "q", "R_u", "gamma"]
        assert (m.A, m.B, m.q, m.R_u, m.gamma) == (A16, B16, 50.0, 0.01, 0.8)

    def test_blocks(self):
        m = motor_model(A16, B16)
        assert np.array_equal(m.A_a, np.diag([A16, 1.0]))
        assert np.array_equal(m.B_b, [[B16], [0.0]])

    def test_tracking_weight(self):
        m = motor_model(A16, B16, Q=100.0)
        assert np.array_equal(m.Q_q, [[100.0, -100.0], [-100.0, 100.0]])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_augmented(A16, B16, gamma=0.0)
        with pytest.raises(ValueError):
            build_augmented(A16, B16, gamma=1.5)
        with pytest.raises(ValueError):
            build_augmented(A16, B16, R_u=0.0)
        with pytest.raises(ValueError):
            build_augmented(float("inf"), B16)


class TestRiccati:
    def test_zero_state_weight_gives_zero_cost(self):
        m = motor_model(A16, B16, Q=0.0)
        P = are_fixed_point(m)
        assert np.allclose(P, 0.0, atol=1e-12)
        assert np.allclose(optimal_gain(P, m), 0.0, atol=1e-12)

    def test_kernel_is_symmetric_psd(self):
        m = motor_model(A16, B16)
        P = are_fixed_point(m)
        assert np.allclose(P, P.T)
        assert np.all(np.linalg.eigvalsh(P) >= -1e-9)

    def test_fixed_point_satisfies_equation(self):
        m = motor_model(A16, B16)
        P = are_fixed_point(m, tol=1e-13)
        A, B, g = m.A_a, m.B_b, m.gamma
        S = m.R_u + g * (B.T @ P @ B).item()
        rhs = m.Q_q + g * A.T @ P @ A \
            - g ** 2 * (A.T @ P @ B) @ (B.T @ P @ A) / S
        assert np.allclose(P, rhs, atol=1e-10)

    def test_aligned_gain_matches_frozen_value(self):
        # independently recomputed by iterating the Riccati map; near the
        # [120, -122] point design discussed in the README
        m = motor_model(A16, B16)
        K = optimal_gain(are_fixed_point(m), m)
        assert K == pytest.approx([127.76253618, -129.71122818], abs=1e-6)

    def test_unaligned_gain_matches_frozen_value(self):
        m = motor_model(A6, B6)
        K = optimal_gain(are_fixed_point(m), m)
        assert K == pytest.approx([55.83659832, -57.82657505], abs=1e-6)

    def test_reference_point_design_within_band(self):
        m = motor_model(A16, B16)
        K = optimal_gain(are_fixed_point(m), m)
        assert abs(K[0] - 120.0) / 120.0 < 0.15
        assert abs(K[1] + 122.0) / 122.0 < 0.15

    def test_optimal_loop_is_discounted_stable(self):
        for A, B in ((A16, B16), (A6, B6)):
            m = motor_model(A, B)
            K = optimal_gain(are_fixed_point(m), m)
            assert is_stabilizing(m, K)
            assert np.sqrt(m.gamma) * spectral_radius(closed_loop(m, K)) < 1.0

    def test_cost_against_simulated_rollout(self):
        # V(X0) = sum_k gamma^k (X'QX + R u^2) under the greedy policy,
        # summed directly over a long rollout
        m = motor_model(A16, B16)
        P = are_fixed_point(m, tol=1e-13)
        K = optimal_gain(P, m)
        X0 = np.array([1.0, 4.0])
        X = X0.copy()
        total = 0.0
        for k in range(600):
            u = float(-K @ X)
            total += m.gamma ** k * (X @ m.Q_q @ X + m.R_u * u * u)
            X = (m.A_a @ X).ravel() + m.B_b.ravel() * u
        assert total == pytest.approx(float(X0 @ P @ X0), rel=1e-9)

    def test_greedy_action_minimizes_one_step_cost(self):
        # scalar sanity model: the greedy u beats a fine grid of alternatives
        m = build_augmented(0.5, 1.0, Q=1.0, R_u=1.0, gamma=0.9)
        P = are_fixed_point(m, tol=1e-13)
        K = optimal_gain(P, m)
        X = np.array([2.0, -1.0])
        u_star = float(-K @ X)

        def q(u):
            Xn = (m.A_a @ X).ravel() + m.B_b.ravel() * u
            return X @ m.Q_q @ X + m.R_u * u * u + m.gamma * Xn @ P @ Xn

        grid = np.linspace(u_star - 1.0, u_star + 1.0, 2001)
        assert q(u_star) <= min(q(u) for u in grid) + 1e-9

    def test_nonconvergence_raises_with_residual(self):
        m = motor_model(A16, B16)
        with pytest.raises(ConvergenceError) as exc:
            are_fixed_point(m, tol=1e-15, max_iter=3)
        assert exc.value.residual is not None
        assert exc.value.residual > 0
        assert exc.value.indices == (0,)

    def test_steady_error_shrinks_with_cheaper_input(self):
        errors = []
        for R_u in (0.1, 0.01, 0.001):
            m = motor_model(A16, B16, R_u=R_u)
            K = optimal_gain(are_fixed_point(m), m)
            X = np.array([0.0, 4.0])
            for _ in range(2000):
                X = (m.A_a @ X).ravel() + m.B_b.ravel() * float(-K @ X)
            errors.append(abs(X[0] - X[1]))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.05   # < 1.25 % of a 4 A reference


class TestStackedRiccati:
    """One stacked solve over many nodes equals the per-node loop."""

    @staticmethod
    def assert_matches_reference(A, B, **kw):
        stacked = build_augmented(A, B)
        P = are_fixed_point(stacked, **kw)
        K = optimal_gain(P, stacked)
        assert P.shape == (len(A), 2, 2) and K.shape == (len(A), 2)
        for k in range(len(A)):
            node = build_augmented(A[k], B[k])
            P_ref = reference_are(node, **kw)
            assert np.array_equal(P[k], P_ref), k
            assert np.array_equal(K[k], reference_gain(P_ref, node)), k

    def test_bit_identical_on_default_grid(self, params, surface):
        self.assert_matches_reference(*grid_dynamics(params, surface))

    def test_bit_identical_on_random_models(self):
        self.assert_matches_reference(*random_dynamics(50), tol=1e-13)

    def test_batched_blocks(self):
        A, B = random_dynamics(3)
        m = build_augmented(A, B, Q=100.0)
        assert m.A_a.shape == (3, 2, 2) and m.B_b.shape == (3, 2, 1)
        assert m.Q_q.shape == (3, 2, 2)
        for k in range(3):
            node = build_augmented(A[k], B[k], Q=100.0)
            for name in ("A_a", "B_b", "Q_q"):
                assert np.array_equal(getattr(m, name)[k], getattr(node, name))

    def test_nonconvergence_lists_unconverged_indices(self):
        A, B = random_dynamics(20, seed=1)
        with pytest.raises(ConvergenceError) as exc:
            are_fixed_point(build_augmented(A, B), max_iter=3)
        assert exc.value.residual > 0
        assert exc.value.indices == tuple(range(20))

    def test_partial_nonconvergence_matches_reference(self):
        # nodes converge at different iterates; exactly those the
        # per-node loop cannot finish within max_iter are reported
        A, B = random_dynamics(20, seed=1)
        max_iter = 160
        failing = []
        for k in range(20):
            try:
                reference_are(build_augmented(A[k], B[k]), max_iter=max_iter)
            except ConvergenceError:
                failing.append(k)
        assert 0 < len(failing) < 20
        with pytest.raises(ConvergenceError) as exc:
            are_fixed_point(build_augmented(A, B), max_iter=max_iter)
        assert exc.value.indices == tuple(failing)
        assert exc.value.residual > 0

    def test_divergence_stops_and_names_the_node(self):
        # one node's plant so far from the others that its P overflows: the
        # solve stops at its first nan residual, with no numpy warning,
        # naming that node
        model = overflowing_node_1()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="diverged") as exc:
                are_fixed_point(model)
        assert exc.value.indices == (1,)

    def test_single_node_keeps_scalar_shapes(self):
        m = motor_model(A16, B16)
        P = are_fixed_point(m)
        K = optimal_gain(P, m)
        assert m.A_a.shape == (2, 2) and m.B_b.shape == (2, 1)
        assert P.shape == (2, 2) and K.shape == (2,)
        one = build_augmented(np.array([A16]), np.array([B16]))
        P1 = are_fixed_point(one)
        K1 = optimal_gain(P1, one)
        assert P1.shape == (1, 2, 2) and K1.shape == (1, 2)
        assert np.array_equal(P1[0], P) and np.array_equal(K1[0], K)


class TestClosedFormRiccati:
    """The closed form agrees with the iterated solve, its reference."""

    @staticmethod
    def relative(got, ref, axes):
        return np.linalg.norm(got - ref, axis=axes) \
            / np.linalg.norm(ref, axis=axes)

    def test_matches_iteration_on_criterion_2_plants(self):
        # the 100 random plants of acceptance criterion 2, stacked
        draws = [np.random.default_rng(trial) for trial in range(100)]
        A = np.array([rng.uniform(0.3, 0.995) for rng in draws])
        B = np.array([rng.uniform(0.005, 0.5) for rng in draws])
        m = build_augmented(A, B)
        P, P_ref = are_closed_form(m), are_fixed_point(m, tol=1e-13)
        assert self.relative(P, P_ref, (-2, -1)).max() < 1e-13
        K, K_ref = optimal_gain(P, m), optimal_gain(P_ref, m)
        assert self.relative(K, K_ref, -1).max() < 1e-14

    def test_gain_matches_iteration_on_default_grid(self, params, surface):
        m = build_augmented(*grid_dynamics(params, surface))
        K = optimal_gain(are_closed_form(m), m)
        K_ref = optimal_gain(are_fixed_point(m, tol=1e-13), m)
        assert self.relative(K, K_ref, -1).max() < 1e-14

    def test_tiny_input_gain_avoids_cancellation(self):
        # B = 1e-8 makes -b and sqrt(D) agree to about eight digits, which
        # the root's cancellation-free form does not subtract
        m = motor_model(0.9, 1e-8)
        P, P_ref = are_closed_form(m), are_fixed_point(m, tol=1e-13)
        assert self.relative(P, P_ref, (-2, -1)) < 1e-13
        K, K_ref = optimal_gain(P, m), optimal_gain(P_ref, m)
        assert self.relative(K, K_ref, -1) < 1e-14

    def test_satisfies_equation(self):
        m = build_augmented(*random_dynamics(20, seed=2))
        P = are_closed_form(m)
        A, B, g = m.A_a, m.B_b, m.gamma
        At, Bt = A.swapaxes(-1, -2), B.swapaxes(-1, -2)
        rhs = m.Q_q + g * At @ P @ A \
            - g ** 2 * (At @ P @ B) @ (Bt @ P @ A) / (m.R_u + g * Bt @ P @ B)
        assert np.allclose(P, rhs, rtol=1e-12, atol=0)
        assert np.array_equal(P, P.swapaxes(-1, -2))

    @pytest.mark.parametrize("A", [0.9875, -5.0])
    def test_zero_state_weight_gives_zero_cost(self, A):
        # also where the discounted plant is unstable: doing nothing costs
        # nothing, and the iteration from P = 0 stays there
        m = motor_model(A, B16, Q=0.0)
        assert np.all(are_closed_form(m) == 0)
        assert np.all(are_fixed_point(m) == 0)

    def test_unstable_plant_matches_iteration(self):
        m = motor_model(-5.0, 0.05, Q=3.0)
        P = are_closed_form(m)
        assert np.allclose(P, are_fixed_point(m, tol=1e-12), rtol=1e-12, atol=0)

    def test_single_node_keeps_scalar_shapes(self):
        m = motor_model(A16, B16)
        P = are_closed_form(m)
        assert P.shape == (2, 2)
        P1 = are_closed_form(build_augmented(np.array([A16]), np.array([B16])))
        assert P1.shape == (1, 2, 2) and np.array_equal(P1[0], P)

    def test_refuses_undiscounted_model(self):
        with pytest.raises(ValueError, match="gamma < 1"):
            are_closed_form(motor_model(A16, B16, gamma=1.0))

    def test_overflow_names_every_node(self, params, surface):
        # q_weight = 1e160 overflows the discriminant at every node of the
        # default grid: one error listing all 128, with no numpy warning
        m = build_augmented(*grid_dynamics(params, surface), Q=1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError,
                               match=r"at 128 of 128 nodes, first "
                                     r"\[0, 1, 2, 3, 4\]") as exc:
                are_closed_form(m)
        assert exc.value.indices == tuple(range(128))

    def test_overflow_names_only_the_failing_node(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="at 1 of 3 nodes") \
                    as exc:
                are_closed_form(overflowing_node_1())
        assert exc.value.indices == (1,)


class TestStackedPolicyIteration:
    """One stacked policy iteration over many nodes equals the per-node
    loop: P, K and the iteration count of every node, bit for bit."""

    @staticmethod
    def assert_matches_reference(model, K0, **kw):
        res = policy_iteration_model_based(model, K0, **kw)
        n = len(model.A)
        assert res.P.shape == (n, 2, 2) and res.K.shape == (n, 2)
        assert res.iterations.shape == (n,)
        for k in range(n):
            P, K, iters = reference_policy_iteration(
                build_augmented(model.A[k], model.B[k], model.q, model.R_u,
                                model.gamma), K0, **kw)
            assert np.array_equal(res.P[k], P), k
            assert np.array_equal(res.K[k], K), k
            assert res.iterations[k] == iters, k

    def test_bit_identical_on_random_models(self):
        # 10 batches of 200 open-loop stable plants, each batch with its
        # own weights, discount and a shared initial gain that stabilizes
        # every plant of it (|A - B k_x| < 1, and r' = r is discounted)
        rng = np.random.default_rng(2024)
        for _ in range(10):
            A, B = rng.uniform(0.3, 0.995, 200), rng.uniform(0.005, 0.5, 200)
            model = build_augmented(A, B, Q=rng.uniform(0.1, 1000.0),
                                    R_u=10 ** rng.uniform(-4, 0),
                                    gamma=rng.uniform(0.5, 0.99))
            K0 = [rng.uniform(0.0, 1.0), -rng.uniform(0.0, 1.0)]
            self.assert_matches_reference(model, K0)

    def test_bit_identical_on_default_grid(self, params, surface):
        model = build_augmented(*grid_dynamics(params, surface))
        self.assert_matches_reference(model, [100.0, -100.0])

    def test_batched_evaluation_matches_reference(self):
        rng = np.random.default_rng(5)
        A, B = random_dynamics(300, seed=5)
        model = build_augmented(A, B)
        K = rng.uniform(-2.0, 2.0, (300, 2))
        P = evaluate_policy(model, K)
        for k in range(300):
            node = build_augmented(A[k], B[k])
            assert np.array_equal(P[k], reference_evaluate_policy(node, K[k]))

    def test_not_stabilizing_names_the_failing_nodes(self):
        # k_x = 30 overshoots exactly the plants with A - 30 B < -1/sqrt(g)
        A, B = random_dynamics(40, seed=3)
        model = build_augmented(A, B)
        failing = [k for k in range(40)
                   if not is_stabilizing(build_augmented(A[k], B[k]),
                                         [30.0, 0.0])]
        assert 0 < len(failing) < 40
        with pytest.raises(NotStabilizingError) as exc:
            policy_iteration_model_based(model, [30.0, 0.0])
        assert exc.value.indices == tuple(failing)
        assert f"first {failing[0]}" in str(exc.value)

    def test_partial_nonconvergence_matches_reference(self):
        A, B = random_dynamics(60, seed=4)
        model = build_augmented(A, B)
        max_iter = 4      # 54 of these plants need 4 iterations, 6 need 5
        failing = [k for k in range(60)
                   if reference_policy_iteration(build_augmented(A[k], B[k]),
                                                 [0.0, 0.0], max_iter=max_iter)
                   is None]
        assert 0 < len(failing) < 60
        with pytest.raises(ConvergenceError) as exc:
            policy_iteration_model_based(model, [0.0, 0.0], max_iter=max_iter)
        assert exc.value.indices == tuple(failing)

    def test_single_node_keeps_scalar_shapes(self):
        m = motor_model(A16, B16)
        res = policy_iteration_model_based(m, [100.0, -100.0])
        assert res.P.shape == (2, 2) and res.K.shape == (2,)
        assert type(res.iterations) is int
        one = policy_iteration_model_based(
            build_augmented(np.array([A16]), np.array([B16])), [100.0, -100.0])
        assert np.array_equal(one.P[0], res.P)
        assert np.array_equal(one.K[0], res.K)
        assert one.iterations[0] == res.iterations


class TestPolicyEvaluation:
    def test_lyapunov_identity(self):
        m = motor_model(A16, B16)
        K = np.array([100.0, -100.0])
        P = evaluate_policy(m, K)
        Ac = closed_loop(m, K)
        Q_K = m.Q_q + m.R_u * np.outer(K, K)
        assert np.allclose(P, Q_K + m.gamma * Ac.T @ P @ Ac, atol=1e-8)

    def test_matches_discounted_rollout_cost(self):
        m = motor_model(A6, B6)
        K = np.array([40.0, -40.0])
        P = evaluate_policy(m, K)
        X = np.array([2.0, 4.0])
        total = 0.0
        Xk = X.copy()
        for k in range(800):
            u = float(-K @ Xk)
            total += m.gamma ** k * (Xk @ m.Q_q @ Xk + m.R_u * u * u)
            Xk = (m.A_a @ Xk).ravel() + m.B_b.ravel() * u
        assert total == pytest.approx(float(X @ P @ X), rel=1e-9)

    def test_policy_iteration_is_monotone(self):
        m = motor_model(A16, B16)
        K = np.array([100.0, -100.0])
        X = np.array([1.0, 4.0])
        prev = np.inf
        for _ in range(6):
            P = evaluate_policy(m, K)
            cost = float(X @ P @ X)
            assert cost <= prev + 1e-9
            prev = cost
            K = optimal_gain(P, m)


class TestPolicyIteration:
    def test_fixed_point_at_optimum(self):
        m = motor_model(A16, B16)
        K_star = optimal_gain(are_fixed_point(m, tol=1e-13), m)
        res = policy_iteration_model_based(m, K_star)
        assert res.iterations == 1
        assert res.K == pytest.approx(K_star, abs=1e-9)

    def test_converges_from_reference_start(self):
        m = motor_model(A16, B16)
        res = policy_iteration_model_based(m, [100.0, -100.0])
        K_star = optimal_gain(are_fixed_point(m, tol=1e-13), m)
        assert res.K == pytest.approx(K_star, abs=1e-7)
        assert res.iterations < 20

    def test_rejects_destabilizing_start(self):
        m = motor_model(A16, B16)
        with pytest.raises(NotStabilizingError):
            policy_iteration_model_based(m, [-500.0, 0.0])

    def test_bad_gain_shape_rejected(self):
        m = motor_model(A16, B16)
        with pytest.raises(ValueError):
            policy_iteration_model_based(m, [1.0, 2.0, 3.0])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_riccati_on_random_plants(self, seed):
        rng = np.random.default_rng(seed)
        m = random_stable_model(rng)
        A, B = m.A_a[0, 0], m.B_b[0, 0]
        K0 = 0.9 * np.array([A / B, -A / B])   # backed-off deadbeat start
        res = policy_iteration_model_based(m, K0)
        K_star = optimal_gain(are_fixed_point(m, tol=1e-13), m)
        assert np.linalg.norm(res.K - K_star) / np.linalg.norm(K_star) < 1e-8
