import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srmq import lqt, qlearn
from srmq.qlearn import (DataTuple, ExcitationError, QKernel, QTrainConfig,
                         QTrainError, RankDeficientError, TupleBatch,
                         batch_ls_solve,
                         build_ls_rows, policy_improvement, q_policy_iteration,
                         rls_init, rls_update, stage_cost, sym_features)

A16, B16 = 0.9875, 0.00625


def kernel_from_value_matrix(model, P):
    """Ground-truth action-value kernel for a given cost matrix P, assembled
    from the model the learner never sees."""
    A, B, g = model.A_a, model.B_b, model.gamma
    G_XX = model.Q_q + g * A.T @ P @ A
    G_Xu = g * (A.T @ P @ B).ravel()
    G_uu = model.R_u + g * (B.T @ P @ B).item()
    G = np.zeros((3, 3))
    G[:2, :2] = G_XX
    G[:2, 2] = G_Xu
    G[2, :2] = G_Xu
    G[2, 2] = G_uu
    return QKernel(G)


def reference_ls_rows(tuples, gamma):
    """Regression rows one tuple at a time, from the scalar feature map:
    the reference the stacked build_ls_rows must reproduce bit for bit."""
    def features(M):
        m0, m1, m2 = M
        return np.array([m0 * m0, 2 * m0 * m1, 2 * m0 * m2,
                         m1 * m1, 2 * m1 * m2, m2 * m2])
    design = np.array([features(t.M_k) - gamma * features(t.M_k1)
                       for t in tuples])
    return design, np.array([t.stage_cost for t in tuples])


def as_batch(tuples):
    return TupleBatch(np.array([t.M_k for t in tuples]),
                      np.array([t.M_k1 for t in tuples]),
                      np.array([t.stage_cost for t in tuples]))


def make_collector(model, rng, dither=15.0):
    """Sampled-transition source for one frozen linear model."""
    A, B = model.A_a[0, 0], model.B_b[0, 0]

    def collect(K, count):
        tuples = []
        for _ in range(count):
            x = rng.uniform(0.0, 6.0)
            r = rng.uniform(1.0, 5.0)
            u = -(K[0] * x + K[1] * r) + dither * rng.uniform(-1, 1)
            x1 = A * x + B * u
            u1 = -(K[0] * x1 + K[1] * r)
            c = stage_cost((x, r), u, model.Q_q, model.R_u)
            tuples.append(DataTuple((x, r, u), (x1, r, u1), c))
        return tuples

    return collect


class TestKernel:
    def test_example_value(self):
        k = QKernel(np.eye(3))
        M = np.array([1.0, 2.0, 3.0])
        assert 0.5 * M @ k.G @ M == pytest.approx(7.0)

    def test_blocks(self):
        G = np.array([[1.0, 2, 3], [2, 4, 5], [3, 5, 6]])
        k = QKernel(G)
        assert np.array_equal(k.G[:2, :2], [[1, 2], [2, 4]])
        assert np.array_equal(k.G_uX, [3, 5])
        assert k.G_uu == 6.0

    def test_vec_round_trip(self):
        G = np.array([[1.0, 2, 3], [2, 4, 5], [3, 5, 6]])
        k = QKernel(G)
        assert np.array_equal(QKernel.from_vec(k.to_vec()).G, G)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            QKernel(np.array([[1.0, 2, 3], [0, 4, 5], [3, 5, 6]]))

    @given(g=st.lists(st.floats(-10, 10), min_size=6, max_size=6),
           m=st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_features_reproduce_quadratic_form(self, g, m):
        k = QKernel.from_vec(g)
        M = np.array(m)
        assert sym_features(M) @ k.to_vec() == pytest.approx(M @ k.G @ M,
                                                             rel=1e-9, abs=1e-9)


class TestStageCost:
    def test_examples(self):
        Q_q = np.array([[100.0, -100.0], [-100.0, 100.0]])
        assert stage_cost((4.0, 4.0), 0.0, Q_q, 0.001) == pytest.approx(0.0)
        assert stage_cost((0.0, 4.0), 0.0, Q_q, 0.001) == pytest.approx(1600.0)
        assert stage_cost((4.0, 4.0), 1.0, Q_q, 0.001) == pytest.approx(0.001)


class TestPolicyImprovement:
    def test_matches_model_based_gain(self):
        m = lqt.build_augmented(A16, B16)
        P = lqt.are_fixed_point(m, tol=1e-13)
        k = kernel_from_value_matrix(m, P)
        assert policy_improvement(k) == pytest.approx(lqt.optimal_gain(P, m),
                                                      abs=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_model_based_gain_random_plants(self, seed):
        rng = np.random.default_rng(seed)
        m = lqt.build_augmented(rng.uniform(0.3, 0.995), rng.uniform(0.005, 0.5))
        K = rng.uniform(-1, 1, 2) * np.array([m.A_a[0, 0] / m.B_b[0, 0], 1.0])
        if not lqt.is_stabilizing(m, K):
            return
        P = lqt.evaluate_policy(m, K)
        k = kernel_from_value_matrix(m, P)
        assert policy_improvement(k) == pytest.approx(lqt.optimal_gain(P, m),
                                                      rel=1e-9, abs=1e-9)

    def test_greedy_value_matches_state_value(self):
        # minimizing the quadratic in u recovers 0.5 X' P X at the optimum
        m = lqt.build_augmented(A16, B16)
        P = lqt.are_fixed_point(m, tol=1e-13)
        k = kernel_from_value_matrix(m, P)
        K = policy_improvement(k)
        X = np.array([1.0, 4.0])
        M = np.array([*X, -K @ X])
        assert 0.5 * M @ k.G @ M == pytest.approx(0.5 * X @ P @ X, rel=1e-9)

    def test_nonpositive_input_block_rejected(self):
        G = np.diag([1.0, 1.0, -0.5])
        with pytest.raises(ExcitationError):
            policy_improvement(QKernel(G))


# magnitudes from 1e-150 to 1e150 (no product overflows), signed zeros and
# subnormals, whose products underflow to zero or to other subnormals
ROW_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320]),
    st.tuples(st.floats(1e-150, 1e150), st.booleans()).map(
        lambda p: -p[0] if p[1] else p[0]))


class TestBellmanRow:
    @given(M_k=st.tuples(ROW_ENTRIES, ROW_ENTRIES, ROW_ENTRIES),
           M_k1=st.tuples(ROW_ENTRIES, ROW_ENTRIES, ROW_ENTRIES),
           gamma=st.one_of(st.sampled_from([1e-3, 0.5, 0.9, 0.99, 1.0]),
                           st.floats(0, 1, exclude_min=True)))
    @settings(max_examples=500, deadline=None)
    def test_matches_stacked_sym_features(self, M_k, M_k1, gamma):
        # the online step's scalar row is the stacked numpy row, bit for bit
        f_k, f_k1 = sym_features(np.array([M_k, M_k1]))
        want = f_k - gamma * f_k1
        got = qlearn._bellman_row(M_k, M_k1, gamma)
        assert got.dtype == np.float64 and got.shape == (6,)
        assert got.tobytes() == want.tobytes()


class TestLeastSquares:
    def test_row_structure(self):
        t = DataTuple((1.0, 2.0, 3.0), (0.5, 2.0, 1.0), 7.0)
        design, targets = build_ls_rows([t] * 6, gamma=0.9)
        expected = sym_features(np.array([1.0, 2.0, 3.0])) \
            - 0.9 * sym_features(np.array([0.5, 2.0, 1.0]))
        assert np.allclose(design, np.tile(expected, (6, 1)))
        assert np.array_equal(targets, np.full(6, 7.0))

    def test_undiscounted_rows(self):
        t = DataTuple((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 0.0)
        design, _ = build_ls_rows([t] * 6, gamma=1.0)
        assert np.allclose(design, 0.0)

    def test_too_few_tuples_rejected(self):
        t = DataTuple((1.0, 2.0, 3.0), (0.5, 2.0, 1.0), 7.0)
        with pytest.raises(ValueError):
            build_ls_rows([t] * 5, gamma=0.9)

    def test_exact_recovery_from_six_tuples(self):
        m = lqt.build_augmented(A16, B16)
        K = np.array([100.0, -100.0])
        G_true = kernel_from_value_matrix(m, lqt.evaluate_policy(m, K))
        rng = np.random.default_rng(7)
        tuples = make_collector(m, rng)(K, 6)
        design, targets = build_ls_rows(tuples, m.gamma)
        fit = batch_ls_solve(design, targets)
        assert np.allclose(fit.G, G_true.G, rtol=1e-8, atol=1e-8)

    def test_noise_robustness_with_many_tuples(self):
        m = lqt.build_augmented(A16, B16)
        K = np.array([100.0, -100.0])
        G_true = kernel_from_value_matrix(m, lqt.evaluate_policy(m, K))
        rng = np.random.default_rng(11)
        tuples = make_collector(m, rng)(K, 400)
        design, targets = build_ls_rows(tuples, m.gamma)
        targets = targets + rng.normal(0, 1e-9, targets.size)
        fit = batch_ls_solve(design, targets)
        assert np.allclose(fit.G, G_true.G, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_list_and_batch_match_reference(self, seed):
        m = lqt.build_augmented(A16, B16)
        rng = np.random.default_rng(seed)
        tuples = make_collector(m, rng)(np.array([100.0, -100.0]), 6 + 10 * seed)
        ref_design, ref_targets = reference_ls_rows(tuples, m.gamma)
        for source in (tuples, as_batch(tuples)):
            design, targets = build_ls_rows(source, m.gamma)
            assert np.array_equal(design, ref_design)
            assert np.array_equal(targets, ref_targets)
            assert np.array_equal(batch_ls_solve(design, targets).G,
                                  batch_ls_solve(ref_design, ref_targets).G)

    @pytest.mark.parametrize("field, index, value, message", [
        ("M_k", (2, 1), np.nan, "tuple entries must be finite"),
        ("M_k1", (5, 2), np.inf, "tuple entries must be finite"),
        ("costs", 3, np.nan, "tuple entries must be finite"),
        ("costs", 0, -1.0, "stage cost must be non-negative"),
    ])
    def test_batch_checked_as_data_tuples_are(self, field, index, value,
                                               message):
        m = lqt.build_augmented(A16, B16)
        tuples = make_collector(m, np.random.default_rng(0))(
            np.array([100.0, -100.0]), 6)
        batch = as_batch(tuples)
        getattr(batch, field)[index] = value
        with pytest.raises(ValueError, match=message):
            build_ls_rows(batch, m.gamma)

    def test_batch_shapes_checked(self):
        batch = TupleBatch(np.ones((6, 2)), np.ones((6, 3)), np.ones(6))
        with pytest.raises(ValueError, match="3 entries"):
            build_ls_rows(batch, 0.9)
        with pytest.raises(ValueError, match="at least 6"):
            build_ls_rows(TupleBatch(np.ones((5, 3)), np.ones((5, 3)),
                                     np.ones(5)), 0.9)

    def test_pure_state_feedback_is_rank_deficient(self):
        # without dither u is a deterministic function of (x, r): 6 tuples
        # cannot span the 6-dimensional basis
        m = lqt.build_augmented(A16, B16)
        K = np.array([100.0, -100.0])
        A, B = m.A_a[0, 0], m.B_b[0, 0]
        rng = np.random.default_rng(3)
        tuples = []
        for _ in range(40):
            x, r = rng.uniform(0, 6), rng.uniform(1, 5)
            u = -(K[0] * x + K[1] * r)
            x1 = A * x + B * u
            u1 = -(K[0] * x1 + K[1] * r)
            tuples.append(DataTuple((x, r, u), (x1, r, u1),
                                    stage_cost((x, r), u, m.Q_q, m.R_u)))
        design, targets = build_ls_rows(tuples, m.gamma)
        with pytest.raises(RankDeficientError) as exc:
            batch_ls_solve(design, targets)
        assert exc.value.rank < 6


class TestRls:
    def test_zero_row_is_noop(self):
        s0 = rls_init()
        s1 = rls_update(s0, np.zeros(6), 5.0)
        assert np.array_equal(s1.g_vec, s0.g_vec)
        assert np.array_equal(s1.eta, s0.eta)

    def test_single_row_min_norm(self):
        row = np.array([1.0, 0, 2, 0, 0, 1.0])
        s = rls_update(rls_init(tau=1e12), row, 6.0)
        assert np.allclose(s.g_vec, row * 6.0 / (row @ row), atol=1e-9)

    def test_repeated_passes_approach_batch_solution(self):
        m = lqt.build_augmented(A16, B16)
        K = np.array([100.0, -100.0])
        rng = np.random.default_rng(5)
        tuples = make_collector(m, rng)(K, 60)
        design, targets = build_ls_rows(tuples, m.gamma)
        batch = batch_ls_solve(design, targets).to_vec()
        s = rls_init(tau=1e10)
        errs = []
        for _ in range(6):
            for row, t in zip(design, targets):
                s = rls_update(s, row, t)
            errs.append(np.linalg.norm(s.g_vec - batch) / np.linalg.norm(batch))
        assert errs[-1] < 1e-6
        assert errs[-1] <= errs[0]

    def test_warm_start_from_kernel(self):
        k = QKernel(np.diag([1.0, 2.0, 3.0]))
        s = rls_init(tau=10.0, kernel=k)
        assert np.array_equal(s.g_vec, k.to_vec())
        assert np.array_equal(s.eta, 10.0 * np.eye(6))


class TestSampledPolicyIteration:
    def test_converges_to_model_based_optimum(self):
        m = lqt.build_augmented(A16, B16)
        K_star = lqt.optimal_gain(lqt.are_fixed_point(m, tol=1e-13), m)
        rng = np.random.default_rng(0)
        res = q_policy_iteration(make_collector(m, rng), [100.0, -100.0])
        assert np.linalg.norm(res.gain - K_star) / np.linalg.norm(K_star) < 1e-3
        assert res.iterations < 30

    def test_optimal_start_is_a_fixed_point(self):
        m = lqt.build_augmented(A16, B16)
        K_star = lqt.optimal_gain(lqt.are_fixed_point(m, tol=1e-13), m)
        rng = np.random.default_rng(1)
        res = q_policy_iteration(make_collector(m, rng), K_star)
        assert res.iterations <= 2
        assert np.linalg.norm(res.gain - K_star) < 1e-3

    def test_non_settling_raises(self):
        m = lqt.build_augmented(A16, B16)
        rng = np.random.default_rng(2)
        cfg = QTrainConfig(tol=1e-16, max_iters=3)
        with pytest.raises(QTrainError):
            q_policy_iteration(make_collector(m, rng), [100.0, -100.0], cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QTrainConfig(gamma=0.0)
        with pytest.raises(ValueError):
            QTrainConfig(tuples_per_iter=5)


class TestDataTuple:
    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            DataTuple((1.0, 2.0), (1.0, 2.0, 3.0), 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DataTuple((1.0, 2.0, float("nan")), (1.0, 2.0, 3.0), 0.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            DataTuple((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), -1.0)
