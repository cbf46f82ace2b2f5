import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srmq import lqt, qlearn
from srmq.qlearn import (ExcitationError, QTrainError, TupleBatch,
                         batch_ls_solve, build_ls_rows, policy_improvement,
                         q_policy_iteration, rls_update, stage_cost,
                         sym_features)
from srmq.scheduler import TableTrainConfig
from conftest import build_augmented, kernel_matrix, kernel_vector

A16, B16 = 0.9875, 0.00625


def kernel_from_value_matrix(model, P):
    """Ground-truth action-value kernel vector for a given cost matrix P,
    assembled from the model the learner never sees."""
    A, B, g = model.A_a, model.B_b, model.gamma
    G_XX = model.Q_q + g * A.T @ P @ A
    G_Xu = g * (A.T @ P @ B).ravel()
    G_uu = model.R_u + g * (B.T @ P @ B).item()
    G = np.zeros((3, 3))
    G[:2, :2] = G_XX
    G[:2, 2] = G_Xu
    G[2, :2] = G_Xu
    G[2, 2] = G_uu
    return kernel_vector(G)


def reference_ls_rows(tuples, gamma):
    """Regression rows from a list of (M_k, M_k1, cost) tuples, one at a
    time, from the scalar feature map: the reference the stacked
    build_ls_rows must reproduce bit for bit."""
    def features(M):
        m0, m1, m2 = M
        return np.array([m0 * m0, 2 * m0 * m1, 2 * m0 * m2,
                         m1 * m1, 2 * m1 * m2, m2 * m2])
    design = np.array([features(M_k) - gamma * features(M_k1)
                       for M_k, M_k1, _ in tuples])
    return design, np.array([cost for *_, cost in tuples])


def repeated(M_k, M_k1, cost, count=6):
    """A batch of `count` copies of one transition."""
    return TupleBatch(np.tile(M_k, (count, 1)), np.tile(M_k1, (count, 1)),
                      np.full(count, cost))


def make_collector(model, rng, dither=15.0):
    """Sampled-transition source for one frozen linear model: a batch of
    `count` tuples under the gain K."""
    A, B = model.A_a[0, 0], model.B_b[0, 0]

    def collect(K, count):
        tuples = []
        for _ in range(count):
            x = rng.uniform(0.0, 6.0)
            r = rng.uniform(1.0, 5.0)
            u = -(K[0] * x + K[1] * r) + dither * rng.uniform(-1, 1)
            x1 = A * x + B * u
            u1 = -(K[0] * x1 + K[1] * r)
            tuples.append(((x, r, u), (x1, r, u1),
                           stage_cost((x, r), u, model.Q_q, model.R_u)))
        return TupleBatch(*map(np.array, zip(*tuples)))

    return collect


def one_node(collect):
    """q_policy_iteration's stacked collector over a single node."""
    def stacked(K, count, done):
        return TupleBatch(*(v[None] for v in collect(K[0], count))), {}
    return stacked


class TestKernel:
    def test_example_value(self):
        g = kernel_vector(np.eye(3))
        M = np.array([1.0, 2.0, 3.0])
        assert 0.5 * sym_features(M) @ g == pytest.approx(7.0)

    def test_blocks(self):
        # the order at NUM_PARAMS: G_ux, G_ur and G_uu are entries 2, 4, 5
        G = np.array([[1.0, 2, 3], [2, 4, 5], [3, 5, 6]])
        g = kernel_vector(G)
        assert np.array_equal(g, [1, 2, 3, 4, 5, 6])
        assert np.array_equal(policy_improvement(g), [3 / 6, 5 / 6])
        stack = np.stack([g, 2 * g, g + 1])
        assert policy_improvement(stack).tobytes() == np.array(
            [policy_improvement(row) for row in stack]).tobytes()

    def test_vec_round_trip(self):
        G = np.array([[1.0, 2, 3], [2, 4, 5], [3, 5, 6]])
        assert np.array_equal(kernel_matrix(kernel_vector(G)), G)

    @given(g=st.lists(st.floats(-10, 10), min_size=6, max_size=6),
           m=st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_features_reproduce_quadratic_form(self, g, m):
        M = np.array(m)
        assert sym_features(M) @ np.array(g) == pytest.approx(
            M @ kernel_matrix(g) @ M, rel=1e-9, abs=1e-9)


class TestStageCost:
    def test_examples(self):
        Q_q = np.array([[100.0, -100.0], [-100.0, 100.0]])
        assert stage_cost((4.0, 4.0), 0.0, Q_q, 0.001) == pytest.approx(0.0)
        assert stage_cost((0.0, 4.0), 0.0, Q_q, 0.001) == pytest.approx(1600.0)
        assert stage_cost((4.0, 4.0), 1.0, Q_q, 0.001) == pytest.approx(0.001)


class TestPolicyImprovement:
    def test_matches_model_based_gain(self):
        m = build_augmented(A16, B16)
        P = lqt.are_fixed_point(m, tol=1e-13)
        k = kernel_from_value_matrix(m, P)
        assert policy_improvement(k) == pytest.approx(lqt.optimal_gain(P, m),
                                                      abs=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_model_based_gain_random_plants(self, seed):
        rng = np.random.default_rng(seed)
        m = build_augmented(rng.uniform(0.3, 0.995), rng.uniform(0.005, 0.5))
        K = rng.uniform(-1, 1, 2) * np.array([m.A_a[0, 0] / m.B_b[0, 0], 1.0])
        if not lqt.is_stabilizing(m, K):
            return
        P = lqt.evaluate_policy(m, K)
        k = kernel_from_value_matrix(m, P)
        assert policy_improvement(k) == pytest.approx(lqt.optimal_gain(P, m),
                                                      rel=1e-9, abs=1e-9)

    def test_greedy_value_matches_state_value(self):
        # minimizing the quadratic in u recovers 0.5 X' P X at the optimum
        m = build_augmented(A16, B16)
        P = lqt.are_fixed_point(m, tol=1e-13)
        k = kernel_from_value_matrix(m, P)
        K = policy_improvement(k)
        X = np.array([1.0, 4.0])
        M = np.array([*X, -K @ X])
        assert 0.5 * M @ kernel_matrix(k) @ M == pytest.approx(
            0.5 * X @ P @ X, rel=1e-9)

    def test_nonpositive_input_block_rejected(self):
        g = kernel_vector(np.diag([1.0, 1.0, -0.5]))
        with pytest.raises(ExcitationError, match="G_uu = -5.000e-01"):
            policy_improvement(g)
        with pytest.raises(ExcitationError, match="G_uu = -5.000e-01"):
            policy_improvement(np.stack([kernel_vector(np.eye(3)), g]))


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
        design, targets = build_ls_rows(
            repeated((1.0, 2.0, 3.0), (0.5, 2.0, 1.0), 7.0), gamma=0.9)
        expected = sym_features(np.array([1.0, 2.0, 3.0])) \
            - 0.9 * sym_features(np.array([0.5, 2.0, 1.0]))
        assert np.allclose(design, np.tile(expected, (6, 1)))
        assert np.array_equal(targets, np.full(6, 7.0))

    def test_undiscounted_rows(self):
        design, _ = build_ls_rows(
            repeated((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 0.0), gamma=1.0)
        assert np.allclose(design, 0.0)

    def test_too_few_tuples_rejected(self):
        with pytest.raises(ValueError):
            build_ls_rows(repeated((1.0, 2.0, 3.0), (0.5, 2.0, 1.0), 7.0, 5),
                          gamma=0.9)

    def test_exact_recovery_from_six_tuples(self):
        m = build_augmented(A16, B16)
        K = np.array([100.0, -100.0])
        g_true = kernel_from_value_matrix(m, lqt.evaluate_policy(m, K))
        rng = np.random.default_rng(7)
        design, targets = build_ls_rows(make_collector(m, rng)(K, 6), m.gamma)
        g, rank = batch_ls_solve(design, targets)
        assert rank == 6
        assert np.allclose(g, g_true, rtol=1e-8, atol=1e-8)

    def test_noise_robustness_with_many_tuples(self):
        m = build_augmented(A16, B16)
        K = np.array([100.0, -100.0])
        g_true = kernel_from_value_matrix(m, lqt.evaluate_policy(m, K))
        rng = np.random.default_rng(11)
        design, targets = build_ls_rows(make_collector(m, rng)(K, 400),
                                        m.gamma)
        targets = targets + rng.normal(0, 1e-9, targets.size)
        g, rank = batch_ls_solve(design, targets)
        assert rank == 6
        assert np.allclose(g, g_true, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_list_and_batch_match_reference(self, seed):
        # the rows of a list of tuples, one at a time, are the batch's rows
        # and those of the batch as a one-node stack, bit for bit
        m = build_augmented(A16, B16)
        rng = np.random.default_rng(seed)
        batch = make_collector(m, rng)(np.array([100.0, -100.0]), 6 + 10 * seed)
        ref_design, ref_targets = reference_ls_rows(list(zip(*batch)),
                                                    m.gamma)
        ref_g, ref_rank = batch_ls_solve(ref_design, ref_targets)
        stack = TupleBatch(*(v[None] for v in batch))
        for source, node in ((batch, ...), (stack, 0)):
            design, targets = build_ls_rows(source, m.gamma)
            assert np.array_equal(design[node], ref_design)
            assert np.array_equal(targets[node], ref_targets)
            g, rank = batch_ls_solve(design, targets)
            assert g[node].tobytes() == ref_g.tobytes()
            assert rank[node] == ref_rank == 6

    @pytest.mark.parametrize("field, index, value, message", [
        ("M_k", (2, 1), np.nan, "tuple entries must be finite"),
        ("M_k1", (5, 2), np.inf, "tuple entries must be finite"),
        ("costs", 3, np.nan, "tuple entries must be finite"),
        ("costs", 0, -1.0, "stage cost must be non-negative"),
    ])
    def test_batch_checked_as_data_tuples_are(self, field, index, value,
                                               message):
        # each tuple of a batch is checked: finite entries, cost >= -1e-9
        m = build_augmented(A16, B16)
        batch = make_collector(m, np.random.default_rng(0))(
            np.array([100.0, -100.0]), 6)
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
        m = build_augmented(A16, B16)
        design, targets = build_ls_rows(make_collector(
            m, np.random.default_rng(3), dither=0.0)(
                np.array([100.0, -100.0]), 40), m.gamma)
        assert batch_ls_solve(design, targets)[1] < 6

    @pytest.mark.parametrize("n, z, deficient", [
        (64, 6, ()), (64, 40, ()), (9, 6, (2, 5)), (9, 40, (0, 4, 8)),
        (1, 6, ()), (1, 40, (0,))])
    def test_stacked_solve_matches_lstsq(self, n, z, deficient):
        # the training loop's one stacked call is np.linalg.lstsq per row,
        # solution and rank bit for bit, also on one design alone
        rng = np.random.default_rng(n + z)
        design = (rng.standard_normal((n, z, 6))
                  * 10.0 ** rng.uniform(-3, 3, (n, 1, 6)))
        targets = rng.standard_normal((n, z))
        for k, j in enumerate(deficient):
            if k % 2:
                design[j, :, 4] = 0.0
            else:
                design[j, :, 5] = design[j, :, 1]
        g, rank = batch_ls_solve(design, targets)
        assert g.shape == (n, 6) and rank.shape == (n,)
        assert np.flatnonzero(rank < 6).tolist() == list(deficient)
        for j in range(n):
            want, _, want_rank, _ = np.linalg.lstsq(design[j], targets[j],
                                                    rcond=None)
            assert g[j].tobytes() == want.tobytes()
            assert rank[j] == want_rank
            g_j, rank_j = batch_ls_solve(design[j], targets[j])
            assert g_j.tobytes() == want.tobytes() and rank_j == want_rank


def fresh_rls(tau=1e6):
    """A zero kernel vector and the covariance tau * I."""
    return np.zeros(6), tau * np.eye(6)


class TestRls:
    def test_zero_row_is_noop(self):
        g0, eta0 = fresh_rls()
        g1, eta1 = rls_update(g0, eta0, np.zeros(6), 5.0)
        assert np.array_equal(g1, g0)
        assert np.array_equal(eta1, eta0)

    def test_single_row_min_norm(self):
        row = np.array([1.0, 0, 2, 0, 0, 1.0])
        g, eta = rls_update(*fresh_rls(tau=1e12), row, 6.0)
        assert np.allclose(g, row * 6.0 / (row @ row), atol=1e-9)
        assert np.array_equal(eta, eta.T)

    def test_repeated_passes_approach_batch_solution(self):
        m = build_augmented(A16, B16)
        K = np.array([100.0, -100.0])
        rng = np.random.default_rng(5)
        design, targets = build_ls_rows(make_collector(m, rng)(K, 60), m.gamma)
        batch, _ = batch_ls_solve(design, targets)
        g, eta = fresh_rls(tau=1e10)
        errs = []
        for _ in range(6):
            for row, t in zip(design, targets):
                g, eta = rls_update(g, eta, row, t)
            errs.append(np.linalg.norm(g - batch) / np.linalg.norm(batch))
        assert errs[-1] < 1e-6
        assert errs[-1] <= errs[0]


def train_one(collect, K0, cfg=TableTrainConfig()):
    """(gain, iterations, failures) of one node trained alone."""
    res = q_policy_iteration(one_node(collect), np.array([K0], float), cfg)
    return policy_improvement(res.kernels[0]), res.iterations[0], res.failures


class TestSampledPolicyIteration:
    def test_converges_to_model_based_optimum(self):
        m = build_augmented(A16, B16)
        K_star = lqt.optimal_gain(lqt.are_fixed_point(m, tol=1e-13), m)
        rng = np.random.default_rng(0)
        gain, iterations, failures = train_one(make_collector(m, rng),
                                               [100.0, -100.0])
        assert failures == []
        assert np.linalg.norm(gain - K_star) / np.linalg.norm(K_star) < 1e-3
        assert iterations < 30

    def test_optimal_start_is_a_fixed_point(self):
        m = build_augmented(A16, B16)
        K_star = lqt.optimal_gain(lqt.are_fixed_point(m, tol=1e-13), m)
        rng = np.random.default_rng(1)
        gain, iterations, failures = train_one(make_collector(m, rng), K_star)
        assert failures == []
        assert iterations <= 2
        assert np.linalg.norm(gain - K_star) < 1e-3

    def test_non_settling_is_reported(self):
        m = build_augmented(A16, B16)
        rng = np.random.default_rng(2)
        cfg = TableTrainConfig(tol=1e-16, max_iters=3)
        res = q_policy_iteration(one_node(make_collector(m, rng)),
                                 [[100.0, -100.0]], cfg)
        assert res.iterations == [0]
        assert np.array_equal(res.kernels, np.zeros((1, 6)))
        [(node, exc)] = res.failures
        assert node == 0 and isinstance(exc, QTrainError)
        assert "did not settle within 3 iterations" in str(exc)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_overflowing_design_raises_linalg_error(self, stacked):
        # tuples near 1e200 square to inf in the design, and dgelsd's SVD
        # fails: np.linalg.lstsq's LinAlgError, under the loop's errstate
        # too, not a RankDeficientError; alone or in a stack of three, one
        # such node is enough
        rng = np.random.default_rng(4)

        def vectors(count, scale):
            return scale * rng.uniform(0.5, 1.5, (count, 3))

        def collect(K, count, done):
            nodes = [(vectors(count, scale), vectors(count, scale),
                      np.ones(count))
                     for scale in ([1.0, 1e200, 1.0] if stacked else [1e200])]
            return TupleBatch(*map(np.array, zip(*nodes))), {}

        K0 = np.tile([100.0, -100.0], (3 if stacked else 1, 1))
        with pytest.raises(np.linalg.LinAlgError,
                           match="SVD did not converge in Linear Least Squares"):
            q_policy_iteration(collect, K0, TableTrainConfig())

    def test_one_gain_row_per_node_required(self):
        with pytest.raises(ValueError, match=r"shape \(n, 2\), got shape \(2,\)"):
            q_policy_iteration(None, [100.0, -100.0], TableTrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            TableTrainConfig(gamma=0.0)
        with pytest.raises(ValueError, match="tuples_per_iter"):
            TableTrainConfig(tuples_per_iter=5)
