import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srmq import lqt, qlearn, scheduler
from srmq.plant import (MotorParams, ReferenceProfile, default_surface,
                        frozen_dynamics, inductance_at)
from srmq.qlearn import (DataTuple, QKernel, RlsState, TupleBatch, rls_update,
                         stage_cost, sym_features)
from srmq.scheduler import (CellLocation, QCoreTable, TableMismatchError,
                            TableTrainConfig, TableTrainError, _corner,
                            check_table_compatible, load_table, locate,
                            params_hash, save_table, schedule,
                            scheduled_gain, scheduled_q, train_table,
                            update_core_online)
from srmq.sim import Scenario, run_closed_loop
from conftest import constant_surface, core_G, point_near, reference_blend


def random_kernel(rng):
    """Random symmetric kernel with a positive input block."""
    G = rng.uniform(-5, 5, (3, 3))
    G = (G + G.T) / 2
    G[2, 2] = rng.uniform(0.5, 2.0)
    return QKernel(G)


def random_table(rng, nt=None, ni=None):
    nt = nt or rng.integers(2, 5)
    ni = ni or rng.integers(2, 5)
    theta = np.sort(rng.uniform(0, 45, nt))
    current = np.sort(rng.uniform(0, 8, ni))
    cores = np.array([[random_kernel(rng).to_vec() for _ in range(ni)]
                      for _ in range(nt)])
    return QCoreTable(theta, current, cores, TableTrainConfig(), "testhash")


def blend_oracle(table, theta, i):
    """Independent interpolant: solve for the four basis coefficients of
    1, l1, l2, l1*l2 at the cell corners, then combine the corner kernels."""
    loc = locate(table, theta, i)
    nt, ni = table.shape
    r1, c1 = min(loc.row + 1, nt - 1), min(loc.col + 1, ni - 1)
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    V = np.array([[1.0, a, b, a * b] for a, b in corners])
    w = np.linalg.solve(V.T, [1.0, loc.l1, loc.l2, loc.l1 * loc.l2])
    Gs = [core_G(table, loc.row, loc.col), core_G(table, r1, loc.col),
          core_G(table, loc.row, c1), core_G(table, r1, c1)]
    return sum(wk * Gk for wk, Gk in zip(w, Gs))


def reference_scheduled_gain(table, theta, i):
    """The numpy scheduled read: locate, the nearest-corner rule, the numpy
    blend of the whole 6-vector and g[[2, 4]] / g[5], or the nearest core's
    derived gain when the blended G_uu <= 0.  (K, cell, fell back?)."""
    loc = locate(table, theta, i)
    cell = _corner(table, loc.row, loc.col, loc.l1, loc.l2)
    g = reference_blend(np.array(table.kernels), loc.row, loc.col, loc.l1,
                        loc.l2)
    if g[5] <= 0:
        return table.gains[cell], cell, True
    return g[[2, 4]] / g[5], cell, False


def reference_update_core_online(table, tup, cell):
    """update_core_online through the public, validated RLS path and the
    numpy gains."""
    row = sym_features(tup.M_k) - table.cfg.gamma * sym_features(tup.M_k1)
    a, b = cell
    state = rls_update(RlsState(np.array(table.kernels[a][b]),
                                table.covariance[cell]),
                       row, tup.stage_cost)
    g = state.g_vec
    if g[5] <= 0:
        return False
    K_new = np.array([g[2], g[4]]) / g[5]
    K_old = table.gains[cell]
    if np.linalg.norm(K_new - K_old) > table.cfg.gain_clamp * (1 + np.linalg.norm(K_old)):
        return False
    table.kernels[a][b] = g.tolist()
    table.covariance[cell] = state.eta
    return True


def table_state(table):
    """Every attribute of a table, arrays as bytes: equal before and after
    a read that leaves the table alone."""
    return {name: value.tobytes() if isinstance(value, np.ndarray)
            else copy.deepcopy(value) for name, value in vars(table).items()}


SUBNORMAL = 5e-324


def subnormal_cores(kernels, mask):
    """Kernels with the cores under mask given a subnormal G_uu (and
    subnormal G_ux, G_ur, so that their gains stay finite): still valid,
    but a blend of them can round G_uu to 0."""
    kernels = np.array(kernels)
    for j, scale in ((2, 1e-321), (4, 1e-321)):
        kernels[..., j] = np.where(mask, kernels[..., j] * scale, kernels[..., j])
    kernels[..., 5] = np.where(mask, SUBNORMAL, kernels[..., 5])
    return kernels


def cell_middle(nodes):
    """The middle between two neighbouring nodes (the node itself on a
    one-node axis), where every bilinear weight is about 1/4 or 1/2."""
    return st.sampled_from([(a + b) / 2 for a, b in zip(nodes, nodes[1:])]
                           or nodes)


@st.composite
def table_and_point(draw):
    """A random valid table, 1xN and Nx1 grids included, optionally with
    some or all cores at a subnormal G_uu (which reaches the fallback), and
    a point on a node, wrapped in theta, clamped in current, in the middle
    of a cell, or anywhere; the point may come as numpy scalars."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    nt, ni = draw(st.sampled_from([(1, 1), (1, 4), (4, 1), (2, 2), (3, 5)]))
    t = random_table(rng, nt, ni)
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    if share:
        mask = rng.random((nt, ni)) < share
        t = QCoreTable(t.theta_nodes, t.current_nodes,
                       subnormal_cores(t.kernels, mask), t.cfg, "h")
    theta = draw(st.one_of(point_near(t.theta_nodes.tolist(), wrap=True),
                           cell_middle(t.theta_nodes.tolist())))
    i = draw(st.one_of(point_near(t.current_nodes.tolist(), wrap=False),
                       cell_middle(t.current_nodes.tolist())))
    if draw(st.booleans()):
        theta, i = np.float64(theta), np.float64(i)
    return t, theta, i


class TestSchedule:
    @given(case=table_and_point())
    @settings(max_examples=500, deadline=None)
    def test_matches_numpy_reference(self, case):
        t, theta, i = case
        K_ref, cell_ref, _ = reference_scheduled_gain(t, theta, i)
        before = table_state(t)
        k_x, k_r, cell = schedule(t, theta, i)
        assert np.array([k_x, k_r]).tobytes() == K_ref.tobytes()
        assert cell == cell_ref
        assert table_state(t) == before
        # numpy scalars here would silently double the cost of a step
        assert type(k_x) is float and type(k_r) is float
        assert type(cell[0]) is int and type(cell[1]) is int

    @given(case=table_and_point())
    @settings(max_examples=200, deadline=None)
    def test_scheduled_q_matches_numpy_reference(self, case):
        t, theta, i = case
        loc = locate(t, theta, i)
        want = QKernel.from_vec(reference_blend(np.array(t.kernels), loc.row,
                                                loc.col, loc.l1, loc.l2)).G
        assert scheduled_q(t, theta, i).G.tobytes() == want.tobytes()

    def test_fallback_leaves_table_unchanged(self):
        # two valid cores with G_uu = 5e-324: at l2 = 0.5 each weight is 0.5
        # and 0.5 * 5e-324 rounds to 0, so the blended G_uu is 0
        t = QCoreTable(np.array([0.0]), np.array([0.0, 4.0]),
                       [[[1.0, 0.0, 1e-321, 1.0, -1e-321, SUBNORMAL],
                         [1.0, 0.0, 2e-321, 1.0, -3e-321, SUBNORMAL]]],
                       TableTrainConfig(), "h")
        before = table_state(t)
        assert schedule(t, 0.0, 2.0) == (*t.gains[0, 0].tolist(), (0, 0))
        assert reference_scheduled_gain(t, 0.0, 2.0)[2]     # fell back
        assert np.array_equal(scheduled_gain(t, 0.0, 2.0), t.gains[0, 0])
        k_x, k_r, cell = schedule(t, 0.0, 3.6)             # G_uu = 5e-324
        assert not reference_scheduled_gain(t, 0.0, 3.6)[2]
        assert cell == (0, 1)
        assert table_state(t) == before


def assert_learning_run_matches_public_rls_result(scenario, table,
                                                  monkeypatch):
    """Run the scenario and replay every online update on a copy of the
    table through the public RlsState/rls_update path, whose numbers pass
    DataTuple's finite, shape and cost checks: each accept or reject and
    the final tables must agree bit for bit."""
    ref = copy.deepcopy(table)
    updates = []

    def recording(table, cell, M_k, M_k1, cost):
        tup = DataTuple(M_k, M_k1, cost)
        applied = update_core_online(table, cell, M_k, M_k1, cost)
        updates.append((tup, cell, applied))
        return applied

    monkeypatch.setattr(scheduler, "update_core_online", recording)
    run_closed_loop(scenario, table)
    accepted = sum(applied for *_, applied in updates)
    assert 0 < accepted < len(updates)
    for tup, cell, applied in updates:
        assert reference_update_core_online(ref, tup, cell) == applied
    for name in ("kernels", "gains", "covariance"):
        assert (np.array(getattr(table, name)).tobytes()
                == np.array(getattr(ref, name)).tobytes())


class TestMirrors:
    def test_learning_run_matches_public_rls_result(
            self, params, surface, fresh_table, monkeypatch):
        # criterion 6 learning scenario
        spc = params.steps_per_cycle
        profile = ReferenceProfile(step_events=((4 * spc, 5.5), (8 * spc, 4.5)))
        scenario = Scenario(motor=params, surface=surface, reference=profile,
                            duration=12 * spc, online_learning=True)
        assert_learning_run_matches_public_rls_result(scenario, fresh_table,
                                                      monkeypatch)

    def test_dithered_learning_run_matches_public_rls_result(
            self, params, surface, fresh_table, monkeypatch):
        # dither on the input and a resistance mismatch, as on adapt-online
        spc = params.steps_per_cycle
        profile = ReferenceProfile(step_events=((2 * spc, 5.5), (4 * spc, 3.0)))
        scenario = Scenario(motor=params, surface=surface, reference=profile,
                            duration=6 * spc, online_learning=True,
                            dither=5.0, r_scale=1.1, seed=7)
        assert_learning_run_matches_public_rls_result(scenario, fresh_table,
                                                      monkeypatch)

    def test_learning_run_locates_once_per_step(self, params, surface,
                                                fresh_table, monkeypatch):
        # the online update works on the core that the step's schedule
        # located; the loop takes the angle's cell from its block, so the
        # one locate per step is on the current axis
        locates, updates = [], []
        locate_once = scheduler._axis_locate
        update = scheduler.update_core_online

        def counting_locate(nodes, value, wrap):
            locates.append(wrap)
            return locate_once(nodes, value, wrap)

        def counting_update(*args):
            updates.append(args)
            return update(*args)

        monkeypatch.setattr(scheduler, "_axis_locate", counting_locate)
        monkeypatch.setattr(scheduler, "update_core_online", counting_update)
        scenario = Scenario(motor=params, surface=surface,
                            reference=ReferenceProfile(), dither=5.0,
                            duration=2 * params.steps_per_cycle,
                            online_learning=True)
        run_closed_loop(scenario, fresh_table)
        assert len(updates) > 0
        assert len(locates) == scenario.steps
        assert not any(locates)


class TestLocate:
    def test_node_hits(self, trained_table):
        t = trained_table
        loc = locate(t, float(t.theta_nodes[3]), float(t.current_nodes[2]))
        assert (loc.row, loc.col) == (3, 2)
        assert loc.l1 == pytest.approx(0.0)
        assert loc.l2 == pytest.approx(0.0)

    def test_theta_wraps(self, trained_table):
        t = trained_table
        pitch = t.theta_nodes[-1] - t.theta_nodes[0]
        a = locate(t, 12.0, 3.0)
        b = locate(t, 12.0 + 2 * pitch, 3.0)
        assert (a.row, a.col, a.l1, a.l2) == (b.row, b.col, b.l1, b.l2)

    def test_top_theta_node_wraps_to_first_cell(self, trained_table):
        loc = locate(trained_table, float(trained_table.theta_nodes[-1]), 3.0)
        assert loc.row == 0
        assert loc.l1 == pytest.approx(0.0)

    def test_current_clamps(self, trained_table):
        t = trained_table
        lo = locate(t, 5.0, -1.0)
        assert (lo.col, lo.l2) == (0, 0.0)
        hi = locate(t, 5.0, 99.0)
        assert hi.col == t.current_nodes.size - 1
        assert hi.l2 == pytest.approx(0.0)

    def test_cell_interior_offsets(self, trained_table):
        t = trained_table
        mid_t = (t.theta_nodes[1] + t.theta_nodes[2]) / 2
        mid_i = (t.current_nodes[4] + t.current_nodes[5]) / 2
        loc = locate(t, float(mid_t), float(mid_i))
        assert (loc.row, loc.col) == (1, 4)
        assert loc.l1 == pytest.approx(0.5)
        assert loc.l2 == pytest.approx(0.5)


class TestNearestCore:
    """The nearest core that schedule returns with its gain."""

    def test_quadrant_selection(self, trained_table):
        t = trained_table
        dt = t.theta_nodes[1] - t.theta_nodes[0]
        di = t.current_nodes[1] - t.current_nodes[0]
        cell = schedule(t, float(t.theta_nodes[0] + 0.2 * dt),
                        float(t.current_nodes[0] + 0.2 * di))[2]
        assert t.kernels[cell[0]][cell[1]] == t.kernels[0][0]
        cell = schedule(t, float(t.theta_nodes[0] + 0.8 * dt),
                        float(t.current_nodes[0] + 0.8 * di))[2]
        assert t.kernels[cell[0]][cell[1]] == t.kernels[1][1]

    def test_tie_breaks_to_lower_indices(self, trained_table):
        t = trained_table
        mid_t = (t.theta_nodes[0] + t.theta_nodes[1]) / 2
        mid_i = (t.current_nodes[0] + t.current_nodes[1]) / 2
        cell = schedule(t, float(mid_t), float(mid_i))[2]
        assert t.kernels[cell[0]][cell[1]] == t.kernels[0][0]


class TestScheduledQ:
    def test_exact_at_nodes(self, trained_table):
        t = trained_table
        for a in (0, 4, 10):
            for b in (0, 3, 7):
                G = scheduled_q(t, float(t.theta_nodes[a]),
                                float(t.current_nodes[b])).G
                assert np.allclose(G, core_G(t, a, b), atol=1e-12)

    def test_result_is_symmetric(self, trained_table):
        G = scheduled_q(trained_table, 7.3, 2.9).G
        assert np.array_equal(G, G.T)

    def test_convexity_entrywise(self, trained_table):
        t = trained_table
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = rng.uniform(0, 45)
            i = rng.uniform(0, 7.5)
            loc = locate(t, theta, i)
            r1 = min(loc.row + 1, t.theta_nodes.size - 1)
            c1 = min(loc.col + 1, t.current_nodes.size - 1)
            stack = np.stack([core_G(t, loc.row, loc.col),
                              core_G(t, r1, loc.col),
                              core_G(t, loc.row, c1), core_G(t, r1, c1)])
            G = scheduled_q(t, theta, i).G
            assert np.all(G >= stack.min(axis=0) - 1e-9)
            assert np.all(G <= stack.max(axis=0) + 1e-9)

    def test_continuous_across_cell_edges(self, trained_table):
        t = trained_table
        edge_t = float(t.theta_nodes[5])
        for i in (1.3, 4.7):
            left = scheduled_q(t, edge_t - 1e-9, i).G
            right = scheduled_q(t, edge_t + 1e-9, i).G
            assert np.allclose(left, right, atol=1e-5)

    @given(seed=st.integers(0, 10_000), theta=st.floats(-10, 90),
           i=st.floats(-1, 10))
    @settings(max_examples=150, deadline=None)
    def test_matches_coefficient_solve(self, seed, theta, i):
        rng = np.random.default_rng(seed)
        t = random_table(rng)
        G = scheduled_q(t, theta, i).G
        assert np.allclose(G, blend_oracle(t, theta, i), atol=1e-10)

    def test_matches_coefficient_solve_on_trained(self, trained_table):
        rng = np.random.default_rng(1)
        for _ in range(100):
            theta, i = rng.uniform(0, 45), rng.uniform(0, 7.5)
            G = scheduled_q(trained_table, theta, i).G
            assert np.allclose(G, blend_oracle(trained_table, theta, i),
                               atol=1e-10)


class TestScheduledGain:
    def test_gain_is_greedy_on_blended_kernel(self, trained_table):
        k = scheduled_q(trained_table, 13.1, 3.7)
        K = scheduled_gain(trained_table, 13.1, 3.7)
        assert np.allclose(K, k.G_uX / k.G_uu)

    def test_fallback_on_indefinite_blend(self):
        # valid cores whose subnormal input blocks blend to G_uu = 0 at
        # l1 = l2 = 0.5 (every weight 0.25): the nearest core's gain is used
        rng = np.random.default_rng(3)
        base = random_table(rng, 2, 2)
        t = QCoreTable(base.theta_nodes, base.current_nodes,
                       subnormal_cores(base.kernels, np.ones((2, 2), bool)),
                       base.cfg, "h")
        theta = float(t.theta_nodes.mean())
        i = float(t.current_nodes.mean())
        assert scheduled_q(t, theta, i).G_uu == 0.0
        K = scheduled_gain(t, theta, i)
        cell = schedule(t, theta, i)[2]
        assert np.array_equal(K, t.gains[cell])
        assert np.all(np.isfinite(K))


def reference_node_collector(A, B, cfg, i_span, i_limit, rng):
    """Scalar tuple source, one rng.uniform per value and one DataTuple per
    tuple: the reference the array collector must reproduce bit for bit."""
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
                raise scheduler.SafetyAbortError(
                    f"training current {x1:#.4g} A exceeded the "
                    f"{i_limit:#.4g} A safety bound")
            u1 = -(K[0] * x1 + K[1] * r)
            cost = stage_cost((x, r), u, Q_q, cfg.r_weight)
            tuples.append(DataTuple(np.array([x, r, u]),
                                    np.array([x1, r, u1]), cost))
        return tuples

    return collect


def reference_train_node(params, surface, cfg, theta_nodes, current_nodes,
                         a, b):
    """(kernel vector, iterations) of node (a, b) from the scalar collector,
    per-row regression rows, lstsq and the greedy gain, one tuple at a time.
    A failing node raises what training reports for it, with its message."""
    _, A, B = frozen_dynamics(params, surface, theta_nodes[a], current_nodes[b])
    collect = reference_node_collector(
        A, B, cfg, (float(current_nodes[0]), float(current_nodes[-1])),
        cfg.safety_factor * params.i_nominal,
        np.random.default_rng([cfg.seed, a, b]))
    K = np.asarray(cfg.K0, float)
    for i in range(1, cfg.max_iters + 1):
        tuples = collect(K, cfg.tuples_per_iter)
        design = np.array([sym_features(t.M_k) - cfg.gamma * sym_features(t.M_k1)
                           for t in tuples])
        targets = np.array([t.stage_cost for t in tuples])
        g, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
        if rank < 6:
            raise qlearn.RankDeficientError(int(rank))
        if g[5] <= 0:
            raise qlearn.ExcitationError(
                f"G_uu = {g[5]:.3e} is not positive; kernel is not a valid "
                "action value (insufficient excitation)")
        K_next = np.array([g[2], g[4]]) / g[5]
        if np.linalg.norm(K_next - K) < cfg.tol:
            return g, i
        K = K_next
    raise qlearn.QTrainError(f"gain did not settle within {cfg.max_iters} "
                             f"iterations (last gain {K})")


NODE_FAILURES = (scheduler.SafetyAbortError, qlearn.RankDeficientError,
                 qlearn.ExcitationError, qlearn.QTrainError)


def reference_failures(params, surface, cfg, theta_nodes, current_nodes):
    """(row, col, exception) of every node that fails, node after node in
    row-major order, from reference_train_node."""
    failures = []
    for a in range(theta_nodes.size):
        for b in range(current_nodes.size):
            try:
                reference_train_node(params, surface, cfg, theta_nodes,
                                     current_nodes, a, b)
            except NODE_FAILURES as exc:
                failures.append((a, b, exc))
    return failures


class TestTupleCollection:
    """The array collector draws the scalar collector's tuples."""

    @staticmethod
    def collectors(seed, cfg=TableTrainConfig(), i_span=(0.0, 7.5),
                   i_limit=15.0):
        rng = np.random.default_rng(seed)
        A, B = rng.uniform(0.95, 0.99), rng.uniform(0.005, 0.02)
        stacked = scheduler._node_collector(
            np.array([A]), np.array([B]), cfg, i_span, i_limit,
            [np.random.default_rng([seed, 1])])

        def collect(K, count):
            # the stacked collector on a one-node stack, unstacked
            batch, aborted = stacked(np.array([K], float), count,
                                     np.zeros(1, bool))
            if aborted:
                raise aborted[0]
            return TupleBatch(*(v[0] for v in batch))

        return (collect,
                reference_node_collector(A, B, cfg, i_span, i_limit,
                                         np.random.default_rng([seed, 1])))

    def test_matches_scalar_reference_on_200_seeds(self):
        # gains around K0 overshoot the bound on some draws: then both raise
        # the same message, and the collectors are not used again
        aborts = 0
        for seed in range(200):
            collect, reference = self.collectors(seed)
            gains = np.random.default_rng(seed).uniform(-150, 150, (4, 2))
            for K in gains:
                count = 6 + seed % 5
                try:
                    tuples = reference(K, count)
                except scheduler.SafetyAbortError as ref:
                    with pytest.raises(scheduler.SafetyAbortError) as exc:
                        collect(K, count)
                    assert str(exc.value) == str(ref), seed
                    aborts += 1
                    break
                batch = collect(K, count)
                assert np.array_equal(batch.M_k, [t.M_k for t in tuples]), seed
                assert np.array_equal(batch.M_k1, [t.M_k1 for t in tuples]), seed
                assert np.array_equal(batch.costs,
                                      [t.stage_cost for t in tuples]), seed
        assert 0 < aborts < 200

    def test_safety_abort_names_the_first_tuple_like_reference(self):
        # a wide dither at a low bound: several tuples of a draw overshoot,
        # and the message names the first of them
        cfg = TableTrainConfig(dither=300.0)
        for seed in range(3):
            collect, reference = self.collectors(seed, cfg, i_limit=7.6)
            with pytest.raises(scheduler.SafetyAbortError) as ref:
                reference(np.array([0.0, 0.0]), 50)
            with pytest.raises(scheduler.SafetyAbortError) as exc:
                collect(np.array([0.0, 0.0]), 50)
            assert str(exc.value) == str(ref.value)


class TestTrainTable:
    def test_small_grid_matches_scalar_reference(self, params, surface):
        theta_nodes = np.array([0.0, 10.0, 22.5, 45.0])
        current_nodes = np.array([0.0, 3.0, 7.5])
        for cfg in (TableTrainConfig(), TableTrainConfig(seed=12345,
                                                         tuples_per_iter=9)):
            t = train_table(params, surface, theta_nodes, current_nodes, cfg)
            for a in range(theta_nodes.size):
                for b in range(current_nodes.size):
                    g, iters = reference_train_node(
                        params, surface, cfg, theta_nodes, current_nodes, a, b)
                    assert np.array_equal(t.kernels[a][b], g), (a, b)
                    assert t.iterations[a, b] == iters, (a, b)

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 999, 2**30])
    def test_full_grid_matches_scalar_reference(self, params, surface, seed):
        cfg = TableTrainConfig(seed=seed)
        t = train_table(params, surface, cfg=cfg)
        nt, ni = t.shape
        for a in range(nt):
            for b in range(ni):
                g, iters = reference_train_node(
                    params, surface, cfg, t.theta_nodes, t.current_nodes, a, b)
                assert np.array(t.kernels[a][b]).tobytes() == g.tobytes(), \
                    (a, b)
                assert t.iterations[a, b] == iters, (a, b)

    # 4 x 3 grids where nodes fail in different iterations and ways:
    # safety aborts (iterations 1-3) and unsettled gains (after 3), with two
    # nodes converging; non-positive G_uu and safety aborts; and a gain so
    # large that every node aborts at once, on tuples near the float limit.
    # With no dither, every node of the default grid is rank deficient.
    FAILING = {
        "aborts and unsettled": (TableTrainConfig(dither=800.0, max_iters=3),
                                 (4, 3)),
        "excitation": (TableTrainConfig(K0=(-200.0, 100.0), dither=150.0),
                       (4, 3)),
        "huge gain": (TableTrainConfig(K0=(1e300, 1e300)), (4, 3)),
        "no dither": (TableTrainConfig(dither=0.0), (16, 8)),
    }

    @staticmethod
    def failing_grid(params, name):
        cfg, (nt, ni) = TestTrainTable.FAILING[name]
        return (cfg, np.linspace(0.0, params.rotor_pitch, nt),
                np.linspace(0.0, 1.5 * params.i_nominal, ni))

    @pytest.mark.parametrize("name", list(FAILING))
    def test_failures_match_per_node_reference(self, params, surface, name):
        cfg, theta_nodes, current_nodes = self.failing_grid(params, name)
        ref = reference_failures(params, surface, cfg, theta_nodes,
                                 current_nodes)
        with pytest.raises(TableTrainError) as exc:
            train_table(params, surface, theta_nodes, current_nodes, cfg)
        got = exc.value.failures
        assert [(a, b, type(e), str(e)) for a, b, e in got] \
            == [(a, b, type(e), str(e)) for a, b, e in ref]
        assert str(exc.value) == str(TableTrainError(ref, theta_nodes.size
                                                     * current_nodes.size))
        if name == "aborts and unsettled":
            kinds = {type(e) for _, _, e in ref}
            assert kinds == {scheduler.SafetyAbortError, qlearn.QTrainError}
            assert len(ref) < theta_nodes.size * current_nodes.size

    # the rows of failed and finished nodes may overflow (the huge gain's
    # do): q_policy_iteration's errstate scope keeps them quiet, and the
    # checks on live rows alone decide each node
    @pytest.mark.parametrize("name", ["aborts and unsettled", "huge gain",
                                      "no dither"])
    def test_failing_grid_emits_no_warnings(self, params, surface, name):
        cfg, theta_nodes, current_nodes = self.failing_grid(params, name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TableTrainError):
                train_table(params, surface, theta_nodes, current_nodes, cfg)

    def test_overflowing_initial_gain_names_its_keys(self, params, surface):
        # |k0| times the top current overflows: refused before any draw
        _, theta_nodes, current_nodes = self.failing_grid(params, "huge gain")
        cfg = TableTrainConfig(K0=(1e308, -1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"k0_x, k0_r = \[1e\+308, "
                               r"-1e\+308\] overflow the training action"):
                train_table(params, surface, theta_nodes, current_nodes, cfg)

    def test_constant_surface_cores_agree(self, params):
        surf = constant_surface(16e-3)
        t = train_table(params, surf, theta_nodes=np.array([0.0, 45.0]),
                        current_nodes=np.array([0.0, 7.5]))
        ref = t.gains[0, 0]
        for a in range(2):
            for b in range(2):
                assert np.allclose(t.gains[a, b], ref, atol=2e-3)

    def test_small_grid_matches_model_based_oracle(self, params, surface):
        theta_nodes = np.array([0.0, 15.0, 30.0, 45.0])
        current_nodes = np.array([0.0, 4.0, 7.5])
        t = train_table(params, surface, theta_nodes, current_nodes)
        for a, th in enumerate(theta_nodes):
            for b, i in enumerate(current_nodes):
                L = inductance_at(surface, float(th), float(i))
                m = lqt.build_augmented(1 - params.T * params.R_phase / L,
                                        params.T / L)
                K_star = lqt.optimal_gain(lqt.are_fixed_point(m), m)
                err = np.linalg.norm(t.gains[a, b] - K_star) \
                    / np.linalg.norm(K_star)
                assert err < 1e-2, (a, b, err)

    def test_full_grid_trains_and_reports_iterations(self, trained_table):
        assert trained_table.shape == (16, 8)
        assert np.all(trained_table.iterations >= 1)
        assert np.all(trained_table.iterations <= 20)

    def test_periodic_ends_match(self, trained_table):
        # first and last theta rows see the same inductance
        t = trained_table
        for b in range(t.current_nodes.size):
            assert np.allclose(t.gains[0, b], t.gains[-1, b], atol=2e-3)

    def test_failure_lists_nodes(self, params, surface):
        cfg = TableTrainConfig(max_iters=1, tol=1e-16)
        with pytest.raises(TableTrainError) as exc:
            train_table(params, surface, np.array([0.0, 45.0]),
                        np.array([0.0, 7.5]), cfg)
        assert len(exc.value.failures) == 4


class TestOnlineUpdate:
    @staticmethod
    def _node_model(params, surface, table, a, b):
        L = inductance_at(surface, float(table.theta_nodes[a]),
                          float(table.current_nodes[b]))
        return 1 - params.T * params.R_phase / L, params.T / L

    def _make_tuple(self, table, A, B, x, r, u):
        """(M_k, M_k1, cost) of one step of the core (2, 3)'s model."""
        a_, b_ = 2, 3
        x1 = A * x + B * u
        K = table.gains[a_, b_]
        u1 = -(K[0] * x1 + K[1] * r)
        c = stage_cost((x, r), u, table.cfg.tracking_weight(),
                       table.cfg.r_weight)
        return (x, r, u), (x1, r, u1), c

    def test_consistent_tuple_leaves_gain_fixed(self, params, surface,
                                                fresh_table):
        # data generated by the core's own frozen model has (near) zero
        # Bellman residual, so the update must not move the gain
        t = fresh_table
        A, B = self._node_model(params, surface, t, 2, 3)
        before = t.gains[2, 3].copy()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, r = rng.uniform(0, 6), rng.uniform(1, 5)
            u = -(before[0] * x + before[1] * r) + 15 * rng.uniform(-1, 1)
            update_core_online(t, (2, 3), *self._make_tuple(t, A, B, x, r, u))
        assert np.allclose(t.gains[2, 3], before, atol=1e-6)

    def test_adapts_to_resistance_drift(self, params, surface, fresh_table):
        # feed excited tuples from a plant whose resistance grew 10 %; the
        # core's gain must converge toward the perturbed optimum
        t = fresh_table
        L = inductance_at(surface, float(t.theta_nodes[2]),
                          float(t.current_nodes[3]))
        R_hot = params.R_phase * 1.1
        A, B = 1 - params.T * R_hot / L, params.T / L
        m = lqt.build_augmented(A, B)
        K_star = lqt.optimal_gain(lqt.are_fixed_point(m), m)

        err0 = np.linalg.norm(t.gains[2, 3] - K_star)
        rng = np.random.default_rng(1)
        for _ in range(3000):
            x, r = rng.uniform(0, 6), rng.uniform(1, 5)
            K = t.gains[2, 3]
            u = -(K[0] * x + K[1] * r) + 15 * rng.uniform(-1, 1)
            update_core_online(t, (2, 3), *self._make_tuple(t, A, B, x, r, u))
        err1 = np.linalg.norm(t.gains[2, 3] - K_star)
        assert err1 < 0.05 * err0

    def test_destabilizing_update_rejected(self, fresh_table):
        t = fresh_table
        before = table_state(t)
        # wildly inconsistent target: huge cost at a tiny feature row
        applied = update_core_online(t, (2, 3), (0.1, 0.1, 0.1),
                                     (0.0, 0.1, 0.0), 1e7)
        assert not applied
        assert table_state(t) == before


class TestPersistence:
    def test_round_trip_bit_exact(self, trained_table, tmp_path):
        path = tmp_path / "table.json"
        save_table(trained_table, path)
        back = load_table(path)
        assert back.params_hash == trained_table.params_hash
        assert back.cfg == trained_table.cfg
        assert np.array_equal(back.theta_nodes, trained_table.theta_nodes)
        assert np.array_equal(back.current_nodes, trained_table.current_nodes)
        assert np.array_equal(back.iterations, trained_table.iterations)
        for a in range(16):
            for b in range(8):
                assert np.array_equal(core_G(back, a, b),
                                      core_G(trained_table, a, b))
        assert np.array_equal(back.gains, trained_table.gains)

    def test_corrupted_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_table(path)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="malformed table file"):
            load_table(path)

    def test_wrong_version_rejected(self, trained_table, tmp_path):
        import json
        path = tmp_path / "table.json"
        save_table(trained_table, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_table(path)

    def test_out_of_range_config_rejected_naming_the_file(self, trained_table,
                                                          tmp_path):
        import json
        path = tmp_path / "table.json"
        save_table(trained_table, path)
        for field, value in (("gain_clamp", -1.0), ("tol", 0.0),
                             ("max_iters", 0)):
            doc = json.loads(path.read_text())
            doc["cfg"][field] = value
            bad = tmp_path / f"bad_{field}.json"
            bad.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=field) as info:
                load_table(bad)
            assert str(info.value).startswith(f"{bad}: ")

    def test_missing_key_rejected(self, trained_table, tmp_path):
        import json
        path = tmp_path / "table.json"
        save_table(trained_table, path)
        doc = json.loads(path.read_text())
        del doc["cores"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_table(path)


class TestCompatibility:
    def test_hash_is_stable(self, params, surface):
        assert params_hash(params, surface) == params_hash(
            MotorParams(), default_surface(MotorParams()))

    def test_hash_changes_with_params(self, params, surface):
        from dataclasses import replace
        assert params_hash(params, surface) != params_hash(
            replace(params, R_phase=2.2), surface)

    def test_hash_changes_with_surface(self, params, surface):
        assert params_hash(params, surface) != params_hash(
            params, default_surface(params, kappa=0.95))
        assert params_hash(params, surface) != params_hash(
            params, default_surface(params, n_current=9))

    def test_mismatch_raises(self, trained_table, params, surface):
        from dataclasses import replace
        check_table_compatible(trained_table, params, surface)
        with pytest.raises(TableMismatchError):
            check_table_compatible(trained_table,
                                   replace(params, L_aligned=17e-3), surface)
        with pytest.raises(TableMismatchError):
            check_table_compatible(trained_table, params,
                                   default_surface(params, kappa=0.95))


class TestTableValidation:
    @pytest.mark.parametrize("field, value", [
        ("q_weight", -1.0), ("q_weight", float("nan")), ("r_weight", 0.0),
        ("online_tau", -5.0), ("gain_clamp", -1.0), ("gain_clamp", float("inf")),
        ("safety_factor", float("nan")), ("dither", -1.0),
        ("tol", 0.0), ("tol", float("nan")), ("tol", float("inf")),
        ("max_iters", 0), ("max_iters", -3),
        ("gamma", 0.0), ("gamma", -0.5), ("gamma", float("nan")),
        ("gamma", 1.0), ("max_iters", 1001), ("tuples_per_iter", 100001),
        ("seed", -1), ("seed", 1.5), ("K0", (1.0,)), ("K0", (1.0, 2.0, 3.0)),
        ("seed", True), ("seed", np.True_), ("max_iters", True),
        ("tuples_per_iter", np.bool_(True)),
        ("gain_clamp", True), ("q_weight", True), ("dither", False),
        ("safety_factor", np.True_),
    ])
    def test_config_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TableTrainConfig(**{field: value})

    @pytest.mark.parametrize("K0, named", [
        ((True, -100.0), "k0_x"), ((100.0, np.False_), "k0_r")])
    def test_boolean_initial_gain_rejected(self, K0, named):
        with pytest.raises(ValueError, match=named):
            TableTrainConfig(K0=K0)

    def test_config_edge_values_accepted(self):
        TableTrainConfig(q_weight=0.0, dither=0.0)

    def test_unsorted_nodes_rejected(self):
        k = QKernel(np.diag([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            QCoreTable(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                       np.tile(k.to_vec(), (2, 2, 1)), TableTrainConfig(), "h")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_nodes_rejected(self, bad):
        k = QKernel(np.diag([1.0, 1.0, 1.0]))
        for theta, current in (([0.0, bad], [0.0, 1.0]),
                               ([0.0, 1.0], [bad, 1.0])):
            with pytest.raises(ValueError, match="finite and strictly ascending"):
                QCoreTable(np.array(theta), np.array(current),
                           np.tile(k.to_vec(), (2, 2, 1)), TableTrainConfig(),
                           "h")

    @pytest.mark.parametrize("iterations", [
        [[-5]], [[1, 2], [3, -1]], [[1.0, 2.0], [3.0, 4.0]], [[1, 2]]])
    def test_iterations_must_be_a_count_per_core(self, iterations):
        k = QKernel(np.diag([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="iterations must be"):
            QCoreTable(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                       np.tile(k.to_vec(), (2, 2, 1)), TableTrainConfig(), "h",
                       iterations=np.array(iterations))

    def test_shape_mismatch_rejected(self):
        k = QKernel(np.diag([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            QCoreTable(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                       np.tile(k.to_vec(), (2, 1, 1)), TableTrainConfig(), "h")
