import copy
import io
import json
import operator
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from srmq import lqt, plant, qlearn, scheduler, sim
from srmq.plant import (MotorParams, ReferenceProfile, default_surface,
                        _linearised, _weights, inductance_at)
from srmq.qlearn import (TupleBatch, policy_improvement, rls_update,
                         stage_cost, sym_features)
from srmq.scheduler import (QCoreTable, TableMismatchError,
                            TableTrainConfig, TableTrainError, _corner,
                            _schedule_located, check_table_compatible,
                            load_table, locate, params_hash, save_table,
                            scheduled_gain, train_table, update_core_online)
from srmq.sim import Scenario, run_closed_loop
from conftest import (_corners, build_augmented, coarse_table,
                      constant_surface, core_G, flat_surface_on,
                      kernel_matrix, kernel_vector, point_near,
                      random_surface, schedule, scheduled_q)


def random_kernel(rng):
    """Random symmetric kernel vector with a positive input block."""
    G = rng.uniform(-5, 5, (3, 3))
    G = (G + G.T) / 2
    G[2, 2] = rng.uniform(0.5, 2.0)
    return kernel_vector(G)


def random_table(rng, nt=None, ni=None):
    """(table, surface): random valid cores on random nodes, and the flat
    surface on those nodes that the table is read against."""
    nt = nt or rng.integers(2, 5)
    ni = ni or rng.integers(2, 5)
    surface = flat_surface_on(np.sort(rng.uniform(0, 45, nt)),
                              np.sort(rng.uniform(0, 8, ni)))
    cores = np.array([[random_kernel(rng) for _ in range(ni)]
                      for _ in range(nt)])
    return (QCoreTable(cores, TableTrainConfig(),
                       params_hash(MotorParams(), surface)), surface)


def blend_oracle(table, surface, theta, i):
    """Independent interpolant: solve for the four basis coefficients of
    1, l1, l2, l1*l2 at the cell corners, then combine the corner kernels."""
    row, col, l1, l2 = locate(surface, theta, i)
    nt, ni = table.shape
    r1, c1 = min(row + 1, nt - 1), min(col + 1, ni - 1)
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    V = np.array([[1.0, a, b, a * b] for a, b in corners])
    w = np.linalg.solve(V.T, [1.0, l1, l2, l1 * l2])
    Gs = [core_G(table, row, col), core_G(table, r1, col),
          core_G(table, row, c1), core_G(table, r1, c1)]
    return sum(wk * Gk for wk, Gk in zip(w, Gs))


def reference_scheduled_gain(table, surface, theta, i):
    """The numpy scheduled read: locate, the nearest-corner rule, the numpy
    blend of the whole 6-vector and g[[2, 4]] / g[5], or the nearest core's
    derived gain when the blended G_uu <= 0.  (K, cell, fell back?)."""
    cell = _corner(*locate(surface, theta, i))
    g = scheduled_q(table, surface, theta, i)
    if g[5] <= 0:
        return table.gains[cell], cell, True
    return g[[2, 4]] / g[5], cell, False


def reference_update_core_online(table, tup, cell):
    """update_core_online through the stacked feature map, qlearn's
    rls_update and the numpy gains, checking the RLS state it makes: a
    6-vector and a symmetric 6x6 covariance.  An accepted core is written
    in place, as the table's cell view holds the core lists."""
    M_k, M_k1, cost = tup
    row = sym_features(M_k) - table.cfg.gamma * sym_features(M_k1)
    a, b = cell
    g, eta = rls_update(np.array(table.kernels[a][b]), table.covariance[cell],
                        row, cost)
    assert g.shape == (6,) and eta.shape == (6, 6)
    assert np.allclose(eta, eta.T)
    if g[5] <= 0:
        return False
    K_new = np.array([g[2], g[4]]) / g[5]
    K_old = table.gains[cell]
    if np.linalg.norm(K_new - K_old) > table.cfg.gain_clamp * (1 + np.linalg.norm(K_old)):
        return False
    table.kernels[a][b][:] = g.tolist()
    table.covariance[cell] = eta
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
    """The middle between two neighbouring nodes, where every bilinear
    weight is about 1/4 or 1/2."""
    return st.sampled_from([(a + b) / 2 for a, b in zip(nodes, nodes[1:])])


@st.composite
def table_and_point(draw):
    """A random valid table and its surface, optionally with some or all
    cores at a subnormal G_uu (which reaches the fallback), and a point on
    a node, wrapped in theta, clamped in current, in the middle of a cell,
    or anywhere; the point may come as numpy scalars."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    nt, ni = draw(st.sampled_from([(2, 2), (3, 5)]))
    t, s = random_table(rng, nt, ni)
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    if share:
        mask = rng.random((nt, ni)) < share
        t = QCoreTable(subnormal_cores(t.kernels, mask), t.cfg, "h")
    thetas = s.theta_grid.tolist()
    theta = draw(st.one_of(point_near(thetas, wrap=True),
                           cell_middle(thetas)))
    i = draw(st.one_of(point_near(s._current_list, wrap=False),
                       cell_middle(s._current_list)))
    if draw(st.booleans()):
        theta, i = np.float64(theta), np.float64(i)
    return t, s, theta, i


class TestSchedule:
    @given(case=table_and_point())
    @settings(max_examples=500, deadline=None)
    def test_matches_numpy_reference(self, case):
        t, s, theta, i = case
        K_ref, cell_ref, _ = reference_scheduled_gain(t, s, theta, i)
        before = table_state(t)
        k_x, k_r, cell = schedule(t, s, theta, i)
        assert np.array([k_x, k_r]).tobytes() == K_ref.tobytes()
        assert cell == cell_ref
        assert table_state(t) == before
        # numpy scalars here would silently double the cost of a step
        assert type(k_x) is float and type(k_r) is float
        assert type(cell[0]) is int and type(cell[1]) is int

    def test_fallback_leaves_table_unchanged(self):
        # two valid cores with G_uu = 5e-324, repeated on both theta nodes:
        # at l1 = 0, l2 = 0.5 two weights are 0.5 and 0.5 * 5e-324 rounds to
        # 0, so the blended G_uu is 0
        cores = [[1.0, 0.0, 1e-321, 1.0, -1e-321, SUBNORMAL],
                 [1.0, 0.0, 2e-321, 1.0, -3e-321, SUBNORMAL]]
        s = flat_surface_on([0.0, 45.0], [0.0, 4.0])
        t = QCoreTable([cores, cores], TableTrainConfig(), "h")
        before = table_state(t)
        assert schedule(t, s, 0.0, 2.0) == (*t.gains[0, 0].tolist(), (0, 0))
        assert reference_scheduled_gain(t, s, 0.0, 2.0)[2]     # fell back
        assert np.array_equal(scheduled_gain(t, s, 0.0, 2.0), t.gains[0, 0])
        k_x, k_r, cell = schedule(t, s, 0.0, 3.6)             # G_uu = 5e-324
        assert not reference_scheduled_gain(t, s, 0.0, 3.6)[2]
        assert cell == (0, 1)
        assert table_state(t) == before


def assert_learning_run_matches_public_rls_result(scenario, table,
                                                  monkeypatch):
    """Run the scenario and replay every online update on a copy of the
    table through reference_update_core_online; every transition the loop
    passes holds two 3-entry finite vectors and a finite, non-negative
    cost.  Each accept or reject and the final tables must agree bit for
    bit."""
    ref = copy.deepcopy(table)
    updates = []

    def recording(table, cell, M_k, M_k1, cost):
        tup = (np.array(M_k, float), np.array(M_k1, float), cost)
        assert tup[0].shape == tup[1].shape == (3,)
        assert np.isfinite(tup[0]).all() and np.isfinite(tup[1]).all()
        assert np.isfinite(cost) and cost >= -1e-9
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
        # located; the loop takes the angles' cells from one _wrapped_cells
        # pass, so every locate of the loop, the controller and the plant is
        # on the current axis: one per step, shared by the gain and the
        # plant step
        locates, updates, passes = [], [], []
        locate_once = plant._axis_locate
        wrapped_cells = sim._wrapped_cells
        update = scheduler.update_core_online

        def counting_locate(nodes, value):
            locates.append(nodes is surface._current_list)
            return locate_once(nodes, value)

        def counting_pass(*args):
            passes.append(args)
            return wrapped_cells(*args)

        def counting_update(*args):
            updates.append(args)
            return update(*args)

        for module in (plant, scheduler):
            monkeypatch.setattr(module, "_axis_locate", counting_locate)
        monkeypatch.setattr(scheduler, "update_core_online", counting_update)
        monkeypatch.setattr(sim, "_wrapped_cells", counting_pass)
        scenario = Scenario(motor=params, surface=surface,
                            reference=ReferenceProfile(), dither=5.0,
                            duration=2 * params.steps_per_cycle,
                            online_learning=True)
        run_closed_loop(scenario, fresh_table)
        assert len(updates) > 0
        assert len(locates) == scenario.steps
        assert all(locates)
        assert len(passes) == 1


class TestLocate:
    def test_node_hits(self, surface):
        s = surface
        row, col, l1, l2 = locate(s, float(s.theta_grid[3]),
                                  float(s.current_grid[2]))
        assert (row, col) == (3, 2)
        assert l1 == pytest.approx(0.0)
        assert l2 == pytest.approx(0.0)

    def test_theta_wraps(self, surface):
        s = surface
        pitch = s.theta_grid[-1] - s.theta_grid[0]
        assert locate(s, 12.0, 3.0) == locate(s, 12.0 + 2 * pitch, 3.0)

    def test_top_theta_node_wraps_to_first_cell(self, surface):
        row, _, l1, _ = locate(surface, float(surface.theta_grid[-1]), 3.0)
        assert row == 0
        assert l1 == pytest.approx(0.0)

    def test_current_clamps(self, surface):
        s = surface
        _, col, _, l2 = locate(s, 5.0, -1.0)
        assert (col, l2) == (0, 0.0)
        _, col, _, l2 = locate(s, 5.0, 99.0)
        assert col == s.current_grid.size - 1
        assert l2 == pytest.approx(0.0)

    def test_cell_interior_offsets(self, surface):
        s = surface
        mid_t = (s.theta_grid[1] + s.theta_grid[2]) / 2
        mid_i = (s.current_grid[4] + s.current_grid[5]) / 2
        row, col, l1, l2 = locate(s, float(mid_t), float(mid_i))
        assert (row, col) == (1, 4)
        assert l1 == pytest.approx(0.5)
        assert l2 == pytest.approx(0.5)


class TestNearestCore:
    """The nearest core that schedule returns with its gain."""

    def test_quadrant_selection(self, trained_table, surface):
        t, s = trained_table, surface
        dt = s.theta_grid[1] - s.theta_grid[0]
        di = s.current_grid[1] - s.current_grid[0]
        cell = schedule(t, s, float(s.theta_grid[0] + 0.2 * dt),
                        float(s.current_grid[0] + 0.2 * di))[2]
        assert t.kernels[cell[0]][cell[1]] == t.kernels[0][0]
        cell = schedule(t, s, float(s.theta_grid[0] + 0.8 * dt),
                        float(s.current_grid[0] + 0.8 * di))[2]
        assert t.kernels[cell[0]][cell[1]] == t.kernels[1][1]

    def test_tie_breaks_to_lower_indices(self, trained_table, surface):
        t, s = trained_table, surface
        mid_t = (s.theta_grid[0] + s.theta_grid[1]) / 2
        mid_i = (s.current_grid[0] + s.current_grid[1]) / 2
        cell = schedule(t, s, float(mid_t), float(mid_i))[2]
        assert t.kernels[cell[0]][cell[1]] == t.kernels[0][0]


class TestScheduledQ:
    def test_exact_at_nodes(self, trained_table, surface):
        t, s = trained_table, surface
        for a in (0, 4, 10):
            for b in (0, 3, 7):
                G = kernel_matrix(scheduled_q(t, s, float(s.theta_grid[a]),
                                              float(s.current_grid[b])))
                assert np.allclose(G, core_G(t, a, b), atol=1e-12)

    def test_result_is_symmetric(self, trained_table, surface):
        g = scheduled_q(trained_table, surface, 7.3, 2.9)
        assert g.shape == (6,) and g.dtype == np.float64
        G = kernel_matrix(g)
        assert np.array_equal(G, G.T)

    def test_convexity_entrywise(self, trained_table, surface):
        t, s = trained_table, surface
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = rng.uniform(0, 45)
            i = rng.uniform(0, 7.5)
            row, col, _, _ = locate(s, theta, i)
            r1 = min(row + 1, s.theta_grid.size - 1)
            c1 = min(col + 1, s.current_grid.size - 1)
            stack = np.stack([core_G(t, row, col), core_G(t, r1, col),
                              core_G(t, row, c1), core_G(t, r1, c1)])
            G = kernel_matrix(scheduled_q(t, s, theta, i))
            assert np.all(G >= stack.min(axis=0) - 1e-9)
            assert np.all(G <= stack.max(axis=0) + 1e-9)

    def test_continuous_across_cell_edges(self, trained_table, surface):
        t, s = trained_table, surface
        edge_t = float(s.theta_grid[5])
        for i in (1.3, 4.7):
            left = scheduled_q(t, s, edge_t - 1e-9, i)
            right = scheduled_q(t, s, edge_t + 1e-9, i)
            assert np.allclose(left, right, atol=1e-5)

    @given(seed=st.integers(0, 10_000), theta=st.floats(-10, 90),
           i=st.floats(-1, 10))
    @settings(max_examples=150, deadline=None)
    def test_matches_coefficient_solve(self, seed, theta, i):
        rng = np.random.default_rng(seed)
        t, s = random_table(rng)
        G = kernel_matrix(scheduled_q(t, s, theta, i))
        assert np.allclose(G, blend_oracle(t, s, theta, i), atol=1e-10)

    def test_matches_coefficient_solve_on_trained(self, trained_table,
                                                  surface):
        rng = np.random.default_rng(1)
        for _ in range(100):
            theta, i = rng.uniform(0, 45), rng.uniform(0, 7.5)
            G = kernel_matrix(scheduled_q(trained_table, surface, theta, i))
            assert np.allclose(G, blend_oracle(trained_table, surface, theta,
                                               i), atol=1e-10)


class TestScheduledGain:
    def test_gain_is_greedy_on_blended_kernel(self, trained_table, surface):
        g = scheduled_q(trained_table, surface, 13.1, 3.7)
        K = scheduled_gain(trained_table, surface, 13.1, 3.7)
        assert np.allclose(K, policy_improvement(g))

    def test_fallback_on_indefinite_blend(self):
        # valid cores whose subnormal input blocks blend to G_uu = 0 at
        # l1 = l2 = 0.5 (every weight 0.25): the nearest core's gain is used
        rng = np.random.default_rng(3)
        base, s = random_table(rng, 2, 2)
        t = QCoreTable(subnormal_cores(base.kernels, np.ones((2, 2), bool)),
                       base.cfg, "h")
        theta = float(s.theta_grid.mean())
        i = float(s.current_grid.mean())
        assert scheduled_q(t, s, theta, i)[5] == 0.0
        K = scheduled_gain(t, s, theta, i)
        cell = schedule(t, s, theta, i)[2]
        assert np.array_equal(K, t.gains[cell])
        assert np.all(np.isfinite(K))


def reference_node_collector(A, B, cfg, i_span, i_limit, rng):
    """Scalar tuple source, one rng.uniform per value and one tuple at a
    time: the reference the array collector must reproduce bit for bit."""
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
            tuples.append(((x, r, u), (x1, r, u1), cost))
        return TupleBatch(*map(np.array, zip(*tuples)))

    return collect


def reference_train_node(params, surface, cfg, a, b):
    """(kernel vector, iterations) of the surface's node (a, b) from the
    scalar collector, per-row regression rows, lstsq and the greedy gain,
    one tuple at a time. A failing node raises what training reports for
    it, with its message."""
    theta_nodes, current_nodes = surface.theta_grid, surface.current_grid
    _, A, B = _linearised(params, inductance_at(surface, theta_nodes[a],
                                                current_nodes[b]))
    collect = reference_node_collector(
        A, B, cfg, (float(current_nodes[0]), float(current_nodes[-1])),
        cfg.safety_factor * params.i_nominal,
        np.random.default_rng([cfg.seed, a, b]))
    K = np.asarray(cfg.K0, float)
    for i in range(1, cfg.max_iters + 1):
        batch = collect(K, cfg.tuples_per_iter)
        design = np.array([sym_features(M_k) - cfg.gamma * sym_features(M_k1)
                           for M_k, M_k1 in zip(batch.M_k, batch.M_k1)])
        targets = batch.costs
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


def reference_failures(params, surface, cfg):
    """(row, col, exception) of every node of the surface that fails, node
    after node in row-major order, from reference_train_node."""
    failures = []
    for a in range(surface.theta_grid.size):
        for b in range(surface.current_grid.size):
            try:
                reference_train_node(params, surface, cfg, a, b)
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
                    want = reference(K, count)
                except scheduler.SafetyAbortError as ref:
                    with pytest.raises(scheduler.SafetyAbortError) as exc:
                        collect(K, count)
                    assert str(exc.value) == str(ref), seed
                    aborts += 1
                    break
                batch = collect(K, count)
                for got, ref in zip(batch, want):
                    assert np.array_equal(got, ref), seed
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
    def test_small_grid_matches_scalar_reference(self, params):
        surface = default_surface(params, n_theta=4, n_current=3)
        for cfg in (TableTrainConfig(), TableTrainConfig(seed=12345,
                                                         tuples_per_iter=9)):
            t = train_table(params, surface, cfg)
            for a in range(4):
                for b in range(3):
                    g, iters = reference_train_node(params, surface, cfg, a, b)
                    assert np.array_equal(t.kernels[a][b], g), (a, b)
                    assert t.iterations[a, b] == iters, (a, b)

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 999, 2**30])
    def test_full_grid_matches_scalar_reference(self, params, surface, seed):
        cfg = TableTrainConfig(seed=seed)
        t = train_table(params, surface, cfg=cfg)
        nt, ni = t.shape
        for a in range(nt):
            for b in range(ni):
                g, iters = reference_train_node(params, surface, cfg, a, b)
                assert np.array(t.kernels[a][b]).tobytes() == g.tobytes(), \
                    (a, b)
                assert t.iterations[a, b] == iters, (a, b)

    # 4 x 3 surfaces where nodes fail in different iterations and ways:
    # safety aborts (iterations 1-3) and unsettled gains (after 3), with two
    # nodes converging; non-positive G_uu and safety aborts; and a gain so
    # large that every node aborts at once, on tuples near the float limit.
    # With no dither, every node of the default surface is rank deficient.
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
        return cfg, default_surface(params, n_theta=nt, n_current=ni)

    @pytest.mark.parametrize("name", list(FAILING))
    def test_failures_match_per_node_reference(self, params, name):
        cfg, surface = self.failing_grid(params, name)
        ref = reference_failures(params, surface, cfg)
        with pytest.raises(TableTrainError) as exc:
            train_table(params, surface, cfg)
        got = exc.value.failures
        assert [(a, b, type(e), str(e)) for a, b, e in got] \
            == [(a, b, type(e), str(e)) for a, b, e in ref]
        assert str(exc.value) == str(TableTrainError(ref, surface.values.size))
        if name == "aborts and unsettled":
            kinds = {type(e) for _, _, e in ref}
            assert kinds == {scheduler.SafetyAbortError, qlearn.QTrainError}
            assert len(ref) < surface.values.size

    # the rows of failed and finished nodes may overflow (the huge gain's
    # do): q_policy_iteration's errstate scope keeps them quiet, and the
    # checks on live rows alone decide each node
    @pytest.mark.parametrize("name", ["aborts and unsettled", "huge gain",
                                      "no dither"])
    def test_failing_grid_emits_no_warnings(self, params, name):
        cfg, surface = self.failing_grid(params, name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TableTrainError):
                train_table(params, surface, cfg)

    def test_overflowing_initial_gain_names_its_keys(self, params):
        # |k0| times the top current overflows: refused before any draw
        _, surface = self.failing_grid(params, "huge gain")
        cfg = TableTrainConfig(K0=(1e308, -1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"k0_x, k0_r = \[1e\+308, "
                               r"-1e\+308\] overflow the training action"):
                train_table(params, surface, cfg)

    def test_constant_surface_cores_agree(self, params):
        t = train_table(params, constant_surface(16e-3))
        ref = t.gains[0, 0]
        for a in range(t.shape[0]):
            for b in range(t.shape[1]):
                assert np.allclose(t.gains[a, b], ref, atol=2e-3)

    def test_small_grid_matches_model_based_oracle(self, params):
        surface = default_surface(params, n_theta=4, n_current=3)
        t = train_table(params, surface)
        for a, th in enumerate(surface.theta_grid):
            for b, i in enumerate(surface.current_grid):
                L = inductance_at(surface, float(th), float(i))
                m = build_augmented(1 - params.T * params.R_phase / L,
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
        for b in range(t.shape[1]):
            assert np.allclose(t.gains[0, b], t.gains[-1, b], atol=2e-3)

    def test_failure_lists_nodes(self, params):
        cfg = TableTrainConfig(max_iters=1, tol=1e-16)
        with pytest.raises(TableTrainError) as exc:
            train_table(params, default_surface(params, n_theta=2,
                                                n_current=2), cfg)
        assert len(exc.value.failures) == 4


@st.composite
def surface_table_and_updates(draw):
    """A random surface, a table of random cores on its grid whose gain
    clamp is drawn loose (most updates pass) or as trained, and 1 to 30
    online transitions (cell, (M_k, M_k1, cost)) at random cores."""
    surface = draw(random_surface())
    nt, ni = surface.values.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernels = np.array([[random_kernel(rng) for _ in range(ni)]
                        for _ in range(nt)])
    cfg = TableTrainConfig(gain_clamp=draw(st.sampled_from([0.02, 1e6])))
    table = QCoreTable(kernels, cfg, params_hash(MotorParams(), surface))
    updates = [((int(rng.integers(nt)), int(rng.integers(ni))),
                (rng.uniform(0, 6, 3).tolist(), rng.uniform(0, 6, 3).tolist(),
                 float(rng.uniform(0, 100))))
               for _ in range(draw(st.integers(1, 30)))]
    return surface, table, updates


def assert_cells_follow(cells, grid):
    """Every cell of a view is _corners of the grid at that cell: equal
    entries, and the same objects."""
    assert [len(row) for row in cells] == [len(row) for row in grid]
    for row, cell_row in enumerate(cells):
        for col, cell in enumerate(cell_row):
            corners = _corners(grid, row, col)
            assert cell == corners
            assert all(map(operator.is_, cell, corners))


class TestCellViews:
    @given(case=surface_table_and_updates())
    @settings(max_examples=100, deadline=None)
    def test_views_follow_accepted_updates(self, case):
        # an accepted update writes its core's list in place, so every cell
        # of the table's view that holds the core reads the new kernel
        surface, table, updates = case
        ref = copy.deepcopy(table)
        cores = [list(row) for row in table.kernels]
        accepted = [update_core_online(table, cell, *tup)
                    for cell, tup in updates]
        assume(any(accepted))
        assert [reference_update_core_online(ref, tup, cell)
                for cell, tup in updates] == accepted
        assert (np.array(table.kernels).tobytes()
                == np.array(ref.kernels).tobytes())
        assert all(map(operator.is_, sum(table.kernels, []), sum(cores, [])))
        for t in (table, ref):
            assert_cells_follow(t._cells, t.kernels)
        assert_cells_follow(surface._cells, surface._values_list)
        # the loop's read sees the updated cores: at each node, its gain
        for a, b in {cell for cell, _ in updates}:
            g = table.kernels[a][b]
            assert (_schedule_located(table, a, b, 0.0, 0.0,
                                      _weights(0.0, 0.0))
                    == (g[2] / g[5], g[4] / g[5], (a, b)))


class TestOnlineUpdate:
    @staticmethod
    def _node_model(params, surface, a, b):
        L = inductance_at(surface, float(surface.theta_grid[a]),
                          float(surface.current_grid[b]))
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
        A, B = self._node_model(params, surface, 2, 3)
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
        L = inductance_at(surface, float(surface.theta_grid[2]),
                          float(surface.current_grid[3]))
        R_hot = params.R_phase * 1.1
        A, B = 1 - params.T * R_hot / L, params.T / L
        m = build_augmented(A, B)
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

    def test_non_finite_covariance_raises_and_writes_nothing(
            self, params, surface, fresh_table):
        # a covariance started at online_tau = 1e200 overflows in the first
        # update's outer product; a tuple of the core's own model passes
        # the gain clamp, so the update reaches the finiteness check
        t = QCoreTable(fresh_table.kernels,
                       replace(fresh_table.cfg, online_tau=1e200),
                       fresh_table.params_hash)
        A, B = self._node_model(params, surface, 2, 3)
        K = t.gains[2, 3]
        x, r = 3.0, 4.0
        tup = self._make_tuple(t, A, B, x, r, -(K[0] * x + K[1] * r) + 10.0)
        before = table_state(t)
        # the closed loop calls the update under its overflow rule
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match=r"core \(2,3\) overflowed: .* online_tau "
                                  r"is 1e\+200"):
            update_core_online(t, (2, 3), *tup)
        assert table_state(t) == before


class TestPersistence:
    def test_round_trip_bit_exact(self, trained_table, tmp_path):
        path = tmp_path / "table.json"
        save_table(trained_table, path)
        back = load_table(path)
        assert back.params_hash == trained_table.params_hash
        assert back.cfg == trained_table.cfg
        assert back.shape == trained_table.shape
        assert np.array_equal(back.iterations, trained_table.iterations)
        for a in range(16):
            for b in range(8):
                assert np.array_equal(core_G(back, a, b),
                                      core_G(trained_table, a, b))
        assert np.array_equal(back.gains, trained_table.gains)

    @pytest.mark.parametrize("grid", ["default", "q_weight = 0"])
    def test_file_bytes_are_the_streaming_encoders(self, trained_table,
                                                    params, surface, tmp_path,
                                                    grid):
        # save_table encodes in one json.dumps; json.dump, which streams
        # through the pure-Python encoder, writes the same bytes
        t = trained_table
        table = {"default": lambda: t,
                 "q_weight = 0": lambda: train_table(
                     params, default_surface(params, n_theta=4, n_current=3),
                     TableTrainConfig(q_weight=0.0))}[grid]()
        path = tmp_path / "table.json"
        save_table(table, path)
        streamed = io.StringIO()
        json.dump(json.loads(path.read_text()), streamed)
        assert path.read_text() == streamed.getvalue()

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

    def test_hash_tells_the_grids_shapes_apart(self, params):
        # the grids and the values of the two surfaces concatenate to the
        # same bytes: only their shapes tell them apart
        a = flat_surface_on([0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        b = flat_surface_on([0.0, 1.0, 2.0], [3.0, 4.0, 5.0, 6.0])
        assert b"".join(v.tobytes() for v in (
            a.theta_grid, a.current_grid, a.values)) == b"".join(
            v.tobytes() for v in (b.theta_grid, b.current_grid, b.values))
        assert params_hash(params, a) != params_hash(params, b)

    def test_mismatch_raises(self, trained_table, params, surface):
        from dataclasses import replace
        check_table_compatible(trained_table, params, surface)
        with pytest.raises(TableMismatchError):
            check_table_compatible(trained_table,
                                   replace(params, L_aligned=17e-3), surface)
        with pytest.raises(TableMismatchError):
            check_table_compatible(trained_table, params,
                                   default_surface(params, kappa=0.95))
        # the hash matches, but a file edited after training holds every
        # third row of cores: the check names both shapes
        with pytest.raises(TableMismatchError, match=(
                r"^table has 6 x 8 cores, the surface's grid 16 x 8 nodes; "
                r"retrain the table$")):
            check_table_compatible(coarse_table(trained_table), params,
                                   surface)


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

    @pytest.mark.parametrize("n", [1, 257])
    def test_axis_off_the_surface_node_count_rejected(self, n):
        # a table's cores are one per node of a surface's grid: 2 to
        # MAX_AXIS_NODES along each axis
        core = kernel_vector(np.eye(3))
        for shape in ((n, 2), (2, n)):
            with pytest.raises(ValueError, match=re.escape(
                    "cores must have shape (n_theta, n_current, 6), 2 to 256 "
                    f"nodes per axis, got {(*shape, 6)}")):
                QCoreTable(np.tile(core, (*shape, 1)), TableTrainConfig(), "h")

    @pytest.mark.parametrize("iterations", [
        [[-5]], [[1, 2], [3, -1]], [[1.0, 2.0], [3.0, 4.0]], [[1, 2]]])
    def test_iterations_must_be_a_count_per_core(self, iterations):
        with pytest.raises(ValueError, match="iterations must be"):
            QCoreTable(np.tile(kernel_vector(np.eye(3)), (2, 2, 1)),
                       TableTrainConfig(), "h",
                       iterations=np.array(iterations))

    def test_shape_mismatch_rejected(self):
        for shape in ((2, 2, 5), (2, 2, 7), (2, 2), (1, 2, 2, 6)):
            with pytest.raises(ValueError, match="cores must have shape"):
                QCoreTable(np.ones(shape), TableTrainConfig(), "h")
