import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from srmq import plant, scheduler, sim
from srmq.plant import MotorParams, ReferenceProfile, reference_at, step_phase
from srmq.qlearn import stage_cost
from srmq.scheduler import QCoreTable, SafetyAbortError, TableTrainConfig
from srmq.sim import (BLOCK, CONTROLLERS, EXPORT_CHUNK, MAX_STEPS,
                      SETTLE_FRACTION, TRACE_COLUMNS, Metrics, Scenario,
                      SimTrace, compute_metrics, delta_modulation_step,
                      export_trace, run_closed_loop)
from conftest import constant_surface


def make_scenario(params, surface, **kw):
    kw.setdefault("reference", ReferenceProfile())
    return Scenario(motor=params, surface=surface, **kw)


def reference_row(trace, i):
    # str(float) is repr in Python 3, so values round-trip exactly
    return [int(trace.k[i]), float(trace.t[i]), float(trace.theta[i]),
            float(trace.r[i]), float(trace.x[i]), float(trace.u[i]),
            float(trace.K[i, 0]), float(trace.K[i, 1]),
            int(trace.cell[i, 0]), int(trace.cell[i, 1]), float(trace.cost[i])]


def reference_export(trace, path, fmt):
    """Row-at-a-time trace writer: the reference export_trace must
    reproduce byte for byte."""
    with open(path, "w", newline="") as f:
        if fmt == "csv":
            w = csv.writer(f)
            w.writerow(TRACE_COLUMNS)
            for i in range(len(trace)):
                w.writerow(reference_row(trace, i))
        else:
            for i in range(len(trace)):
                f.write(json.dumps(dict(zip(TRACE_COLUMNS,
                                            reference_row(trace, i)))) + "\n")


def assert_cost_per_step(trace, cfg):
    """The trace's cost column equals qlearn.stage_cost at every step, bit
    for bit (-0.0 and nan payloads included)."""
    want = np.array([stage_cost((x, r), u, cfg.tracking_weight(), cfg.r_weight)
                     for x, r, u in zip(trace.x.tolist(), trace.r.tolist(),
                                        trace.u.tolist())])
    assert trace.cost.shape == want.shape
    assert np.array_equal(trace.cost.view(np.uint64), want.view(np.uint64))


def head(trace, m):
    return SimTrace(trace.k[:m], trace.t[:m], trace.theta[:m], trace.r[:m],
                    trace.x[:m], trace.u[:m], trace.K[:m], trace.cell[:m],
                    trace.cost[:m])


def reference_closed_loop(scenario, table=None):
    """The closed loop one step at a time, every step computing its own
    rotor angle, reference sample and cells through step_phase, reference_at
    and schedule: the loop run_closed_loop must reproduce bit for bit.
    Returns (trace, abort error or None)."""
    params, surface, profile = scenario.motor, scenario.surface, scenario.reference
    cfg = table.cfg if table is not None else TableTrainConfig()
    Q_q, R_u = cfg.tracking_weight(), cfg.r_weight
    plant_params = replace(params, R_phase=params.R_phase * scenario.r_scale)
    n = scenario.steps
    i_limit = cfg.safety_factor * params.i_nominal
    if scenario.controller == "single-qcore":
        cell = scheduler.schedule(
            table, (profile.theta_on + profile.theta_off) / 2, profile.i_ref)[2]
        single = (*scheduler._core_gain(table, cell), cell)
    learn = (scenario.online_learning
             and scenario.controller == "scheduled-qlearning")
    rng = np.random.default_rng(scenario.seed)
    dither = learn and scenario.dither > 0
    rows = []
    x = theta = 0.0
    r = reference_at(profile, theta, 0)
    error = None
    for k in range(n):
        if scenario.controller == "delta-modulation":
            u = delta_modulation_step(x, r, params.V_dc, scenario.delta_band)
            k_x = k_r = 0.0
            cell = (-1, -1)
        else:
            if scenario.controller == "single-qcore":
                k_x, k_r, cell = single
            else:
                k_x, k_r, cell = scheduler.schedule(table, theta, x)
            u = -(k_x * x + k_r * r)
            if dither:
                u += scenario.dither * rng.uniform(-1, 1)
        u = min(max(float(u), -params.V_dc), params.V_dc)
        rows.append((theta, r, x, u, k_x, k_r, *cell))
        x_next, theta_next = step_phase(x, theta, u, plant_params, surface)
        if x_next > i_limit:
            error = SafetyAbortError(
                f"current {x_next:#.4g} A exceeded the {i_limit:#.4g} A "
                f"safety bound at step {k}")
            break
        r_next = reference_at(profile, theta_next, k + 1)
        if learn:
            transient = r > 0 and abs(x - r) >= SETTLE_FRACTION * r
            if transient and r_next == r and x_next > 0.0:
                g_x, g_r = scheduler._core_gain(table, cell)
                u_next = -(g_x * x_next + g_r * r_next)
                cost = stage_cost((x, r), u, Q_q, R_u)
                scheduler.update_core_online(table, cell, (x, r, u),
                                             (x_next, r_next, u_next), cost)
        x, theta, r = x_next, theta_next, r_next
    buf = np.array(rows).reshape(-1, 8)
    ks = np.arange(len(buf))
    cost = np.array([stage_cost((x, r), u, Q_q, R_u)
                     for _, r, x, u, *_ in rows])
    return SimTrace(ks, ks * params.T, *buf[:, :4].T, buf[:, 4:6],
                    buf[:, 6:].astype(int), cost), error


def copy_table(table):
    """A fresh table with the same cores: its own kernels and covariances."""
    return QCoreTable(table.theta_nodes, table.current_nodes, table.kernels,
                      table.cfg, table.params_hash, iterations=table.iterations)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_matches_reference_loop(scenario, table=None):
    """run_closed_loop and reference_closed_loop on copies of the table give
    the same trace columns, abort message and learned cores, bit for bit;
    returns the trace."""
    mine, theirs = (None, None) if table is None else \
        (copy_table(table), copy_table(table))
    want, error = reference_closed_loop(scenario, theirs)
    if error is None:
        got = run_closed_loop(scenario, mine)
    else:
        with pytest.raises(SafetyAbortError) as exc:
            run_closed_loop(scenario, mine)
        assert str(exc.value) == str(error)
        got = exc.value.trace
    for column in ("k", "t", "theta", "r", "x", "u", "K", "cell", "cost"):
        assert_same_bits(getattr(got, column), getattr(want, column))
    if table is not None:
        assert_same_bits(np.array(mine.kernels), np.array(theirs.kernels))
        assert_same_bits(mine.covariance, theirs.covariance)
    return got


class TestDeltaModulation:
    def test_bang_bang(self):
        assert delta_modulation_step(3.0, 4.0, 300.0) == 300.0
        assert delta_modulation_step(5.0, 4.0, 300.0) == -300.0

    def test_hysteresis_band(self):
        assert delta_modulation_step(4.1, 4.0, 300.0, band=0.2) == 0.0
        assert delta_modulation_step(4.3, 4.0, 300.0, band=0.2) == -300.0
        assert delta_modulation_step(3.7, 4.0, 300.0, band=0.2) == 300.0


class TestScenario:
    def test_default_duration_is_five_cycles(self, params, surface):
        s = make_scenario(params, surface)
        assert s.steps == 5 * params.steps_per_cycle

    def test_unknown_controller_rejected(self, params, surface):
        with pytest.raises(ValueError):
            make_scenario(params, surface, controller="pid")

    def test_bad_values_rejected(self, params, surface):
        with pytest.raises(ValueError):
            make_scenario(params, surface, dither=-1.0)
        with pytest.raises(ValueError):
            make_scenario(params, surface, r_scale=0.0)
        for field in ("dither", "r_scale", "delta_band"):
            with pytest.raises(ValueError, match=field):
                make_scenario(params, surface, **{field: float("nan")})
        with pytest.raises(ValueError, match="delta_band"):
            make_scenario(params, surface, delta_band=-1.0)
        for seed in (-1, 2.5):
            with pytest.raises(ValueError, match="seed"):
                make_scenario(params, surface, seed=seed)

    def test_controller_names(self):
        assert CONTROLLERS == ("scheduled-qlearning", "single-qcore",
                               "delta-modulation")


class TestRunClosedLoop:
    def test_table_required_for_table_controllers(self, params, surface):
        s = make_scenario(params, surface)
        with pytest.raises(ValueError):
            run_closed_loop(s, table=None)

    def test_zero_reference_stays_at_zero(self, params, surface, trained_table):
        s = make_scenario(params, surface,
                          reference=ReferenceProfile(i_ref=0.0),
                          duration=500)
        trace = run_closed_loop(s, trained_table)
        assert np.all(trace.x == 0.0)
        assert np.all(trace.u == 0.0)

    def test_deterministic(self, params, surface, trained_table):
        s = make_scenario(params, surface, duration=2 * params.steps_per_cycle,
                          seed=42)
        a = run_closed_loop(s, trained_table)
        b = run_closed_loop(s, trained_table)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.K, b.K)

    def test_physical_bounds(self, params, surface, trained_table):
        s = make_scenario(params, surface)
        trace = run_closed_loop(s, trained_table)
        assert np.all(trace.x >= 0.0)
        assert np.all(np.abs(trace.u) <= params.V_dc + 1e-12)

    def test_trace_columns_consistent(self, params, surface, trained_table):
        s = make_scenario(params, surface, duration=100)
        trace = run_closed_loop(s, trained_table)
        assert len(trace) == 100
        assert trace.K.shape == (100, 2)
        assert trace.cell.shape == (100, 2)
        assert np.all(trace.cell >= 0)

    def test_delta_baseline_runs_without_table(self, params, surface):
        s = make_scenario(params, surface, controller="delta-modulation")
        trace = run_closed_loop(s)
        assert np.all(trace.cell == -1)
        assert set(np.unique(trace.u)) <= {-300.0, 0.0, 300.0}

    def test_resistive_balance_when_settled(self, params, trained_table):
        # on a flat-inductance plant the settled voltage must cover the
        # resistive drop: u ~= R * x in the middle of each pulse
        surf = constant_surface(16e-3)
        s = make_scenario(params, surf, duration=3 * params.steps_per_cycle)
        trace = run_closed_loop(s, trained_table)
        spc = params.steps_per_cycle
        mid = (trace.r > 0) & (np.abs(trace.x - trace.r) < 0.02 * 4.0)
        mid[: spc] = False
        resid = np.abs(trace.u[mid] - params.R_phase * trace.x[mid])
        assert resid.size > 100
        assert resid.mean() < 0.5   # V, vs an 8 V resistive drop

    def test_runaway_current_trips_safety_abort(self, params, surface):
        # a positive-feedback core (u = +50 x) drives the current toward
        # V_dc / R = 150 A; the run must abort with a partial trace well
        # before the duration is up
        from srmq.qlearn import QKernel
        from srmq.scheduler import QCoreTable, TableTrainConfig
        G = np.zeros((3, 3))
        G[0, 2] = G[2, 0] = -50.0   # gain K = [-50, -50] with G_uu = 1
        G[1, 2] = G[2, 1] = -50.0
        G[2, 2] = 1.0
        bad = QCoreTable(np.array([0.0]), np.array([0.0]),
                         [[QKernel(G).to_vec()]], TableTrainConfig(), "h")
        s = make_scenario(params, surface)
        with pytest.raises(SafetyAbortError) as exc:
            run_closed_loop(s, bad)
        trace = exc.value.trace
        assert len(trace) < s.steps
        assert trace.x.max() <= 3.0 * params.i_nominal * 1.5

    def test_huge_abort_current_message_stays_short(self, surface):
        # a core that saturates the 1e300 V bridge at once drives the next
        # current to about 6e297 A; the message prints it in exponent form
        from srmq.qlearn import QKernel
        from srmq.scheduler import QCoreTable, TableTrainConfig
        G = np.zeros((3, 3))
        G[0, 2] = G[2, 0] = G[1, 2] = G[2, 1] = -1e300
        G[2, 2] = 1.0
        bad = QCoreTable(np.array([0.0]), np.array([0.0]),
                         [[QKernel(G).to_vec()]], TableTrainConfig(), "h")
        s = make_scenario(MotorParams(V_dc=1e300), surface)
        with pytest.raises(SafetyAbortError) as exc:
            run_closed_loop(s, bad)
        message = str(exc.value)
        assert len(message) < 100
        assert re.fullmatch(r"current \d\.\d{3}e\+29\d A exceeded the "
                            r"15\.00 A safety bound at step \d+", message)

    def test_safety_bound_follows_table_config(self, params, surface,
                                               trained_table):
        # tracking 6.5 A stays inside the default 3x bound (15 A) but
        # crosses 1.2x (6 A)
        from dataclasses import replace
        s = make_scenario(params, surface, reference=ReferenceProfile(i_ref=6.5),
                          duration=2 * params.steps_per_cycle)
        assert len(run_closed_loop(s, trained_table)) == s.steps
        tight = replace(trained_table,
                        cfg=replace(trained_table.cfg, safety_factor=1.2))
        with pytest.raises(SafetyAbortError) as exc:
            run_closed_loop(s, tight)
        assert len(exc.value.trace) < s.steps
        assert exc.value.trace.x.max() <= 1.2 * params.i_nominal

    def test_abort_trace_ends_at_the_named_step(self, params, surface,
                                                trained_table):
        # the partial trace holds every step up to and including the one
        # whose successor current crossed the bound, and nothing after it
        from dataclasses import replace
        s = make_scenario(params, surface, reference=ReferenceProfile(i_ref=6.5),
                          duration=2 * params.steps_per_cycle)
        tight = replace(trained_table,
                        cfg=replace(trained_table.cfg, safety_factor=1.2))
        with pytest.raises(SafetyAbortError) as exc:
            run_closed_loop(s, tight)
        k = int(re.search(r"at step (\d+)$", str(exc.value)).group(1))
        trace = exc.value.trace
        assert len(trace) == k + 1
        assert trace.k[-1] == k
        assert trace.t[-1] == k * params.T
        assert trace.x.max() <= 1.2 * params.i_nominal

    def test_reference_column_is_the_reference_at_each_step(
            self, params, surface, fresh_table):
        # a learning run whose amplitude events change the reference
        # mid-window: every recorded r is the sample at that row's angle
        # and step
        spc = params.steps_per_cycle
        profile = ReferenceProfile(step_events=((spc + 300, 5.5),
                                                (2 * spc + 500, 3.0)))
        s = make_scenario(params, surface, reference=profile, dither=5.0,
                          online_learning=True, duration=3 * spc)
        trace = run_closed_loop(s, fresh_table)
        assert len(trace) == s.steps
        assert set(np.unique(trace.r)) == {0.0, 4.0, 5.5, 3.0}
        for k in range(len(trace)):
            assert trace.r[k] == reference_at(profile, float(trace.theta[k]), k)

    @pytest.mark.parametrize("controller, learning", [
        ("scheduled-qlearning", True), ("scheduled-qlearning", False),
        ("delta-modulation", False)])
    def test_one_reference_sample_per_step(self, params, surface, fresh_table,
                                           monkeypatch, controller, learning):
        # the loop samples the reference a block of steps at a time, and
        # each step's sample once, also across the block boundaries
        calls = []
        references = plant._references

        def counting(profile, thetas, k):
            calls.extend(range(k, k + len(thetas)))
            return references(profile, thetas, k)

        monkeypatch.setattr(plant, "_references", counting)
        s = make_scenario(params, surface, controller=controller,
                          online_learning=learning, dither=5.0,
                          duration=2 * BLOCK + 7)
        run_closed_loop(s, fresh_table)
        assert calls == list(range(s.steps + 1))

    @pytest.mark.parametrize("safety_factor", [3.0, 0.05])
    def test_dither_is_one_scalar_draw_per_step(self, params, surface,
                                                trained_table, monkeypatch,
                                                safety_factor):
        # with zero gains and every update rejected, u is the dither alone:
        # the draws of one rng.uniform(-1, 1) per step from default_rng(seed),
        # also in the partial trace of a run the safety bound aborts
        from dataclasses import replace
        table = replace(trained_table, cfg=replace(
            trained_table.cfg, safety_factor=safety_factor))
        monkeypatch.setattr(scheduler, "_schedule_located",
                            lambda table, row, l1, i: (0.0, 0.0, (0, 0)))
        monkeypatch.setattr(scheduler, "update_core_online",
                            lambda *args: False)
        s = make_scenario(params, surface, online_learning=True, dither=20.0,
                          seed=11, duration=BLOCK + 700)
        if safety_factor < 1:
            with pytest.raises(SafetyAbortError) as exc:
                run_closed_loop(s, table)
            trace = exc.value.trace
            assert 0 < len(trace) < s.steps
        else:
            trace = run_closed_loop(s, table)
            assert len(trace) == s.steps
        rng = np.random.default_rng(s.seed)
        draws = [s.dither * rng.uniform(-1, 1) for _ in range(len(trace))]
        assert trace.u.tobytes() == np.array(draws).tobytes()

    def test_online_learning_on_nominal_plant_is_benign(self, params, surface,
                                                        trained_table,
                                                        fresh_table):
        s_off = make_scenario(params, surface)
        s_on = make_scenario(params, surface, online_learning=True)
        m_off = compute_metrics(run_closed_loop(s_off, trained_table), s_off)
        m_on = compute_metrics(run_closed_loop(s_on, fresh_table), s_on)
        assert abs(m_on.rmse_settled - m_off.rmse_settled) < 0.01 * 4.0

    def test_resistance_mismatch_degrades_frozen_table(self, params, surface,
                                                       trained_table):
        nom = make_scenario(params, surface)
        hot = make_scenario(params, surface, r_scale=1.1)
        m_nom = compute_metrics(run_closed_loop(nom, trained_table), nom)
        m_hot = compute_metrics(run_closed_loop(hot, trained_table), hot)
        assert m_hot.rmse_settled > 1.5 * m_nom.rmse_settled


class TestBlocks:
    """run_closed_loop computes the rotor angles, reference samples and
    theta-axis cells BLOCK steps at a time; every run is bit for bit the
    one-step-at-a-time reference loop, across and at the block edges."""

    @pytest.mark.parametrize("steps", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                       2 * BLOCK + 7])
    def test_run_lengths(self, params, surface, trained_table, steps):
        s = make_scenario(params, surface, duration=steps)
        assert len(assert_matches_reference_loop(s, trained_table)) == steps

    def test_amplitude_event_on_a_block_boundary(self, params, surface,
                                                 trained_table):
        # BLOCK and 2 BLOCK fall inside conduction windows; two events at
        # one step, the last wins
        profile = ReferenceProfile(step_events=(
            (BLOCK - 1, 4.5), (BLOCK, 5.5), (2 * BLOCK, 3.0), (2 * BLOCK, 3.5)))
        s = make_scenario(params, surface, reference=profile, dither=5.0,
                          online_learning=True, duration=2 * BLOCK + 7)
        trace = assert_matches_reference_loop(s, trained_table)
        assert trace.r[BLOCK - 1:BLOCK + 1].tolist() == [4.5, 5.5]
        assert trace.r[2 * BLOCK] == 3.5

    def test_dithered_online_learning(self, params, surface, trained_table):
        spc = params.steps_per_cycle
        profile = ReferenceProfile(step_events=((spc, 5.5), (3 * spc, 3.0)))
        s = make_scenario(params, surface, reference=profile, dither=5.0,
                          online_learning=True, r_scale=1.1, seed=3,
                          duration=4 * spc)
        table = copy_table(trained_table)
        assert_matches_reference_loop(s, table)
        run_closed_loop(s, table)
        assert table.kernels != trained_table.kernels   # it learned

    def test_single_core(self, params, surface, trained_table):
        s = make_scenario(params, surface, controller="single-qcore")
        assert_matches_reference_loop(s, trained_table)

    def test_delta_modulation_with_a_band(self, params, surface):
        s = make_scenario(params, surface, controller="delta-modulation",
                          delta_band=0.05)
        assert_matches_reference_loop(s)

    def test_one_theta_node_table(self, params, surface, trained_table):
        t = trained_table
        one = QCoreTable(t.theta_nodes[:1], t.current_nodes, t.kernels[3:4],
                         t.cfg, t.params_hash)
        s = make_scenario(params, surface, duration=BLOCK + 100,
                          online_learning=True, dither=5.0)
        trace = assert_matches_reference_loop(s, one)
        assert set(trace.cell[:, 0].tolist()) == {0}

    def test_safety_abort_inside_a_later_block(self, params, surface,
                                               trained_table):
        # a 6.5 A pulse from step BLOCK + 100 on, inside a conduction
        # window, crosses the 1.2 x 5 A bound in the second block
        tight = replace(trained_table,
                        cfg=replace(trained_table.cfg, safety_factor=1.2))
        profile = ReferenceProfile(step_events=((BLOCK + 100, 6.5),))
        s = make_scenario(params, surface, reference=profile,
                          duration=3 * BLOCK)
        trace = assert_matches_reference_loop(s, tight)
        assert BLOCK + 100 < len(trace) < 2 * BLOCK
        assert trace.k[-1] == len(trace) - 1


class TestCostColumn:
    def test_nominal_run(self, params, surface, trained_table):
        s = make_scenario(params, surface)
        assert_cost_per_step(run_closed_loop(s, trained_table),
                             trained_table.cfg)

    def test_delta_modulation_run(self, params, surface):
        # without a table the cost uses the default training config
        s = make_scenario(params, surface, controller="delta-modulation",
                          delta_band=0.05)
        assert_cost_per_step(run_closed_loop(s), TableTrainConfig())

    def test_online_learning_run(self, params, surface, fresh_table):
        reference = ReferenceProfile(step_events=((1250, 5.5), (2500, 3.0)))
        s = make_scenario(params, surface, reference=reference,
                          online_learning=True, dither=5.0, r_scale=1.1,
                          seed=3)
        before = np.array(fresh_table.kernels)
        trace = run_closed_loop(s, fresh_table)
        assert not np.array_equal(fresh_table.kernels, before)   # it learned
        assert_cost_per_step(trace, fresh_table.cfg)

    def test_aborted_partial_trace(self, params, surface, trained_table):
        from dataclasses import replace
        tight = replace(trained_table,
                        cfg=replace(trained_table.cfg, safety_factor=1.2,
                                    q_weight=3.7, r_weight=0.37))
        s = make_scenario(params, surface, reference=ReferenceProfile(i_ref=6.5),
                          duration=2 * params.steps_per_cycle)
        with pytest.raises(SafetyAbortError) as exc:
            run_closed_loop(s, tight)
        trace = exc.value.trace
        assert 0 < len(trace) < s.steps
        assert_cost_per_step(trace, tight.cfg)


class TestMetrics:
    @staticmethod
    def _synthetic_trace(params, err=0.0):
        spc = params.steps_per_cycle
        n = 3 * spc
        k = np.arange(n)
        theta = (k * params.deg_per_step) % params.rotor_pitch
        r = np.where((theta >= 10.0) & (theta < 35.0), 4.0, 0.0)
        x = np.clip(r + err, 0.0, None)
        return SimTrace(k, k * params.T, theta, r, x, np.zeros(n),
                        np.zeros((n, 2)), np.zeros((n, 2), int), np.zeros(n))

    def test_perfect_tracking_scores_zero(self, params, surface):
        s = make_scenario(params, surface, duration=3 * params.steps_per_cycle)
        m = compute_metrics(self._synthetic_trace(params), s)
        assert m.rmse == 0.0
        assert m.rmse_settled == 0.0
        assert m.ripple == 0.0
        assert m.windows == 2   # first cycle excluded
        assert m.amplitude == 4.0

    def test_constant_offset_measured_exactly(self, params, surface):
        s = make_scenario(params, surface, duration=3 * params.steps_per_cycle)
        m = compute_metrics(self._synthetic_trace(params, err=0.1), s)
        assert m.rmse == pytest.approx(0.1)
        assert m.rmse_settled == pytest.approx(0.1)

    def test_no_window_raises(self, params, surface):
        s = make_scenario(params, surface, duration=100)
        n = 100
        z = np.zeros(n)
        trace = SimTrace(np.arange(n), z, z, z, z, z, np.zeros((n, 2)),
                         np.zeros((n, 2), int), z)
        with pytest.raises(ValueError):
            compute_metrics(trace, s)

    def test_nominal_run_settles_tightly(self, params, surface, trained_table):
        s = make_scenario(params, surface)
        m = compute_metrics(run_closed_loop(s, trained_table), s)
        assert m.rmse_settled < 0.02 * 4.0
        assert m.dk_final < 1e-3
        assert m.windows == 4

    def test_delta_ripple_bounded_below_by_switching(self, params, surface):
        # each sample slews by at least T*(V - R*i)/L, so the bang-bang
        # peak-to-peak ripple cannot be smaller than one full step
        s = make_scenario(params, surface, controller="delta-modulation")
        m = compute_metrics(run_closed_loop(s), s)
        floor = params.T * (params.V_dc - params.R_phase * 4.0 * 1.1) / 16e-3
        assert m.ripple >= floor
        assert m.ripple > 1.0

    def test_scheduled_beats_delta_baseline(self, params, surface,
                                            trained_table):
        s_q = make_scenario(params, surface)
        s_d = make_scenario(params, surface, controller="delta-modulation")
        m_q = compute_metrics(run_closed_loop(s_q, trained_table), s_q)
        m_d = compute_metrics(run_closed_loop(s_d), s_d)
        assert m_q.ripple < 0.25 * m_d.ripple
        assert m_q.rmse < m_d.rmse

    def test_as_dict_round_trips_through_json(self, params, surface,
                                              trained_table):
        import json
        s = make_scenario(params, surface)
        m = compute_metrics(run_closed_loop(s, trained_table), s)
        d = json.loads(json.dumps(m.as_dict()))
        assert d["rmse_A"] == m.rmse
        assert d["windows"] == 4

    def test_dk_final_empty_is_zero(self):
        m = Metrics(rmse=0.0, rmse_settled=0.0, ripple=0.0, settling_steps=[],
                    dk_per_cycle=[], amplitude=4.0, windows=1)
        assert m.dk_final == 0.0


def reference_windows(r, start):
    """The nested scan that _conduction_windows replaced: maximal runs of
    one positive reference value from `start` on, as (first, end) steps."""
    windows, n, k = [], len(r), start
    while k < n:
        if r[k] > 0:
            j = k
            while j + 1 < n and r[j + 1] == r[k]:
                j += 1
            windows.append((k, j + 1))
            k = j + 1
        else:
            k += 1
    return windows


@settings(max_examples=300, deadline=None)
@example(runs=[(4.0, 3), (0.0, 2)], start=3)                 # empty tail
@example(runs=[(0.0, 1), (4.0, 2)], start=40)  # shorter than one cycle
@example(runs=[], start=0)                                  # empty trace
@example(runs=[(0.0, 1), (4.0, 3), (5.5, 2), (0.0, 1)], start=0)  # adjacent
@example(runs=[(0.0, 2), (4.0, 3)], start=1)          # ends the trace
@example(runs=[(np.nan, 2), (np.inf, 3), (4.0, 1), (np.nan, 1)], start=0)
@given(runs=st.lists(st.tuples(
           st.sampled_from([0.0, -0.0, -1.0, 4.0, 5.5, 5e-324, np.nan,
                            np.inf, -np.inf]),
           st.integers(1, 4)), max_size=8),
       start=st.integers(0, 40))
def test_conduction_windows_match_scan(runs, start):
    r = np.repeat([v for v, _ in runs], [n for _, n in runs]).astype(float)
    # compute_metrics starts at one cycle, or at the end of a shorter trace
    start = min(start, r.size)
    z = np.zeros(r.size)
    trace = SimTrace(np.arange(r.size), z, z, r, z, z, np.zeros((r.size, 2)),
                     np.zeros((r.size, 2), int), z)
    assert sim._conduction_windows(trace, start) \
        == reference_windows(r.tolist(), start)


class TestExport:
    def test_csv_round_trip(self, params, surface, trained_table, tmp_path):
        import csv
        s = make_scenario(params, surface, duration=3)
        trace = run_closed_loop(s, trained_table)
        path = tmp_path / "trace.csv"
        export_trace(trace, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        rows = list(csv.DictReader(lines))
        assert tuple(rows[0]) == TRACE_COLUMNS
        for i, row in enumerate(rows):
            assert int(row["k"]) == i
            assert float(row["x_A"]) == trace.x[i]
            assert float(row["u_V"]) == trace.u[i]
            assert float(row["K1"]) == trace.K[i, 0]

    def test_jsonl_round_trip(self, params, surface, trained_table, tmp_path):
        import json
        s = make_scenario(params, surface, duration=3)
        trace = run_closed_loop(s, trained_table)
        path = tmp_path / "trace.jsonl"
        export_trace(trace, path, fmt="jsonl")
        recs = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert len(recs) == 3
        for i, rec in enumerate(recs):
            assert rec["x_A"] == trace.x[i]
            assert rec["cell_row"] == int(trace.cell[i, 0])

    @pytest.fixture(scope="class")
    def nominal_trace(self, params, surface, trained_table):
        trace = run_closed_loop(make_scenario(params, surface), trained_table)
        assert len(trace) == 6250
        return trace

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("n", [0, 1, EXPORT_CHUNK - 1, EXPORT_CHUNK,
                                   EXPORT_CHUNK + 1, 6250])
    def test_bytes_match_row_writer(self, nominal_trace, tmp_path, n, fmt):
        trace = head(nominal_trace, n)
        export_trace(trace, tmp_path / "got", fmt=fmt)
        reference_export(trace, tmp_path / "want", fmt)
        assert (tmp_path / "got").read_bytes() == \
            (tmp_path / "want").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_aborted_trace_bytes_match_row_writer(self, params, surface,
                                                  trained_table, tmp_path,
                                                  fmt):
        from dataclasses import replace
        tight = replace(trained_table,
                        cfg=replace(trained_table.cfg, safety_factor=1.2))
        s = make_scenario(params, surface, reference=ReferenceProfile(i_ref=6.5),
                          duration=2 * params.steps_per_cycle)
        with pytest.raises(SafetyAbortError) as exc:
            run_closed_loop(s, tight)
        trace = exc.value.trace
        assert EXPORT_CHUNK < len(trace) < s.steps
        export_trace(trace, tmp_path / "got", fmt=fmt)
        reference_export(trace, tmp_path / "want", fmt)
        assert (tmp_path / "got").read_bytes() == \
            (tmp_path / "want").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_special_floats_match_row_writer(self, nominal_trace, tmp_path,
                                             fmt):
        # -0.0 beside 0.0 in one column (a float-keyed memo would merge
        # them), and every non-finite float in every float column, across
        # a chunk boundary
        m = EXPORT_CHUNK + 8
        t = head(nominal_trace, m)
        special = [-0.0, 0.0, float("nan"), float("inf"), float("-inf")]
        cols = [c.copy() for c in (t.t, t.theta, t.r, t.x, t.u, t.cost)]
        K = t.K.copy()
        for j, col in enumerate(cols + [K[:, 0], K[:, 1]]):
            for i, v in enumerate(special):
                col[(37 * j + 61 * i) % m] = v
        cols[4][EXPORT_CHUNK - 2:EXPORT_CHUNK + 2] = [0.0, -0.0, -0.0, 0.0]
        trace = SimTrace(t.k, *cols[:5], K, t.cell, cols[5])
        export_trace(trace, tmp_path / "got", fmt=fmt)
        reference_export(trace, tmp_path / "want", fmt)
        got = (tmp_path / "got").read_bytes()
        assert got == (tmp_path / "want").read_bytes()
        for word in ((b"-0.0", b"nan", b"-inf") if fmt == "csv"
                     else (b"-0.0", b"NaN", b"-Infinity")):
            assert word in got

    def test_unknown_format_rejected(self, params, surface, trained_table,
                                     tmp_path):
        s = make_scenario(params, surface, duration=3)
        trace = run_closed_loop(s, trained_table)
        with pytest.raises(ValueError):
            export_trace(trace, tmp_path / "t.xml", fmt="xml")

    def test_unwritable_path_raises_oserror(self, params, surface,
                                            trained_table, tmp_path):
        s = make_scenario(params, surface, duration=3)
        trace = run_closed_loop(s, trained_table)
        with pytest.raises(OSError):
            export_trace(trace, tmp_path / "missing" / "t.csv")


class TestControllerComparison:
    def test_scheduled_gain_tracks_local_optimum(self, params, surface,
                                                 trained_table):
        # the blended gain stays close to the model-based optimum for the
        # local inductance at every operating point, which no single fixed
        # core can do across the whole surface
        from srmq import lqt
        from srmq.plant import inductance_at
        from srmq.scheduler import scheduled_gain
        rng = np.random.default_rng(0)
        worst_sched = 0.0
        aligned_gain = trained_table.gains[0, 0]
        worst_fixed = 0.0
        for _ in range(60):
            theta, i = rng.uniform(0, 45), rng.uniform(0, 7.5)
            L = inductance_at(surface, theta, i)
            m = lqt.build_augmented(1 - params.T * params.R_phase / L,
                                    params.T / L)
            K_star = lqt.optimal_gain(lqt.are_fixed_point(m), m)
            scale = np.linalg.norm(K_star)
            worst_sched = max(worst_sched,
                              np.linalg.norm(scheduled_gain(
                                  trained_table, theta, i) - K_star) / scale)
            worst_fixed = max(worst_fixed,
                              np.linalg.norm(aligned_gain - K_star) / scale)
        assert worst_sched < 0.10
        assert worst_fixed > 0.50


class TestStepBudget:
    def test_longest_scenario_is_max_steps(self, params, surface):
        # constructing a scenario allocates nothing; only the loop does
        profile = ReferenceProfile()
        Scenario(motor=params, surface=surface, reference=profile,
                 duration=MAX_STEPS)
        with pytest.raises(ValueError, match="MAX_STEPS"):
            Scenario(motor=params, surface=surface, reference=profile,
                     duration=MAX_STEPS + 1)
