import csv
import errno
import gc
import hashlib
import json
import os
import re
import signal
import threading
import time
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from srmq import cli, plant, scheduler, sim
from srmq.plant import (MotorParams, ReferenceProfile, default_surface,
                        reference_at)
from srmq.qlearn import stage_cost
from srmq.scheduler import (QCoreTable, SafetyAbortError, TableMismatchError,
                            TableTrainConfig, params_hash, save_table,
                            scheduled_gain, train_table)
from srmq.sim import (CONTROLLERS, EXPORT_CHUNK, MAX_STEPS,
                      PARALLEL_MIN_ROWS, SETTLE_FRACTION, TRACE_COLUMNS,
                      Metrics, Scenario, SimTrace, compute_metrics,
                      delta_modulation_step, export_trace, run_closed_loop)
from conftest import (assert_no_child, build_augmented, coarse_table,
                      constant_surface, kernel_vector, leaves_no_child_or_fd,
                      one_core_table, point_near, random_surface, schedule,
                      step_phase)


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
    and schedule on the surface's grid: the loop run_closed_loop must
    reproduce bit for bit.
    Returns (trace, abort error or None)."""
    params, surface, profile = scenario.motor, scenario.surface, scenario.reference
    cfg = table.cfg if table is not None else TableTrainConfig()
    Q_q, R_u = cfg.tracking_weight(), cfg.r_weight
    plant_params = replace(params, R_phase=params.R_phase * scenario.r_scale)
    n = scenario.steps
    i_limit = cfg.safety_factor * params.i_nominal
    if scenario.controller == "single-qcore":
        cell = schedule(table, surface, (profile.theta_on + profile.theta_off)
                        / 2, profile.i_ref)[2]
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
                k_x, k_r, cell = schedule(table, surface, theta, x)
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
    return QCoreTable(table.kernels, table.cfg, table.params_hash,
                      iterations=table.iterations)


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
        with pytest.raises(ValueError, match=r"^r_scale = 1e\+308 scales "
                           "R_phase = 2.0 ohm to inf ohm"):
            make_scenario(params, surface, r_scale=1e308)
        for field in ("dither", "r_scale", "delta_band"):
            with pytest.raises(ValueError, match=field):
                make_scenario(params, surface, **{field: float("nan")})
        with pytest.raises(ValueError, match="delta_band"):
            make_scenario(params, surface, delta_band=-1.0)
        for seed in (-1, 2.5):
            with pytest.raises(ValueError, match="seed"):
                make_scenario(params, surface, seed=seed)

    @pytest.mark.parametrize("duration", [-5, -1, True, False, 2.5, 2.0,
                                          "100", None])
    def test_duration_must_be_a_non_negative_integer(self, params, surface,
                                                     duration):
        # -5 ran five cycles, True one step, 2.5 failed inside the loop
        with pytest.raises(ValueError, match="^duration must be a "
                           "non-negative integer, got "
                           + re.escape(repr(duration)) + "$"):
            make_scenario(params, surface, duration=duration)

    def test_duration_accepts_numpy_integers(self, params, surface):
        assert make_scenario(params, surface, duration=np.int64(7)).steps == 7

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

    def test_resistive_balance_when_settled(self, params):
        # on a flat-inductance plant the settled voltage must cover the
        # resistive drop: u ~= R * x in the middle of each pulse
        surf = constant_surface(16e-3)
        s = make_scenario(params, surf, duration=3 * params.steps_per_cycle)
        trace = run_closed_loop(s, train_table(params, surf))
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
        G = np.zeros((3, 3))
        G[0, 2] = G[2, 0] = -50.0   # gain K = [-50, -50] with G_uu = 1
        G[1, 2] = G[2, 1] = -50.0
        G[2, 2] = 1.0
        bad = one_core_table(params, surface, kernel_vector(G))
        s = make_scenario(params, surface)
        with pytest.raises(SafetyAbortError) as exc:
            run_closed_loop(s, bad)
        trace = exc.value.trace
        assert len(trace) < s.steps
        assert trace.x.max() <= 3.0 * params.i_nominal * 1.5

    def test_huge_abort_current_message_stays_short(self, surface):
        # a core that saturates the 1e300 V bridge at once drives the next
        # current to about 6e297 A; the message prints it in exponent form
        G = np.zeros((3, 3))
        G[0, 2] = G[2, 0] = G[1, 2] = G[2, 1] = -1e300
        G[2, 2] = 1.0
        motor = MotorParams(V_dc=1e300)
        bad = one_core_table(motor, surface, kernel_vector(G))
        s = make_scenario(motor, surface)
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
        # the loop samples the reference once per run, each step's sample
        # once
        calls = []
        references = plant._references

        def counting(profile, thetas, k):
            calls.extend(range(k, k + len(thetas)))
            return references(profile, thetas, k)

        monkeypatch.setattr(plant, "_references", counting)
        s = make_scenario(params, surface, controller=controller,
                          online_learning=learning, dither=5.0,
                          duration=4103)
        run_closed_loop(s, fresh_table)
        assert calls == list(range(s.steps + 1))

    @pytest.mark.parametrize("controller", CONTROLLERS, ids=[
        "scheduled-qlearning-1", "single-qcore-1", "delta-modulation-1"])
    def test_one_state_independent_pass_per_run(self, params, surface,
                                                trained_table, monkeypatch,
                                                controller):
        # the rotor angles, the references and the theta-axis cells of a
        # whole run come from one numpy pass each, and reference_at is not
        # called
        calls = {"angles": 0, "references": 0, "cells": 0}

        def counted(module, name, key):
            inner = getattr(module, name)

            def wrapper(*args):
                calls[key] += 1
                return inner(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(plant, "_rotor_angles", "angles")
        counted(plant, "_references", "references")
        counted(sim, "_wrapped_cells", "cells")
        s = make_scenario(params, surface, controller=controller,
                          duration=4103)
        assert len(run_closed_loop(s, trained_table)) == 4103
        assert calls == {"angles": 1, "references": 1, "cells": 1}

    def test_table_off_the_surface_grid_rejected(self, params, surface,
                                                 trained_table):
        # each step locates its operating point once, on the surface's
        # grid: a table trained on a 6-node surface has another hash, and
        # every third row of the default table's cores another shape
        s = make_scenario(params, surface)
        six = train_table(params, default_surface(params, n_theta=6))
        with pytest.raises(TableMismatchError, match=(
                rf"^table was trained for motor/surface hash {six.params_hash}"
                rf", config gives {trained_table.params_hash}; retrain or fix "
                "the config$")):
            run_closed_loop(s, six)
        with pytest.raises(TableMismatchError, match=(
                r"^table has 6 x 8 cores, the surface's grid 16 x 8 nodes; "
                r"retrain the table$")):
            run_closed_loop(s, coarse_table(trained_table))


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
                            lambda table, row, col, l1, l2, w:
                            (0.0, 0.0, (0, 0)))
        monkeypatch.setattr(scheduler, "update_core_online",
                            lambda *args: False)
        s = make_scenario(params, surface, online_learning=True, dither=20.0,
                          seed=11, duration=2748)
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


@st.composite
def equal_grids_and_point(draw):
    """A random surface, a table of random cores on the surface's own
    nodes, and a step's operating point and voltage: an angle on, around or
    off the grid, and a current of 0, a node, the top node, a value clamped
    beyond it or anywhere in the grid."""
    surface = draw(random_surface())
    nt, ni = surface.values.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernels = rng.uniform(-5.0, 5.0, (nt, ni, 6))
    kernels[..., 5] = rng.uniform(0.5, 2.0, (nt, ni))
    table = QCoreTable(kernels, TableTrainConfig(),
                       params_hash(MotorParams(), surface))
    lo, hi = surface._current_list[0], surface._current_list[-1]
    x = draw(st.one_of(st.just(0.0), st.just(hi),
                       st.sampled_from(surface._current_list),
                       st.floats(hi, hi + 100), st.floats(lo, hi)))
    theta = draw(point_near(surface.theta_grid.tolist(), wrap=True))
    return surface, table, theta, x, draw(st.floats(-300.0, 300.0))


# sha256 (first 16 hex digits) of what a dithered learning run under a 10 %
# resistance mismatch writes on the default grid, recorded from the loop
# that located the controller's and the plant's cells apart at every step
LEARNING_RUN_DIGESTS = {
    "surface": {
        "csv/trace_scheduled-qlearning.csv": "223aec233e5eb99f",
        "csv/metrics.json": "1ec96d9f72d707e6",
        "jsonl/trace_scheduled-qlearning.jsonl": "e62d91c1695e08b8",
        "jsonl/metrics.json": "301b2032074592e5"},
}


class TestSharedLocation:
    """The table's nodes are the surface's, so each step locates its
    operating point once, and the gain and the plant step share the cell:
    the same gain, cell and next current as locating each for itself."""

    @given(case=equal_grids_and_point())
    @settings(max_examples=200, deadline=None)
    def test_matches_locating_apart(self, case):
        surface, table, theta, x, u = case
        params = MotorParams()
        # the loop's cell: the angle's from the run's one _wrapped_cells
        # pass, the current's from one locate on the surface's nodes
        rows, fracs = sim._wrapped_cells(surface.theta_grid,
                                         np.array([theta], float))
        row, l1 = rows.tolist()[0], fracs.tolist()[0]
        col, l2 = plant._axis_locate(surface._current_list, x)
        w = plant._weights(l1, l2)
        k_x, k_r, cell = scheduler._schedule_located(table, row, col, l1,
                                                     l2, w)
        want_x, want_r, want_cell = schedule(table, surface, theta, x)
        assert (k_x.hex(), k_r.hex(), cell) == (want_x.hex(), want_r.hex(),
                                                want_cell)
        x_next = sim._step_located(x, u, params, surface, row, col, w)
        want_next, _ = step_phase(x, theta, u, params, surface)
        assert x_next.hex() == want_next.hex()

    @pytest.mark.parametrize("grid", sorted(LEARNING_RUN_DIGESTS))
    def test_learning_run_writes_the_recorded_bytes(self, tmp_path,
                                                    monkeypatch, grid):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.ini").write_text(
            "[scenario]\nonline_learning = true\ndither_v = 5.0\n"
            "r_scale = 1.1\n")
        assert cli.main(["--config", "run.ini", "train", "--out",
                         "qtable.json"]) == cli.EXIT_OK
        for fmt in ("csv", "jsonl"):
            assert cli.main(["--config", "run.ini", "run", "--table",
                             "qtable.json", "--out", fmt,
                             "--format", fmt]) == cli.EXIT_OK
        got = {name: hashlib.sha256((tmp_path / name).read_bytes())
               .hexdigest()[:16] for name in (
                   "csv/trace_scheduled-qlearning.csv", "csv/metrics.json",
                   "jsonl/trace_scheduled-qlearning.jsonl",
                   "jsonl/metrics.json")}
        assert got == LEARNING_RUN_DIGESTS[grid]


class TestBlocks:
    """run_closed_loop computes the rotor angles, reference samples and
    theta-axis cells of the whole run before its loop; every run is bit for
    bit the one-step-at-a-time reference loop, over short and long runs,
    amplitude events and a safety abort late in the run."""

    @pytest.mark.parametrize("steps", [1, 2047, 2048, 2049, 4103])
    def test_run_lengths(self, params, surface, trained_table, steps):
        s = make_scenario(params, surface, duration=steps)
        assert len(assert_matches_reference_loop(s, trained_table)) == steps

    def test_amplitude_event_on_a_block_boundary(self, params, surface,
                                                 trained_table):
        # steps 2048 and 4096 fall inside conduction windows; two events at
        # one step, the last wins
        profile = ReferenceProfile(step_events=(
            (2047, 4.5), (2048, 5.5), (4096, 3.0), (4096, 3.5)))
        s = make_scenario(params, surface, reference=profile, dither=5.0,
                          online_learning=True, duration=4103)
        trace = assert_matches_reference_loop(s, trained_table)
        assert trace.r[2047:2049].tolist() == [4.5, 5.5]
        assert trace.r[4096] == 3.5

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

    def test_safety_abort_inside_a_later_block(self, params, surface,
                                               trained_table):
        # a 6.5 A pulse from step 2148 on, inside a conduction window,
        # crosses the 1.2 x 5 A bound before step 4096
        tight = replace(trained_table,
                        cfg=replace(trained_table.cfg, safety_factor=1.2))
        profile = ReferenceProfile(step_events=((2148, 6.5),))
        s = make_scenario(params, surface, reference=profile, duration=6144)
        trace = assert_matches_reference_loop(s, tight)
        assert 2148 < len(trace) < 4096
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

    @pytest.fixture(params=["serial", "split"])
    def export_path(self, request, monkeypatch):
        """Each run with a stream forks no writer (serial), or forks one for
        every run of at least PARALLEL_MIN_ROWS steps whatever this machine's
        CPUs and threads (split); yields (split, the pids the runs forked).
        No child process and no file descriptor outlives the test."""
        forks, fork = [], os.fork
        split = request.param == "split"
        if split:
            monkeypatch.setattr(sim, "_cpus", lambda: 2)
            monkeypatch.setattr(sim, "_os_threads", lambda: 1)
        else:
            monkeypatch.setattr(sim, "_parallel_export", lambda n: False)

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", counted)
        with leaves_no_child_or_fd():
            yield split, forks

    @staticmethod
    def streamed_run(scenario, table, fmt, export_path):
        """The trace of a run that streams it in fmt, aborted or not; the
        run has closed the writer's pipe, and the export reaps it."""
        split, forks = export_path
        try:
            trace = run_closed_loop(scenario, table, stream=fmt)
        except SafetyAbortError as exc:
            trace = exc.trace
        assert len(forks) == (split and scenario.steps >= PARALLEL_MIN_ROWS)
        assert (trace.written is not None) == bool(forks)
        assert trace.written is None or not trace.written.close.alive
        return trace

    @staticmethod
    def assert_matches_row_writer(trace, tmp_path, fmt):
        export_trace(trace, tmp_path / "got", fmt=fmt)
        assert_no_child()
        # the export leaves nothing beside the trace
        assert [p.name for p in tmp_path.iterdir()] == ["got"]
        reference_export(trace, tmp_path / "want", fmt)
        assert (tmp_path / "got").read_bytes() == \
            (tmp_path / "want").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("n", [PARALLEL_MIN_ROWS - 1, PARALLEL_MIN_ROWS,
                                   PARALLEL_MIN_ROWS + 1, 4099, 6250, 15000])
    def test_both_paths_match_row_writer(self, params, surface, trained_table,
                                         export_path, tmp_path, n, fmt):
        trace = self.streamed_run(make_scenario(params, surface, duration=n),
                                  trained_table, fmt, export_path)
        assert len(trace) == n
        assert_cost_per_step(trace, trained_table.cfg)
        self.assert_matches_row_writer(trace, tmp_path, fmt)

    @staticmethod
    def written_by_writer(trace, fmt):
        """A writer fed the trace's x, u, K and cell rows down its pipe as
        the loop feeds it, EXPORT_CHUNK rows per write, which takes the
        trace's other columns as the loop's writer takes its shared ones."""
        def rows_to_trace(buf, a):
            b = a + len(buf)
            return SimTrace(trace.k[a:b], trace.t[a:b], trace.theta[a:b],
                            trace.r[a:b], buf[:, 0], buf[:, 1], buf[:, 2:4],
                            buf[:, 4:].astype(int), trace.cost[a:b])
        rows = array("d", np.column_stack((trace.x, trace.u, trace.K,
                                           trace.cell)).ravel().tolist())
        writer = sim._Writer(fmt, rows_to_trace)
        for m in range(EXPORT_CHUNK, len(trace), EXPORT_CHUNK):
            writer.send(rows, m)
        writer.send(rows, len(trace))
        writer.reap()
        return writer

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_special_floats_at_the_split(self, nominal_trace, export_path,
                                         tmp_path, fmt):
        # every chunk's first row and its two neighbours hold -0.0 beside
        # 0.0 and each non-finite float, in every float column; split, the
        # writer formats the chunks the pipe brings it
        split, forks = export_path
        t = nominal_trace
        special = [-0.0, 0.0, float("nan"), float("inf"), float("-inf")]
        cols = [c.copy() for c in (t.t, t.theta, t.r, t.x, t.u, t.cost)]
        K = t.K.copy()
        for lo in range(EXPORT_CHUNK, len(t), EXPORT_CHUNK):
            for j, col in enumerate(cols + [K[:, 0], K[:, 1]]):
                for i in (-1, 0, 1):
                    col[lo + i] = special[(lo // EXPORT_CHUNK + i + j) % 5]
        trace = SimTrace(t.k, *cols[:5], K, t.cell, cols[5])
        if split:
            trace.written = self.written_by_writer(trace, fmt)
        assert_no_child()
        assert len(forks) == split
        self.assert_matches_row_writer(trace, tmp_path, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_long_aborted_trace_matches_row_writer(self, params, surface,
                                                   trained_table, export_path,
                                                   tmp_path, fmt):
        # a 20 A step at step 3000 trips the safety bound soon after
        s = make_scenario(params, surface, reference=ReferenceProfile(
            step_events=((3000, 20.0),)))
        with pytest.raises(SafetyAbortError):
            run_closed_loop(s, trained_table)
        trace = self.streamed_run(s, trained_table, fmt, export_path)
        assert 3000 < len(trace) < s.steps
        self.assert_matches_row_writer(trace, tmp_path, fmt)

    def test_other_format_is_formatted_here(self, params, surface,
                                            trained_table, export_path,
                                            tmp_path):
        # a trace streamed in CSV exports JSON lines by the row writer
        trace = self.streamed_run(make_scenario(params, surface),
                                  trained_table, "csv", export_path)
        self.assert_matches_row_writer(trace, tmp_path, "jsonl")

    def test_pending_trace_keeps_its_writer_format(self, params, surface,
                                                   trained_table, export_path,
                                                   tmp_path):
        # the pending trace of a run streamed in CSV holds no rows: only its
        # writer has them, so it exports as CSV and no other format, and a
        # refused export opens no file; without a writer it is the trace
        split, _ = export_path
        trace = self.streamed_run(make_scenario(params, surface),
                                  trained_table, "csv", export_path)
        if split:
            with pytest.raises(ValueError, match="rows went only to its csv "
                               "writer; it cannot be exported as jsonl"):
                export_trace(trace.pending(), tmp_path / "got", "jsonl")
            self.assert_matches_row_writer(trace, tmp_path, "csv")
        else:
            self.assert_matches_row_writer(trace.pending(), tmp_path, "jsonl")

    @pytest.mark.parametrize("fail", ["raise", "kill"])
    def test_failing_helper_names_the_path(self, params, surface,
                                           trained_table, monkeypatch,
                                           tmp_path, fail):
        # the writer alone fails, by an exception or a signal, on its first
        # chunk; the loop runs on, and the export reaps the writer and
        # reports the path
        monkeypatch.setattr(sim, "_parallel_export", lambda n: True)
        parent, write_rows = os.getpid(), sim._write_rows

        def writer_fails(f, *args):
            if os.getpid() != parent:
                if fail == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("writer fails")
            write_rows(f, *args)
        monkeypatch.setattr(sim, "_write_rows", writer_fails)
        path = tmp_path / "trace.csv"
        with leaves_no_child_or_fd():
            trace = run_closed_loop(make_scenario(params, surface),
                                    trained_table, stream="csv")
            with pytest.raises(OSError) as exc:
                export_trace(trace, path)
            assert_no_child()
            message = str(exc.value)
            del trace, exc
        assert message.startswith(f"cannot write trace to {path}: "
                                  "the helper process ")
        assert message.endswith(
            "exited with status 1" if fail == "raise"
            else f"was killed by signal {int(signal.SIGKILL)}")
        # the failure is reported before the path is opened
        assert not path.exists()

    @pytest.mark.parametrize("fails", [(os, "fork"), (os, "pipe"),
                                       (sim.tempfile, "TemporaryFile")],
                             ids=["fork", "pipe", "file"])
    def test_writer_that_cannot_start_exports_serially(
            self, params, surface, trained_table, monkeypatch, tmp_path,
            capsys, fails):
        # no process, descriptor or file to spare for the writer: the run
        # goes on without one, its trace is formatted at export, and `run`
        # writes the serial export's bytes
        def unavailable(*args):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(sim, "_parallel_export", lambda n: True)
        table = tmp_path / "qtable.json"
        save_table(trained_table, table)
        with leaves_no_child_or_fd():
            with monkeypatch.context() as m:
                m.setattr(*fails, unavailable)
                trace = run_closed_loop(make_scenario(params, surface),
                                        trained_table, stream="csv")
                code = cli.main(["run", "--table", str(table),
                                 "--out", str(tmp_path / "failed")])
            assert trace.written is None
            assert code == 0
            export_trace(trace, tmp_path / "got")
            reference_export(trace, tmp_path / "want", "csv")
            assert (tmp_path / "got").read_bytes() == \
                (tmp_path / "want").read_bytes()
            with monkeypatch.context() as m:
                m.setattr(sim, "_parallel_export", lambda n: False)
                assert cli.main(["run", "--table", str(table),
                                 "--out", str(tmp_path / "serial")]) == 0
            del trace
        capsys.readouterr()
        name = "trace_scheduled-qlearning.csv"
        assert ((tmp_path / "failed" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes())

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failing_parent_reaps_the_helper(self, params, surface,
                                             trained_table, monkeypatch,
                                             error):
        # the loop fails at step 1000, after it has sent the writer three
        # chunks
        monkeypatch.setattr(sim, "_parallel_export", lambda n: True)
        step_located, steps = sim._step_located, []

        def fails_at_1000(*args):
            steps.append(None)
            if len(steps) > 1000:
                raise error("disk full")
            return step_located(*args)
        monkeypatch.setattr(sim, "_step_located", fails_at_1000)
        with leaves_no_child_or_fd(), pytest.raises(error, match="disk full"):
            run_closed_loop(make_scenario(params, surface), trained_table,
                            stream="jsonl")

    def test_stage_cost_overflow_reaps_the_writer(self, params, surface,
                                                  trained_table, export_path):
        # online learning against a reference far beyond the safety bound
        # overflows the first learning step's stage cost inside the loop
        split, forks = export_path
        s = make_scenario(params, surface, online_learning=True,
                          reference=ReferenceProfile(i_ref=1e200))
        with pytest.raises(ValueError, match="stage cost overflowed"):
            run_closed_loop(s, trained_table, stream="csv")
        assert len(forks) == split

    @pytest.fixture
    def slow_writer(self, monkeypatch):
        """Every run with a stream forks a writer, which sleeps 0.2 s
        before it formats the last, short chunk of a nominal run:
        that chunk reaches it only when the loop closes the pipe, so the
        writer is still at work when the run returns."""
        monkeypatch.setattr(sim, "_parallel_export", lambda n: True)
        parent, write_rows = os.getpid(), sim._write_rows

        def slow(f, chunk, fmt):
            if os.getpid() != parent and len(chunk) < EXPORT_CHUNK:
                time.sleep(0.2)
            write_rows(f, chunk, fmt)
        monkeypatch.setattr(sim, "_write_rows", slow)

    def test_run_returns_while_its_writer_formats(self, params, surface,
                                                  trained_table, slow_writer,
                                                  tmp_path):
        with leaves_no_child_or_fd():
            trace = run_closed_loop(make_scenario(params, surface),
                                    trained_table, stream="csv")
            assert os.waitpid(trace.written.pid, os.WNOHANG) == (0, 0)
            self.assert_matches_row_writer(trace, tmp_path, "csv")
            del trace

    @pytest.mark.parametrize("aborted", [False, True],
                             ids=["returned", "aborted"])
    def test_dropped_trace_reaps_its_writer(self, params, surface,
                                            trained_table, slow_writer,
                                            aborted):
        # a trace left unexported, as when its metrics fail, takes its
        # writer with it once it is collected
        s = make_scenario(params, surface, reference=ReferenceProfile(
            step_events=((3000, 20.0),) if aborted else ()))
        with leaves_no_child_or_fd():
            try:
                trace = run_closed_loop(s, trained_table, stream="jsonl")
            except SafetyAbortError as exc:
                trace = exc.trace
            assert (len(trace) < s.steps) == aborted
            assert os.waitpid(trace.written.pid, os.WNOHANG) == (0, 0)
            del trace
            gc.collect()
            assert_no_child()

    def test_second_writer_leaves_the_first_its_pipe(self, params, surface,
                                                     trained_table,
                                                     slow_writer, tmp_path):
        # the first run's writer is still at work when a second one forks
        # with its pipe open: the second must not hold the first's pipe, or
        # the first never reads to its end and waits as long as the second
        with leaves_no_child_or_fd():
            trace = run_closed_loop(make_scenario(params, surface),
                                    trained_table, stream="csv")
            first, second = trace.written, sim._Writer("csv", None)
            reap = threading.Thread(target=first.reap)
            reap.start()
            reap.join(timeout=10)
            waited = reap.is_alive()
            second.reap()
            reap.join()
            assert not waited
            assert first.error is second.error is None
            self.assert_matches_row_writer(trace, tmp_path, "csv")
            del trace, first, second

    def test_no_writer_without_a_stream(self, params, surface, trained_table,
                                        monkeypatch):
        monkeypatch.setattr(sim, "_parallel_export", lambda n: True)
        trace = run_closed_loop(make_scenario(params, surface), trained_table)
        assert trace.written is None

    def test_split_only_where_fork_is_safe_and_pays(self, monkeypatch):
        monkeypatch.setattr(sim, "_cpus", lambda: 2)
        monkeypatch.setattr(sim, "_os_threads", lambda: 2)
        for warns in (False, True):
            monkeypatch.setattr(sim, "_FORK_WARNS_WITH_THREADS", warns)
            assert sim._parallel_export(PARALLEL_MIN_ROWS) is not warns
        # from Python 3.12 only a single-threaded process forks
        monkeypatch.setattr(sim, "_os_threads", lambda: 1)
        assert sim._parallel_export(PARALLEL_MIN_ROWS)
        assert not sim._parallel_export(PARALLEL_MIN_ROWS - 1)
        monkeypatch.setattr(sim, "_cpus", lambda: 1)
        assert not sim._parallel_export(PARALLEL_MIN_ROWS)
        monkeypatch.setattr(sim, "_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        assert not sim._parallel_export(PARALLEL_MIN_ROWS)

    def test_os_threads_counts_a_started_thread(self):
        before, stop = sim._os_threads(), threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert sim._os_threads() == before + 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

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
        rng = np.random.default_rng(0)
        worst_sched = 0.0
        aligned_gain = trained_table.gains[0, 0]
        worst_fixed = 0.0
        for _ in range(60):
            theta, i = rng.uniform(0, 45), rng.uniform(0, 7.5)
            L = inductance_at(surface, theta, i)
            m = build_augmented(1 - params.T * params.R_phase / L,
                                    params.T / L)
            K_star = lqt.optimal_gain(lqt.are_fixed_point(m), m)
            scale = np.linalg.norm(K_star)
            worst_sched = max(worst_sched,
                              np.linalg.norm(scheduled_gain(
                                  trained_table, surface, theta, i) - K_star)
                              / scale)
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
