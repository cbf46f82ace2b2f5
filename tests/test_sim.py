import csv
import json

import numpy as np
import pytest

from srmq.plant import MotorParams, ReferenceProfile
from srmq.scheduler import SafetyAbortError
from srmq.sim import (CONTROLLERS, EXPORT_CHUNK, TRACE_COLUMNS, Metrics,
                      Scenario, SimTrace, compute_metrics,
                      delta_modulation_step, export_trace, run_closed_loop)
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


def head(trace, m):
    return SimTrace(trace.k[:m], trace.t[:m], trace.theta[:m], trace.r[:m],
                    trace.x[:m], trace.u[:m], trace.K[:m], trace.cell[:m],
                    trace.cost[:m])


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
