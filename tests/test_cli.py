import configparser
import contextlib
import io
import json
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from srmq import lqt, sim
from srmq.cli import (EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_OK, EXIT_SAFETY,
                      REFERENCE_GAIN, SCHEMA, default_config, load_config,
                      main)
from srmq.plant import (InductanceSurface, MotorParams, default_surface,
                        save_surface_csv)
from srmq.qlearn import QKernel
from srmq.scheduler import (QCoreTable, TableTrainConfig, load_table,
                            params_hash, save_table)


def last_json(capsys):
    """Parse the JSON report line, skipping any fixture-setup chatter that
    capsys lumps into the same stream."""
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

SMALL = """
[surface]
n_theta = 5

[grid]
n_theta = 4
n_current = 3

[scenario]
duration_cycles = 2
"""
SMALL_STEPS = 2 * MotorParams().steps_per_cycle


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    return str(path)


@pytest.fixture
def small_table(tmp_path, small_cfg):
    out = tmp_path / "qtable.json"
    assert main(["--config", small_cfg, "train", "--out", str(out)]) == EXIT_OK
    return str(out)


@pytest.fixture
def runaway_table(tmp_path):
    """One positive-feedback core (K = [-50, -50]) for the default motor and
    the SMALL surface."""
    G = np.zeros((3, 3))
    G[0, 2] = G[2, 0] = G[1, 2] = G[2, 1] = -50.0
    G[2, 2] = 1.0
    path = tmp_path / "runaway.json"
    save_table(QCoreTable(np.array([0.0]), np.array([0.0]),
                          [[QKernel(G).to_vec()]], TableTrainConfig(),
                          params_hash(MotorParams(),
                                      default_surface(MotorParams(), n_theta=5))),
               path)
    return str(path)


class TestConfig:
    def test_defaults_reproduce_nominal_study(self):
        cp = default_config()
        assert cp["motor"]["r_phase"] == "2.0"
        assert cp["training"]["gamma"] == "0.9"
        assert cp["scenario"]["i_ref"] == "4.0"

    def test_missing_file_rejected(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.ini"), "oracle"]) \
            == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[motor]\nvoltage = 5\n")
        assert main(["--config", str(path), "oracle"]) == EXIT_CONFIG

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[inverter]\nv = 5\n")
        assert main(["--config", str(path), "oracle"]) == EXIT_CONFIG

    def test_bad_event_syntax_rejected(self, tmp_path, small_table, small_cfg):
        path = tmp_path / "bad.ini"
        path.write_text(SMALL + "\n[DEFAULT]\n")
        cp_path = tmp_path / "events.ini"
        cp_path.write_text(SMALL.replace("duration_cycles = 2",
                                         "duration_cycles = 2\nevents = oops"))
        assert main(["--config", str(cp_path), "run", "--table", small_table,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    @pytest.mark.parametrize("speed", ["0", "-60"])
    def test_non_positive_speed_rejected(self, tmp_path, small_table, speed,
                                         capsys):
        path = tmp_path / "speed.ini"
        path.write_text(SMALL + f"\n[motor]\nspeed_rpm = {speed}\n")
        assert main(["--config", str(path), "train",
                     "--out", str(tmp_path / "t.json")]) == EXIT_CONFIG
        assert "speed_rpm must be positive" in capsys.readouterr().err
        assert main(["--config", str(path), "run", "--table", small_table,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "speed_rpm must be positive" in capsys.readouterr().err

    def test_out_of_order_events_rejected(self, tmp_path, small_table, capsys):
        path = tmp_path / "order.ini"
        path.write_text(SMALL.replace("duration_cycles = 2",
                                      "duration_cycles = 2\nevents = 100:5.0, 50:3.0"))
        assert main(["--config", str(path), "run", "--table", small_table,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert "invalid scenario: step events must be in step order" in err

    @pytest.mark.parametrize("section, key, value, named", [
        ("training", "q_weight", "-1", "q_weight"),
        ("training", "r_weight", "0", "r_weight"),
        ("training", "online_tau", "-5", "online_tau"),
        ("training", "gain_clamp", "-1", "gain_clamp"),
        ("training", "dither_v", "nan", "dither_v"),
        ("training", "tol", "nan", "tol"),
        ("training", "tol", "0", "tol"),
        ("training", "max_iters", "0", "max_iters"),
        ("training", "gamma", "0", "gamma"),
        ("training", "gamma", "-0.5", "gamma"),
        ("training", "seed", "-1", "seed"),
        ("scenario", "seed", "-1", "seed"),
        ("scenario", "dither_v", "nan", "dither_v"),
        ("scenario", "delta_band", "-1", "delta_band"),
        ("scenario", "i_ref", "nan", "i_ref"),
        ("scenario", "r_scale", "nan", "r_scale"),
        ("scenario", "events", "100:nan", "event amplitude"),
        ("grid", "n_theta", "0", "n_theta"),
        ("grid", "n_current", "-1", "n_current"),
        ("grid", "i_max", "nan", "i_max"),
        ("grid", "n_theta", "257", "n_theta"),
        ("grid", "n_theta", "abc", "n_theta"),
        ("grid", "i_max", "abc", "i_max"),
        ("training", "q_weight", "abc", "q_weight"),
        ("scenario", "duration_cycles", "two", "duration_cycles"),
        ("scenario", "online_learning", "maybe",
         "online_learning must be a boolean, got 'maybe'"),
        ("motor", "v_dc", "abc", "v_dc"),
        ("motor", "speed_rpm", "0", "speed_rpm"),
        ("motor", "t_sample", "-1e-4", "t_sample"),
        ("motor", "r_phase", "nan", "r_phase"),
        ("motor", "v_dc", "-1", "v_dc must be positive"),
        ("motor", "v_dc", "0", "v_dc must be positive"),
        ("motor", "l_unaligned", "0.02",
         "l_unaligned must be positive and below L_aligned = 0.016"),
        ("scenario", "controller", "pid", "controller must be one of"),
    ])
    def test_out_of_range_value_names_the_key(self, tmp_path, request, capsys,
                                              section, key, value, named):
        # the message names the INI key, also where the dataclass field
        # behind it has another name (dither_v is the field dither)
        cp = configparser.ConfigParser()
        cp.read_string(SMALL)
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][key] = value
        path = tmp_path / "range.ini"
        with open(path, "w") as f:
            cp.write(f)
        if section == "scenario":
            table = request.getfixturevalue("small_table")
            command = ["run", "--table", table, "--out", str(tmp_path / "out")]
        else:
            command = ["train", "--out", str(tmp_path / "t.json")]
        capsys.readouterr()
        assert main(["--config", str(path)] + command) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["oracle", "train"])
    @pytest.mark.parametrize("section, key, value", [
        ("surface", "kappa", "nan"), ("surface", "kappa", "-1"),
        ("surface", "i_max", "nan"), ("surface", "i_sat", "0"),
        ("training", "k0_x", "nan"), ("training", "k0_r", "inf"),
        ("training", "tuples_per_iter", "0"),
        ("surface", "n_theta", "1"), ("surface", "n_current", "-3"),
        ("surface", "n_theta", "257"), ("surface", "n_current", "abc"),
        ("training", "tuples_per_iter", "100001"),
        ("training", "max_iters", "1001"), ("training", "gamma", "1"),
        ("training", "q_weight", "abc"),
    ])
    def test_surface_and_training_keys_are_named(self, tmp_path, capsys,
                                                 section, key, value, command):
        # rejected when the config is read, with one line naming the key:
        # no numpy warning, and no message from deep inside the solvers
        cp = configparser.ConfigParser()
        cp.read_string(SMALL)
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][key] = value
        path = tmp_path / "probe.ini"
        with open(path, "w") as f:
            cp.write(f)
        args = ["--out", str(tmp_path / "t.json")] if command == "train" else []
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", str(path), command] + args)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        what = "surface" if section == "surface" else "training parameters"
        assert f"invalid {what}: {key} must be" in err

    @staticmethod
    def oracle_on_surface_file(tmp_path, capsys, text):
        """(exit code, stderr) of `srmq oracle` on a surface file."""
        surface = tmp_path / "surface.csv"
        surface.write_text(text)
        path = tmp_path / "file.ini"
        path.write_text(f"[surface]\nkind = file\npath = {surface}\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", str(path), "oracle"])
        return code, capsys.readouterr().err

    def test_malformed_surface_file_names_the_path(self, tmp_path, capsys):
        save_surface_csv(default_surface(MotorParams()), tmp_path / "good.csv")
        header, *rows = (tmp_path / "good.csv").read_text().splitlines()
        theta, first, rest = rows[3].split(",", 2)
        last, *top = rows[-1].split(",")
        cases = {   # (row 3 or the whole body, what the message says)
            "no number": (f"{theta},abc,{rest}", "'abc'"),
            "ragged row": (f"{theta},{rest}", "columns"),
            "empty body": ([], "needs a header and >= 2 rows"),
            "aperiodic": (rows[:-1] + [",".join(
                [last] + [repr(float(v) / 2) for v in top])], "periodic"),
            "nan angle": (f"nan,{first},{rest}", "theta_grid must be finite"),
            "inf angle": (f"inf,{first},{rest}", "theta_grid must be finite"),
        }
        for case, (body, says) in cases.items():
            if isinstance(body, str):
                body = rows[:3] + [body] + rows[4:]
            code, err = self.oracle_on_surface_file(
                tmp_path, capsys, "\n".join([header] + body) + "\n")
            assert code == EXIT_CONFIG, case
            assert err.splitlines() == [err.strip()], case
            assert err.startswith(f"error: {tmp_path / 'surface.csv'}: "), case
            assert says in err, case

    @pytest.mark.parametrize("scale", [30 / 45, 8.0])
    def test_surface_file_off_the_rotor_pitch_names_the_span(self, tmp_path,
                                                             capsys, scale):
        # a 0-30 deg grid, or one in electrical degrees (0-360), on the
        # 45 deg motor
        s = default_surface(MotorParams())
        save_surface_csv(s, tmp_path / "pitch.csv")
        code, err = self.oracle_on_surface_file(
            tmp_path, capsys, (tmp_path / "pitch.csv").read_text())
        assert code == EXIT_OK
        save_surface_csv(InductanceSurface(s.theta_grid * scale,
                                           s.current_grid, s.values),
                         tmp_path / "off.csv")
        code, err = self.oracle_on_surface_file(
            tmp_path, capsys, (tmp_path / "off.csv").read_text())
        assert code == EXIT_CONFIG
        assert err.splitlines() == [err.strip()]
        assert str(tmp_path / "surface.csv") in err
        assert f"spans {45 * scale!r} deg" in err
        assert "[motor] rotor_pitch is 45.0" in err

    def test_step_budget_rejects_before_the_loop(self, tmp_path, monkeypatch,
                                                 capsys):
        # at 1e-6 RPM one electrical cycle is 7.5e10 steps; the run is refused
        # by sim.MAX_STEPS before the loop allocates its trace arrays
        def must_not_run(*args):
            raise AssertionError("the closed loop was started")

        monkeypatch.setattr(sim, "run_closed_loop", must_not_run)
        path = tmp_path / "slow.ini"
        path.write_text(SMALL + "\n[motor]\nspeed_rpm = 1e-6\n")
        table = str(tmp_path / "slow.json")
        assert main(["--config", str(path), "train", "--out", table]) == EXIT_OK
        capsys.readouterr()
        assert main(["--config", str(path), "run", "--table", table,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert f"MAX_STEPS = {sim.MAX_STEPS}" in err
        for key in ("duration_cycles", "speed_rpm", "t_sample"):
            assert key in err
        assert not (tmp_path / "out").exists()

    def test_duplicate_section_rejected(self, tmp_path, capsys):
        path = tmp_path / "dup.ini"
        path.write_text("[grid]\nn_theta = 4\n[grid]\nn_current = 3\n")
        assert main(["--config", str(path), "oracle"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert "section 'grid' already exists" in err

    def test_zero_duration_rejected(self, tmp_path, small_table):
        path = tmp_path / "zero.ini"
        path.write_text(SMALL.replace("duration_cycles = 2",
                                      "duration_cycles = 0"))
        assert main(["--config", str(path), "run", "--table", small_table,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_single_cycle_rejected_before_the_loop(self, tmp_path, small_table,
                                                   monkeypatch, capsys):
        # the metrics skip the first cycle, so a one-cycle run would be
        # simulated and then thrown away
        calls = []
        monkeypatch.setattr(sim, "run_closed_loop",
                            lambda *args: calls.append(args))
        path = tmp_path / "one.ini"
        path.write_text(SMALL.replace("duration_cycles = 2",
                                      "duration_cycles = 1"))
        capsys.readouterr()
        assert main(["--config", str(path), "run", "--table", small_table,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert "duration_cycles must be at least 2" in err
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["5%", "%(nope)s"])
    def test_bad_interpolation_names_the_key(self, tmp_path, small_table,
                                             capsys, value):
        path = tmp_path / "pct.ini"
        path.write_text(SMALL + f"events = {value}\n")
        capsys.readouterr()
        assert main(["--config", str(path), "run", "--table", small_table,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert "config key scenario.events" in err
        assert "Traceback" not in err


class TestOracle:
    def test_reports_reference_gain_context(self, capsys):
        assert main(["oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "aligned-node gain" in out
        assert "16 mH" in out          # the naming discrepancy is surfaced
        assert "[120.0, -122.0]" in out

    def test_json_aligned_gain_within_band(self, small_cfg, capsys):
        assert main(["--config", small_cfg, "--json", "oracle"]) == EXIT_OK
        report = last_json(capsys)
        K = report["aligned_node_gain"]
        assert abs(K[0] - REFERENCE_GAIN[0]) / abs(REFERENCE_GAIN[0]) < 0.15
        assert abs(K[1] - REFERENCE_GAIN[1]) / abs(REFERENCE_GAIN[1]) < 0.15
        assert report["nodes"]
        assert all(n["pi_gap"] < 1e-6 for n in report["nodes"])

    def test_zero_state_weight_gives_zero_gains(self, tmp_path, capsys):
        path = tmp_path / "zq.ini"
        path.write_text(SMALL + "\n[training]\nq_weight = 0.0\n")
        assert main(["--config", str(path), "--json", "oracle"]) == EXIT_OK
        report = last_json(capsys)
        for node in report["nodes"]:
            assert node["K"] == pytest.approx([0.0, 0.0], abs=1e-9)


    @pytest.mark.parametrize("ini, code", [
        ("[training]\nq_weight = 1e160\n", EXIT_CONVERGENCE),
        ("[motor]\nr_phase = 1e300\n", EXIT_CONVERGENCE),
        ("[surface]\ni_sat = 1e-300\n", EXIT_OK),
        ("[surface]\nkappa = 0\ni_sat = 1e-300\n", EXIT_OK),
    ])
    def test_overflowing_config_exits_cleanly(self, tmp_path, capsys, ini,
                                              code):
        # the closed-form solve names every non-finite node of the default
        # 16x8 grid in one stderr line; kappa = 0 never saturates, so an
        # overflowing i / i_sat leaves the surface finite
        path = tmp_path / "huge.ini"
        path.write_text(ini)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(path), "oracle"]) == code
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert err == ""
        else:
            assert err.splitlines() == [err.strip()]
            assert "not finite at 128 of 128 nodes, first [0, 1, 2, 3, 4]" \
                in err

    def test_non_finite_local_model_names_the_first_node(self, tmp_path,
                                                         capsys):
        # with T = 1e306 s, T R / L overflows where L is below 11.1 mH
        path = tmp_path / "hugeT.ini"
        path.write_text(SMALL + "\n[motor]\nt_sample = 1e306\n")
        assert main(["--config", str(path), "oracle"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: the local model A = 1 - T R / L, "
                              "B = T / L is not finite at ")
        assert "at 8 of 12 grid nodes, first node (0,2): theta 0.0 deg, " \
            "i 7.5 A, L = 0.010705882352941176 H" in err

    @pytest.mark.parametrize("k0_x", ["-500", "200"])
    def test_non_stabilizing_start_names_the_first_node(self, tmp_path,
                                                        small_cfg, capsys,
                                                        k0_x):
        # the first row-major node whose loop the initial gain destabilizes
        assert main(["--config", small_cfg, "--json", "oracle"]) == EXIT_OK
        K0 = [float(k0_x), -100.0]
        failing = [(n["row"], n["col"]) for n in last_json(capsys)["nodes"]
                   if not lqt.is_stabilizing(lqt.build_augmented(n["A"], n["B"]),
                                             K0)]
        assert failing
        path = tmp_path / "k0.ini"
        path.write_text(SMALL + f"\n[training]\nk0_x = {k0_x}\n")
        assert main(["--config", str(path), "oracle"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert "not stabilizing" in err and "k0_x" in err
        assert f"at {len(failing)} of 12 nodes" in err
        assert "first node ({},{})".format(*failing[0]) in err


class TestTrain:
    def test_reports_and_persists(self, tmp_path, small_cfg, capsys):
        out = tmp_path / "t.json"
        assert main(["--config", small_cfg, "--json", "train",
                     "--out", str(out)]) == EXIT_OK
        report = last_json(capsys)
        assert out.exists()
        assert report["cores"] == 12
        assert report["oracle_gap_max"] < 1e-2

    def test_reports_worst_gap_node(self, tmp_path, small_cfg, capsys):
        out = tmp_path / "t.json"
        assert main(["--config", small_cfg, "--json", "train",
                     "--out", str(out)]) == EXIT_OK
        report = last_json(capsys)
        assert main(["--config", small_cfg, "--json", "oracle"]) == EXIT_OK
        nodes = last_json(capsys)["nodes"]
        gains = load_table(out).gains
        gaps = {(n["row"], n["col"]):
                np.linalg.norm(gains[n["row"], n["col"]] - n["K"])
                / np.linalg.norm(n["K"]) for n in nodes}
        worst = max(gaps, key=gaps.get)
        assert report["oracle_gap_worst_node"] == list(worst)
        assert report["oracle_gap_max"] == gaps[worst]
        assert main(["--config", small_cfg, "train",
                     "--out", str(out)]) == EXIT_OK
        assert f"at node {worst}" in capsys.readouterr().out

    def test_zero_state_weight_reports_finite_absolute_gap(self, tmp_path,
                                                            capsys):
        # with q_weight = 0 every oracle gain is zero, so the gap is the
        # absolute distance to it rather than a division by zero
        path = tmp_path / "zq.ini"
        path.write_text(SMALL + "\n[training]\nq_weight = 0.0\n")
        out = tmp_path / "t.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(path), "--json", "train",
                         "--out", str(out)]) == EXIT_OK

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        line = capsys.readouterr().out.strip().splitlines()[-1]
        report = json.loads(line, parse_constant=reject)
        assert np.isfinite(report["oracle_gap_max"])
        assert np.isfinite(report["oracle_gap_mean"])
        gaps = np.linalg.norm(load_table(out).gains, axis=-1)
        assert report["oracle_gap_max"] == pytest.approx(gaps.max(), rel=1e-12)
        assert report["oracle_gap_worst_node"] == \
            list(np.unravel_index(np.argmax(gaps), gaps.shape))

    def test_failure_message_is_summarised(self, tmp_path, capsys):
        # every node of the default 16x8 grid fails without dither; the
        # message counts them instead of listing all 128
        path = tmp_path / "nodither.ini"
        path.write_text("[training]\ndither_v = 0\n")
        assert main(["--config", str(path), "train",
                     "--out", str(tmp_path / "t.json")]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert len(err) < 300
        assert "128 of 128 nodes failed" in err
        assert "128 x RankDeficientError" in err
        assert "nodes (0,0), (0,1), (0,2), ..." in err

    @pytest.mark.parametrize("ini", ["[motor]\nr_phase = 1e300\n",
                                     "[grid]\ni_max = 1e300\n"])
    def test_safety_abort_message_stays_short(self, tmp_path, capsys, ini):
        # a training current near 1e300 A is printed in exponent form
        path = tmp_path / "huge.ini"
        path.write_text(ini)
        assert main(["--config", str(path), "train",
                     "--out", str(tmp_path / "t.json")]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert len(err) < 200
        assert "128 x SafetyAbortError" in err
        assert "e+29" in err and "exceeded the 15.00 A safety bound" in err

    def test_nonconvergence_exits_3(self, tmp_path):
        path = tmp_path / "hard.ini"
        path.write_text(SMALL + "\n[training]\nmax_iters = 1\ntol = 1e-16\n")
        assert main(["--config", str(path), "train",
                     "--out", str(tmp_path / "t.json")]) == EXIT_CONVERGENCE


    def test_undiscounted_training_rejected(self, tmp_path, capsys):
        path = tmp_path / "gamma.ini"
        path.write_text(SMALL + "\n[training]\ngamma = 1.0\n")
        assert main(["--config", str(path), "train",
                     "--out", str(tmp_path / "t.json")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "gamma < 1" in err
        assert "Bellman column vanishes" in err


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command, report_file", [
    ("run", "metrics.json"), ("compare", "compare.json")])
def test_reports_are_strict_json(tmp_path, small_cfg, small_table, capsys,
                                 command, report_file):
    # delta modulation never settles, so its settled metrics are nan:
    # null in JSON, still nan in the text table
    cfg = tmp_path / "delta.ini"
    cfg.write_text(SMALL + "controller = delta-modulation\n")
    out = tmp_path / "out"
    capsys.readouterr()
    argv = ["--config", str(cfg), command, "--table", small_table,
            "--out", str(out)]
    assert main(["--json"] + argv) == EXIT_OK
    printed = strict_json(capsys.readouterr().out.strip().splitlines()[-1])
    assert strict_json((out / report_file).read_text()) == printed
    reports = ([printed] if command == "run" else
               list(printed["controllers"].values()))
    delta = reports[-1]["metrics"]
    assert delta["rmse_settled_A"] is None
    assert delta["settling_steps_mean"] is None
    assert main(argv) == EXIT_OK
    assert "nan" in capsys.readouterr().out


def _csv_rows(path):
    return len(path.read_text().splitlines()) - 1


class TestRun:
    def test_online_cost_overflow_names_the_step(self, tmp_path, small_table,
                                                 capsys):
        # the reference is far beyond the safety bound, the current is not:
        # the first learning tuple's stage cost overflows
        path = tmp_path / "overflow.ini"
        path.write_text(SMALL.replace(
            "duration_cycles = 2",
            "duration_cycles = 2\ni_ref = 1e200\nonline_learning = true"))
        capsys.readouterr()
        assert main(["--config", str(path), "run", "--table", small_table,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert "online learning stage cost overflowed at step " in err
        assert "reference 1e+200 A is beyond the 15.00 A safety bound" in err

    def test_produces_trace_and_metrics(self, tmp_path, small_cfg,
                                        small_table, capsys):
        out = tmp_path / "out"
        assert main(["--config", small_cfg, "--json", "run", "--table",
                     small_table, "--out", str(out)]) == EXIT_OK
        report = last_json(capsys)
        assert (out / "metrics.json").exists()
        assert (out / "effective_config.ini").exists()
        assert (out / "trace_scheduled-qlearning.csv").exists()
        assert report["metrics"]["rmse_settled_A"] < 0.02 * 4.0

    def test_effective_config_round_trips(self, tmp_path, small_cfg,
                                          small_table):
        out = tmp_path / "out"
        assert main(["--config", small_cfg, "run", "--table", small_table,
                     "--out", str(out)]) == EXIT_OK
        cp = load_config(str(out / "effective_config.ini"))
        orig = load_config(small_cfg)
        for section in orig.sections():
            assert dict(cp[section]) == dict(orig[section])

    def test_corrupted_table_exits_2(self, tmp_path, small_cfg):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["--config", small_cfg, "run", "--table", str(bad),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_non_positive_G_uu_table_exits_2(self, tmp_path, small_cfg,
                                             small_table, capsys):
        doc = json.loads(Path(small_table).read_text())
        doc["cores"][1][2][5] = -1.0          # G_uu of core (1, 2)
        bad = tmp_path / "indefinite.json"
        bad.write_text(json.dumps(doc))
        assert main(["--config", small_cfg, "run", "--table", str(bad),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert str(bad) in err and "G_uu" in err

    @pytest.mark.parametrize("key, value, named", [
        ("iterations", [[-5]], "iterations must be"),
        ("iterations", [[-1] * 3] * 4, "iterations must be"),
        ("iterations", [[1.5] * 3] * 4, "iterations must be"),
        ("K0", [100.0, -100.0, 5.0], "K0 must be the two gains"),
        ("theta_nodes", [0.0, float("nan"), 30.0, 45.0], "theta nodes must be"),
        ("theta_nodes", [[0.0, 15.0, 30.0, 45.0]], "theta nodes must be 1-D"),
        ("current_nodes", [[0.0, 3.75, 7.5]], "current nodes must be 1-D"),
    ])
    def test_unchecked_table_field_exits_2(self, tmp_path, small_cfg,
                                           small_table, capsys, key, value,
                                           named):
        doc = json.loads(Path(small_table).read_text())
        (doc["cfg"] if key == "K0" else doc)[key] = value
        bad = tmp_path / "field.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["--config", small_cfg, "run", "--table", str(bad),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert str(bad) in err and named in err

    @pytest.mark.parametrize("key", [f.name for f in fields(TableTrainConfig)])
    def test_table_without_a_cfg_key_exits_2(self, tmp_path, small_cfg,
                                             small_table, capsys, key):
        # a dropped key must not fall back to the dataclass default
        doc = json.loads(Path(small_table).read_text())
        del doc["cfg"][key]
        bad = tmp_path / "nokey.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["--config", small_cfg, "run", "--table", str(bad),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: {bad}: cfg.{key} is missing")

    @pytest.mark.parametrize("values, named", [
        ({"seed": True}, "seed"), ({"seed": False}, "seed"),
        ({"max_iters": True}, "max_iters"),
        ({"seed": True, "max_iters": True}, "seed")])
    def test_table_boolean_in_integer_field_exits_2(
            self, tmp_path, small_cfg, small_table, capsys, values, named):
        # JSON true is no integer, though Python's bool subclasses int
        doc = json.loads(Path(small_table).read_text())
        doc["cfg"].update(values)
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["--config", small_cfg, "run", "--table", str(bad),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: {bad}: {named} must be")

    @pytest.mark.parametrize("values, named", [
        ({"gain_clamp": True}, "gain_clamp"), ({"q_weight": True}, "q_weight"),
        ({"dither": False}, "dither"), ({"K0": [True, -100.0]}, "k0_x")])
    def test_table_boolean_in_number_field_exits_2(
            self, tmp_path, small_cfg, small_table, capsys, values, named):
        # JSON true is no number: a clamp of true would act as 1.0
        doc = json.loads(Path(small_table).read_text())
        doc["cfg"].update(values)
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["--config", small_cfg, "run", "--table", str(bad),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: {bad}: {named} must be")

    def test_motor_mismatch_exits_2(self, tmp_path, small_cfg, small_table):
        other = tmp_path / "other.ini"
        other.write_text(SMALL + "\n[motor]\nr_phase = 2.5\n")
        assert main(["--config", str(other), "run", "--table", small_table,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_surface_mismatch_exits_2(self, tmp_path, small_table, command,
                                      capsys):
        # the table was trained on the kappa = 0.5 surface
        other = tmp_path / "other.ini"
        other.write_text(SMALL.replace("n_theta = 5", "n_theta = 5\nkappa = 0.95",
                                       1))
        assert main(["--config", str(other), command, "--table", small_table,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert "retrain or fix the config" in err

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("scale", [30 / 45, 8.0])
    def test_table_off_the_rotor_pitch_names_the_file(
            self, tmp_path, small_cfg, small_table, capsys, command, scale):
        # theta nodes over 0-30 deg, or 0-360 (electrical), on the 45 deg
        # motor would schedule the cores by the wrong wrap
        doc = json.loads(Path(small_table).read_text())
        doc["theta_nodes"] = [v * scale for v in doc["theta_nodes"]]
        bad = tmp_path / "span.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["--config", small_cfg, command, "--table", str(bad),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: {bad}: theta_nodes spans "
                              f"{45 * scale!r} deg")
        assert "[motor] rotor_pitch is 45.0" in err

    def test_single_theta_node_table_runs(self, tmp_path, capsys):
        # one theta node spans no angle; the table holds one row of cores
        cfg = tmp_path / "row.ini"
        cfg.write_text(SMALL.replace("[grid]\nn_theta = 4",
                                     "[grid]\nn_theta = 1"))
        table = tmp_path / "row.json"
        assert main(["--config", str(cfg), "train", "--out", str(table)]) \
            == EXIT_OK
        assert main(["--config", str(cfg), "run", "--table", str(table),
                     "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_version_1_table_exits_2_with_retrain(self, tmp_path, small_cfg,
                                                   small_table, capsys):
        # format 1 carried a [training] tau entry in the table's config
        doc = json.loads(Path(small_table).read_text())
        doc["version"] = 1
        doc["cfg"]["tau"] = 1e6
        old = tmp_path / "format1.json"
        old.write_text(json.dumps(doc))
        assert main(["--config", small_cfg, "run", "--table", str(old),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert str(old) in err and "retrain" in err

    def test_jsonl_format(self, tmp_path, small_cfg, small_table):
        out = tmp_path / "out"
        assert main(["--config", small_cfg, "run", "--table", small_table,
                     "--out", str(out), "--format", "jsonl"]) == EXIT_OK
        path = out / "trace_scheduled-qlearning.jsonl"
        assert path.exists()
        first = json.loads(path.read_text().splitlines()[0])
        assert first["k"] == 0

    def test_safety_abort_exports_partial_trace(self, tmp_path, small_cfg,
                                                runaway_table):
        out = tmp_path / "out"
        assert main(["--config", small_cfg, "run", "--table", runaway_table,
                     "--out", str(out)]) == EXIT_SAFETY
        assert 0 < _csv_rows(out / "trace_aborted.csv") < SMALL_STEPS

    def test_seed_flag_overrides_config(self, tmp_path, small_cfg,
                                        small_table, capsys):
        reports = []
        for seed in ("7", "7"):
            out = tmp_path / f"out{len(reports)}"
            assert main(["--config", small_cfg, "--json", "run", "--table",
                         small_table, "--out", str(out), "--seed", seed]) \
                == EXIT_OK
            reports.append(last_json(capsys)["metrics"])
        assert reports[0] == reports[1]


class TestCompare:
    def test_scheduled_vs_delta(self, tmp_path, small_cfg, small_table,
                                capsys):
        out = tmp_path / "cmp"
        assert main(["--config", small_cfg, "--json", "compare", "--table",
                     small_table, "--out", str(out)]) == EXIT_OK
        report = last_json(capsys)
        assert (out / "compare.json").exists()
        assert (out / "trace_delta-modulation.csv").exists()
        assert report["ripple_ratio"] < 0.25
        sched = report["controllers"]["scheduled-qlearning"]["metrics"]
        delta = report["controllers"]["delta-modulation"]["metrics"]
        assert sched["ripple_A"] < delta["ripple_A"]

    def test_text_ripple_ratio_keeps_its_digits(self, tmp_path, small_cfg,
                                                small_table, capsys):
        # the ratio is far below 1e-4, so a fixed four-decimal format
        # would print 0.0000
        out = tmp_path / "cmp"
        assert main(["--config", small_cfg, "compare", "--table",
                     small_table, "--out", str(out)]) == EXIT_OK
        line = capsys.readouterr().out.strip().splitlines()[-1]
        label, _, text = line.partition(": ")
        assert label == "ripple ratio (scheduled/delta)"
        ratio = json.loads((out / "compare.json").read_text())["ripple_ratio"]
        assert 0 < ratio < 1e-4
        assert text == f"{ratio:.4g}"

    def test_safety_abort_exports_partial_trace(self, tmp_path, small_cfg,
                                                runaway_table):
        out = tmp_path / "cmp"
        assert main(["--config", small_cfg, "compare", "--table",
                     runaway_table, "--out", str(out)]) == EXIT_SAFETY
        assert 0 < _csv_rows(out / "trace_aborted.csv") < SMALL_STEPS


# values for one INI key: in the key's range, any float (nan and inf
# included), an integer, or text that is no number at all
def ini_value(lo, hi, integer=False):
    in_range = (st.integers(int(lo), int(hi)).map(str) if integer
                else st.floats(lo, hi).map(repr))
    return st.one_of(
        in_range, st.floats().map(repr), st.integers(-10**20, 10**20).map(str),
        st.sampled_from(["", "abc", "1e400", "-0", "0x10", "1_0", "5%"]))


FUZZ_KEYS = {
    "motor": {
        "r_phase": ini_value(0.5, 5.0), "t_sample": ini_value(1e-5, 1e-3),
        "l_unaligned": ini_value(1e-3, 1e-2),
        "l_aligned": ini_value(1e-2, 3e-2), "rotor_pitch": ini_value(10.0, 90.0),
        "speed_rpm": ini_value(10.0, 600.0), "v_dc": ini_value(50.0, 600.0),
        "i_nominal": ini_value(1.0, 20.0),
    },
    "surface": {
        "kind": st.sampled_from(["analytic", "file", "table"]),
        # resolved in the fuzz directory: missing, a surface CSV, no CSV
        "path": st.sampled_from(["", "missing.csv", "surface.csv",
                                 "small.ini"]),
        "kappa": ini_value(0.0, 2.0), "i_sat": ini_value(1.0, 10.0),
        "i_max": ini_value(1.0, 10.0),
        "n_theta": ini_value(2, 16, integer=True),
        "n_current": ini_value(2, 8, integer=True),
    },
    "grid": {
        "n_theta": ini_value(1, 8, integer=True),
        "n_current": ini_value(1, 4, integer=True),
        "i_max": ini_value(1.0, 10.0),
    },
    "scenario": {
        "i_ref": ini_value(0.0, 8.0), "theta_on": ini_value(0.0, 45.0),
        "theta_off": ini_value(0.0, 45.0), "dither_v": ini_value(0.0, 30.0),
        "r_scale": ini_value(0.5, 1.5), "delta_band": ini_value(0.0, 1.0),
        "duration_cycles": st.one_of(st.integers(-3, 2).map(str),
                                     st.sampled_from(["", "two", "2.0"])),
        "seed": ini_value(0, 2**32, integer=True),
        "controller": st.sampled_from(
            ["scheduled-qlearning", "single-qcore", "delta-modulation", "pid"]),
        "online_learning": st.sampled_from(["true", "false", "maybe"]),
        "events": st.one_of(
            st.lists(st.tuples(st.integers(-10, 3000),
                               ini_value(0.0, 8.0)), max_size=3).map(
                lambda ev: ", ".join(f"{k}:{a}" for k, a in ev)),
            st.sampled_from(["oops", "1:2:3", "1.5:4"])),
    },
    "training": {
        "gamma": ini_value(0.0, 0.99), "q_weight": ini_value(0.0, 200.0),
        "r_weight": ini_value(1e-4, 1.0), "k0_x": ini_value(0.0, 200.0),
        "k0_r": ini_value(-200.0, 0.0), "online_tau": ini_value(1.0, 1e4),
        "dither_v": ini_value(0.0, 30.0),
        "tuples_per_iter": ini_value(1, 12, integer=True),
        "tol": ini_value(1e-8, 1e-2), "max_iters": ini_value(1, 100, integer=True),
        "gain_clamp": ini_value(1e-3, 0.1), "seed": ini_value(0, 100, integer=True),
    },
}


def test_fuzz_keys_cover_the_schema():
    # a key added to the schema cannot escape the fuzzing
    assert ({(section, key) for section in FUZZ_KEYS for key in FUZZ_KEYS[section]}
            == {(section, key) for section in SCHEMA for key in SCHEMA[section]})


@pytest.fixture(scope="module")
def fuzz_table(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "small.ini").write_text(SMALL)
    save_surface_csv(default_surface(MotorParams(), n_theta=5),
                     root / "surface.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", str(root / "small.ini"), "train",
                     "--out", str(root / "qtable.json")]) == EXIT_OK
    return root


def assert_exits_cleanly(args):
    """main(args) with warnings as errors ends in exit 0, 2, 3 or 4 with at
    most one line on stderr and never a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args)
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_SAFETY)
    assert len(err.splitlines()) <= 1
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@example(command="train",
         values={("training", "tuples_per_iter"): "1167133168"})
@example(command="run", values={("scenario", "i_ref"): "1e285",
                                ("scenario", "r_scale"): "1e12"})
@example(command="run", values={("scenario", "i_ref"): "1e200",
                                ("scenario", "online_learning"): "true"})
@example(command="train", values={("training", "k0_x"): "1e308",
                                  ("training", "k0_r"): "-1e308"})
@example(command="train", values={("grid", "i_max"): "1e300"})
@example(command="oracle", values={("training", "q_weight"): "1e160"})
@example(command="oracle", values={("motor", "r_phase"): "1e300"})
@example(command="oracle", values={("surface", "i_sat"): "1e-300"})
@example(command="run", values={("surface", "kind"): "file",
                                ("surface", "path"): "surface.csv"})
@given(command=st.sampled_from(["run", "train", "oracle"]),
       values=st.fixed_dictionaries({}, optional={
           (section, key): strategy for section, keys in FUZZ_KEYS.items()
           for key, strategy in keys.items()}))
def test_fuzzed_config_exits_cleanly(fuzz_table, command, values):
    # run reads [training] from the table file, train and oracle read no
    # [scenario] key
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(SMALL)
    for (section, key), value in values.items():
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][key] = str(fuzz_table / value) if key == "path" and value \
            else value
    path = fuzz_table / "fuzz.ini"
    with open(path, "w") as f:
        cp.write(f)
    args = {"run": ["run", "--table", str(fuzz_table / "qtable.json"),
                    "--out", str(fuzz_table / "out")],
            "train": ["train", "--out", str(fuzz_table / "t.json")],
            "oracle": ["oracle"]}[command]
    assert_exits_cleanly(["--config", str(path)] + args)


TABLE_KEYS = ["version", "params_hash", "cfg", "theta_nodes", "current_nodes",
              "iterations", "cores"]
CFG_KEYS = [f.name for f in fields(TableTrainConfig)]
# at most one mutation of each kind, applied in this order to a saved 4x3
# table: a cfg value of another JSON type, an iteration count, a nan core
# entry, a ragged core row or core, a node list nested one level deeper,
# and a key of the table or its cfg dropped
TABLE_MUTATIONS = st.fixed_dictionaries({}, optional={
    "cfg": st.tuples(st.sampled_from(CFG_KEYS), st.sampled_from(
        [None, True, "0.9", [], {}, [1.0], -1, 0.5, 1e308])),
    "iterations": st.tuples(st.integers(0, 3), st.integers(0, 2),
                            st.sampled_from([-1, 2.5, 0])),
    "nan": st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 5)),
    "ragged": st.tuples(st.integers(0, 3), st.sampled_from([None, 0, 2])),
    "nest": st.sampled_from(["theta_nodes", "current_nodes"]),
    "drop": st.sampled_from(TABLE_KEYS + [f"cfg.{key}" for key in CFG_KEYS]),
})


@settings(max_examples=120, deadline=None)
@example(mutations={"nest": "theta_nodes"})
@example(mutations={"nest": "current_nodes"})
@given(mutations=TABLE_MUTATIONS)
def test_fuzzed_table_file_exits_cleanly(fuzz_table, mutations):
    doc = json.loads((fuzz_table / "qtable.json").read_text())
    if "cfg" in mutations:
        key, value = mutations["cfg"]
        doc["cfg"][key] = value
    if "iterations" in mutations:
        row, col, count = mutations["iterations"]
        doc["iterations"][row][col] = count
    if "nan" in mutations:
        row, col, entry = mutations["nan"]
        doc["cores"][row][col][entry] = float("nan")
    if "ragged" in mutations:
        row, col = mutations["ragged"]
        cores = doc["cores"][row]
        (cores if col is None else cores[col]).pop()
    if "nest" in mutations:
        doc[mutations["nest"]] = [doc[mutations["nest"]]]
    if "drop" in mutations:
        *cfg, key = mutations["drop"].split(".")
        (doc["cfg"] if cfg else doc).pop(key)
    table = fuzz_table / "fuzzed.json"
    table.write_text(json.dumps(doc))
    assert_exits_cleanly(["--config", str(fuzz_table / "small.ini"), "run",
                          "--table", str(table), "--out",
                          str(fuzz_table / "out")])


# at most one mutation of each kind, applied in this order to the saved 5x8
# surface CSV (6 lines of 9 cells): every inductance set to one value, one
# cell replaced, a row given one cell more or less, a theta row repeated,
# another separator, the first lines kept, and one raw byte inserted
SURFACE_MUTATIONS = st.fixed_dictionaries({}, optional={
    "fill": st.sampled_from(["1e-320", "5e-324", "1e-300", "0.01", "1e300"]),
    "cell": st.tuples(st.integers(0, 5), st.integers(0, 8), st.sampled_from(
        ["nan", "inf", "1e400", "-0.01", "0", "1e-320", "abc", "", " 0.01 "])),
    "ragged": st.tuples(st.integers(0, 5), st.booleans()),
    "dup": st.integers(1, 5),
    "sep": st.sampled_from([";", "\t", " ", ",,"]),
    "keep": st.integers(0, 5),
    "byte": st.tuples(st.integers(0, 400),
                      st.sampled_from([b"\xff", b"\x00", b"\xc3"])),
})


@settings(max_examples=60, deadline=None)
@example(mutations={"keep": 0})                              # empty file
@example(mutations={"ragged": (3, True)})
@example(mutations={"cell": (2, 3, "nan")})
@example(mutations={"cell": (2, 3, "1e400")})
@example(mutations={"byte": (40, b"\xff")})                 # not UTF-8
@example(mutations={"dup": 2})                             # theta repeated
@example(mutations={"sep": ";"})
@example(mutations={"fill": "1e-320"})                      # subnormal L
@example(mutations={"fill": "5e-324"})       # blends to 0 between nodes
@given(mutations=SURFACE_MUTATIONS)
def test_fuzzed_surface_file_exits_cleanly(fuzz_table, mutations):
    rows = [line.split(",") for line in
            (fuzz_table / "surface.csv").read_text().splitlines()]
    if "fill" in mutations:
        rows = rows[:1] + [[row[0]] + [mutations["fill"]] * (len(row) - 1)
                           for row in rows[1:]]
    if "cell" in mutations:
        line, col, value = mutations["cell"]
        rows[line][col] = value
    if "ragged" in mutations:
        line, longer = mutations["ragged"]
        rows[line] = rows[line] + ["0.01"] if longer else rows[line][:-1]
    if "dup" in mutations:
        rows.insert(mutations["dup"], rows[mutations["dup"]])
    sep = mutations.get("sep", ",")
    lines = [sep.join(row) for row in rows][:mutations.get("keep")]
    data = "".join(line + "\n" for line in lines).encode()
    if "byte" in mutations:
        at, byte = mutations["byte"]
        data = data[:at] + byte + data[at:]
    surface = fuzz_table / "fuzzed.csv"
    surface.write_bytes(data)
    config = fuzz_table / "fuzzed_surface.ini"
    config.write_text(SMALL.replace(
        "[surface]\n", f"[surface]\nkind = file\npath = {surface}\n"))
    for command in (["oracle"], ["train", "--out", str(fuzz_table / "t.json")]):
        assert_exits_cleanly(["--config", str(config)] + command)

