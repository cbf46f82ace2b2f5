import configparser
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from srmq.cli import (EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_OK, EXIT_SAFETY,
                      REFERENCE_GAIN, default_config, load_config, main)
from srmq.plant import MotorParams, default_surface
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
        assert "speed must be positive" in capsys.readouterr().err
        assert main(["--config", str(path), "run", "--table", small_table,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "speed must be positive" in capsys.readouterr().err

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
        ("training", "dither_v", "nan", "dither"),
        ("scenario", "dither_v", "nan", "dither"),
        ("scenario", "delta_band", "-1", "delta_band"),
        ("scenario", "i_ref", "nan", "i_ref"),
        ("scenario", "r_scale", "nan", "r_scale"),
        ("scenario", "events", "100:nan", "event amplitude"),
        ("grid", "n_theta", "0", "n_theta"),
        ("grid", "n_current", "-1", "n_current"),
        ("grid", "i_max", "nan", "i_max"),
    ])
    def test_out_of_range_value_names_the_key(self, tmp_path, request, capsys,
                                              section, key, value, named):
        # the dataclass field behind [training] and [scenario] dither_v is
        # named dither
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

    def test_safety_abort_exports_partial_trace(self, tmp_path, small_cfg,
                                                runaway_table):
        out = tmp_path / "cmp"
        assert main(["--config", small_cfg, "compare", "--table",
                     runaway_table, "--out", str(out)]) == EXIT_SAFETY
        assert 0 < _csv_rows(out / "trace_aborted.csv") < SMALL_STEPS
