import configparser
import contextlib
import io
import json
import math
import operator
import os
import warnings
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from srmq import cli, lqt, sim
from srmq.cli import (EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_OK, EXIT_SAFETY,
                      REFERENCE_GAIN, SCHEMA, default_config, load_config,
                      main)
from srmq.plant import (InductanceSurface, MotorParams, ReferenceProfile,
                        default_surface, frozen_grid)
from srmq.scheduler import (TableTrainConfig, load_table, save_table,
                            train_table)
from conftest import (assert_no_child, build_augmented, kernel_vector,
                      leaves_no_child_or_fd, one_core_table, save_surface_csv)


def last_json(capsys):
    """Parse the JSON report line, skipping any fixture-setup chatter that
    capsys lumps into the same stream."""
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def run_main(args):
    """(exit code, stderr) of main(args), run in process with warnings as
    errors and its stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args)
    return code, err.getvalue()


@pytest.fixture(autouse=True)
def leaves_no_child():
    """No command a test runs leaves a child process, running or unreaped
    (TestCompareWriters checks the file descriptors too)."""
    yield
    assert_no_child()


SMALL = """
[surface]
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
    """A positive-feedback core (K = [-50, -50]) at every node of the SMALL
    surface, for the default motor."""
    G = np.zeros((3, 3))
    G[0, 2] = G[2, 0] = G[1, 2] = G[2, 1] = -50.0
    G[2, 2] = 1.0
    path = tmp_path / "runaway.json"
    surface = default_surface(MotorParams(), n_theta=4, n_current=3)
    save_table(one_core_table(MotorParams(), surface, kernel_vector(G)), path)
    return str(path)


DROP, NEST, EVERY_THIRD = "<dropped>", "<nested>", "<every third>"


@dataclass(frozen=True)
class Probe:
    """An edge-case config and how each of its commands must end.

    `ini` is the config file's text, or None for a config path that does
    not exist; {surface} in it is the path of a surface file, the analytic
    surface at kappa = 0.9.  `commands` runs in order, separated by commas:
    "oracle", "train" (into the row's table file) or "run" or "compare"
    with any flags (on that file).  The table file is the default 16x8
    table unless the row trained one, or `table` gives its raw text;
    `edits` then changes it, each edit (key, ..., key, value), with DROP
    deleting the last key, NEST nesting its value one list deeper and
    EVERY_THIRD keeping every third entry of it.  `code` is the exit code
    of every command, or a tuple of one per command.  `says` are texts of the
    stderr line of a non-zero exit, where {table} and {config} are the
    table and config paths.  With `no_out`, no command made the --out
    directory; `out_files`, where given, are the names it holds, sorted.
    """

    ini: str | None
    commands: str
    code: int | tuple
    says: tuple = ()
    edits: tuple = ()
    table: str = None
    aborted_lines: int = None   # of out/trace_aborted.csv, header included
    no_out: bool = False
    out_files: tuple = None

    def id(self):
        # an oracle row is named by its INI text and exit code alone
        what = "<no config file>" if self.ini is None else self.ini
        if self.table is not None:
            what = f"table = {self.table}"
        if self.edits:
            what = ", ".join(".".join(map(str, keys)) + " = " + _shown(value)
                             for *keys, value in self.edits)
        prefix = "" if self.commands == "oracle" else f"{self.commands}: "
        code = (",".join(map(str, self.code)) if isinstance(self.code, tuple)
                else self.code)
        return f"{prefix}{what}-{code}"


def _shown(value):
    """An edit's value as a row id shows it, cut short if it is long."""
    text = value if value in (DROP, NEST, EVERY_THIRD) else json.dumps(value)
    return text if len(text) <= 32 else text[:29] + "..."


def by_id(*probes):
    """The rows, each keyed by its own id."""
    return {probe.id(): probe for probe in probes}


# a stderr line, less the row's directory in the paths it names, is
# shorter than this
MAX_LINE = 200

NOT_FINITE_MODEL = ("error: the local model A = 1 - T R / L, B = T / L is "
                    "not finite at ")
NOT_FINITE_P = "not finite at 128 of 128 nodes, first [0, 1, 2, 3, 4]"
NOT_NUMBERS = "error: {table}: %s must hold numbers, not JSON booleans"
TABLE_MISMATCH = ("error: {table}: table was trained for motor/surface "
                  "hash ", "; retrain or fix the config\n")
SUMMARY_NODES = "; nodes (0,0), (0,1), (0,2), ...\n"
# the default surface's node lists, as a format-2 table file held them
FORMAT_2_NODES = (
    ("theta_nodes", np.linspace(0.0, MotorParams().rotor_pitch, 16).tolist()),
    ("current_nodes", np.linspace(0.0, 1.5 * MotorParams().i_nominal,
                                  8).tolist()))
SHAPE_REFUSAL = ("error: {table}: cores must have shape (n_theta, n_current, "
                 "6), 2 to 256 nodes per axis, got ")

# a value out of its key's range: train (or run, for a [scenario] key)
# exits 2 with a line naming the INI key, also where the dataclass field
# behind it has another name (dither_v is the field dither)
OUT_OF_RANGE = [
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
    ("surface", "n_theta", "0", "n_theta"),
    ("surface", "n_current", "-1", "n_current"),
    ("surface", "n_theta", "abc", "n_theta"),
    ("surface", "i_max", "abc", "i_max"),
    ("surface", "i_max", "nan", "i_max"),
    ("surface", "n_theta", "257", "n_theta"),
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
]

# rejected when the config is read, by oracle and train alike, with one line
# naming the key: no numpy warning, and no message from inside the solvers
NAMED_WHEN_READ = [
    ("surface", "kappa", "nan"), ("surface", "kappa", "-1"),
    ("surface", "i_max", "nan"), ("surface", "i_max", "0"),
    ("training", "k0_x", "nan"), ("training", "k0_r", "inf"),
    ("training", "tuples_per_iter", "0"),
    ("surface", "n_theta", "1"), ("surface", "n_current", "-3"),
    ("surface", "n_theta", "257"), ("surface", "n_current", "abc"),
    ("training", "tuples_per_iter", "100001"),
    ("training", "max_iters", "1001"), ("training", "gamma", "1"),
    ("training", "q_weight", "abc"),
]

# the CLI's exit contract on the default 16x8 grid, one row per edge case.
# Each key is the name of the test that checks its row, or its rows by case
# id; a "Class::test" key makes the test a method of that class
PROBES = {
    # the config file
    "TestConfig::test_missing_file_rejected": Probe(
        None, "oracle", EXIT_CONFIG,
        ("error: config file {config} not found\n",)),
    "TestConfig::test_unknown_key_rejected": Probe(
        "[motor]\nvoltage = 5\n", "oracle", EXIT_CONFIG,
        ("error: unknown config key motor.voltage\n",)),
    "TestConfig::test_unknown_section_rejected": Probe(
        "[inverter]\nv = 5\n", "oracle", EXIT_CONFIG,
        ("error: unknown config section [inverter]\n",)),
    "TestConfig::test_duplicate_section_rejected": Probe(
        "[surface]\nn_theta = 4\n[surface]\nn_current = 3\n", "oracle",
        EXIT_CONFIG, ("section 'surface' already exists",)),
    "TestConfig::test_bad_interpolation_names_the_key": {
        value: Probe(f"[scenario]\nevents = {value}\n", "run", EXIT_CONFIG,
                     ("config key scenario.events",))
        for value in ("5%", "%(nope)s")},
    "TestConfig::test_out_of_range_value_names_the_key": {
        f"{section}-{key}-{value}-{named}": Probe(
            f"[{section}]\n{key} = {value}\n",
            "run" if section == "scenario" else "train", EXIT_CONFIG, (named,))
        for section, key, value, named in OUT_OF_RANGE},
    "TestConfig::test_surface_and_training_keys_are_named": {
        f"{section}-{key}-{value}-{command}": Probe(
            f"[{section}]\n{key} = {value}\n", command, EXIT_CONFIG,
            ("invalid {}: {} must be".format("surface" if section == "surface"
                                             else "training parameters", key),))
        for command in ("oracle", "train")
        for section, key, value in NAMED_WHEN_READ},
    "TestConfig::test_non_positive_speed_rejected": {
        speed: Probe(f"[motor]\nspeed_rpm = {speed}\n", "train,run",
                     EXIT_CONFIG, ("speed_rpm must be positive",))
        for speed in ("0", "-60")},
    "test_exit_contract": by_id(
        # a rotor step that underflows to 0 deg, or that a rotor pitch holds
        # an infinite number of
        Probe("[motor]\nspeed_rpm = 5e-324\n", "oracle,train,run", EXIT_CONFIG,
              ("error: invalid motor parameters: speed_rpm x t_sample = "
               "5e-324 RPM x 0.0001 s turns the rotor 0.0 deg per sample",)),
        Probe("[motor]\nspeed_rpm = 1e-320\n", "oracle,train,run", EXIT_CONFIG,
              ("error: invalid motor parameters: speed_rpm x t_sample = "
               "1e-320 RPM x 0.0001 s turns the rotor 5e-324 deg per sample",)),
        Probe("[motor]\nt_sample = 5e-324\n", "oracle,train,run", EXIT_CONFIG,
              ("error: invalid motor parameters: speed_rpm x t_sample = 60.0 "
               "RPM x 5e-324 s turns the rotor 1.78e-321 deg per sample",)),
        # a motor whose shortest run, two cycles, exceeds the step budget:
        # train refuses it, since no run could use the table (the hash
        # covers the motor), and oracle, which writes no table, reports it;
        # 1.5e305 steps are too many digits to print in full
        Probe("[motor]\nspeed_rpm = 1e-300\n", "train", EXIT_CONFIG,
              ("error: invalid motor parameters: speed_rpm x t_sample = "
               "1e-300 RPM x 0.0001 s makes the shortest run (2 cycles) "
               f"1.500e+305 steps, past MAX_STEPS = {sim.MAX_STEPS}; no run "
               "could use the table\n",)),
        Probe("[motor]\nspeed_rpm = 1e-6\n", "oracle,train",
              (EXIT_OK, EXIT_CONFIG),
              ("x 0.0001 s makes the shortest run (2 cycles) 150000000000 "
               f"steps, past MAX_STEPS = {sim.MAX_STEPS};",)),
        # run and compare on such a motor name the step budget, not the
        # table's motor hash: no retrained table could serve the run
        Probe("[motor]\nspeed_rpm = 1e-300\n", "run,compare", EXIT_CONFIG,
              ("error: invalid scenario: duration must be 1 to MAX_STEPS = "
               f"{sim.MAX_STEPS} steps, got 3.750e+305 (duration_cycles x "
               "the steps per cycle from speed_rpm and t_sample)\n",),
              no_out=True),
        # a run with no conduction window fails at its metrics, after the
        # writer has formatted its trace: no trace and no file of the
        # writer's is left in --out
        Probe("[scenario]\ni_ref = 0\n", "run,compare", EXIT_CONFIG,
              ("error: trace has no conduction window after the first "
               "cycle\n",), out_files=()),
        # a plant resistance that overflows is refused with the scenario
        Probe("[scenario]\nr_scale = 1e308\n", "run", EXIT_CONFIG,
              ("error: invalid scenario: r_scale = 1e+308 scales R_phase = "
               "2.0 ohm to inf ohm",)),
        # a table's nodes are the surface's grid: there is no [grid] to set,
        # and a table file cut down to every third row of cores keeps its
        # hash but is refused for its shape before --out is made
        Probe("[grid]\nn_theta = 12\n", "train,oracle,run,compare",
              EXIT_CONFIG, ("error: unknown config section [grid]\n",),
              no_out=True),
        # a surface is a file at [surface] path or else the analytic one:
        # there is no kind to set, and a saturation current i_sat is a
        # kappa, kappa (i_nominal / i_sat)^2
        *(Probe(f"[surface]\n{key} = {value}\n", "train,oracle,run,compare",
                EXIT_CONFIG, (f"error: unknown config key surface.{key}\n",),
                no_out=True)
          for key, value in (("kind", "file"), ("kind", "analytic"),
                             ("i_sat", "5"))),
        # a path alone reads its file, here the surface at kappa = 0.9, and
        # trains its own table: the default table is refused for its hash
        Probe("[surface]\npath = {surface}\n", "run,compare", EXIT_CONFIG,
              TABLE_MISMATCH, no_out=True),
        Probe("[surface]\npath = {surface}\n", "train,run,compare",
              EXIT_OK),
        # beside a path, an analytic key is neither parsed nor used: one
        # that differs from its default text is refused before --out is
        # made, and one spelled at its default, as effective_config.ini
        # writes it, is not
        *(Probe(f"[surface]\npath = {{surface}}\n{key} = {value}\n",
                "train,oracle,run,compare", EXIT_CONFIG,
                (f"error: surface.{key} = {value!r} is set beside "
                 "surface.path; a surface file takes no other key\n",),
                no_out=True)
          for key, value in (("kappa", "-1"), ("n_theta", "abc"),
                             ("i_max", "nan"), ("n_current", "3"),
                             ("kappa", "0.50"))),
        Probe("[surface]\npath = {surface}\nkappa = 0.5\ni_max =\n"
              "n_theta = 16\nn_current = 8\n", "train,oracle,run", EXIT_OK),
        Probe("", "run,compare", EXIT_CONFIG, (
            "error: {table}: table has 6 x 8 cores, the surface's grid 16 x 8 "
            "nodes; retrain the table\n",),
              edits=(("cores", EVERY_THIRD), ("iterations", EVERY_THIRD)),
              no_out=True)),
    "TestConfig::test_bad_event_syntax_rejected": Probe(
        "[scenario]\nevents = oops\n", "run", EXIT_CONFIG,
        ("error: invalid scenario: bad event 'oops', expected "
         "step:amplitude\n",)),
    "TestConfig::test_out_of_order_events_rejected": Probe(
        "[scenario]\nevents = 100:5.0, 50:3.0\n", "run", EXIT_CONFIG,
        ("invalid scenario: step events must be in step order",)),
    "TestConfig::test_zero_duration_rejected": Probe(
        "[scenario]\nduration_cycles = 0\n", "run", EXIT_CONFIG,
        ("error: invalid scenario: duration_cycles must be at least 2 (the "
         "metrics skip the first cycle), got 0\n",)),
    "TestOracle::test_overflowing_config_exits_cleanly": by_id(
        # a Riccati solve that overflows at every node
        Probe("[training]\nq_weight = 1e160\n", "oracle", EXIT_CONVERGENCE,
              (NOT_FINITE_P,)),
        # a resistance so large that A = 1 - T R / L overflows the Riccati
        # solve
        Probe("[motor]\nr_phase = 1e300\n", "oracle", EXIT_CONVERGENCE,
              (NOT_FINITE_P,)),
        # kappa (i / i_nominal)^2 overflows to the saturated limit
        Probe("[surface]\nkappa = 1e308\n", "oracle", EXIT_OK),
        # kappa = 0 never saturates, so an overflowing i / i_nominal leaves
        # the surface finite
        Probe("[surface]\nkappa = 0\ni_max = 1e300\n", "oracle", EXIT_OK),
        # A = -inf, or B = inf: both commands refuse the model before solving
        Probe("[motor]\nr_phase = 1e300\nt_sample = 1e10\n", "oracle,train",
              EXIT_CONFIG, (NOT_FINITE_MODEL + "128 of 128 grid nodes, first "
                            "node (0,0): theta 0.0 deg, i 0.0 A, L = 0.016 "
                            "H\n",)),
        Probe("[motor]\nt_sample = 1e10\nl_unaligned = 1e-300\n"
              "l_aligned = 2e-300\n", "oracle,train", EXIT_CONFIG,
              (NOT_FINITE_MODEL + "128 of 128 grid nodes, first node (0,0): "
               "theta 0.0 deg, i 0.0 A, L = 2e-300 H\n",)),
        # without dither every node is rank deficient; the line counts the
        # failures instead of listing all 128
        Probe("[training]\ndither_v = 0\n", "train", EXIT_CONVERGENCE,
              ("training failed: 128 of 128 nodes failed: 128 x "
               "RankDeficientError", SUMMARY_NODES)),
        # node (11,2) alone is rank deficient while the other 127 train
        Probe("[training]\ndither_v = 0.5\n", "train", EXIT_CONVERGENCE,
              ("1 of 128 nodes failed: 1 x RankDeficientError (first: design "
               "matrix rank 5 < 6;", "nodes (11,2)\n")),
        # an initial gain whose training action overflows
        Probe("[training]\nk0_x = 1e308\nk0_r = -1e308\n", "train",
              EXIT_CONFIG, ("k0_x, k0_r = [1e+308, -1e+308] overflow the "
                            "training action",)),
        # a [motor] key whose field has another name (V_dc)
        Probe("[motor]\nv_dc = -1\n", "oracle", EXIT_CONFIG, ("v_dc must be",)),
        Probe("[surface]\npath = nope.csv\n", "oracle", EXIT_CONFIG,
              ("error: surface file 'nope.csv' does not exist\n",)),
        Probe("[scenario]\ntheta_off = 50\n", "run", EXIT_CONFIG,
              ("error: invalid scenario: theta_off exceeds the rotor "
               "pitch\n",)),
        # a dithered online-learning run with a resistance mismatch and two
        # amplitude steps
        Probe("[scenario]\nonline_learning = true\ndither_v = 20\nr_scale = "
              "1.1\nevents = 1250:5.5, 2500:3.0\n", "run --format jsonl",
              EXIT_OK),
        # a 20 A pulse trips the 15 A safety bound at step 283: the partial
        # trace holds the header and 284 rows
        Probe("[scenario]\ni_ref = 20\n", "run", EXIT_SAFETY,
              ("safety abort: current", "at step 283\n"), aborted_lines=285),
        # a learning run on a table whose tracking weight overflows the stage
        # cost at the first learning sample
        Probe("[scenario]\nonline_learning = true\n", "run", EXIT_CONFIG,
              ("error: online learning stage cost overflowed at step 278: the "
               "tracking weights are too large\n",),
              edits=(("cfg", "q_weight", 1e308),)),
        # the file `train` writes with online_tau = 1e200 (the start of the
        # RLS covariance, which no hash covers): the first accepted update's
        # covariance overflows, and nothing of it is written
        Probe("[scenario]\nonline_learning = true\ndither_v = 20\n", "run",
              EXIT_CONFIG, ("error: online update of core (3,2) overflowed: ",
                            "(the table's online_tau is 1e+200)\n"),
              edits=(("cfg", "online_tau", 1e200),)),
        Probe("", "run", EXIT_CONFIG, (SHAPE_REFUSAL + "(1, 16, 8, 6)\n",),
              edits=(("cores", NEST),)),
        # a dropped cfg key must not fall back to the dataclass default
        Probe("", "run", EXIT_CONFIG, ("error: {table}: cfg.gain_clamp is "
                                       "missing",),
              edits=(("cfg", "gain_clamp", DROP),)),
        # JSON true is no number, though Python's bool subclasses int: a clamp
        # of true would act as 1.0
        *(Probe("", "run", EXIT_CONFIG, (NOT_NUMBERS % keys[0],),
                edits=(keys + (True,),))
          for keys in (("cores", 0, 0), ("cores", 0, 0, 0),
                       ("iterations", 0, 0)))),
    # with T = 1e306 s, T R / L overflows where L is below 11.1 mH
    "TestOracle::test_non_finite_local_model_names_the_first_node": Probe(
        "[motor]\nt_sample = 1e306\n", "oracle", EXIT_CONFIG,
        (NOT_FINITE_MODEL + "80 of 128 grid nodes, first node (0,7): "
         "theta 0.0 deg, i 7.5 A, L = 0.010705882352941176 H\n",)),
    "TestTrain::test_nonconvergence_exits_3": Probe(
        "[training]\nmax_iters = 1\ntol = 1e-16\n", "train", EXIT_CONVERGENCE,
        ("training failed: 128 of 128 nodes failed: 128 x QTrainError "
         "(first: gain did not settle within 1 iterations", SUMMARY_NODES)),
    # a training current near 1e300 A is printed in exponent form
    "TestTrain::test_safety_abort_message_stays_short": {
        ini: Probe(ini, "train", EXIT_CONVERGENCE,
                   ("128 x SafetyAbortError", "e+29",
                    "exceeded the 15.00 A safety bound"))
        for ini in ("[motor]\nr_phase = 1e300\n", "[surface]\ni_max = 1e300\n")},
    "TestTrain::test_undiscounted_training_rejected": Probe(
        "[training]\ngamma = 1.0\n", "train", EXIT_CONFIG,
        ("gamma < 1", "Bellman column vanishes")),
    # the reference is far beyond the safety bound, the current is not:
    # the first learning sample's stage cost overflows
    "TestRun::test_online_cost_overflow_names_the_step": Probe(
        "[scenario]\ni_ref = 1e200\nonline_learning = true\n", "run",
        EXIT_CONFIG, ("error: online learning stage cost overflowed at step "
                      "278: the reference 1e+200 A is beyond the 15.00 A "
                      "safety bound\n",)),
    # a table trained for another motor or another surface
    "TestRun::test_motor_mismatch_exits_2": Probe(
        "[motor]\nr_phase = 2.5\n", "run", EXIT_CONFIG, TABLE_MISMATCH,
        no_out=True),
    "TestRun::test_surface_mismatch_exits_2": {
        command: Probe("[surface]\nkappa = 0.95\n", command, EXIT_CONFIG,
                       TABLE_MISMATCH, no_out=True)
        for command in ("run", "compare")},
    # table files that do not hold what the table needs
    "TestRun::test_corrupted_table_exits_2": Probe(
        "", "run", EXIT_CONFIG, (
            "error: {table}: malformed table file (Expecting property name "
            "enclosed in double quotes: line 1 column 2 (char 1))\n",),
        table="{broken"),
    "TestRun::test_version_1_table_exits_2_with_retrain": Probe(
        "", "run", EXIT_CONFIG, ("error: {table}: table format version 1 is "
                                 "not 3; retrain the table\n",),
        edits=(("version", 1), ("cfg", "tau", 1e6))),
    # a table file as format 2 wrote it, with its node lists
    "TestRun::test_version_2_table_exits_2_with_retrain": Probe(
        "", "run,compare", EXIT_CONFIG, ("error: {table}: table format "
                                         "version 2 is not 3; retrain the "
                                         "table\n",),
        edits=(("version", 2), *FORMAT_2_NODES), no_out=True),
    "TestRun::test_non_positive_G_uu_table_exits_2": Probe(
        "", "run", EXIT_CONFIG, ("error: {table}: a core has a non-positive "
                                 "G_uu",), edits=(("cores", 1, 2, 5, -1.0),)),
    "TestRun::test_unchecked_table_field_exits_2": {
        case: Probe("", "run", EXIT_CONFIG, ("error: {table}: " + says,),
                    edits=(edit,))
        for case, edit, says in (
            ("iterations-value0-iterations must be", ("iterations", [[-5]]),
             "iterations must be a non-negative integer per core"),
            ("iterations-value1-iterations must be",
             ("iterations", [[-1] * 8] * 16),
             "iterations must be a non-negative integer per core"),
            ("iterations-value2-iterations must be",
             ("iterations", [[1.5] * 8] * 16),
             "iterations must be a non-negative integer per core"),
            ("K0-value3-K0 must be the two gains",
             ("cfg", "K0", [100.0, -100.0, 5.0]), "K0 must be the two gains"),
            # cores of 5 entries, and tables of 257 current columns or of
            # one theta row: a table's axes are a surface's, of 2 to 256
            # nodes
            ("cores-value4-cores must have shape",
             ("cores", [[[1.0] * 5] * 8] * 16), "cores must have shape"),
            ("cores-value6-cores must have shape",
             ("cores", [[[1.0] * 6] * 257] * 2),
             SHAPE_REFUSAL[len("error: {table}: "):] + "(2, 257, 6)\n"),
            ("cores-value7-cores must have shape",
             ("cores", [[[1.0] * 6] * 8]),
             SHAPE_REFUSAL[len("error: {table}: "):] + "(1, 8, 6)\n"))},
    # gain_clamp's row is one of test_overflowing_config_exits_cleanly
    "TestRun::test_table_without_a_cfg_key_exits_2": {
        f.name: Probe("", "run", EXIT_CONFIG, (f"error: {{table}}: cfg.{f.name} "
                                               "is missing",),
                      edits=(("cfg", f.name, DROP),))
        for f in fields(TableTrainConfig) if f.name != "gain_clamp"},
    "TestRun::test_table_boolean_in_integer_field_exits_2": {
        f"values{n}-{named}": Probe(
            "", "run", EXIT_CONFIG, (f"error: {{table}}: {named} must be",),
            edits=tuple(("cfg", key, value) for key, value in edits))
        for n, (edits, named) in enumerate((
            ((("seed", True),), "seed"), ((("seed", False),), "seed"),
            ((("max_iters", True),), "max_iters"),
            ((("seed", True), ("max_iters", True)), "seed")))},
    "TestRun::test_table_boolean_in_number_field_exits_2": {
        f"values{n}-{named}": Probe(
            "", "run", EXIT_CONFIG, (f"error: {{table}}: {named} must be",),
            edits=(("cfg", key, value),))
        for n, (key, value, named) in enumerate((
            ("gain_clamp", True, "gain_clamp"), ("q_weight", True, "q_weight"),
            ("dither", False, "dither"), ("K0", [True, -100.0], "k0_x")))},
}


@pytest.fixture(scope="module")
def default_table(tmp_path_factory):
    """The default 16x8 table file, trained once for the module."""
    path = tmp_path_factory.mktemp("default") / "qtable.json"
    assert run_main(["train", "--out", str(path)]) == (EXIT_OK, "")
    return path


def check_probe(probe, tmp_path, default_table):
    """Each command of the row, in process with warnings as errors, ends in
    the row's exit code, and a non-zero exit prints exactly one short
    stderr line holding the row's texts."""
    config, table, out = (tmp_path / "probe.ini", tmp_path / "qtable.json",
                          tmp_path / "out")
    if probe.ini is not None:
        surface = tmp_path / "surface.csv"
        if "{surface}" in probe.ini:
            save_surface_csv(default_surface(MotorParams(), kappa=0.9), surface)
        config.write_text(probe.ini.replace("{surface}", str(surface)))
    contents = default_table.read_text() if probe.table is None else probe.table
    if probe.edits:
        doc = json.loads(contents)
        for *keys, last, value in probe.edits:
            node = reduce(operator.getitem, keys, doc)
            if value == DROP:
                del node[last]
            elif value == EVERY_THIRD:
                node[last] = node[last][::3]
            else:
                node[last] = [node[last]] if value == NEST else value
        contents = json.dumps(doc)
    table.write_text(contents)
    commands = [command.split() for command in probe.commands.split(",")]
    codes = (probe.code if isinstance(probe.code, tuple)
             else [probe.code] * len(commands))
    for (command, *flags), want in zip(commands, codes, strict=True):
        args = {"oracle": [], "train": ["--out", str(table)]}.get(
            command, ["--table", str(table), "--out", str(out)])
        code, err = run_main(["--config", str(config), command, *args,
                              *flags])
        assert code == want, (command, err)
        if code == EXIT_OK:
            assert err == ""
            continue
        assert err.splitlines() == [err.strip()]
        assert len(err.replace(str(tmp_path), "")) < MAX_LINE, err
        for text in probe.says:
            assert text.replace("{table}", str(table)).replace(
                "{config}", str(config)) in err
    if probe.aborted_lines is not None:
        assert len((out / "trace_aborted.csv").read_text().splitlines()) \
            == probe.aborted_lines
    if probe.no_out:
        assert not out.exists()
    if probe.out_files is not None:
        assert tuple(sorted(p.name for p in out.iterdir())) == probe.out_files


def probe_test(rows):
    """A test method checking one PROBES row, or each of a dict of rows as
    one case named by its key."""
    if isinstance(rows, Probe):
        def test(self, tmp_path, default_table):
            check_probe(rows, tmp_path, default_table)
        return test

    @pytest.mark.parametrize("probe", [pytest.param(probe, id=case)
                                       for case, probe in rows.items()])
    def test(self, tmp_path, default_table, probe):
        check_probe(probe, tmp_path, default_table)
    return test


def probe_tests(cls):
    """`cls` with the test of each PROBES key "<cls name>::<test name>"."""
    for name, rows in PROBES.items():
        owner, _, test = name.partition("::")
        if owner == cls.__name__:
            setattr(cls, test, probe_test(rows))
    return cls


@pytest.mark.parametrize("probe", [pytest.param(probe, id=case) for case, probe
                                   in PROBES["test_exit_contract"].items()])
def test_exit_contract(tmp_path, default_table, probe):
    check_probe(probe, tmp_path, default_table)


@probe_tests
class TestConfig:
    def test_defaults_reproduce_nominal_study(self):
        cp = default_config()
        assert cp["motor"]["r_phase"] == "2.0"
        assert cp["training"]["gamma"] == "0.9"
        assert cp["scenario"]["i_ref"] == "4.0"

    def test_schema_defaults_are_the_dataclass_defaults(self):
        # SCHEMA's default texts and the dataclass and function defaults
        # are written separately; the zero-flag run must build the same
        # values the library defaults give
        cp = default_config()
        params = cli._motor(cp)
        assert params == MotorParams()
        cfg = cli._train_cfg(cp)
        assert cfg == TableTrainConfig()
        surface, want = cli._surface(cp, params), default_surface(MotorParams())
        for grid in ("theta_grid", "current_grid", "values"):
            assert getattr(surface, grid).tobytes() == \
                getattr(want, grid).tobytes()
        scenario = cli._scenario(cp, params, surface)
        default = sim.Scenario(params, surface, ReferenceProfile())
        assert scenario.steps == default.steps
        for f in fields(sim.Scenario):
            if f.name not in ("surface", "duration"):
                assert getattr(scenario, f.name) == getattr(default, f.name)

    @staticmethod
    def oracle_on_surface_file(tmp_path, text):
        """(exit code, stderr) of `srmq oracle` on a surface file."""
        surface = tmp_path / "surface.csv"
        surface.write_text(text)
        path = tmp_path / "file.ini"
        path.write_text(f"[surface]\npath = {surface}\n")
        return run_main(["--config", str(path), "oracle"])

    def test_malformed_surface_file_names_the_path(self, tmp_path):
        save_surface_csv(default_surface(MotorParams()), tmp_path / "good.csv")
        header, *rows = (tmp_path / "good.csv").read_text().splitlines()
        theta, first, rest = rows[3].split(",", 2)
        last, *top = rows[-1].split(",")
        cases = {   # (row 3 or the whole file, what the message says)
            "no number": (f"{theta},abc,{rest}", "'abc'"),
            "ragged row": (f"{theta},{rest}", "columns"),
            "empty body": ([header], "needs a header and >= 2 rows"),
            "aperiodic": ([header] + rows[:-1] + [",".join(
                [last] + [repr(float(v) / 2) for v in top])], "periodic"),
            "nan angle": (f"nan,{first},{rest}", "theta_grid must be finite"),
            "inf angle": (f"inf,{first},{rest}", "theta_grid must be finite"),
            "one current": ([",".join(line.split(",")[:2])
                             for line in [header] + rows],
                            "current_grid needs at least 2 nodes"),
        }
        for case, (lines, says) in cases.items():
            if isinstance(lines, str):
                lines = [header] + rows[:3] + [lines] + rows[4:]
            code, err = self.oracle_on_surface_file(tmp_path,
                                                    "\n".join(lines) + "\n")
            assert code == EXIT_CONFIG, case
            assert err.splitlines() == [err.strip()], case
            assert err.startswith(f"error: {tmp_path / 'surface.csv'}: "), case
            assert says in err, case

    @pytest.mark.parametrize("n_theta", [256, 257])
    def test_surface_file_past_max_axis_nodes_names_the_file(self, tmp_path,
                                                             n_theta):
        # a surface file's grid is its table's, so a file finer than
        # MAX_AXIS_NODES per axis is refused, naming the file, before any
        # core is trained or solved
        theta = np.linspace(0.0, MotorParams().rotor_pitch, n_theta)
        text = "theta_deg,0.0,15.0\n" + "".join(
            f"{t!r},0.016,0.016\n" for t in theta.tolist())
        code, err = self.oracle_on_surface_file(tmp_path, text)
        if n_theta == 256:
            assert (code, err) == (EXIT_OK, "")
            return
        table = tmp_path / "qtable.json"
        train = run_main(["--config", str(tmp_path / "file.ini"), "train",
                          "--out", str(table)])
        for code, err in ((code, err), train):
            assert code == EXIT_CONFIG
            assert err == (f"error: {tmp_path / 'surface.csv'}: theta_grid "
                           "needs at least 2 nodes and at most 256, got 257\n")
        assert not table.exists()

    def test_surface_file_with_colliding_angle_offsets_names_the_file(
            self, tmp_path):
        # a one-pitch grid on which 10 and the float after it lie at the
        # same offset, 40 deg, from the first node -30: the second node
        # would locate onto the first, so the file is refused in one line
        theta = [-30.0, 10.0, math.nextafter(10.0, math.inf), 15.0]
        text = "theta_deg,0.0,15.0\n" + "".join(
            f"{t!r},0.016,0.016\n" for t in theta)
        code, err = self.oracle_on_surface_file(tmp_path, text)
        assert code == EXIT_CONFIG
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: {tmp_path / 'surface.csv'}: theta_grid "
                              f"nodes 10.0 and {theta[2]!r} deg lie at the "
                              "same offset 40.0 deg")

    @pytest.mark.parametrize("scale", [30 / 45, 8.0])
    def test_surface_file_off_the_rotor_pitch_names_the_span(self, tmp_path,
                                                             scale):
        # a 0-30 deg grid, or one in electrical degrees (0-360), on the
        # 45 deg motor
        s = default_surface(MotorParams())
        save_surface_csv(s, tmp_path / "pitch.csv")
        code, err = self.oracle_on_surface_file(
            tmp_path, (tmp_path / "pitch.csv").read_text())
        assert code == EXIT_OK
        save_surface_csv(InductanceSurface(s.theta_grid * scale,
                                           s.current_grid, s.values),
                         tmp_path / "off.csv")
        code, err = self.oracle_on_surface_file(
            tmp_path, (tmp_path / "off.csv").read_text())
        assert code == EXIT_CONFIG
        assert err.splitlines() == [err.strip()]
        assert str(tmp_path / "surface.csv") in err
        assert f"spans {45 * scale!r} deg" in err
        assert "[motor] rotor_pitch is 45.0" in err

    def test_path_alone_reads_its_file(self, tmp_path):
        # [surface] path alone reads the file: a 4 x 3 file of the surface
        # at kappa = 0.9 trains that surface's table byte for byte, not the
        # analytic table of the section's default keys
        params = MotorParams()
        surface = default_surface(params, n_theta=4, n_current=3, kappa=0.9)
        save_surface_csv(surface, tmp_path / "surface.csv")
        (tmp_path / "file.ini").write_text(
            f"[surface]\npath = {tmp_path / 'surface.csv'}\n")
        (tmp_path / "analytic.ini").write_text(
            "[surface]\nn_theta = 4\nn_current = 3\n")
        for name in ("file", "analytic"):
            assert run_main(["--config", str(tmp_path / f"{name}.ini"),
                             "train", "--out", str(tmp_path / f"{name}.json")]
                            ) == (EXIT_OK, "")
        save_table(train_table(params, surface), tmp_path / "want.json")
        table = (tmp_path / "file.json").read_bytes()
        assert table == (tmp_path / "want.json").read_bytes()
        assert table != (tmp_path / "analytic.json").read_bytes()

    def test_step_budget_rejects_before_the_loop(self, tmp_path, monkeypatch):
        # 801 cycles of 1250 steps are 1001250 steps; the run is refused by
        # sim.MAX_STEPS before the loop allocates its trace arrays
        def must_not_run(*args):
            raise AssertionError("the closed loop was started")

        monkeypatch.setattr(sim, "run_closed_loop", must_not_run)
        path = tmp_path / "slow.ini"
        path.write_text(SMALL.replace("duration_cycles = 2",
                                      "duration_cycles = 801"))
        table = str(tmp_path / "slow.json")
        assert run_main(["--config", str(path), "train", "--out", table]) \
            == (EXIT_OK, "")
        code, err = run_main(["--config", str(path), "run", "--table", table,
                              "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert err.splitlines() == [err.strip()]
        assert f"MAX_STEPS = {sim.MAX_STEPS}" in err
        for key in ("duration_cycles", "speed_rpm", "t_sample"):
            assert key in err
        assert not (tmp_path / "out").exists()

    def test_single_cycle_rejected_before_the_loop(self, tmp_path, small_table,
                                                   monkeypatch):
        # the metrics skip the first cycle, so a one-cycle run would be
        # simulated and then thrown away
        calls = []
        monkeypatch.setattr(sim, "run_closed_loop",
                            lambda *args: calls.append(args))
        path = tmp_path / "one.ini"
        path.write_text(SMALL.replace("duration_cycles = 2",
                                      "duration_cycles = 1"))
        code, err = run_main(["--config", str(path), "run", "--table",
                              small_table, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert err.splitlines() == [err.strip()]
        assert "duration_cycles must be at least 2" in err
        assert calls == []
        assert not (tmp_path / "out").exists()

@probe_tests
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

    def test_json_nodes_hold_the_solvers_numbers(self, small_cfg, capsys):
        # every node of the SMALL grid, row-major: its grid position, its
        # frozen model, the closed-form P and K and the policy iteration
        assert main(["--config", small_cfg, "--json", "oracle"]) == EXIT_OK
        nodes = last_json(capsys)["nodes"]
        params = MotorParams()
        surface = default_surface(params, n_theta=4, n_current=3)
        theta, current = surface.theta_grid, surface.current_grid
        L, A, B = frozen_grid(params, surface)
        model = build_augmented(A, B)
        P = lqt.are_closed_form(model)
        K = lqt.optimal_gain(P, model)
        pi = lqt.policy_iteration_model_based(model, (100.0, -100.0))
        assert len(nodes) == 12
        for k, node in enumerate(nodes):
            a, b = divmod(k, 3)
            assert list(node) == ["row", "col", "theta_deg", "i_A", "L_H",
                                  "A", "B", "P", "K", "pi_iterations",
                                  "pi_gap"]
            assert [type(node[key]) for key in ("row", "col", "theta_deg",
                                                "i_A", "pi_iterations")] \
                == [int, int, float, float, int]
            assert (node["row"], node["col"]) == (a, b)
            assert (node["theta_deg"], node["i_A"]) == (theta[a], current[b])
            assert (node["L_H"], node["A"], node["B"]) == (L[k], A[k], B[k])
            assert node["P"] == P[k].tolist() and node["K"] == K[k].tolist()
            assert node["pi_iterations"] == pi.iterations[k]
            assert node["pi_gap"] == np.linalg.norm(pi.K[k] - K[k])

    def test_zero_state_weight_gives_zero_gains(self, tmp_path, capsys):
        path = tmp_path / "zq.ini"
        path.write_text(SMALL + "\n[training]\nq_weight = 0.0\n")
        assert main(["--config", str(path), "--json", "oracle"]) == EXIT_OK
        report = last_json(capsys)
        for node in report["nodes"]:
            assert node["K"] == pytest.approx([0.0, 0.0], abs=1e-9)

    @pytest.mark.parametrize("k0_x", ["-500", "200"])
    def test_non_stabilizing_start_names_the_first_node(self, tmp_path,
                                                        small_cfg, capsys,
                                                        k0_x):
        # the first row-major node whose loop the initial gain destabilizes
        assert main(["--config", small_cfg, "--json", "oracle"]) == EXIT_OK
        K0 = [float(k0_x), -100.0]
        failing = [(n["row"], n["col"]) for n in last_json(capsys)["nodes"]
                   if not lqt.is_stabilizing(build_augmented(n["A"], n["B"]),
                                             K0)]
        assert failing
        path = tmp_path / "k0.ini"
        path.write_text(SMALL + f"\n[training]\nk0_x = {k0_x}\n")
        code, err = run_main(["--config", str(path), "oracle"])
        assert code == EXIT_CONFIG
        assert err.splitlines() == [err.strip()]
        assert "not stabilizing" in err and "k0_x" in err
        assert f"at {len(failing)} of 12 nodes" in err
        assert "first node ({},{})".format(*failing[0]) in err


@probe_tests
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


@probe_tests
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

    def test_file_surface_effective_config_reruns(self, tmp_path):
        # a file-surface run's effective_config.ini spells every other
        # [surface] key out at its default beside the path: it loads, and
        # its rerun writes the same trace bytes
        surface = tmp_path / "surface.csv"
        save_surface_csv(default_surface(MotorParams(), n_theta=4,
                                         n_current=3, kappa=0.9), surface)
        config = tmp_path / "file.ini"
        config.write_text(SMALL.replace("[surface]\nn_theta = 4\nn_current = 3\n",
                                        f"[surface]\npath = {surface}\n"))
        table = str(tmp_path / "qtable.json")
        assert run_main(["--config", str(config), "train", "--out", table]) \
            == (EXIT_OK, "")
        first, again = tmp_path / "first", tmp_path / "again"
        for ini, out in ((config, first),
                         (first / "effective_config.ini", again)):
            assert run_main(["--config", str(ini), "run", "--table", table,
                             "--out", str(out)]) == (EXIT_OK, "")
        effective = load_config(str(first / "effective_config.ini"))
        assert dict(effective["surface"]) == {
            key: spec[0] for key, spec in SCHEMA["surface"].items()
        } | {"path": str(surface)}
        trace = "trace_scheduled-qlearning.csv"
        assert (again / trace).read_bytes() == (first / trace).read_bytes()

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


class TestCompareWriters:
    """run and compare share one driver, which runs and measures every
    controller before it exports any trace, so the scheduled run's writer
    formats its trace while delta modulation runs. Every exit of either
    command writes the files and bytes that the serial export writes, and
    leaves no process or descriptor behind."""

    @staticmethod
    def invoke(tmp_path, table, monkeypatch, split, command, *flags):
        """(exit code, {file name: bytes} in --out or None, forks) of one
        run or compare with the default config, whose runs fork a writer
        each whatever this machine's CPUs and threads (split) or none."""
        forks, fork = [], os.fork
        out = tmp_path / f"{command}-{'split' if split else 'serial'}"
        with monkeypatch.context() as m:
            if split:
                m.setattr(sim, "_cpus", lambda: 2)
                m.setattr(sim, "_os_threads", lambda: 1)
            else:
                m.setattr(sim, "_parallel_export", lambda n: False)

            def counted():
                pid = fork()
                if pid:
                    forks.append(pid)
                return pid
            m.setattr(os, "fork", counted)
            with leaves_no_child_or_fd():
                code, _ = run_main([command, "--table", str(table),
                                    "--out", str(out), *flags])
        files = ({p.name: p.read_bytes() for p in out.iterdir()}
                 if out.exists() else None)
        return code, files, len(forks)

    def both(self, tmp_path, table, monkeypatch, command, *flags):
        """The command split and serial: the exit code, the files of each,
        and the writers the split one forked."""
        code, files, forks = self.invoke(tmp_path, table, monkeypatch,
                                         True, command, *flags)
        serial = self.invoke(tmp_path, table, monkeypatch, False, command,
                             *flags)
        assert serial[0] == code
        assert serial[2] == 0
        return code, files, serial[1], forks

    @staticmethod
    def reports(files):
        """The run's metrics.json or compare's compare.json, bar the --out
        paths."""
        if "metrics.json" in files:
            doc = json.loads(files["metrics.json"])
            del doc["trace"], doc["config"]
            return doc
        doc = json.loads(files["compare.json"])
        for run in doc["controllers"].values():
            run.pop("trace")
        return doc

    @pytest.mark.parametrize(("command", "fmt"), [
        ("compare", "csv"), ("compare", "jsonl"), ("run", "csv"),
        ("run", "jsonl")], ids=["csv", "jsonl", "run-csv", "run-jsonl"])
    def test_traces_match_the_serial_export(self, tmp_path, default_table,
                                            monkeypatch, command, fmt):
        code, files, serial, forks = self.both(
            tmp_path, default_table, monkeypatch, command, "--format", fmt)
        controllers = ["scheduled-qlearning", "delta-modulation"]
        reports = {"compare.json"}
        if command == "run":
            controllers = controllers[:1]
            reports = {"metrics.json", "effective_config.ini"}
        assert (code, forks) == (EXIT_OK, len(controllers))
        traces = {f"trace_{c}.{fmt}" for c in controllers}
        assert set(files) == set(serial) == traces | reports
        for name in traces:
            assert files[name] == serial[name]
        assert self.reports(files) == self.reports(serial)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_run_and_compare_agree(self, tmp_path, default_table,
                                   monkeypatch, fmt):
        # the scheduled run of compare is the run of the same config: the
        # same trace bytes and the same metrics
        files = {command: self.invoke(tmp_path, default_table, monkeypatch,
                                      True, command, "--format", fmt)[1]
                 for command in ("run", "compare")}
        name = f"trace_scheduled-qlearning.{fmt}"
        assert files["run"][name] == files["compare"][name]
        compared = self.reports(files["compare"])["controllers"]
        assert self.reports(files["run"]) == compared["scheduled-qlearning"]

    def test_delta_abort_keeps_the_scheduled_trace(self, tmp_path,
                                                   default_table, monkeypatch):
        # delta modulation at full positive voltage runs the current past
        # the safety bound: the scheduled trace, measured before the abort,
        # is written beside the aborted one
        monkeypatch.setattr(sim, "delta_modulation_step",
                            lambda x, r, V_dc, band: V_dc)
        code, files, serial, forks = self.both(tmp_path, default_table,
                                               monkeypatch, "compare")
        assert (code, forks) == (EXIT_SAFETY, 2)
        assert files == serial
        assert set(files) == {"trace_scheduled-qlearning.csv",
                              "trace_aborted.csv"}

    def test_failed_scheduled_metrics_write_nothing(self, tmp_path,
                                                    default_table,
                                                    monkeypatch):
        def fails(trace, scenario):
            raise ValueError("no metrics")
        monkeypatch.setattr(sim, "compute_metrics", fails)
        for command in ("compare", "run"):
            code, files, serial, forks = self.both(tmp_path, default_table,
                                                   monkeypatch, command)
            assert (code, forks) == (EXIT_CONFIG, 1)
            assert files == serial == {}


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
        # resolved in the fuzz directory: missing, a surface CSV, no CSV
        "path": st.sampled_from(["", "missing.csv", "surface.csv",
                                 "small.ini"]),
        "kappa": ini_value(0.0, 2.0), "i_max": ini_value(1.0, 10.0),
        "n_theta": ini_value(2, 16, integer=True),
        "n_current": ini_value(2, 8, integer=True),
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
    assert run_main(["--config", str(root / "small.ini"), "train",
                     "--out", str(root / "qtable.json")]) == (EXIT_OK, "")
    return root


def assert_exits_cleanly(args):
    """main(args) with warnings as errors ends in exit 0, 2, 3 or 4 with at
    most one line on stderr and never a traceback."""
    code, err = run_main(args)
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
@example(command="train", values={("surface", "i_max"): "1e300"})
@example(command="oracle", values={("training", "q_weight"): "1e160"})
@example(command="oracle", values={("motor", "r_phase"): "1e300"})
@example(command="oracle", values={("surface", "kappa"): "1e308"})
@example(command="run", values={("surface", "path"): "surface.csv"})
@example(command="train", values={("surface", "path"): "surface.csv",
                                  ("surface", "n_theta"): "4"})
@example(command="run", values={("motor", "speed_rpm"): "5e-324"})
@example(command="run", values={("motor", "speed_rpm"): "1e-320"})
@example(command="run", values={("motor", "t_sample"): "5e-324"})
@given(command=st.sampled_from(["run", "train", "oracle"]),
       values=st.fixed_dictionaries({}, optional={
           (section, key): strategy for section, keys in FUZZ_KEYS.items()
           for key, strategy in keys.items()}))
def test_fuzzed_config_exits_cleanly(fuzz_table, command, values):
    # run reads [training] from the table file, train and oracle read no
    # [scenario] key; a run that sets a [motor] or [surface] key runs on a
    # table trained from its config, as the fuzz table would not match it;
    # a surface file takes SMALL's grid keys only where they are drawn
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(SMALL)
    if values.get(("surface", "path")):
        cp.remove_section("surface")
    for (section, key), value in values.items():
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][key] = str(fuzz_table / value) if key == "path" and value \
            else value
    path = fuzz_table / "fuzz.ini"
    with open(path, "w") as f:
        cp.write(f)
    table = fuzz_table / "qtable.json"
    if command == "run" and {"motor", "surface"} & {s for s, _ in values}:
        table = fuzz_table / "trained.json"
        table.unlink(missing_ok=True)
        assert_exits_cleanly(["--config", str(path), "train",
                              "--out", str(table)])
    args = {"run": ["run", "--table", str(table),
                    "--out", str(fuzz_table / "out")],
            "train": ["train", "--out", str(fuzz_table / "t.json")],
            "oracle": ["oracle"]}[command]
    assert_exits_cleanly(["--config", str(path)] + args)


TABLE_KEYS = ["version", "params_hash", "cfg", "iterations", "cores"]
CFG_KEYS = [f.name for f in fields(TableTrainConfig)]
# at most one mutation of each kind, applied in this order to a saved 4x3
# table: a cfg value of another JSON type, an iteration count, a nan core
# entry, a ragged core row or core, the cores or the iteration counts
# nested one level deeper, and a key of the table or its cfg dropped
TABLE_MUTATIONS = st.fixed_dictionaries({}, optional={
    "cfg": st.tuples(st.sampled_from(CFG_KEYS), st.sampled_from(
        [None, True, "0.9", [], {}, [1.0], -1, 0.5, 1e308])),
    "iterations": st.tuples(st.integers(0, 3), st.integers(0, 2),
                            st.sampled_from([-1, 2.5, 0])),
    "nan": st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 5)),
    "ragged": st.tuples(st.integers(0, 3), st.sampled_from([None, 0, 2])),
    "nest": st.sampled_from(["cores", "iterations"]),
    "drop": st.sampled_from(TABLE_KEYS + [f"cfg.{key}" for key in CFG_KEYS]),
})


@settings(max_examples=120, deadline=None)
@example(mutations={"nest": "cores"})
@example(mutations={"nest": "iterations"})
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
        "[surface]\nn_theta = 4\nn_current = 3\n",
        f"[surface]\npath = {surface}\n"))
    for command in (["oracle"], ["train", "--out", str(fuzz_table / "t.json")]):
        assert_exits_cleanly(["--config", str(config)] + command)

