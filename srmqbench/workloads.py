"""The three benchmark workloads.

An op is one or two ``srmq`` CLI commands run in-process through
``srmq.cli.main``.  Each op reads an INI config generated here from the
workload seed and the op index; the program only ever sees that config.
Every op's output is checked, and a check that fails makes the op count as
failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from srmq import scheduler
from srmq.cli import REFERENCE_GAIN

STEPS_PER_CYCLE = 1250        # default machine: 45 deg pitch, 60 rpm, 0.1 ms
AMPLITUDE_A = (2.5, 6.0)      # pulse amplitudes, inside the 0-7.5 A table grid

# Output limits.  Criteria 5 and 7 of the acceptance suite for the frozen
# table; the adapt-online limit is twice the worst settled RMSE the seed
# code gave over 40 drawn ops (3.9 % of the mean amplitude); the oracle gap
# tolerance is 25 times the worst gap over 40 training seeds (3.8e-7).
NOMINAL_RMSE_PCT = 2.0
NOMINAL_DK_FINAL = 1e-3
RIPPLE_RATIO_MAX = 0.25
ADAPT_RMSE_PCT = 8.0
ORACLE_GAP_MAX = 1e-5
REFERENCE_GAIN_TOL = 0.15


class CheckError(Exception):
    """An op's output is wrong."""


def _rng(seed: int, stream: int, index: int):
    return np.random.default_rng([seed, stream, index])


def _ini(sections: dict) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
    return "\n".join(lines) + "\n"


def parse_report(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _rows(path) -> int:
    with open(path) as f:
        return sum(1 for _ in f)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Workload:
    """One workload: inputs from a seed, CLI commands, output checks."""

    name = ""
    why = ""
    uses_table = True      # setup trains and saves the table the ops read

    def inputs(self, seed: int, stream: int, index: int) -> dict:
        raise NotImplementedError

    def config(self, inputs: dict) -> str:
        raise NotImplementedError

    def commands(self, config_path: Path, work: Path) -> list:
        raise NotImplementedError

    def check(self, inputs: dict, reports: list, work: Path) -> dict:
        """Raise CheckError on a wrong output; return the accuracy figures."""
        raise NotImplementedError


class CompareNominal(Workload):
    name = "compare-nominal"
    why = ("the paper's headline experiment: the scheduled read path "
           "(locate + scheduled_gain) beside delta modulation and CSV export, "
           "which bypass the scheduler")
    steps = 5 * STEPS_PER_CYCLE

    def inputs(self, seed, stream, index):
        rng = _rng(seed, stream, index)
        return {"i_ref": round(float(rng.uniform(*AMPLITUDE_A)), 4),
                "theta_on": round(float(rng.uniform(5.0, 15.0)), 3),
                "theta_off": round(float(rng.uniform(30.0, 40.0)), 3),
                "seed": int(rng.integers(2 ** 31))}

    def config(self, inputs):
        return _ini({"scenario": {**inputs, "duration_cycles": 5}})

    def commands(self, config_path, work):
        return [["--config", str(config_path), "--json", "compare",
                 "--table", str(work / "table.json"), "--out", str(work / "out"),
                 "--format", "csv"]]

    def check(self, inputs, reports, work):
        rep = reports[0]
        sched = rep["controllers"]["scheduled-qlearning"]
        m = sched["metrics"]
        _require(m["amplitude_A"] == inputs["i_ref"], "amplitude mismatch")
        pct = 100.0 * m["rmse_settled_A"] / m["amplitude_A"]
        _require(pct < NOMINAL_RMSE_PCT,
                 f"criterion 5: settled RMSE {pct:.3f} % >= {NOMINAL_RMSE_PCT} %")
        _require(m["dk_final"] < NOMINAL_DK_FINAL,
                 f"criterion 5: dk_final {m['dk_final']:.3e} >= {NOMINAL_DK_FINAL}")
        _require(rep["ripple_ratio"] < RIPPLE_RATIO_MAX,
                 f"criterion 7: ripple ratio {rep['ripple_ratio']:.3e}")
        for controller, res in rep["controllers"].items():
            rows = _rows(res["trace"])
            _require(rows == self.steps + 1,
                     f"{controller} trace has {rows} lines, expected {self.steps + 1}")
        return {"rmse_settled_pct": pct, "ripple_ratio": rep["ripple_ratio"]}


class AdaptOnline(Workload):
    name = "adapt-online"
    why = ("online RLS refinement: the scheduler and qlearn layers write the "
           "table as well as read it, driven by dither and an amplitude step "
           "every cycle; JSONL export")
    cycles = 12

    def inputs(self, seed, stream, index):
        rng = _rng(seed, stream, index)
        amps = [round(float(a), 4) for a in rng.uniform(*AMPLITUDE_A, self.cycles)]
        return {"amplitudes": amps,
                "dither_v": round(float(rng.uniform(10.0, 30.0)), 3),
                "r_scale": round(float(rng.uniform(0.9, 1.2)), 4),
                "seed": int(rng.integers(2 ** 31))}

    def config(self, inputs):
        amps = inputs["amplitudes"]
        events = ", ".join(f"{c * STEPS_PER_CYCLE}:{amps[c]}"
                           for c in range(1, self.cycles))
        return _ini({"scenario": {
            "i_ref": amps[0], "events": events,
            "duration_cycles": self.cycles, "online_learning": "true",
            "dither_v": inputs["dither_v"], "r_scale": inputs["r_scale"],
            "seed": inputs["seed"]}})

    def commands(self, config_path, work):
        return [["--config", str(config_path), "--json", "run",
                 "--table", str(work / "table.json"), "--out", str(work / "out"),
                 "--format", "jsonl"]]

    def check(self, inputs, reports, work):
        m = reports[0]["metrics"]
        for key, value in m.items():
            _require(math.isfinite(value), f"metric {key} is {value}")
        rows = _rows(reports[0]["trace"])
        steps = self.cycles * STEPS_PER_CYCLE
        _require(rows == steps, f"trace has {rows} lines, expected {steps}")
        # the metrics skip the first cycle, so cycles 1.. set the scale
        pct = 100.0 * m["rmse_settled_A"] / float(np.mean(inputs["amplitudes"][1:]))
        _require(pct < ADAPT_RMSE_PCT,
                 f"settled RMSE {pct:.3f} % >= {ADAPT_RMSE_PCT} %")
        return {"rmse_settled_pct": pct}


class TrainOracle(Workload):
    name = "train-oracle"
    why = ("offline training and 256 Riccati solves per op; the closed loop "
           "never runs, so closed-loop changes should not move it")
    uses_table = False

    def inputs(self, seed, stream, index):
        return {"seed": int(_rng(seed, stream, index).integers(2 ** 31))}

    def config(self, inputs):
        return _ini({"training": inputs})

    def commands(self, config_path, work):
        cfg = ["--config", str(config_path), "--json"]
        return [cfg + ["train", "--out", str(work / "trained.json")],
                cfg + ["oracle"]]

    def check(self, inputs, reports, work):
        train, oracle = reports
        gap = train["oracle_gap_max"]
        _require(gap < ORACLE_GAP_MAX, f"oracle gap {gap:.3e} >= {ORACLE_GAP_MAX}")
        _require(train["cores"] == 128, f"{train['cores']} cores, expected 128")
        for got, ref in zip(oracle["aligned_node_gain"], REFERENCE_GAIN):
            _require(abs(got - ref) / abs(ref) < REFERENCE_GAIN_TOL,
                     f"criterion 1: aligned-node gain {got:.2f} vs {ref}")
        path = Path(train["table"])
        table = scheduler.load_table(path)
        copy = work / "roundtrip.json"
        scheduler.save_table(table, copy)
        _require(copy.read_bytes() == path.read_bytes(),
                 "table file does not round-trip through load_table")
        _require(float(table.iterations.mean()) == train["iterations_mean"],
                 "loaded iterations differ from the training report")
        return {"oracle_gap_max": gap}


WORKLOADS = {w.name: w for w in (CompareNominal(), AdaptOnline(), TrainOracle())}
