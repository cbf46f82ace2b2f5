"""The benchmark tracer (srmqbench/tracer.py) reads srmq functions by
name.  A name it reads that srmq no longer defines breaks the benchmark's
traced runs (``srmqbench/run.py --trace 1``); these tests catch that here."""

import importlib
import json
import sys
from pathlib import Path

import pytest

import srmq
import srmq.cli  # noqa: F401  (the tracer also traces the cli layer)

BENCH = Path(__file__).resolve().parents[1] / "srmqbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def test_traced_names_are_public_functions(tracer):
    public = tracer.public_functions(srmq)
    read = {tracer.CLOSED_LOOP, *tracer.PROBES,
            *(fn for fn, _ in tracer._CALL_TIMES)}
    assert sorted(read - set(public)) == []


def test_summarize_finds_every_name_it_reads(tracer):
    # summarize looks each function up by name (scheduler.scheduled_gain,
    # sim.export_trace, scheduler.load_table, ...); one empty op is enough
    # to reach every lookup
    spans = tracer.Tracer(srmq)
    with spans.op_span(0):
        pass
    metrics, _ = tracer.summarize(spans, 1.0)
    assert metrics["scheduler.update_core_online.calls"] == 0
    assert set(metrics) <= {name for name, _ in tracer.PER_LAYER}


# a 4 x 3 surface, and so table, and a two-cycle run that learns online
LEARNING = """
[surface]
n_theta = 4
n_current = 3

[scenario]
duration_cycles = 2
online_learning = true
dither_v = 20
"""


def test_traced_counts_are_the_learner_the_program_runs(tracer, tmp_path,
                                                        capsys):
    # train's lockstep policy iteration solves every live node in one
    # batch_ls_solve call per iteration, and each online update is one
    # rls_update call
    config, table = tmp_path / "learn.ini", str(tmp_path / "qtable.json")
    config.write_text(LEARNING)
    spans = tracer.Tracer(srmq)
    with spans.installed(), spans.op_span(0):
        assert srmq.cli.main(["--config", str(config), "--json", "train",
                              "--out", table]) == 0
        report = json.loads(capsys.readouterr().out)
        assert srmq.cli.main(["--config", str(config), "run", "--table",
                              table, "--out", str(tmp_path / "out")]) == 0
    metrics, _ = tracer.summarize(spans, 1.0)
    assert metrics["qlearn.batch_ls_solve.calls"] == report["iterations_max"]
    assert (metrics["qlearn.rls_update.calls"]
            == metrics["scheduler.update_core_online.calls"] > 0)
