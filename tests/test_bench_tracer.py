"""The benchmark tracer (srmqbench/tracer.py) reads srmq functions by
name.  A name it reads that srmq no longer defines breaks the benchmark's
traced runs (``srmqbench/run.py --trace 1``); these tests catch that here."""

import importlib
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
