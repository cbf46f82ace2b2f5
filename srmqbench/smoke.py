"""Smoke test of the srmq benchmark, at minimum length (about two minutes).

    python3 srmqbench/smoke.py

- Runs every workload for one second, untraced and traced, and checks that
  the last line carries exactly the metrics and units BENCHMARK.json lists,
  that the report prints every end-to-end metric with its unit, and that
  the traced counts agree with what each workload exercises.
- Corrupts the output of one op and checks that it counts in fail_ratio.
- Runs the benchmark in a directory that holds only BENCHMARK.json and the
  benchmark, and checks that it exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(Path(cwd) / HERE.name / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_outputs(spec, tracing):
    expected = {key: {m["name"]: m["unit"] for m in spec[key]}
                for key in ("end_to_end", "per_layer")}
    assert expected["end_to_end"] == dict(bench.GATED), "BENCHMARK.json end_to_end"
    assert expected["per_layer"] == dict(tracing.PER_LAYER), "BENCHMARK.json per_layer"
    for workload in bench.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0, proc.stderr
            assert result["attempted"] >= 1
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected[key], (workload, trace)
            for name, unit in bench.REPORTED:
                row = [ln.split() for ln in lines if ln.split()[:1] == [name]]
                assert row and row[0][2] == unit, (workload, name)
                assert row[0][1] == "n/a" or "n=" in " ".join(row[0]), row
            if trace:
                check_counts(workload, {k: v["value"]
                                        for k, v in result["metrics"].items()})
            print(f"ok {workload} --trace {trace}: {result['attempted']} ops")


def check_counts(workload, m):
    assert 99.0 <= m["trace.self_sum_pct"] <= 100.0
    if workload == "train-oracle":
        assert m["scheduler.update_core_online.calls"] == 0
        assert m["sim.run_closed_loop.calls"] == 0
        assert m["lqt.are_fixed_point.calls"] == 256
        assert m["qlearn.q_policy_iteration.calls"] == 128
        return
    # sim locates the cell once per scheduled step, scheduled_q once more
    fallbacks = round(m["scheduler.fallback_ratio"]
                      * m["scheduler.scheduled_gain.calls"])
    assert m["scheduler.locate.calls"] == (2 * m["scheduler.scheduled_gain.calls"]
                                           + fallbacks
                                           + m["scheduler.update_core_online.calls"])
    assert m["lqt.are_fixed_point.calls"] == 0
    if workload == "compare-nominal":
        assert m["scheduler.update_core_online.calls"] == 0
        assert m["sim.delta_modulation_step.calls"] == 5 * 1250
    else:
        assert m["scheduler.update_core_online.calls"] > 0
        assert m["qlearn.rls_update.calls"] == m["scheduler.update_core_online.calls"]


def check_corrupted_op_fails():
    srmq, _ = bench.import_program()
    import tracer as tracing
    from workloads import WORKLOADS
    workload = WORKLOADS["compare-nominal"]
    work = bench.WORK / "smoke-corrupt"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    real_check = type(workload).check

    def drop_last_row(self, inputs, reports, work_dir):
        path = Path(reports[0]["controllers"]["scheduled-qlearning"]["trace"])
        path.write_text("".join(path.read_text().splitlines(True)[:-1]))
        return real_check(self, inputs, reports, work_dir)

    try:
        client = bench.Client(srmq, workload, work)
        client.train_table()
        tracer = tracing.Tracer(srmq, [tracing.CLOSED_LOOP])
        run = bench.Run()
        run.record("plain", client.execute(workload.inputs(7, 1, 0), tracer, 0), 0)
        with mock.patch.object(type(workload), "check", drop_last_row):
            run.record("plain", client.execute(workload.inputs(7, 1, 1), tracer, 1), 1)
        e2e = bench.end_to_end(run, bench.Run(), 0.0, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert (run.attempted, run.failed) == (2, 1)
    assert e2e["fail_ratio"][0] == 0.5
    print("ok corrupted op counted: fail_ratio 0.5 (1 of 2 ops)")


def check_bare_directory_fails():
    bare = bench.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "--workload", "compare-nominal", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip(), proc.stdout
    print(f"ok without the program: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    srmq, _ = bench.import_program()
    import tracer as tracing
    check_outputs(spec, tracing)
    check_corrupted_op_fails()
    check_bare_directory_fails()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
