"""srmq benchmark: closed-loop client over the srmq CLI, run in-process.

Usage, from the root of a checkout:

    python3 srmqbench/run.py --workload compare-nominal --seed 1 --seconds 30 --trace 0
    python3 srmqbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 srmqbench/run.py --check

One client runs one op at a time (a closed loop): it generates the op's
config from the seed, calls ``srmq.cli.main``, times the call, then checks
the output.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs every op twice, traced and untraced in alternating order, and prints
the per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  ``--check`` replays the
equivalence scenarios instead (see equivalence.py).

The program is imported from ``src/`` of the checkout, never from an
installed copy; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# tracer, workloads and equivalence import numpy or srmq, so functions import
# them only after import_program has pinned BLAS and timed the import.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("compare-nominal", "adapt-online", "train-oracle")
SETUP_REPEATS = 3
ACCURACY_OPS = 10   # accuracy figures cover ops 0-9 only, so they repeat for a seed
WARMUP_STREAM, OP_STREAM = 0, 1
CONTROL_PERIOD_US = 100.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Host speed on a shared machine drifts by up to 1.8x within seconds to
# minutes, and CPU time drifts with wall time, so it is not preemption.
# Three calibration loops (see calibrate) run right before and right after
# every op, and every reported time is divided by their mean slowness
# against the reference times below (the 5th percentile of each loop over
# 372 ops).  Over those ops the quartile spread of 30-op medians fell from
# 10 % to 3 % (compare-nominal) and from 9 % to 2 % (train-oracle); any one
# loop alone did worse on one of the two.
CALIBRATION_REF_S = (0.0072, 0.0060, 0.0087)

# End-to-end metrics gated by BENCHMARK.json: defined on every workload.
GATED = (("op_ms_p50", "ms"), ("op_ms_tail", "ms"), ("setup_s", "s"),
         ("peak_rss_mb", "MB"))
# End-to-end metrics printed in the report, with units.  ctrl_step_us and
# the accuracy figures apply to some workloads only, trace_overhead_pct to
# the traced run only, so they are printed but not gated.
REPORTED = GATED + (("fail_ratio", "ratio"), ("ctrl_step_us", "us"),
                    ("rmse_settled_pct", "%"), ("ripple_ratio", "ratio"),
                    ("oracle_gap_max", "ratio"), ("trace_overhead_pct", "%"),
                    ("op_wall_ms_p50", "ms"))


class ProgramMissing(Exception):
    """The checkout has no srmq sources to benchmark."""


def import_program():
    """Import numpy and srmq from the checkout's src/; return (srmq, seconds).

    BLAS is pinned to one thread first, before numpy loads, so the process
    stays on one of the machine's cores and small matrix calls do not pay
    for thread wake-ups."""
    if not (SRC / "srmq" / "__init__.py").is_file():
        raise ProgramMissing(f"no srmq package under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import srmq
    import srmq.cli  # noqa: F401
    seconds = time.perf_counter() - t0
    if Path(srmq.__file__).resolve().parent != SRC / "srmq":
        raise ProgramMissing(f"srmq was imported from {srmq.__file__}, not {SRC}")
    return srmq, seconds


def stamp(seed) -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "srmq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16], "workload_seed": seed,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


class OpFailed(Exception):
    """A CLI command exited non-zero."""


class Client:
    """Runs one workload's ops, one at a time, in a private work directory."""

    def __init__(self, srmq, workload, work: Path):
        self.srmq = srmq
        self.workload = workload
        self.work = work

    def train_table(self):
        """Setup for the closed-loop workloads: the table every op reads."""
        self._call(["--json", "train", "--out", str(self.work / "table.json")])

    def _call(self, argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.srmq.cli.main(argv)
        if rc != 0:
            raise OpFailed(f"srmq {' '.join(argv)} exited {rc}: "
                           f"{err.getvalue().strip()}")
        return out.getvalue()

    def execute(self, inputs, tracer, op_id):
        """One op, timed between two calibrations.  Returns (seconds, mean
        host slowness, error message or None, accuracy dict)."""
        from workloads import CheckError, parse_report
        config = self.work / "op.ini"
        config.write_text(self.workload.config(inputs))
        commands = self.workload.commands(config, self.work)
        outputs = []
        error = None
        with tracer.installed():
            calibration = calibrate()
            t0 = time.perf_counter()
            try:
                with tracer.op_span(op_id):
                    for argv in commands:
                        outputs.append(self._call(argv))
            except OpFailed as exc:
                error = str(exc)
            except (Exception, SystemExit):   # the op raised: count, go on
                error = traceback.format_exc(limit=-3)
            seconds = time.perf_counter() - t0
            calibration = (calibration + calibrate()) / 2
        if error is not None:
            return seconds, calibration, error, {}
        try:
            accuracy = self.workload.check(
                inputs, [parse_report(out) for out in outputs], self.work)
        except (CheckError, KeyError, TypeError, ValueError, OSError) as exc:
            return seconds, calibration, f"output check: {exc!r}", {}
        return seconds, calibration, None, accuracy


def calibrate() -> float:
    """Host slowness relative to the reference speed: the mean, over three
    fixed loops that do not touch srmq, of each loop's time over its
    reference time.  The loops stand for the kinds of work srmq does:
    interpreted float arithmetic, small numpy calls, small least-squares
    solves.  A faster program leaves them unchanged."""
    import numpy as np
    nodes = np.linspace(0.0, 45.0, 16)
    gain = np.eye(2) * 1.5
    x = np.array([1.0, 2.0])
    design = np.random.default_rng(0).normal(size=(6, 6))

    def arithmetic():
        acc = 0.0
        for i in range(100_000):
            acc += (i * 0.37) % 45.0

    def numpy_calls():
        for i in range(2000):
            float(x @ gain @ x)
            int(np.searchsorted(nodes, (i * 0.37) % 45.0, side="right"))

    def least_squares():
        for _ in range(600):
            np.linalg.lstsq(design, design[:, 0], rcond=None)

    slowness = 0.0
    for loop, reference_s in zip((arithmetic, numpy_calls, least_squares),
                                 CALIBRATION_REF_S):
        t0 = time.perf_counter()
        loop()
        slowness += (time.perf_counter() - t0) / reference_s
    return slowness / len(CALIBRATION_REF_S)


def _tail(values):
    """Value at the highest percentile with at least ten samples above it.
    Below 20 samples that percentile would lie under the median, which is
    then reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), f"median: n={n} < 20 ops, no tail"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f}, n={n}, 10 above"


class Run:
    """Op executions of one measured window, each between two calibrations."""

    def __init__(self):
        self.samples = []    # (kind, op id, wall seconds)
        self.cals = []       # mean host slowness around each sample
        self.attempted = 0
        self.failed = 0
        self.accuracy = {}

    def record(self, kind, outcome, op_id):
        seconds, calibration, error, accuracy = outcome
        self.samples.append((kind, op_id, seconds))
        self.cals.append(calibration)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"op {op_id} ({kind}) failed: {error}", file=sys.stderr)
        for key, value in accuracy.items():
            self.accuracy.setdefault(key, {})[op_id] = value

    def speed(self, k) -> float:
        """Reference seconds per wall second around sample k."""
        return 1.0 / self.cals[k]

    def speeds(self, kind) -> dict:
        return {op: self.speed(k) for k, (kd, op, _) in enumerate(self.samples)
                if kd == kind}

    def times(self, kind, scaled=True) -> list:
        return [s * (self.speed(k) if scaled else 1.0)
                for k, (kd, _, s) in enumerate(self.samples) if kd == kind]


def measure(srmq, workload, seed, seconds, trace, import_s):
    import tracer as tracing
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        client = Client(srmq, workload, work)
        setup = Run()
        for rep in range(SETUP_REPEATS):
            before = calibrate()
            t0 = time.perf_counter()
            if workload.uses_table:
                client.train_table()
            train_s = time.perf_counter() - t0
            warm = tracing.Tracer(srmq, [tracing.CLOSED_LOOP])
            op_s, _, error, _ = client.execute(
                workload.inputs(seed, WARMUP_STREAM, rep), warm, -1)
            if error is not None:
                raise OpFailed(f"warm-up op failed: {error}")
            setup.record("setup", (train_s + op_s, (before + calibrate()) / 2,
                                   None, {}), rep)
        setup_s = (import_s * setup.speed(0)
                   + statistics.median(setup.times("setup")))

        plain = tracing.Tracer(srmq, [tracing.CLOSED_LOOP])
        full = tracing.Tracer(srmq) if trace else None
        run = Run()
        deadline = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            inputs = workload.inputs(seed, OP_STREAM, i)
            if full is None:
                run.record("plain", client.execute(inputs, plain, i), i)
            else:
                order = (("traced", full), ("plain", plain))
                for kind, tracer in (order if i % 2 else order[::-1]):
                    run.record(kind, client.execute(inputs, tracer, i), i)
            i += 1
        return run, setup, setup_s, plain, full
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(run, setup, setup_s, plain):
    """Every reported end-to-end metric: name -> (value or None, unit, note).
    Times are at the reference speed; op_wall_ms_p50 is the raw wall time."""
    import tracer as tracing
    times = run.times("plain")
    n = len(times)
    tail, tail_note = _tail(times)
    speed = run.speeds("plain")
    steps = [ns / 1e3 / st * speed[op]
             for _, op, controller, st, ns in plain.closed_loop_runs()
             if controller == tracing.SCHEDULED]
    m = {
        "op_ms_p50": (1e3 * statistics.median(times), f"median, n={n} ops"),
        "op_ms_tail": (1e3 * tail, tail_note),
        "setup_s": (setup_s, f"import + median of n={len(setup.samples)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "n=1 process"),
        "fail_ratio": (run.failed / run.attempted,
                       f"{run.failed} of n={run.attempted} ops"),
        "ctrl_step_us": ((statistics.median(steps), f"median, n={len(steps)} "
                          f"scheduled runs; T = {CONTROL_PERIOD_US:g} us")
                         if steps else (None, "no closed loop in this workload")),
    }
    for key in ("rmse_settled_pct", "ripple_ratio", "oracle_gap_max"):
        values = [v for op, v in run.accuracy.get(key, {}).items()
                  if op < ACCURACY_OPS]
        m[key] = ((max(values), f"worst of the first n={len(values)} ops")
                  if values else (None, "not measured by this workload"))
    traced = run.times("traced")
    m["trace_overhead_pct"] = (
        (100.0 * (statistics.median(traced) / statistics.median(times) - 1),
         f"traced vs untraced median, n={len(traced)} pairs")
        if traced else (None, "traced run only (--trace 1)"))
    speeds = list(speed.values())
    m["op_wall_ms_p50"] = (1e3 * statistics.median(run.times("plain", False)),
                           f"median, n={n} ops, unscaled; host speed "
                           f"{statistics.median(speeds):.3f} of reference")
    units = dict(REPORTED)
    return {k: (v, units[k], note) for k, (v, note) in m.items()}


def bench_workload(srmq, name, seed, seconds, trace, import_s):
    """Measure one workload, print its report; return the result object."""
    import tracer as tracing
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    info = stamp(seed)
    info["loadavg_start"] = os.getloadavg()
    run, setup, setup_s, plain, full = measure(srmq, workload, seed, seconds,
                                               trace, import_s)
    info["loadavg_end"] = os.getloadavg()
    e2e = end_to_end(run, setup, setup_s, plain)
    correct = run.failed == 0

    print(f"workload {name}: {workload.why}")
    print("stamp " + json.dumps(info))
    for key, _ in REPORTED:
        value, unit, note = e2e[key]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<20} {shown:>12} {unit:<6} ({note})")

    if full is None:
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in GATED}
    else:
        layer, problems = tracing.summarize(
            full, statistics.median(run.speeds("traced").values()))
        layer["trace_overhead_pct"] = e2e["trace_overhead_pct"][0]
        for problem in problems:
            print(f"trace check failed: {problem}", file=sys.stderr)
        correct = correct and not problems
        metrics = {k: {"value": layer[k], "unit": u} for k, u in tracing.PER_LAYER}
        for key, entry in metrics.items():
            print(f"  {key:<44} {entry['value']:>12.6g} {entry['unit']}")
        WORK.mkdir(exist_ok=True)
        full.save(WORK / f"spans-{name}.npz")
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"result-{name}-trace{int(trace)}.json", "w") as f:
        json.dump({"stamp": info, "end_to_end": e2e, "samples": run.samples,
                   "calibrations": run.cals, **result}, f, indent=1)
    return result


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true",
                   help="replay the equivalence scenarios and exit")
    args = p.parse_args(argv)
    if not args.check and args.workload is None:
        p.error("--workload is required unless --check is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        srmq, import_s = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.check:
        import equivalence
        return equivalence.main([])
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = bench_workload(srmq, name, args.seed, args.seconds,
                                           bool(args.trace), import_s)
            import_s = 0.0      # the interpreter imports the program once
    except OpFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
