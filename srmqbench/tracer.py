"""In-memory span tracer for the srmq layers, installed from outside the package.

The six layers are the modules of ``srmq``: plant, scheduler, qlearn, lqt,
sim and cli.  ``Tracer.installed()`` replaces each selected public function
with a wrapper in every srmq module that holds a reference to it, because
some callers bind names directly (``sim`` does ``from .plant import
inductance_at``) and only see a wrapper installed in their own namespace.
Leaving the ``with`` block puts every original back, so untraced operations
run the unmodified program.

Each span records a name, start and end (``perf_counter_ns``), the index of
its parent span and the operation id.  Spans live in flat arrays and are
written once, by ``save``, after the measured window.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from array import array

import numpy as np

LAYERS = ("plant", "scheduler", "qlearn", "lqt", "sim", "cli")
OP_SPAN = "op"
RAISED = "raised"
SCHEDULED = "scheduled-qlearning"

# sim.run_closed_loop is the only function the untraced runs time: two
# spans per op, so ctrl_step_us costs nothing measurable.
CLOSED_LOOP = "sim.run_closed_loop"


def _scenario_note(args, kwargs):
    scenario = args[0] if args else kwargs["scenario"]
    return scenario.controller, scenario.steps


def _fallbacks_before(args, kwargs):
    return (args[0] if args else kwargs["table"]).fallback_count


# Optional observations per traced function: (before, after).  ``before``
# runs ahead of the timed call and returns a context; ``after`` turns the
# context and the result into the span's note (None records nothing).
PROBES = {
    CLOSED_LOOP: (_scenario_note, lambda ctx, args, kwargs, result: ctx),
    "scheduler.scheduled_gain": (
        _fallbacks_before,
        lambda ctx, args, kwargs, result:
            True if _fallbacks_before(args, kwargs) > ctx else None),
    "scheduler.update_core_online": (
        None, lambda ctx, args, kwargs, result: bool(result)),
    "qlearn.q_policy_iteration": (
        None, lambda ctx, args, kwargs, result: result.iterations),
    "lqt.policy_iteration_model_based": (
        None, lambda ctx, args, kwargs, result: result.iterations),
    "sim.export_trace": (
        None, lambda ctx, args, kwargs, result:
            os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])),
}


def public_functions(package) -> dict:
    """``{"layer.name": function}`` for every public module-level function
    defined in one of the six layer modules."""
    found = {}
    for layer in LAYERS:
        module = getattr(package, layer)
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Span recorder; one instance per benchmark process."""

    def __init__(self, package, names=None):
        functions = public_functions(package)
        self.functions = {n: functions[n] for n in (names or functions)}
        self.modules = [package] + [getattr(package, layer) for layer in LAYERS]
        self.names = [OP_SPAN] + list(self.functions)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.notes = {}
        self._stack = [-1]
        self._op_id = -1

    # -- recording ---------------------------------------------------------

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _wrap(self, qualname, fn):
        nid = self._ids[qualname]
        before, after = PROBES.get(qualname, (None, None))
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            ctx = before(args, kwargs) if before else None
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                self._close(idx, t0, t1)
                if not ok:
                    self.notes[idx] = RAISED
            if after:
                note = after(ctx, args, kwargs, result)
                if note is not None:
                    self.notes[idx] = note
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap wrappers in where callers look the names up; restore after."""
        by_id = {id(fn): self._wrap(n, fn) for n, fn in self.functions.items()}
        swapped = []
        try:
            for module in self.modules:
                for attr, value in list(vars(module).items()):
                    wrapper = by_id.get(id(value))
                    if wrapper is not None and inspect.isfunction(value):
                        swapped.append((module, attr, value))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, value in swapped:
                setattr(module, attr, value)

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Root span of one operation; every layer span nests inside it."""
        self._op_id = op_id
        idx = self._open(0)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter_ns())
            self._op_id = -1

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span once, with the name table, as an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def closed_loop_runs(self):
        """(span index, op id, controller, steps, ns) for every closed-loop
        run that returned."""
        a = self.arrays()
        runs = []
        for idx in np.flatnonzero(a["name"] == self._ids[CLOSED_LOOP]):
            note = self.notes.get(int(idx))
            if isinstance(note, tuple):
                controller, steps = note
                runs.append((int(idx), int(a["op"][idx]), controller, steps,
                             int(a["end"][idx] - a["start"][idx])))
        return runs


# Per-layer metrics: (name, unit).  Counts come from the first traced op,
# whose inputs depend only on the workload seed, so they repeat exactly;
# times are totals over every traced op divided by the matching count.
_CALL_TIMES = (
    ("plant.inductance_at", "us"), ("plant.reference_at", "us"),
    ("scheduler.locate", "us"), ("scheduler.scheduled_gain", "us"),
    ("qlearn.stage_cost", "us"), ("scheduler.update_core_online", "us"),
    ("qlearn.rls_update", "us"), ("qlearn.batch_ls_solve", "us"),
    ("qlearn.q_policy_iteration", "ms"), ("lqt.are_fixed_point", "ms"),
    ("lqt.policy_iteration_model_based", "ms"),
)
_STEP_LAYERS = ("plant", "scheduler", "qlearn", "sim")

PER_LAYER = (
    [(f"{fn}.calls", "count") for fn, _ in _CALL_TIMES]
    + [(f"{fn}.{unit}_per_call", unit) for fn, unit in _CALL_TIMES]
    + [("scheduler.fallback_ratio", "ratio"),
       ("scheduler.online_accept_ratio", "ratio"),
       ("qlearn.pi_iterations_mean", "iter"),
       ("qlearn.train_failures", "count"),
       ("lqt.pi_iterations_mean", "iter"),
       ("sim.run_closed_loop.calls", "count"),
       ("sim.run_closed_loop.self_us_per_step", "us"),
       ("sim.run_closed_loop.traced_us_per_step", "us"),
       ("sim.delta_modulation_step.calls", "count"),
       ("sim.export_trace.ms_per_call", "ms"),
       ("sim.export_trace.bytes", "B"),
       ("sim.export_trace.MB_per_s", "MB/s"),
       ("sim.compute_metrics.ms_per_call", "ms"),
       ("scheduler.load_table.ms", "ms"),
       ("scheduler.save_table.ms", "ms"),
       ("scheduler.train_table.ms", "ms")]
    + [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    + [(f"{layer}.self_us_per_step", "us") for layer in _STEP_LAYERS]
    + [("trace.spans", "count"), ("trace.self_sum_pct", "%"),
       ("trace_overhead_pct", "%")]
)


def _ratio(num, den):
    return float(num) / den if den else 0.0


def summarize(tracer: Tracer, speed: float) -> tuple[dict, list]:
    """Per-layer metrics over the recorded ops, times scaled by ``speed``
    (reference seconds per wall second), plus the list of failed
    consistency checks (spans that do not nest, or layer self times that
    do not add up to the traced op time)."""
    a = tracer.arrays()
    name, parent, op = a["name"], a["parent"], a["op"]
    dur = a["end"] - a["start"]
    n_names = len(tracer.names)
    ids = {n: i for i, n in enumerate(tracer.names)}
    problems = []

    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                        minlength=name.size)
    self_ns = dur - child
    inner = parent >= 0
    if not (np.all(a["start"][inner] >= a["start"][parent[inner]])
            and np.all(a["end"][inner] <= a["end"][parent[inner]])):
        problems.append("spans do not nest")

    incl_total = np.bincount(name, weights=dur, minlength=n_names)
    calls_total = np.bincount(name, minlength=n_names)
    first = op.min()
    in_first = op == first
    calls_first = np.bincount(name[in_first], minlength=n_names)

    def calls(fn):
        return int(calls_first[ids[fn]])

    def per_call(fn, scale):
        i = ids[fn]
        return _ratio(incl_total[i], calls_total[i]) / scale

    def notes_of(fn, only_first=True):
        mask = name == ids[fn]
        if only_first:
            mask &= in_first
        return [tracer.notes.get(int(i)) for i in np.flatnonzero(mask)]

    m = {}
    for fn, unit in _CALL_TIMES:
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.{unit}_per_call"] = per_call(fn, 1e3 if unit == "us" else 1e6)

    m["scheduler.fallback_ratio"] = _ratio(
        sum(n is True for n in notes_of("scheduler.scheduled_gain")),
        calls("scheduler.scheduled_gain"))
    m["scheduler.online_accept_ratio"] = _ratio(
        sum(n is True for n in notes_of("scheduler.update_core_online")),
        calls("scheduler.update_core_online"))
    pi_q = notes_of("qlearn.q_policy_iteration")
    m["qlearn.pi_iterations_mean"] = _ratio(
        sum(n for n in pi_q if isinstance(n, int)),
        sum(isinstance(n, int) for n in pi_q))
    m["qlearn.train_failures"] = sum(n == RAISED for n in pi_q)
    pi_m = [n for n in notes_of("lqt.policy_iteration_model_based")
            if isinstance(n, int)]
    m["lqt.pi_iterations_mean"] = _ratio(sum(pi_m), len(pi_m))

    runs = tracer.closed_loop_runs()
    m["sim.run_closed_loop.calls"] = calls(CLOSED_LOOP)
    m["sim.run_closed_loop.self_us_per_step"] = _ratio(
        sum(self_ns[i] for i, *_ in runs), sum(r[3] for r in runs)) / 1e3
    m["sim.delta_modulation_step.calls"] = calls("sim.delta_modulation_step")

    # layer self time inside the scheduled closed-loop runs, per control step
    layer_of = np.array([LAYERS.index(n.split(".")[0]) if n != OP_SPAN
                         else len(LAYERS) for n in tracer.names])
    span_layer = layer_of[name]
    step_self = np.zeros(len(LAYERS) + 1)
    sched_ns = sched_steps = 0
    for i, run_op, controller, steps, ns in runs:
        if controller != SCHEDULED:
            continue
        inside = ((op == run_op) & (a["start"] >= a["start"][i])
                  & (a["end"] <= a["end"][i]))
        step_self += np.bincount(span_layer[inside], weights=self_ns[inside],
                                 minlength=len(LAYERS) + 1)
        sched_ns += ns
        sched_steps += steps
    m["sim.run_closed_loop.traced_us_per_step"] = _ratio(sched_ns, sched_steps) / 1e3

    exports = ids["sim.export_trace"]
    export_bytes = sum(n for n in notes_of("sim.export_trace")
                       if isinstance(n, int))
    all_bytes = sum(n for n in notes_of("sim.export_trace", only_first=False)
                    if isinstance(n, int))
    m["sim.export_trace.ms_per_call"] = per_call("sim.export_trace", 1e6)
    m["sim.export_trace.bytes"] = export_bytes
    m["sim.export_trace.MB_per_s"] = _ratio(all_bytes / 1e6,
                                            incl_total[exports] / 1e9)
    m["sim.compute_metrics.ms_per_call"] = per_call("sim.compute_metrics", 1e6)
    for fn in ("load_table", "save_table", "train_table"):
        m[f"scheduler.{fn}.ms"] = per_call(f"scheduler.{fn}", 1e6)

    ops = name == 0
    n_ops = int(ops.sum())
    op_ns = dur[ops].sum()
    layer_self = np.bincount(span_layer, weights=self_ns,
                             minlength=len(LAYERS) + 1)
    for k, layer in enumerate(LAYERS):
        m[f"{layer}.self_ms"] = _ratio(layer_self[k], n_ops) / 1e6
    for layer in _STEP_LAYERS:
        k = LAYERS.index(layer)
        m[f"{layer}.self_us_per_step"] = _ratio(step_self[k], sched_steps) / 1e3
    m["trace.spans"] = int(in_first.sum())
    m["trace.self_sum_pct"] = 100.0 * _ratio(layer_self[:len(LAYERS)].sum(), op_ns)
    if not 99.0 <= m["trace.self_sum_pct"] <= 100.0:
        problems.append(f"layer self times sum to {m['trace.self_sum_pct']:.3f} % "
                        "of the traced op time")
    for key, unit in PER_LAYER:
        if unit in ("us", "ms"):
            m[key] *= speed
        elif unit == "MB/s":
            m[key] /= speed
    return m, problems
