"""Closed-loop simulation harness.

Wires the phase model to a controller (scheduled Q-table, a single fixed
core, or the delta-modulation baseline), runs a deterministic fixed-step
loop with scenario events, and computes tracking metrics from the
recorded trace.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import shutil
import sys
import tempfile
import threading
import weakref
from array import array
from dataclasses import dataclass, replace
from decimal import Decimal
from itertools import chain

import numpy as np

from . import plant, qlearn, scheduler
from .plant import (_QUIET_OVERFLOW, InductanceSurface, MotorParams,
                    ReferenceProfile, _require_bound, _require_natural,
                    _step_located, _wrapped_cells)
from .scheduler import QCoreTable, SafetyAbortError

CONTROLLERS = ("scheduled-qlearning", "single-qcore", "delta-modulation")

TRACE_COLUMNS = ("k", "t_s", "theta_deg", "r_A", "x_A", "u_V",
                 "K1", "K2", "cell_row", "cell_col", "cost")

EXPORT_CHUNK = 256       # trace rows formatted with one % at a time on export
# a run of at least this many steps streams its trace to a forked writer:
# below it, forking the writer costs more than the rows it formats
PARALLEL_MIN_ROWS = 2048

# one trace row as the csv module and json.dumps write it: every value is
# the repr of a Python int or float, which json.dumps spells NaN, Infinity
# and -Infinity for the non-finite floats
CSV_ROW = ",".join(["%r"] * len(TRACE_COLUMNS)) + "\r\n"
JSONL_ROW = "{" + ", ".join(f'"{name}": %r' for name in TRACE_COLUMNS) + "}\n"
# from 3.12, os.fork warns in a process with more than one OS thread
_FORK_WARNS_WITH_THREADS = sys.version_info >= (3, 12)

# the longest run a scenario may ask for, checked before the loop starts:
# 800 electrical cycles at the defaults, about 64 MB of recorded trace
MAX_STEPS = 10**6

SETTLE_FRACTION = 0.05   # |x - r| below this fraction of the amplitude counts as settled


def _count(n: int) -> str:
    """A count in full while it is short, else in #.4g exponent form: the
    steps of a near-zero speed run to hundreds of digits, past any float."""
    text = str(n)
    return text if len(text) <= 12 else f"{Decimal(n):.4g}"


@dataclass(frozen=True)
class Scenario:
    """One reproducible closed-loop run."""

    motor: MotorParams
    surface: InductanceSurface
    reference: ReferenceProfile
    controller: str = "scheduled-qlearning"
    duration: int = 0              # steps; 0 means five electrical cycles
    seed: int = 0
    online_learning: bool = False
    dither: float = 0.0            # exploration voltage during online learning, V
    r_scale: float = 1.0           # deliberate plant-resistance mismatch factor
    delta_band: float = 0.0        # hysteresis band for the baseline, A

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller must be one of {CONTROLLERS}, "
                             f"got {self.controller!r}")
        _require_natural("duration", self.duration)
        if not 0 < self.steps <= MAX_STEPS:
            raise ValueError(f"duration must be 1 to MAX_STEPS = {MAX_STEPS} "
                             f"steps, got {_count(self.steps)} (duration_cycles "
                             "x the steps per cycle from speed_rpm and t_sample)")
        _require_bound("dither", self.dither)
        _require_bound("r_scale", self.r_scale, positive=True)
        R_phase = self.motor.R_phase * self.r_scale
        if not 0 < R_phase < math.inf:
            raise ValueError(f"r_scale = {self.r_scale!r} scales R_phase = "
                             f"{self.motor.R_phase!r} ohm to {R_phase!r} ohm; "
                             "it must stay positive and finite")
        _require_bound("delta_band", self.delta_band)
        _require_natural("seed", self.seed)

    @property
    def steps(self) -> int:
        return self.duration if self.duration > 0 else 5 * self.motor.steps_per_cycle


@dataclass
class SimTrace:
    """Per-step record of the closed loop, as parallel arrays."""

    k: np.ndarray
    t: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    x: np.ndarray
    u: np.ndarray
    K: np.ndarray       # (n, 2) active gains
    cell: np.ndarray    # (n, 2) int, (-1, -1) for the baseline
    cost: np.ndarray
    written: _Writer | None = None   # formatted these rows as the loop ran

    def __len__(self):
        return self.k.size

    def pending(self) -> SimTrace:
        """The trace as its export in the writer's format reads it: the
        writer and no rows, so an export that waits for the writer holds
        none of the columns. A trace without a writer is itself."""
        if self.written is None:
            return self
        empty = np.empty(0)
        return SimTrace(empty, empty, empty, empty, empty, empty,
                        np.empty((0, 2)), np.empty((0, 2), int), empty,
                        written=self.written)


@dataclass
class Metrics:
    """Tracking quality over conduction windows (reference > 0).

    rmse includes each window's turn-on transient; rmse_settled is
    restricted to the samples after the 5 % settling point of each window
    (nan when no window settles, e.g. under delta modulation).  The first
    electrical cycle is always excluded.  Ripple is the mean peak-to-peak
    current over the second half of each window.  dk_per_cycle is the mean
    absolute change of the active gains between consecutive electrical
    cycles; its last entry is the convergence indicator.
    """

    rmse: float
    rmse_settled: float
    ripple: float
    settling_steps: list
    dk_per_cycle: list
    amplitude: float
    windows: int

    @property
    def dk_final(self) -> float:
        return self.dk_per_cycle[-1] if self.dk_per_cycle else 0.0

    def as_dict(self) -> dict:
        return {
            "rmse_A": self.rmse,
            "rmse_settled_A": self.rmse_settled,
            "ripple_A": self.ripple,
            "settling_steps_mean": (float(np.mean(self.settling_steps))
                                    if self.settling_steps else float("nan")),
            "dk_final": self.dk_final,
            "amplitude_A": self.amplitude,
            "windows": self.windows,
        }


def delta_modulation_step(x: float, r: float, V_dc: float,
                          band: float = 0.0) -> float:
    """Per-sample bang-bang voltage: +V below the reference, -V above.

    A non-zero band gives the hysteresis variant (no switching inside the
    band)."""
    if x < r - band:
        return V_dc
    if x > r + band:
        return -V_dc
    return 0.0


@_QUIET_OVERFLOW
def run_closed_loop(scenario: Scenario, table: QCoreTable | None = None,
                    stream: str | None = None) -> SimTrace:
    """Run the scenario; deterministic for a fixed seed.

    A table must pass scheduler.check_table_compatible against the
    scenario's motor and surface (else TableMismatchError): its cores sit
    on the surface's grid, where each step locates its operating point
    once. Raises SafetyAbortError (carrying the partial trace in .trace) if
    the phase current exceeds the table's safety_factor (the
    TableTrainConfig default without a table) times the nominal rating.

    With `stream` a trace format, a long enough run forks a _Writer that
    formats the trace as the loop runs (see _parallel_export). The loop
    closes its pipe when it ends and returns, or raises SafetyAbortError,
    without waiting: the trace carries the writer, which formats the last
    chunks while the caller goes on, and export_trace reaps it. Any other
    error carries no trace, so the writer is reaped before it is raised.
    """
    params, surface, profile = scenario.motor, scenario.surface, scenario.reference
    delta = scenario.controller == "delta-modulation"
    scheduled = scenario.controller == "scheduled-qlearning"
    if not delta and table is None:
        raise ValueError(f"controller {scenario.controller!r} needs a trained table")
    if table is not None:
        scheduler.check_table_compatible(table, params, surface)

    cfg = table.cfg if table is not None else scheduler.TableTrainConfig()
    Q_q = cfg.tracking_weight()
    R_u = cfg.r_weight

    plant_params = replace(params, R_phase=params.R_phase * scenario.r_scale)

    n = scenario.steps
    i_limit = cfg.safety_factor * params.i_nominal
    if scenario.controller == "single-qcore":
        # the core nearest the middle of the conduction window at i_ref
        cell = scheduler._corner(*scheduler.locate(
            surface, (profile.theta_on + profile.theta_off) / 2, profile.i_ref))
        single = (*scheduler._core_gain(table, cell), cell)

    # one row per recorded step: x, u, k_x, k_r, row, col
    rows = array("d")

    learn = scenario.online_learning and scheduled
    dither = None
    if learn and scenario.dither > 0:
        # every step's dither in one draw, read back as Python floats: the
        # same numbers as one scalar rng.uniform(-1, 1) per step, and the
        # loop draws nothing else
        dither = memoryview(scenario.dither * np.random.default_rng(
            scenario.seed).uniform(-1, 1, n))

    # the half of the step that does not depend on the phase current, in
    # one numpy pass each: the n + 1 rotor angles, the reference at each,
    # and their cells on the surface's theta grid, read back as Python
    # floats and ints; the angles and the references are the trace's theta
    # and r columns
    thetas = np.frombuffer(plant._rotor_angles(plant_params, 0.0, n))
    references = plant._references(profile, thetas, 0)
    refs = memoryview(references)
    s_row, s_l1 = map(memoryview, _wrapped_cells(surface.theta_grid, thetas))

    def rows_to_trace(buf, a=0):
        """The trace of the recorded rows buf (m, 6) of steps a to a + m;
        the cost column is bit for bit qlearn.stage_cost at every step."""
        ks = np.arange(a, a + len(buf))
        x, u = buf[:, :2].T
        r = references[a:a + len(buf)]
        # the cost first: its temporaries' memory then serves the columns
        # below, which keeps a run's peak memory down
        cost = qlearn._stage_costs(x, r, u, Q_q, R_u)
        return SimTrace(ks, ks * params.T, thetas[a:a + len(buf)], r, x, u,
                        buf[:, 2:4], buf[:, 4:].astype(int), cost)

    writer = None
    if stream is not None and _parallel_export(n):
        # a writer that cannot fork, pipe or open its file: export serially
        with contextlib.suppress(OSError):
            writer = _Writer(stream, rows_to_trace)
    schedule_located = scheduler._schedule_located
    locate, weights = plant._axis_locate, plant._weights
    s_current = surface._current_list
    V_dc = params.V_dc
    x, r = 0.0, refs[0]
    err = None
    try:
        for k in range(n):
            row, l1 = s_row[k], s_l1[k]
            col, l2 = locate(s_current, x)
            w = weights(l1, l2)
            if delta:
                u = delta_modulation_step(x, r, V_dc, scenario.delta_band)
                k_x = k_r = 0.0
                cell = (-1, -1)
            else:
                if scheduled:
                    k_x, k_r, cell = schedule_located(table, row, col, l1, l2, w)
                else:
                    k_x, k_r, cell = single
                u = -(k_x * x + k_r * r)
                if dither is not None:
                    u += dither[k]
            u = min(max(float(u), -V_dc), V_dc)

            rows.extend((x, u, k_x, k_r, *cell))
            if writer is not None and (k + 1) % EXPORT_CHUNK == 0:
                writer.send(rows, k + 1)

            x_next = _step_located(x, u, plant_params, surface, row, col, w)

            if x_next > i_limit:
                err = SafetyAbortError(
                    f"current {x_next:#.4g} A exceeded the {i_limit:#.4g} A "
                    f"safety bound at step {k}")
                break

            r_next = refs[k + 1]
            if learn:
                # the tuple is only Bellman-consistent on flat reference
                # segments away from the zero-current clamp (a clamped step
                # lands on exactly 0.0); settled samples are skipped because
                # a steady operating point only constrains the kernel's
                # level, not its shape, and would drag the gain around
                transient = r > 0 and abs(x - r) >= SETTLE_FRACTION * r
                if transient and r_next == r and x_next > 0.0:
                    g_x, g_r = scheduler._core_gain(table, cell)
                    u_next = -(g_x * x_next + g_r * r_next)
                    cost = qlearn.stage_cost((x, r), u, Q_q, R_u)
                    if not math.isfinite(cost):
                        raise ValueError(
                            f"online learning stage cost overflowed at step {k}: "
                            + (f"the reference {r:.3g} A is beyond the "
                               f"{i_limit:#.4g} A safety bound" if r > i_limit
                               else "the tracking weights are too large"))
                    scheduler.update_core_online(table, cell, (x, r, u),
                                                 (x_next, r_next, u_next), cost)
            x, r = x_next, r_next
        if writer is not None:
            writer.send(rows, len(rows) // 6)
    except BaseException:
        # no trace leaves with this error, so no export will reap the writer
        if writer is not None:
            writer.reap()
        raise
    if writer is not None:
        writer.close()

    # the cell buffers go before the trace's columns are built, so a long
    # run's peak memory holds the rows, angles and references only
    del s_row, s_l1
    trace = rows_to_trace(np.frombuffer(rows).reshape(-1, 6))
    trace.written = writer
    if err is not None:
        err.trace = trace
        try:
            raise err
        finally:
            del err   # or the traceback's frame and err hold each other
    return trace


def _conduction_windows(trace: SimTrace, start: int):
    """Contiguous runs of constant positive reference from `start` on."""
    r = trace.r[start:]
    bounds = [0, *(np.flatnonzero(r[1:] != r[:-1]) + 1).tolist(), r.size]
    return [(start + lo, start + hi) for lo, hi in zip(bounds, bounds[1:])
            if lo < hi and r[lo] > 0]


@_QUIET_OVERFLOW
def compute_metrics(trace: SimTrace, scenario: Scenario) -> Metrics:
    """Tracking metrics over conduction windows after the first cycle."""
    spc = scenario.motor.steps_per_cycle
    windows = _conduction_windows(trace, start=min(spc, len(trace)))
    if not windows:
        raise ValueError("trace has no conduction window after the first cycle")

    err = trace.x - trace.r
    settled_sq, all_sq, ripples, settling = [], [], [], []
    for lo, hi in windows:
        amp = trace.r[lo]
        e = err[lo:hi]
        all_sq.append(e ** 2)
        inside = np.abs(e) < SETTLE_FRACTION * amp
        # first sample after which the error stays inside the band
        bad = np.flatnonzero(~inside)
        s = 0 if bad.size == 0 else bad[-1] + 1
        if s < hi - lo:
            settling.append(int(s))
            settled_sq.append(e[s:] ** 2)
        half = lo + (hi - lo) // 2
        ripples.append(float(trace.x[half:hi].max() - trace.x[half:hi].min()))

    rmse = float(np.sqrt(np.mean(np.concatenate(all_sq))))
    rmse_settled = float(np.sqrt(np.mean(np.concatenate(settled_sq)))) \
        if settled_sq else float("nan")

    n_cyc = len(trace) // spc
    dk = []
    for c in range(1, n_cyc):
        a = trace.K[(c - 1) * spc:c * spc]
        b = trace.K[c * spc:(c + 1) * spc]
        dk.append(float(np.mean(np.abs(b - a))))

    return Metrics(rmse=rmse, rmse_settled=rmse_settled,
                   ripple=float(np.mean(ripples)), settling_steps=settling,
                   dk_per_cycle=dk, amplitude=float(trace.r[windows[0][0]]),
                   windows=len(windows))


def export_trace(trace: SimTrace, path, fmt: str = "csv") -> None:
    """Write the trace as CSV (fixed column order) or JSON lines, the bytes
    the csv module and one json.dumps per row would write.

    A trace with a writer (see run_closed_loop's `stream`) first waits for
    it. One it formatted in `fmt` as its loop ran is then copied from the
    writer's file, the rows as the loop recorded them; any other trace is
    formatted here. A pending trace in another format is refused."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown trace format {fmt!r}")
    written = trace.written
    if written is not None:
        written.reap()
        if written.fmt != fmt and len(trace) < written.sent:
            raise ValueError(f"the trace's rows went only to its {written.fmt}"
                             f" writer; it cannot be exported as {fmt}")
    streamed = written is not None and written.fmt == fmt
    try:
        if streamed and written.error is not None:
            raise OSError(written.error)    # before the path is opened
        with open(path, "wb") as f:
            if fmt == "csv":
                f.write((",".join(TRACE_COLUMNS) + "\r\n").encode())
            if streamed:
                written.file.seek(0)
                shutil.copyfileobj(written.file, f)
            else:
                _write_rows(f, trace, fmt)
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def _write_rows(f, trace: SimTrace, fmt: str) -> None:
    """The trace's rows to the binary file f, EXPORT_CHUNK rows per write.
    Each chunk is one % format of the row template, so every value is the
    repr of a Python int or float; in JSON lines the non-finite floats then
    take JSON's spelling (no finite repr starts with n or i)."""
    row = CSV_ROW if fmt == "csv" else JSONL_ROW
    columns = ((trace.k, int), (trace.t, float), (trace.theta, float),
               (trace.r, float), (trace.x, float), (trace.u, float),
               (trace.K[:, 0], float), (trace.K[:, 1], float),
               (trace.cell[:, 0], int), (trace.cell[:, 1], int),
               (trace.cost, float))
    n = len(trace)
    for a in range(0, n, EXPORT_CHUNK):
        b = min(a + EXPORT_CHUNK, n)
        text = (row * (b - a)) % tuple(chain.from_iterable(zip(*[
            col[a:b].astype(kind, copy=False).tolist()
            for col, kind in columns])))
        if fmt == "jsonl":
            text = (text.replace(": nan", ": NaN")
                    .replace(": inf", ": Infinity")
                    .replace(": -inf", ": -Infinity"))
        f.write(text.encode())


def _parallel_export(n: int) -> bool:
    """Whether a run of n steps streams its trace to a forked writer: it is
    long enough, os.fork exists, the process may run on two CPUs, and
    forking does not warn (Python 3.12+ with more than one OS thread)."""
    return (n >= PARALLEL_MIN_ROWS and hasattr(os, "fork") and _cpus() >= 2
            and not (_FORK_WARNS_WITH_THREADS and _os_threads() > 1))


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _os_threads() -> int:
    """The process's OS threads: Linux lists them under /proc; elsewhere
    only the interpreter's own threads are counted."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _reap(close, pid: int) -> int:
    """Close the writer's pipe if it is still open, so that it reads to the
    end, and wait for it: its exit code."""
    close()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


class _Writer:
    """One forked process that formats a run's trace as the loop sends it
    its (x, u, k_x, k_r, row, col) rows, EXPORT_CHUNK rows per pipe write:
    `rows_to_trace(chunk, first step)` adds the columns the fork shares, and
    the rows go to an unnamed temporary file that closes with this object.
    It leaves through os._exit, so no atexit handler or stdio flush runs
    twice, and collects no cycles, which would copy the pages it visits.

    The loop closes the pipe when it ends (`close`) and the export waits
    for the writer (`reap`); a writer whose trace is dropped unexported is
    reaped when this object is collected, or at interpreter exit. Each
    happens once: both are finalizers, which hold the pipe and the pid but
    not this object."""

    def __init__(self, fmt: str, rows_to_trace):
        self.fmt, self.sent, self.error = fmt, 0, None
        self.file = tempfile.TemporaryFile()
        weakref.finalize(self, self.file.close)
        read, self.fd = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(self.fd)
            raise
        if self.pid == 0:
            try:
                gc.disable()
                os.close(self.fd)
                with open(read, "rb") as pipe:
                    while data := pipe.read(EXPORT_CHUNK * 6 * 8):
                        chunk = rows_to_trace(
                            np.frombuffer(data).reshape(-1, 6), self.sent)
                        _write_rows(self.file, chunk, fmt)
                        self.sent += len(chunk)
                self.file.flush()
                os._exit(0)
            finally:
                os._exit(1)
        os.close(read)
        self.close = weakref.finalize(self, os.close, self.fd)
        self._reap = weakref.finalize(self, _reap, self.close, self.pid)

    def send(self, rows: array, m: int) -> None:
        """Rows [sent, m) of the loop's buffer; an exited writer takes none."""
        data = memoryview(rows)[6 * self.sent:6 * m].cast("B")
        self.sent = m
        with contextlib.suppress(BrokenPipeError):
            while data:   # one write unless a signal cuts it short
                data = data[os.write(self.fd, data):]

    def reap(self) -> None:
        """Wait for the writer to format all it was sent, closing the pipe
        first if the loop has not; a writer that failed leaves the reason
        in `error`. Only the first call waits."""
        code = self._reap()
        if code:
            self.error = ("the helper process formatting the trace " + (
                f"exited with status {code}" if code > 0
                else f"was killed by signal {-code}"))
