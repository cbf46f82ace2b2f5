"""Closed-loop simulation harness.

Wires the phase model to a controller (scheduled Q-table, a single fixed
core, or the delta-modulation baseline), runs a deterministic fixed-step
loop with scenario events, and computes tracking metrics from the
recorded trace.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from . import qlearn, scheduler
from .plant import (InductanceSurface, MotorParams, PhaseState,
                    ReferenceProfile, reference_at, step_phase)
from .scheduler import QCoreTable, SafetyAbortError

CONTROLLERS = ("scheduled-qlearning", "single-qcore", "delta-modulation")

TRACE_COLUMNS = ("k", "t_s", "theta_deg", "r_A", "x_A", "u_V",
                 "K1", "K2", "cell_row", "cell_col", "cost")

EXPORT_CHUNK = 256       # trace rows converted to Python values at a time on export

SETTLE_FRACTION = 0.05   # |x - r| below this fraction of the amplitude counts as settled


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
            raise ValueError(f"unknown controller {self.controller!r}; "
                             f"expected one of {CONTROLLERS}")
        if self.steps <= 0:
            raise ValueError("duration must be positive")
        if self.dither < 0:
            raise ValueError("dither must be non-negative")
        if self.r_scale <= 0:
            raise ValueError("r_scale must be positive")

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

    def __len__(self):
        return self.k.size


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


def run_closed_loop(scenario: Scenario, table: QCoreTable | None = None) -> SimTrace:
    """Run the scenario; deterministic for a fixed seed.

    Raises SafetyAbortError (carrying the partial trace in .trace) if the
    phase current exceeds the table's safety_factor (the TableTrainConfig
    default without a table) times the nominal rating.
    """
    params, surface, profile = scenario.motor, scenario.surface, scenario.reference
    uses_table = scenario.controller != "delta-modulation"
    if uses_table and table is None:
        raise ValueError(f"controller {scenario.controller!r} needs a trained table")

    cfg = table.cfg if table is not None else scheduler.TableTrainConfig()
    Q_q = cfg.tracking_weight()
    R_u = cfg.r_weight

    plant_params = params if scenario.r_scale == 1.0 else \
        replace(params, R_phase=params.R_phase * scenario.r_scale)

    rng = np.random.default_rng(scenario.seed)
    n = scenario.steps
    i_limit = cfg.safety_factor * params.i_nominal
    if scenario.controller == "single-qcore":
        # the core nearest the middle of the conduction window at i_ref
        single = scheduler._nearest_node(
            table, (profile.theta_on + profile.theta_off) / 2, profile.i_ref)
        single_K = scheduler._core_gain(table, single)

    rec = {name: np.zeros(n) for name in ("theta", "r", "x", "u", "cost")}
    K_rec = np.zeros((n, 2))
    cell_rec = np.full((n, 2), -1, int)

    state = PhaseState()
    learn = scenario.online_learning and scenario.controller == "scheduled-qlearning"

    def finish(m):
        ks = np.arange(m)
        return SimTrace(ks, ks * params.T, rec["theta"][:m], rec["r"][:m],
                        rec["x"][:m], rec["u"][:m], K_rec[:m], cell_rec[:m],
                        rec["cost"][:m])

    for k in range(n):
        theta, x = state.theta, state.x
        r = reference_at(profile, theta, k)

        if scenario.controller == "delta-modulation":
            u = delta_modulation_step(x, r, params.V_dc, scenario.delta_band)
            k_x = k_r = 0.0
            cell = (-1, -1)
        else:
            if scenario.controller == "single-qcore":
                cell = single
                k_x, k_r = single_K
            else:
                k_x, k_r, cell = scheduler.schedule(table, theta, x)
            u = -(k_x * x + k_r * r)
            if learn and scenario.dither > 0:
                u += scenario.dither * rng.uniform(-1, 1)
        u = min(max(float(u), -params.V_dc), params.V_dc)

        rec["theta"][k] = theta
        rec["r"][k] = r
        rec["x"][k] = x
        rec["u"][k] = u
        rec["cost"][k] = qlearn.stage_cost((x, r), u, Q_q, R_u)
        K_rec[k, 0], K_rec[k, 1] = k_x, k_r
        cell_rec[k, 0], cell_rec[k, 1] = cell

        state = step_phase(state, u, plant_params, surface)

        if state.x > i_limit:
            err = SafetyAbortError(
                f"current {state.x:.2f} A exceeded the {i_limit:.2f} A safety "
                f"bound at step {k}")
            err.trace = finish(k + 1)
            raise err

        if learn:
            r_next = reference_at(profile, state.theta, k + 1)
            # the tuple is only Bellman-consistent on flat reference
            # segments away from the zero-current clamp (a clamped step
            # lands on exactly 0.0); settled samples are skipped because a
            # steady operating point only constrains the kernel's level,
            # not its shape, and would drag the gain around
            transient = r > 0 and abs(x - r) >= SETTLE_FRACTION * r
            if transient and r_next == r and state.x > 0.0:
                g_x, g_r = scheduler._core_gain(table, cell)
                u_next = -(g_x * state.x + g_r * r_next)
                tup = qlearn.DataTuple(np.array([x, r, u]),
                                       np.array([state.x, r_next, u_next]),
                                       rec["cost"][k])
                scheduler.update_core_online(table, tup, cell)

    return finish(n)


def _conduction_windows(trace: SimTrace, start: int):
    """Contiguous runs of constant positive reference from `start` on."""
    windows = []
    n = len(trace)
    k = start
    while k < n:
        if trace.r[k] > 0:
            j = k
            while j + 1 < n and trace.r[j + 1] == trace.r[k]:
                j += 1
            windows.append((k, j + 1))
            k = j + 1
        else:
            k += 1
    return windows


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
    """Write the trace as CSV (fixed column order) or JSON lines."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown trace format {fmt!r}")
    try:
        with open(path, "w", newline="") as f:
            if fmt == "csv":
                w = csv.writer(f)
                w.writerow(TRACE_COLUMNS)
                w.writerows(_rows(trace))
            else:
                for row in _rows(trace):
                    f.write(json.dumps(dict(zip(TRACE_COLUMNS, row))) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def _rows(trace: SimTrace):
    """Trace rows in TRACE_COLUMNS order as Python ints and floats (str of a
    float is its repr, so values round-trip exactly).  Columns are converted
    EXPORT_CHUNK rows at a time, which keeps the list copies small."""
    columns = ((trace.k, int), (trace.t, float), (trace.theta, float),
               (trace.r, float), (trace.x, float), (trace.u, float),
               (trace.K[:, 0], float), (trace.K[:, 1], float),
               (trace.cell[:, 0], int), (trace.cell[:, 1], int),
               (trace.cost, float))
    for lo in range(0, len(trace), EXPORT_CHUNK):
        # a list, not a generator, as zip's arguments: zip(*generator) left
        # peak RSS 0.25 MB higher after a few hundred exports
        yield from zip(*[col[lo:lo + EXPORT_CHUNK].astype(kind, copy=False).tolist()
                         for col, kind in columns])
