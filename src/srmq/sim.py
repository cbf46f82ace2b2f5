"""Closed-loop simulation harness.

Wires the phase model to a controller (scheduled Q-table, a single fixed
core, or the delta-modulation baseline), runs a deterministic fixed-step
loop with scenario events, and computes tracking metrics from the
recorded trace.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from . import plant, qlearn, scheduler
from .plant import (_QUIET_OVERFLOW, InductanceSurface, MotorParams,
                    ReferenceProfile, _require_bound, _require_seed,
                    _step_located, _wrapped_cells)
from .scheduler import QCoreTable, SafetyAbortError

CONTROLLERS = ("scheduled-qlearning", "single-qcore", "delta-modulation")

TRACE_COLUMNS = ("k", "t_s", "theta_deg", "r_A", "x_A", "u_V",
                 "K1", "K2", "cell_row", "cell_col", "cost")

EXPORT_CHUNK = 256       # trace rows converted to strings at a time on export

# one trace row as the csv module and json.dumps write it: every value is
# the repr of a Python int or float, which json.dumps spells NaN, Infinity
# and -Infinity for the non-finite floats
CSV_ROW = ",".join(["{}"] * len(TRACE_COLUMNS)) + "\r\n"
JSONL_ROW = "{{" + ", ".join(f'"{name}": {{}}' for name in TRACE_COLUMNS) + "}}\n"
JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# the longest run a scenario may ask for, checked before the loop starts:
# 800 electrical cycles at the defaults, about 64 MB of trace rows
MAX_STEPS = 10**6

# steps whose rotor angles, reference samples and theta-axis cells are
# computed together, in one numpy pass each, before the loop runs them
BLOCK = 2048

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
            raise ValueError(f"controller must be one of {CONTROLLERS}, "
                             f"got {self.controller!r}")
        if not 0 < self.steps <= MAX_STEPS:
            raise ValueError(f"duration must be 1 to MAX_STEPS = {MAX_STEPS} "
                             f"steps, got {self.steps} (duration_cycles x the "
                             "steps per cycle from speed_rpm and t_sample)")
        _require_bound("dither", self.dither)
        _require_bound("r_scale", self.r_scale, positive=True)
        _require_bound("delta_band", self.delta_band)
        _require_seed("seed", self.seed)

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


@_QUIET_OVERFLOW
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

    plant_params = replace(params, R_phase=params.R_phase * scenario.r_scale)

    n = scenario.steps
    i_limit = cfg.safety_factor * params.i_nominal
    if scenario.controller == "single-qcore":
        # the core nearest the middle of the conduction window at i_ref
        cell = scheduler.schedule(
            table, (profile.theta_on + profile.theta_off) / 2, profile.i_ref)[2]
        single = (*scheduler._core_gain(table, cell), cell)

    # one row per recorded step: theta, r, x, u, k_x, k_r, row, col
    rows = array("d")

    x = theta = 0.0
    r = plant.reference_at(profile, theta, 0)
    scheduled = scenario.controller == "scheduled-qlearning"
    learn = scenario.online_learning and scheduled
    dither = None
    if learn and scenario.dither > 0:
        # every step's dither in one draw, read back as Python floats: the
        # same numbers as one scalar rng.uniform(-1, 1) per step, and the
        # loop draws nothing else
        dither = memoryview(scenario.dither * np.random.default_rng(
            scenario.seed).uniform(-1, 1, n))

    def finish():
        buf = np.frombuffer(rows).reshape(-1, 8)
        ks = np.arange(len(buf))
        theta, r, x, u = buf[:, :4].T
        # the cost column in one stacked pass, bit for bit as
        # qlearn.stage_cost at every step
        cost = qlearn._stage_costs(x, r, u, Q_q, R_u)
        return SimTrace(ks, ks * params.T, theta, r, x, u, buf[:, 4:6],
                        buf[:, 6:].astype(int), cost)

    schedule_located = scheduler._schedule_located
    V_dc = params.V_dc
    for k0 in range(0, n, BLOCK):
        # the half of the step that does not depend on the phase current:
        # the block's rotor angles (and the one after it), the reference at
        # each step's successor, and the angles' cells on the surface's
        # and the table's theta nodes, read back as Python floats and ints
        m = min(BLOCK, n - k0)
        angles = plant._rotor_angles(plant_params, theta, m)
        track = np.frombuffer(angles)
        refs = memoryview(plant._references(profile, track[1:], k0 + 1))
        s_row, s_l1 = map(memoryview, _wrapped_cells(surface.theta_grid,
                                                     track[:m]))
        if scheduled:
            t_row, t_l1 = map(memoryview, _wrapped_cells(table.theta_nodes,
                                                         track[:m]))
        for j in range(m):
            k = k0 + j
            if scenario.controller == "delta-modulation":
                u = delta_modulation_step(x, r, V_dc, scenario.delta_band)
                k_x = k_r = 0.0
                cell = (-1, -1)
            else:
                if scheduled:
                    k_x, k_r, cell = schedule_located(table, t_row[j],
                                                      t_l1[j], x)
                else:
                    k_x, k_r, cell = single
                u = -(k_x * x + k_r * r)
                if dither is not None:
                    u += dither[k]
            u = min(max(float(u), -V_dc), V_dc)

            rows.extend((angles[j], r, x, u, k_x, k_r, *cell))

            x_next = _step_located(x, u, plant_params, surface, s_row[j],
                                   s_l1[j])

            if x_next > i_limit:
                err = SafetyAbortError(
                    f"current {x_next:#.4g} A exceeded the {i_limit:#.4g} A "
                    f"safety bound at step {k}")
                err.trace = finish()
                raise err

            r_next = refs[j]
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
        theta = angles[m]

    return finish()


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
    the csv module and one json.dumps per row would write.  Columns are
    turned into strings EXPORT_CHUNK rows at a time, which keeps the list
    copies small."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown trace format {fmt!r}")
    columns = ((trace.k, int), (trace.t, float), (trace.theta, float),
               (trace.r, float), (trace.x, float), (trace.u, float),
               (trace.K[:, 0], float), (trace.K[:, 1], float),
               (trace.cell[:, 0], int), (trace.cell[:, 1], int),
               (trace.cost, float))
    row = CSV_ROW if fmt == "csv" else JSONL_ROW
    try:
        with open(path, "w", newline="") as f:
            if fmt == "csv":
                f.write(",".join(TRACE_COLUMNS) + "\r\n")
            for lo in range(0, len(trace), EXPORT_CHUNK):
                f.writelines(map(row.format, *[
                    _strings(col[lo:lo + EXPORT_CHUNK], kind, fmt)
                    for col, kind in columns]))
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def _strings(chunk: np.ndarray, kind, fmt: str):
    """The chunk's values as the reprs of Python ints or floats; in JSON
    lines the non-finite floats take JSON's spelling."""
    strings = map(repr, chunk.astype(kind, copy=False).tolist())
    if fmt == "jsonl" and kind is float and not np.isfinite(chunk).all():
        return [JSON_NONFINITE.get(s, s) for s in strings]
    return strings
