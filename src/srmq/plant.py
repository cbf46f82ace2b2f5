"""Single-phase SRM electrical model.

Discrete-time phase-current dynamics with a nonlinear inductance surface
L(theta, i), rotor kinematics at constant speed, and the pulse-train
reference generator.  Everything here is a pure function over immutable
values, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

# 1 RPM = 6 mechanical degrees per second
RPM_TO_DEG_PER_S = 6.0


def _require_bound(name: str, value: float, positive: bool = False) -> None:
    """Raise ValueError naming `name` unless `value` is finite and >= 0
    (> 0 if `positive`); written so that nan fails too."""
    ok = value > 0 if positive else value >= 0
    if not (ok and math.isfinite(value)):
        bound = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be {bound} and finite, got {value!r}")


@dataclass(frozen=True)
class MotorParams:
    """Electrical and kinematic parameters of one SRM phase."""

    R_phase: float = 2.0        # ohm
    T: float = 1e-4             # sample period, s
    L_unaligned: float = 6e-3   # H
    L_aligned: float = 16e-3    # H
    rotor_pitch: float = 45.0   # mechanical degrees per electrical period
    speed: float = 60.0         # RPM
    V_dc: float = 300.0         # supply magnitude, V
    i_nominal: float = 5.0      # rated current, A

    def __post_init__(self):
        for name in ("R_phase", "T", "rotor_pitch", "speed", "V_dc", "i_nominal"):
            _require_bound(name, getattr(self, name), positive=True)
        if not (0 < self.L_unaligned < self.L_aligned):
            raise ValueError("need 0 < L_unaligned < L_aligned")

    @property
    def deg_per_step(self) -> float:
        return self.speed * RPM_TO_DEG_PER_S * self.T

    @property
    def steps_per_cycle(self) -> int:
        """Samples in one electrical period (one rotor pitch)."""
        return int(round(self.rotor_pitch / self.deg_per_step))


@dataclass(frozen=True)
class InductanceSurface:
    """Tabulated phase inductance over (rotor angle, current).

    theta_grid spans exactly one rotor pitch with both endpoints present;
    the first and last angle columns must be equal so the surface continues
    periodically.  Values must be non-increasing in current at fixed angle
    (magnetic saturation).  The surface is fixed once built: its nodes and
    values are also kept as (nested) lists of Python floats for the scalar
    lookup.
    """

    theta_grid: np.ndarray   # deg, strictly ascending
    current_grid: np.ndarray  # A, strictly ascending
    values: np.ndarray       # H, shape (n_theta, n_current)

    def __post_init__(self):
        object.__setattr__(self, "theta_grid", np.asarray(self.theta_grid, float))
        object.__setattr__(self, "current_grid", np.asarray(self.current_grid, float))
        object.__setattr__(self, "values", np.asarray(self.values, float))
        if self.theta_grid.ndim != 1 or self.theta_grid.size < 2:
            raise ValueError("theta_grid needs at least 2 nodes")
        if self.current_grid.ndim != 1 or self.current_grid.size < 2:
            raise ValueError("current_grid needs at least 2 nodes")
        if np.any(np.diff(self.theta_grid) <= 0):
            raise ValueError("theta_grid must be strictly ascending")
        if np.any(np.diff(self.current_grid) <= 0):
            raise ValueError("current_grid must be strictly ascending")
        if self.values.shape != (self.theta_grid.size, self.current_grid.size):
            raise ValueError("values shape must be (n_theta, n_current)")
        if np.any(self.values <= 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("inductance values must be positive and finite")
        if not np.allclose(self.values[0], self.values[-1], rtol=0, atol=1e-12):
            raise ValueError("first and last theta columns must match (periodic)")
        if np.any(np.diff(self.values, axis=1) > 1e-12):
            raise ValueError("values must be non-increasing in current (saturation)")
        object.__setattr__(self, "_theta_list", self.theta_grid.tolist())
        object.__setattr__(self, "_current_list", self.current_grid.tolist())
        object.__setattr__(self, "_values_list", self.values.tolist())

    @property
    def pitch(self) -> float:
        return float(self.theta_grid[-1] - self.theta_grid[0])


@dataclass(frozen=True)
class ReferenceProfile:
    """Square-pulse current reference over the conduction window.

    step_events is a sequence of (step index, new amplitude) in step order;
    the amplitude in force at step k is the last event's with index <= k.
    """

    i_ref: float = 4.0
    theta_on: float = 10.0
    theta_off: float = 35.0
    step_events: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "step_events",
                           tuple((int(k), float(a)) for k, a in self.step_events))
        _require_bound("i_ref", self.i_ref)
        for k, amplitude in self.step_events:
            _require_bound(f"event amplitude at step {k}", amplitude)
        if not (0 <= self.theta_on < self.theta_off):
            raise ValueError("need 0 <= theta_on < theta_off")
        steps = [k for k, _ in self.step_events]
        if steps != sorted(steps):
            raise ValueError(f"step events must be in step order, got steps {steps}")

    def amplitude_at(self, k: int) -> float:
        # events at equal steps: the last one wins
        n = bisect_right(self.step_events, (k, math.inf))
        return self.step_events[n - 1][1] if n else self.i_ref


def _axis_locate(nodes: list, value: float, wrap: bool):
    """(idx, frac): the lower node of the cell holding `value` on the
    ascending list of float nodes and the offset in [0, 1) toward the next
    node; the value wraps over the span or clamps to the end nodes."""
    n = len(nodes)
    if n == 1:
        return 0, 0.0
    if wrap:
        # wrapped value lands in [nodes[0], nodes[-1]), never on the top node
        span = nodes[-1] - nodes[0]
        value = nodes[0] + (value - nodes[0]) % span
    else:
        value = min(max(value, nodes[0]), nodes[-1])
    idx = bisect_right(nodes, value) - 1
    if idx >= n - 1:
        # at (or clamped to) the top node: that node is the lower corner, l = 0
        return n - 1, 0.0
    idx = max(idx, 0)
    frac = (value - nodes[idx]) / (nodes[idx + 1] - nodes[idx])
    return idx, float(frac)


def _locate(theta_nodes: list, current_nodes: list, theta: float, i: float):
    """(row, col, l1, l2): lower corner and offsets of the cell holding
    (theta, i) on the two node lists; theta wraps, current clamps."""
    row, l1 = _axis_locate(theta_nodes, theta, wrap=True)
    col, l2 = _axis_locate(current_nodes, i, wrap=False)
    return row, col, l1, l2


def _weights(l1: float, l2: float):
    """Bilinear weights of the corners (row, col), (row+1, col),
    (row, col+1), (row+1, col+1), in that order."""
    return (1 - l1) * (1 - l2), l1 * (1 - l2), (1 - l1) * l2, l1 * l2


def _corners(grid: list, row: int, col: int):
    """The four node entries around a cell of a nested-list grid, in the
    order of _weights; the upper corner saturates at the last node, where
    its weight is zero."""
    lo, hi = grid[row], grid[min(row + 1, len(grid) - 1)]
    c1 = min(col + 1, len(lo) - 1)
    return lo[col], hi[col], lo[c1], hi[c1]


def inductance_at(surface: InductanceSurface, theta: float, i: float) -> float:
    """Bilinear lookup of L(theta, i); theta wraps, current clamps to the grid."""
    row, col, l1, l2 = _locate(surface._theta_list, surface._current_list,
                               theta, i)
    w00, w10, w01, w11 = _weights(l1, l2)
    v00, v10, v01, v11 = _corners(surface._values_list, row, col)
    return w00 * v00 + w10 * v10 + w01 * v01 + w11 * v11


def frozen_dynamics(params: MotorParams, surface: InductanceSurface,
                    theta: float, i: float):
    """(L, A, B): the inductance at (theta, i) and the phase model
    x' = A x + B u linearised with L frozen there."""
    L = inductance_at(surface, theta, i)
    return L, 1 - params.T * params.R_phase / L, params.T / L


def default_surface(params: MotorParams, n_theta: int = 16, n_current: int = 8,
                    kappa: float = 0.5, i_sat: float | None = None,
                    i_max: float | None = None) -> InductanceSurface:
    """Analytic stand-in surface: raised cosine in angle times saturation in current.

    L(theta, i) = L_u + (L_a - L_u) * (1 + cos(2*pi*theta/pitch)) / 2 * s(i)
    with s(i) = 1 / (1 + kappa * (i / i_sat)^2) applied to the varying part,
    so the aligned/unaligned endpoints are preserved as i -> 0.
    """
    if i_sat is None:
        i_sat = params.i_nominal
    if i_max is None:
        i_max = 1.5 * params.i_nominal
    theta = np.linspace(0.0, params.rotor_pitch, n_theta)
    current = np.linspace(0.0, i_max, n_current)
    shape = (1 + np.cos(2 * np.pi * theta / params.rotor_pitch)) / 2
    sat = 1.0 / (1.0 + kappa * (current / i_sat) ** 2)
    values = params.L_unaligned + (params.L_aligned - params.L_unaligned) \
        * np.outer(shape, sat)
    return InductanceSurface(theta, current, values)


def step_phase(x: float, theta: float, u: float, params: MotorParams,
               surface: InductanceSurface):
    """(x', theta'): the phase current and rotor angle one sample on under
    applied voltage u.

    x' = A x + B u with A, B from frozen_dynamics at (theta, x), the model
    each Q-core is trained against; the current is clamped at zero (the
    asymmetric bridge cannot drive it negative) and the rotor advances at
    constant speed.
    """
    if not math.isfinite(u):
        raise ValueError("applied voltage must be finite")
    _, A, B = frozen_dynamics(params, surface, theta, x)
    theta_next = (theta + params.deg_per_step) % params.rotor_pitch
    return max(0.0, A * x + B * u), theta_next


def reference_at(profile: ReferenceProfile, theta: float, k: int) -> float:
    """Reference current sample: pulse amplitude inside the conduction window."""
    if profile.theta_on <= theta < profile.theta_off:
        return profile.amplitude_at(k)
    return 0.0


def save_surface_csv(surface: InductanceSurface, path) -> None:
    """Write the surface: first row = current grid, first column = theta grid."""
    with open(path, "w") as f:
        f.write("theta_deg," + ",".join(repr(float(c))
                                        for c in surface.current_grid) + "\n")
        for th, row in zip(surface.theta_grid, surface.values):
            f.write(repr(float(th)) + ","
                    + ",".join(repr(float(v)) for v in row) + "\n")


def load_surface_csv(path) -> InductanceSurface:
    """Read a surface written by save_surface_csv (strict rectangular shape)."""
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if len(lines) < 3:
        raise ValueError(f"{path}: surface file needs a header and >= 2 rows")
    current = np.array([float(v) for v in lines[0].split(",")[1:]])
    theta, rows = [], []
    width = current.size
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != width + 1:
            raise ValueError(f"{path}: ragged row, expected {width + 1} cells")
        theta.append(float(cells[0]))
        rows.append([float(v) for v in cells[1:]])
    return InductanceSurface(np.array(theta), current, np.array(rows))
