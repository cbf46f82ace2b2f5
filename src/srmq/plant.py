"""Single-phase SRM electrical model.

Discrete-time phase-current dynamics with a nonlinear inductance surface
L(theta, i), rotor kinematics at constant speed, and the pulse-train
reference generator.  Everything here is a pure function over immutable
values, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

# 1 RPM = 6 mechanical degrees per second
RPM_TO_DEG_PER_S = 6.0

# the least inductance value of a surface: blending normal floats with
# weights that sum to 1 never rounds to 0
MIN_INDUCTANCE = float(np.finfo(float).tiny)

# the most nodes per axis of an analytic surface or a Q-core grid
MAX_AXIS_NODES = 256

# the overflow rule: what overflows is carried as inf or nan without a numpy
# warning, masked out of the results, and the checks on live values decide
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _is_bool(value) -> bool:
    """A Python or numpy boolean: bool subclasses int, so a JSON true would
    pass as the number 1 wherever a number is compared or summed."""
    return isinstance(value, (bool, np.bool_))


def _require_bound(name: str, value: float, positive: bool = False) -> None:
    """Raise ValueError naming `name` unless `value` is a finite number >= 0
    (> 0 if `positive`), not a boolean; written so that nan fails too."""
    ok = value > 0 if positive else value >= 0
    if _is_bool(value) or not (ok and math.isfinite(value)):
        bound = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be {bound} and finite, got {value!r}")


def _require_ascending(name: str, nodes: np.ndarray) -> None:
    """Raise ValueError naming `name` unless the nodes are finite and
    strictly ascending; written so that nan and inf fail too."""
    if not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0)):
        raise ValueError(f"{name} must be finite and strictly ascending")


def _is_int(value) -> bool:
    """A Python or numpy integer, not a boolean (np.bool_ is no np.integer)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_seed(name: str, value: int) -> None:
    """Raise ValueError naming `name` unless `value` is a non-negative
    integer, the seeds numpy's generators take."""
    if not (_is_int(value) and value >= 0):
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def _require_count(name: str, value: int, lo: int, hi: int) -> None:
    """Raise ValueError naming `name` unless `value` is an int in [lo, hi]."""
    if not (_is_int(value) and lo <= value <= hi):
        raise ValueError(f"{name} must be an integer from {lo} to {hi}, "
                         f"got {value!r}")


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
            raise ValueError("L_unaligned must be positive and below L_aligned"
                             f" = {self.L_aligned!r}, got {self.L_unaligned!r}")

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
        _require_ascending("theta_grid", self.theta_grid)
        _require_ascending("current_grid", self.current_grid)
        if self.values.shape != (self.theta_grid.size, self.current_grid.size):
            raise ValueError("values shape must be (n_theta, n_current)")
        if np.any(self.values <= 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("inductance values must be positive and finite")
        if np.any(self.values < MIN_INDUCTANCE):
            # a blend of subnormal values can round to 0 and divide by it
            raise ValueError(f"inductance values must be at least "
                             f"{MIN_INDUCTANCE!r} H, the smallest normal float, "
                             f"got {float(self.values.min())!r}")
        if not np.allclose(self.values[0], self.values[-1], rtol=0, atol=1e-12):
            raise ValueError("first and last theta columns must match (periodic)")
        if np.any(np.diff(self.values, axis=1) > 1e-12):
            raise ValueError("values must be non-increasing in current (saturation)")
        object.__setattr__(self, "_theta_list", self.theta_grid.tolist())
        object.__setattr__(self, "_current_list", self.current_grid.tolist())
        object.__setattr__(self, "_values_list", self.values.tolist())


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


@_QUIET_OVERFLOW
def _wrapped_cells(nodes: np.ndarray, values: np.ndarray):
    """(rows, fracs): _axis_locate(nodes.tolist(), v, wrap=True) for every v
    of a float64 array, as one int64 and one float64 array, bit for bit:
    the same + - / % in the same order, np.searchsorted for bisect_right.
    Worked in place, so a block of values costs four buffers of its size."""
    n = nodes.size
    if n == 1:
        return np.zeros(values.size, np.int64), np.zeros(values.size)
    values = values - nodes[0]
    values %= nodes[-1] - nodes[0]
    values += nodes[0]
    # the wrapped value is at least nodes[0], so no row is below 0
    idx = np.searchsorted(nodes, values, side="right")
    idx -= 1
    top = idx >= n - 1
    idx[top] = 0      # any cell; the top node's entries are set below
    lo = nodes[idx]
    hi = nodes[1:][idx]
    values -= lo
    hi -= lo
    values /= hi
    idx[top], values[top] = n - 1, 0.0
    return idx, values


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


def _inductance_located(surface: InductanceSurface, row: int, l1: float,
                        i: float) -> float:
    """Bilinear lookup of L at the angle cell (row, l1) of the surface's
    theta grid and the current i, which clamps to the grid."""
    col, l2 = _axis_locate(surface._current_list, i, wrap=False)
    w00, w10, w01, w11 = _weights(l1, l2)
    v00, v10, v01, v11 = _corners(surface._values_list, row, col)
    return w00 * v00 + w10 * v10 + w01 * v01 + w11 * v11


def inductance_at(surface: InductanceSurface, theta: float, i: float) -> float:
    """Bilinear lookup of L(theta, i); theta wraps, current clamps to the grid."""
    row, l1 = _axis_locate(surface._theta_list, theta, wrap=True)
    return _inductance_located(surface, row, l1, i)


def _linearised(params: MotorParams, L: float):
    """(L, A, B): the phase model x' = A x + B u with the inductance L."""
    return L, 1 - params.T * params.R_phase / L, params.T / L


def frozen_dynamics(params: MotorParams, surface: InductanceSurface,
                    theta: float, i: float):
    """(L, A, B): the inductance at (theta, i) and the phase model
    x' = A x + B u linearised with L frozen there."""
    return _linearised(params, inductance_at(surface, theta, i))


@_QUIET_OVERFLOW
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
    _require_bound("kappa", kappa)
    _require_bound("i_sat", i_sat, positive=True)
    _require_bound("i_max", i_max, positive=True)
    for name, n in (("n_theta", n_theta), ("n_current", n_current)):
        _require_count(name, n, 2, MAX_AXIS_NODES)
    theta = np.linspace(0.0, params.rotor_pitch, n_theta)
    current = np.linspace(0.0, i_max, n_current)
    shape = (1 + np.cos(2 * np.pi * theta / params.rotor_pitch)) / 2
    # with kappa = 0 the saturation term is exactly 1, also where
    # (i / i_sat)^2 overflows and 0 * inf would be nan
    sat = 1.0 / (1.0 + kappa * (current / i_sat) ** 2) if kappa \
        else np.ones_like(current)
    values = params.L_unaligned + (params.L_aligned - params.L_unaligned) \
        * np.outer(shape, sat)
    return InductanceSurface(theta, current, values)


def _step_located(x: float, u: float, params: MotorParams,
                  surface: InductanceSurface, row: int, l1: float) -> float:
    """x': the phase current one sample on under applied voltage u, with
    the rotor angle given as its cell (row, l1) on the surface's theta grid.

    x' = A x + B u with A, B from the inductance at the angle and x, the
    frozen_dynamics each Q-core is trained against; the current is clamped
    at zero (the asymmetric bridge cannot drive it negative).
    """
    if not math.isfinite(u):
        raise ValueError("applied voltage must be finite")
    _, A, B = _linearised(params, _inductance_located(surface, row, l1, x))
    return max(0.0, A * x + B * u)


def _rotor_angles(params: MotorParams, theta: float, n: int) -> array:
    """The rotor angle theta and the n angles after it, one sample apart at
    constant speed, as one array("d"): (theta + deg_per_step) % rotor_pitch,
    accumulated one step at a time."""
    step, pitch = params.deg_per_step, params.rotor_pitch
    angles = array("d", [theta])
    for _ in range(n):
        theta = (theta + step) % pitch
        angles.append(theta)
    return angles


def step_phase(x: float, theta: float, u: float, params: MotorParams,
               surface: InductanceSurface):
    """(x', theta'): the phase current and rotor angle one sample on under
    applied voltage u (see _step_located and _rotor_angles)."""
    row, l1 = _axis_locate(surface._theta_list, theta, wrap=True)
    return (_step_located(x, u, params, surface, row, l1),
            _rotor_angles(params, theta, 1)[1])


def _references(profile: ReferenceProfile, thetas: np.ndarray,
                k: int) -> np.ndarray:
    """reference_at(profile, thetas[j], k + j) for every j, as one float64
    array.  The amplitude changes only at the step events inside the block,
    so amplitude_at is read once per stretch between them."""
    events, m = profile.step_events, thetas.size
    inside = events[bisect_right(events, (k, math.inf)):
                    bisect_left(events, (k + m, -math.inf))]
    cuts = [k, *(step for step, _ in inside), k + m]
    amplitude = np.empty(m)
    for lo, hi in zip(cuts, cuts[1:]):
        amplitude[lo - k:hi - k] = profile.amplitude_at(lo)
    window = (profile.theta_on <= thetas) & (thetas < profile.theta_off)
    return np.where(window, amplitude, 0.0)


def reference_at(profile: ReferenceProfile, theta: float, k: int) -> float:
    """Reference current sample: pulse amplitude inside the conduction window."""
    return float(_references(profile, np.array([theta], float), k)[0])


def save_surface_csv(surface: InductanceSurface, path) -> None:
    """Write the surface: first row = current grid, first column = theta grid."""
    with open(path, "w") as f:
        f.write("theta_deg," + ",".join(repr(float(c))
                                        for c in surface.current_grid) + "\n")
        for th, row in zip(surface.theta_grid, surface.values):
            f.write(repr(float(th)) + ","
                    + ",".join(repr(float(v)) for v in row) + "\n")


def load_surface_csv(path) -> InductanceSurface:
    """Read a surface written by save_surface_csv (strict rectangular shape);
    every ValueError names the file, and a parse error its line, counted
    from 1 with the header."""
    try:
        with open(path) as f:
            rows = [(n, line.split(",")) for n, line in enumerate(f, 1)
                    if line.strip()]
        if len(rows) < 3:
            raise ValueError("surface file needs a header and >= 2 rows")
        rows[0][1][0] = "nan"    # the header's corner cell is a label
        width = len(rows[0][1])
        grid = []
        for n, cells in rows:
            if len(cells) != width:
                raise ValueError(f"line {n}: ragged row, expected {width} "
                                 f"columns, got {len(cells)}")
            try:
                grid.append([float(v) for v in cells])
            except ValueError as exc:
                raise ValueError(f"line {n}: {exc}") from None
        grid = np.array(grid)
        return InductanceSurface(grid[1:, 0], grid[0, 1:], grid[1:, 1:])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
