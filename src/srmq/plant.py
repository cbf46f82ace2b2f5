"""Single-phase SRM electrical model.

Discrete-time phase-current dynamics with a nonlinear inductance surface
L(theta, i), rotor kinematics at constant speed, and the pulse-train
reference generator.  Everything here is a pure function over immutable
values, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

# 1 RPM = 6 mechanical degrees per second
RPM_TO_DEG_PER_S = 6.0

# the least inductance value of a surface: blending normal floats with
# weights that sum to 1 never rounds to 0
MIN_INDUCTANCE = float(np.finfo(float).tiny)

# the most nodes per axis of a surface, and so of its Q-core table
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


def _require_axis(name: str, nodes: np.ndarray) -> None:
    """Raise ValueError naming `name` unless the nodes are an axis of a
    surface grid: 1-D, 2 to MAX_AXIS_NODES nodes, finite and strictly
    ascending; written so that nan and inf fail too."""
    if nodes.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {nodes.shape}")
    if not 2 <= nodes.size <= MAX_AXIS_NODES:
        raise ValueError(f"{name} needs at least 2 nodes and at most "
                         f"{MAX_AXIS_NODES}, got {nodes.size}")
    if not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0)):
        raise ValueError(f"{name} must be finite and strictly ascending")


def _is_int(value) -> bool:
    """A Python or numpy integer, not a boolean (np.bool_ is no np.integer)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_natural(name: str, value: int) -> None:
    """Raise ValueError naming `name` unless `value` is a non-negative
    integer, as a seed of numpy's generators or a step count."""
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
        # a step that underflows to 0 deg, or one so small that a rotor
        # pitch is an infinite number of them, leaves no steps_per_cycle
        deg = self.deg_per_step
        if not (deg > 0 and math.isfinite(self.rotor_pitch / deg)):
            raise ValueError(
                f"speed x t_sample = {self.speed!r} RPM x {self.T!r} s turns "
                f"the rotor {deg!r} deg per sample, so one rotor pitch is no "
                "finite number of samples")

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
    periodically.  An angle locates by its offset from the first node, so
    the nodes' offsets must be strictly ascending floats too.  Values must be non-increasing in current at fixed angle
    (magnetic saturation).  The surface is fixed once built: its current
    nodes and its values are also kept as (nested) lists of Python floats
    for the scalar lookup, and `_cells[row][col]` holds the four values
    around each cell (see _cell_corners), so a lookup reads its cell once.
    """

    theta_grid: np.ndarray   # deg, strictly ascending
    current_grid: np.ndarray  # A, strictly ascending
    values: np.ndarray       # H, shape (n_theta, n_current)

    def __post_init__(self):
        object.__setattr__(self, "theta_grid", np.asarray(self.theta_grid, float))
        object.__setattr__(self, "current_grid", np.asarray(self.current_grid, float))
        object.__setattr__(self, "values", np.asarray(self.values, float))
        _require_axis("theta_grid", self.theta_grid)
        # nodes whose offsets round together would locate onto one node
        offsets = self.theta_grid - self.theta_grid[0]
        same = np.flatnonzero(np.diff(offsets) <= 0)
        if same.size:
            k = int(same[0])
            raise ValueError(
                f"theta_grid nodes {float(self.theta_grid[k])!r} and "
                f"{float(self.theta_grid[k + 1])!r} deg lie at the same "
                f"offset {float(offsets[k])!r} deg from the first node "
                f"{float(self.theta_grid[0])!r} deg; the offsets must be "
                "strictly ascending")
        _require_axis("current_grid", self.current_grid)
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
        object.__setattr__(self, "_current_list", self.current_grid.tolist())
        object.__setattr__(self, "_values_list", self.values.tolist())
        object.__setattr__(self, "_cells", _cell_corners(self._values_list))


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
        for event in self.step_events:
            if not _is_int(event[0]):
                raise ValueError(f"step events need integer steps, got {event!r}")
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


def _axis_locate(nodes: list, value: float):
    """(idx, frac): the lower node of the cell holding `value`, clamped to
    the end nodes, on the ascending list of float nodes, and the offset in
    [0, 1) toward the next node.  Currents locate here, angles in
    _wrapped_cells."""
    value = min(max(value, nodes[0]), nodes[-1])
    idx = bisect_right(nodes, value) - 1
    if idx >= len(nodes) - 1:
        # at (or clamped to) the top node: that node is the lower corner, l = 0
        return idx, 0.0
    frac = (value - nodes[idx]) / (nodes[idx + 1] - nodes[idx])
    return idx, float(frac)


@_QUIET_OVERFLOW
def _wrapped_cells(nodes: np.ndarray, values: np.ndarray):
    """(rows, fracs): the cell of every angle of a float64 array on the
    ascending angle nodes, as one int64 and one float64 array: the lower
    node and the offset in [0, 1) toward the next one.  An angle's offset
    from the first node wraps over the span, (v - nodes[0]) % span, and is
    located among the nodes' offsets, so a node's angle lands on its node,
    (k, 0.0), on any origin, and the top node on the first.  Worked in
    place, so the values cost four buffers of their size."""
    n = nodes.size
    values = values - nodes[0]
    nodes = nodes - nodes[0]
    values %= nodes[-1]
    # the offset is at least 0, so no row is below 0
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


def _weights(l1: float, l2: float):
    """Bilinear weights of the corners (row, col), (row+1, col),
    (row, col+1), (row+1, col+1), in that order."""
    return (1 - l1) * (1 - l2), l1 * (1 - l2), (1 - l1) * l2, l1 * l2


def _cell_corners(grid: list) -> list:
    """cells[row][col]: the four node entries around each cell of a
    nested-list grid, in the order of _weights, the entries themselves (not
    copies); the upper corner saturates at the last node, where its weight
    is zero.  One zip pass per pair of rows."""
    return [list(zip(lo, hi, lo[1:] + lo[-1:], hi[1:] + hi[-1:]))
            for lo, hi in zip(grid, grid[1:] + grid[-1:])]


def _inductance_located(surface: InductanceSurface, row: int, col: int,
                        w) -> float:
    """Bilinear lookup of L in the cell (row, col) of the surface's grids,
    with the corner weights w of _weights."""
    w00, w10, w01, w11 = w
    v00, v10, v01, v11 = surface._cells[row][col]
    return w00 * v00 + w10 * v10 + w01 * v01 + w11 * v11


# test-only: stays public while srmqbench/tracer.py reads it by name
def inductance_at(surface: InductanceSurface, theta: float, i: float) -> float:
    """Bilinear lookup of L(theta, i); theta wraps, current clamps to the grid."""
    (row,), (l1,) = (a.tolist() for a in _wrapped_cells(
        surface.theta_grid, np.array([theta], float)))
    col, l2 = _axis_locate(surface._current_list, i)
    return _inductance_located(surface, row, col, _weights(l1, l2))


def _linearised(params: MotorParams, L: float):
    """(L, A, B): the phase model x' = A x + B u with the inductance L."""
    return L, 1 - params.T * params.R_phase / L, params.T / L


@_QUIET_OVERFLOW
def frozen_grid(params: MotorParams, surface: InductanceSurface):
    """Row-major arrays (L, A, B) over the surface's grid, a Q-core table's
    nodes: the inductance stored at each node, the top angle row read as
    the first one, as the periodic lookup reads it, and the phase model
    x' = A x + B u linearised with L frozen there. Raises ValueError naming
    the first node where A or B is not finite."""
    thetas, currents = surface.theta_grid, surface.current_grid
    values = surface.values
    grid = np.array(_linearised(
        params, np.concatenate((values[:-1], values[:1])).ravel()))
    L, A, B = grid
    bad = np.flatnonzero(~(np.isfinite(A) & np.isfinite(B)))
    if bad.size:
        row, col = divmod(int(bad[0]), len(currents))
        raise ValueError(
            f"the local model A = 1 - T R / L, B = T / L is not finite at "
            f"{bad.size} of {L.size} grid nodes, first node ({row},{col}): "
            f"theta {float(thetas[row])!r} deg, i "
            f"{float(currents[col])!r} A, L = {float(L[bad[0]])!r} H")
    return grid


@_QUIET_OVERFLOW
def default_surface(params: MotorParams, n_theta: int = 16, n_current: int = 8,
                    kappa: float = 0.5,
                    i_max: float | None = None) -> InductanceSurface:
    """Analytic stand-in surface: raised cosine in angle times saturation in current.

    L(theta, i) = L_u + (L_a - L_u) * (1 + cos(2*pi*theta/pitch)) / 2 * s(i)
    with s(i) = 1 / (1 + kappa * (i / i_nominal)^2) applied to the varying
    part, so the aligned/unaligned endpoints are preserved as i -> 0.
    """
    if i_max is None:
        i_max = 1.5 * params.i_nominal
    _require_bound("kappa", kappa)
    _require_bound("i_max", i_max, positive=True)
    for name, n in (("n_theta", n_theta), ("n_current", n_current)):
        _require_count(name, n, 2, MAX_AXIS_NODES)
    theta = np.linspace(0.0, params.rotor_pitch, n_theta)
    current = np.linspace(0.0, i_max, n_current)
    shape = (1 + np.cos(2 * np.pi * theta / params.rotor_pitch)) / 2
    # with kappa = 0 the saturation term is exactly 1, also where
    # (i / i_nominal)^2 overflows and 0 * inf would be nan
    sat = 1.0 / (1.0 + kappa * (current / params.i_nominal) ** 2) if kappa \
        else np.ones_like(current)
    values = params.L_unaligned + (params.L_aligned - params.L_unaligned) \
        * np.outer(shape, sat)
    return InductanceSurface(theta, current, values)


def _step_located(x: float, u: float, params: MotorParams,
                  surface: InductanceSurface, row: int, col: int, w) -> float:
    """x': the phase current one sample on under applied voltage u, with
    the operating point (rotor angle, x) given as its cell (row, col) on
    the surface's grids and the corner weights w of _weights.

    x' = A x + B u with A, B from the inductance at the angle and x, the
    frozen_grid model each Q-core is trained against; the current is clamped
    at zero (the asymmetric bridge cannot drive it negative).
    """
    if not math.isfinite(u):
        raise ValueError("applied voltage must be finite")
    _, A, B = _linearised(params, _inductance_located(surface, row, col, w))
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


def _references(profile: ReferenceProfile, thetas: np.ndarray,
                k: int) -> np.ndarray:
    """reference_at(profile, thetas[j], k + j) for every j, as one float64
    array: the amplitude in force at every step in one lookup, where equal
    event steps resolve to the last event."""
    steps = [step for step, _ in profile.step_events]
    amplitudes = [profile.i_ref, *(a for _, a in profile.step_events)]
    amplitude = np.array(amplitudes)[np.searchsorted(
        steps, np.arange(k, k + thetas.size), side="right")]
    window = (profile.theta_on <= thetas) & (thetas < profile.theta_off)
    amplitude[~window] = 0.0
    return amplitude


# test-only: stays public while srmqbench/tracer.py reads it by name
def reference_at(profile: ReferenceProfile, theta: float, k: int) -> float:
    """Reference current sample: pulse amplitude inside the conduction window."""
    return float(_references(profile, np.array([theta], float), k)[0])


def load_surface_csv(path) -> InductanceSurface:
    """Read a surface file: a header row of the current grid after one
    label cell, then one row per theta node, its angle and its values
    (strict rectangular shape); every ValueError names the file, and a
    parse error its line, counted from 1 with the header."""
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
