import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from srmq.plant import (InductanceSurface, MotorParams, ReferenceProfile,
                        _axis_locate, _references, _wrapped_cells,
                        default_surface, frozen_dynamics, inductance_at,
                        load_surface_csv, reference_at, save_surface_csv,
                        step_phase)
from conftest import constant_surface, point_near, reference_blend


def reference_axis_locate(nodes, value, wrap):
    """np.searchsorted locator on a node array: the reference the bisect
    locator over a node list must reproduce exactly."""
    nodes = np.asarray(nodes, float)
    if nodes.size == 1:
        return 0, 0.0
    if wrap:
        span = nodes[-1] - nodes[0]
        value = nodes[0] + (value - nodes[0]) % span
    else:
        value = min(max(value, nodes[0]), nodes[-1])
    idx = int(np.searchsorted(nodes, value, side="right")) - 1
    if idx >= nodes.size - 1:
        return nodes.size - 1, 0.0
    idx = max(idx, 0)
    frac = (value - nodes[idx]) / (nodes[idx + 1] - nodes[idx])
    return idx, float(frac)


@st.composite
def grid_and_value(draw):
    """A strictly ascending grid of 1, 2 or 16 nodes and a value that is
    a node, outside the range, a whole number of spans away from the first
    node, negative, or anywhere."""
    size = draw(st.sampled_from([1, 2, 16]))
    nodes = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=size,
                                 max_size=size, unique=True)))
    lo, hi = nodes[0], nodes[-1]
    gap = st.floats(0.0, 1e4, exclude_min=True)
    value = draw(st.one_of(
        st.sampled_from(nodes),
        gap.map(lambda d: lo - d),
        gap.map(lambda d: hi + d),
        st.integers(-50, 50).map(lambda m: lo + m * (hi - lo)),
        st.floats(-1e4, 0.0, exclude_max=True),
        st.floats(-1e4, 1e4),
    ))
    return nodes, value


@st.composite
def grid_and_angles(draw):
    """A strictly ascending grid of 1, 2 or 16 nodes and up to 20 angles:
    its nodes (the top one included), 0, whole multiples of its span,
    negative and large angles, and any float."""
    size = draw(st.sampled_from([1, 2, 16]))
    nodes = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=size,
                                 max_size=size, unique=True)))
    span = nodes[-1] - nodes[0]
    angle = st.one_of(
        st.sampled_from(nodes), st.sampled_from([0.0, -0.0]),
        st.integers(-50, 50).map(lambda m: m * span),
        st.integers(-50, 50).map(lambda m: nodes[0] + m * span),
        st.floats(-1e4, 0.0), st.floats(-1e300, 1e300), st.floats())
    return nodes, draw(st.lists(angle, max_size=20))


def ascending(size, lo, hi):
    """Strictly ascending lists of `size` floats in [lo, hi]."""
    return st.lists(st.floats(lo, hi), min_size=size, max_size=size,
                    unique=True).map(sorted)


@st.composite
def surface_and_point(draw):
    """A valid random surface (periodic in angle, non-increasing in
    current) and a point on, around or off its grid."""
    nt, ni = draw(st.integers(2, 6)), draw(st.integers(2, 5))
    theta = draw(ascending(nt, 0.0, 90.0))
    current = draw(ascending(ni, 0.0, 20.0))
    rows = [sorted(draw(st.lists(st.floats(1e-3, 2e-2), min_size=ni,
                                 max_size=ni)), reverse=True)
            for _ in range(nt - 1)]
    surface = InductanceSurface(np.array(theta), np.array(current),
                                np.array(rows + rows[:1]))
    return surface, draw(point_near(theta, True)), draw(point_near(current, False))


class TestMotorParams:
    def test_defaults_valid(self):
        p = MotorParams()
        assert p.steps_per_cycle == 1250
        assert p.deg_per_step == pytest.approx(0.036)

    @pytest.mark.parametrize("kwargs", [
        {"R_phase": 0.0}, {"T": -1e-4}, {"L_unaligned": 0.02},
        {"rotor_pitch": 0.0}, {"V_dc": -1.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MotorParams(**kwargs)


class TestInductanceSurface:
    def test_node_reproduction(self, surface):
        for a in (0, 5, 12):
            for b in (0, 3, 7):
                got = inductance_at(surface, surface.theta_grid[a],
                                    surface.current_grid[b])
                assert got == pytest.approx(surface.values[a, b], abs=1e-15)

    def test_aligned_and_unaligned_endpoints(self, params):
        # grid with nodes exactly at the aligned and unaligned angles
        s = default_surface(params, n_theta=9)
        assert inductance_at(s, 0.0, 0.0) == pytest.approx(16e-3)
        # at 1 A the saturation factor barely bites; endpoint within 2.5 %
        assert inductance_at(s, 0.0, 1.0) == pytest.approx(16e-3, rel=2.5e-2)
        assert inductance_at(s, 22.5, 1.0) == pytest.approx(6e-3, rel=1e-9)
        assert inductance_at(s, 22.5, 6.0) == pytest.approx(6e-3, rel=1e-9)

    def test_quarter_pitch_midpoint(self, params):
        # independent evaluation of the raised-cosine construction
        s = default_surface(params, n_theta=9)
        i = float(s.current_grid[2])
        sat = 1.0 / (1.0 + 0.5 * (i / params.i_nominal) ** 2)
        expected = 6e-3 + 10e-3 * (1 + math.cos(2 * math.pi * 11.25 / 45.0)) / 2 * sat
        assert inductance_at(s, 11.25, i) == pytest.approx(expected, rel=1e-12)

    def test_low_current_limits(self, params):
        s = default_surface(params, n_theta=9)
        assert inductance_at(s, 0.0, 0.0) == pytest.approx(16e-3)
        assert inductance_at(s, 11.25, 0.0) == pytest.approx((6e-3 + 16e-3) / 2)

    @pytest.mark.parametrize("kw", [{"i_sat": 1e-300}, {"i_max": 1e300}])
    def test_overflowing_saturation_gives_saturated_limit(self, params, kw):
        # (i / i_sat)^2 overflows above the zero-current column: s(i) is 0
        # there, with no numpy warning, and the surface is L_unaligned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = default_surface(params, **kw)
        assert np.all(s.values[:, 1:] == params.L_unaligned)
        assert s.values[0, 0] == pytest.approx(params.L_aligned)

    @pytest.mark.parametrize("kw", [{"i_sat": 1e-300}, {"i_max": 1e300}])
    def test_unsaturated_surface_ignores_overflowing_ratio(self, params, kw):
        # kappa = 0: s(i) is exactly 1 even where (i / i_sat)^2 overflows,
        # so every current column is the zero-current column
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = default_surface(params, kappa=0.0, **kw)
        assert np.array_equal(s.values, np.repeat(s.values[:, :1], 8, axis=1))
        assert s.values[0, 0] == pytest.approx(params.L_aligned)

    def test_current_clamped_above_grid(self, surface):
        top = surface.current_grid[-1]
        assert inductance_at(surface, 7.3, 50.0) == \
            pytest.approx(inductance_at(surface, 7.3, top), abs=1e-18)

    @given(theta=st.floats(-100, 200), i=st.floats(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_periodicity(self, surface, theta, i):
        pitch = surface.theta_grid[-1] - surface.theta_grid[0]
        assert inductance_at(surface, theta + pitch, i) == \
            pytest.approx(inductance_at(surface, theta, i), rel=1e-12)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_lipschitz_within_cell(self, surface, data):
        a = data.draw(st.integers(0, surface.theta_grid.size - 2))
        b = data.draw(st.integers(0, surface.current_grid.size - 2))
        t0, t1 = surface.theta_grid[a], surface.theta_grid[a + 1]
        c0, c1 = surface.current_grid[b], surface.current_grid[b + 1]
        corners = surface.values[a:a + 2, b:b + 2]
        span_t = np.abs(corners[1] - corners[0]).max()
        span_c = np.abs(corners[:, 1] - corners[:, 0]).max()
        p = (data.draw(st.floats(float(t0), float(t1))),
             data.draw(st.floats(float(c0), float(c1))))
        q = (data.draw(st.floats(float(t0), float(t1))),
             data.draw(st.floats(float(c0), float(c1))))
        bound = abs(p[0] - q[0]) / (t1 - t0) * span_t \
            + abs(p[1] - q[1]) / (c1 - c0) * span_c
        diff = abs(inductance_at(surface, *p) - inductance_at(surface, *q))
        assert diff <= bound + 1e-15

    @given(case=surface_and_point())
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_reference_blend(self, case):
        surface, theta, i = case
        row, l1 = reference_axis_locate(surface.theta_grid, theta, wrap=True)
        col, l2 = reference_axis_locate(surface.current_grid, i, wrap=False)
        L = inductance_at(surface, theta, i)
        assert L == float(reference_blend(surface.values, row, col, l1, l2))
        assert type(L) is float

    def test_malformed_surfaces_rejected(self):
        theta = np.array([0.0, 10.0, 45.0])
        current = np.array([0.0, 5.0])
        good = np.full((3, 2), 0.01)
        with pytest.raises(ValueError):
            InductanceSurface(theta[::-1], current, good)
        with pytest.raises(ValueError):
            InductanceSurface(theta, current, -good)
        with pytest.raises(ValueError):  # aperiodic
            InductanceSurface(theta, current, np.array([[1, 1], [2, 2], [3, 3.0]]) * 1e-2)
        with pytest.raises(ValueError):  # increasing in current
            InductanceSurface(theta, current, np.array([[1, 2], [1, 2], [1, 2.0]]) * 1e-2)

    @pytest.mark.parametrize("tiny", [5e-324, 1e-320, 2e-308])
    def test_subnormal_values_rejected(self, tiny):
        # half of 5e-324 rounds to 0, so a blend between such nodes could
        # divide by a zero inductance
        values = np.full((3, 2), 0.01)
        values[1, 1] = tiny
        with pytest.raises(ValueError, match="smallest normal float"):
            InductanceSurface(np.array([0.0, 10.0, 45.0]),
                              np.array([0.0, 5.0]), values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_rejected(self, bad):
        values = np.full((3, 2), 0.01)
        with pytest.raises(ValueError, match="theta_grid must be finite"):
            InductanceSurface(np.array([0.0, bad, 45.0]), np.array([0.0, 5.0]),
                              values)
        with pytest.raises(ValueError, match="current_grid must be finite"):
            InductanceSurface(np.array([0.0, 10.0, 45.0]),
                              np.array([0.0, bad]), values)

    def test_csv_round_trip(self, surface, tmp_path):
        path = tmp_path / "surface.csv"
        save_surface_csv(surface, path)
        back = load_surface_csv(path)
        assert np.array_equal(back.theta_grid, surface.theta_grid)
        assert np.array_equal(back.current_grid, surface.current_grid)
        assert np.array_equal(back.values, surface.values)

    def test_csv_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta_deg,0.0,5.0\n0.0,0.01\n45.0,0.01,0.01\n")
        with pytest.raises(ValueError):
            load_surface_csv(path)

    @pytest.mark.parametrize("blank", [False, True])
    @pytest.mark.parametrize("fault, says", [
        ("bad cell", "could not convert string to float: 'abc'"),
        ("short row", "ragged row, expected 9 columns, got 8"),
    ])
    def test_csv_parse_error_names_the_file_line(self, surface, tmp_path,
                                                 fault, says, blank):
        # the fault sits in the fourth body row: file line 5, or 6 below a
        # blank line after the header
        path = tmp_path / "surface.csv"
        save_surface_csv(surface, path)
        lines = path.read_text().splitlines()
        theta, first, rest = lines[4].split(",", 2)
        lines[4] = (f"{theta},abc,{rest}" if fault == "bad cell"
                    else f"{theta},{rest}")
        if blank:
            lines.insert(1, "")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_surface_csv(path)
        assert str(exc.value) == f"{path}: line {5 + blank}: {says}"


class TestAxisLocate:
    @given(case=grid_and_value(), wrap=st.booleans(), as_numpy=st.booleans())
    @settings(max_examples=1000, deadline=None)
    def test_matches_searchsorted_reference(self, case, wrap, as_numpy):
        nodes, value = case
        if as_numpy:   # grid nodes reach the locator as numpy scalars
            value = np.float64(value)
        idx, frac = _axis_locate(nodes, value, wrap)
        assert (idx, frac) == reference_axis_locate(nodes, value, wrap)
        assert type(idx) is int
        assert type(frac) is float


class TestWrappedCells:
    @given(case=grid_and_angles())
    @settings(max_examples=500, deadline=None)
    @example(case=([0.0, 11.25, 22.5, 33.75, 45.0],
                   [0.0, -0.0, 11.25, 45.0, 90.0, -45.0, 44.99999999999999,
                    -1e-300, 1e6, 1e300, -1e300]))
    @example(case=([0.0], [0.0, 45.0, -3.0, 1e300]))
    @example(case=([10.0, 55.0], [10.0, 55.0, 100.0, 0.0, -35.0]))
    @example(case=([0.0, 45.0], [float("nan"), float("inf"), -float("inf")]))
    def test_matches_scalar_locator(self, case):
        # the vectorised wrap is _axis_locate(wrap=True) on every angle,
        # bit for bit, with int64 rows and float64 offsets
        nodes, angles = case
        rows, fracs = _wrapped_cells(np.array(nodes), np.array(angles, float))
        assert rows.dtype == np.int64 and fracs.dtype == np.float64
        want = [_axis_locate(nodes, a, wrap=True) for a in angles]
        assert rows.tolist() == [idx for idx, _ in want]
        assert fracs.tobytes() == np.array([f for _, f in want],
                                           float).tobytes()


class TestStepPhase:
    def test_decay_matches_hand_value(self):
        # A = 1 - T R / L = 1 - 1e-4 * 2 / 6e-3 = 0.966667
        p = MotorParams()
        s = constant_surface(6e-3)
        x, theta = step_phase(4.0, 0.0, 0.0, p, s)
        assert x == pytest.approx(4.0 * (1 - 1e-4 * 2 / 6e-3), rel=1e-12)
        assert theta == pytest.approx(p.deg_per_step)

    @given(x=st.floats(0.0, 10.0), theta=st.floats(0.0, 44.99),
           u=st.floats(-300.0, 300.0))
    @settings(max_examples=50, deadline=None)
    def test_advances_the_frozen_model(self, x, theta, u):
        # the simulator steps the same model the Q-cores are trained on
        p = MotorParams()
        s = default_surface(p)
        _, A, B = frozen_dynamics(p, s, theta, x)
        assert step_phase(x, theta, u, p, s) == (
            max(0.0, A * x + B * u), (theta + p.deg_per_step) % p.rotor_pitch)

    def test_origin_fixed_point(self, flat_surface):
        p = MotorParams()
        x, _ = step_phase(0.0, 0.0, 0.0, p, flat_surface)
        assert x == 0.0

    def test_resistive_steady_state(self, flat_surface):
        p = MotorParams()
        x, _ = step_phase(4.0, 0.0, p.R_phase * 4.0, p, flat_surface)
        assert x == pytest.approx(4.0, rel=1e-12)

    @given(x=st.floats(0.01, 15.0))
    @settings(max_examples=50, deadline=None)
    def test_resistive_fixed_point_everywhere(self, x):
        p = MotorParams()
        x_next, _ = step_phase(x, 0.0, p.R_phase * x, p, constant_surface(16e-3))
        assert x_next == pytest.approx(x, rel=1e-10)

    def test_zero_input_geometric_decay(self, flat_surface):
        p = MotorParams()
        ratio = 1 - p.T * p.R_phase / 16e-3
        assert 0 < ratio < 1
        x, theta = 5.0, 0.0
        for _ in range(10):
            x_next, theta = step_phase(x, theta, 0.0, p, flat_surface)
            assert x_next == pytest.approx(x * ratio, rel=1e-12)
            x = x_next

    def test_current_clamped_at_zero(self, flat_surface):
        p = MotorParams()
        x, _ = step_phase(0.1, 0.0, -p.V_dc, p, flat_surface)
        assert x == 0.0

    def test_nonfinite_voltage_rejected(self, flat_surface):
        with pytest.raises(ValueError):
            step_phase(0.0, 0.0, float("nan"), MotorParams(), flat_surface)


class TestReference:
    def test_in_window(self):
        prof = ReferenceProfile(i_ref=4.0, theta_on=10.0, theta_off=35.0)
        assert reference_at(prof, 20.0, 0) == 4.0

    def test_outside_window(self):
        prof = ReferenceProfile(i_ref=4.0, theta_on=10.0, theta_off=35.0)
        assert reference_at(prof, 5.0, 100) == 0.0
        assert reference_at(prof, 35.0, 100) == 0.0   # off edge excluded

    def test_step_event_changes_amplitude(self):
        prof = ReferenceProfile(4.0, 10.0, 35.0, step_events=((500, 5.5),))
        assert reference_at(prof, 20.0, 499) == 4.0
        assert reference_at(prof, 20.0, 500) == 5.5
        assert reference_at(prof, 20.0, 10_000) == 5.5

    def test_out_of_order_events_rejected(self):
        with pytest.raises(ValueError, match="step order"):
            ReferenceProfile(step_events=((100, 5.0), (50, 3.0)))

    @given(i_ref=st.floats(0, 10),
           events=st.lists(st.tuples(st.integers(-5, 60), st.floats(0, 10)),
                           max_size=8),
           k=st.integers(-10, 70))
    @settings(max_examples=300, deadline=None)
    def test_amplitude_matches_linear_scan(self, i_ref, events, k):
        # a stable sort on the step alone leaves repeated steps in drawn
        # order, so the amplitudes at one step are in no particular order
        events = sorted(events, key=lambda e: e[0])
        prof = ReferenceProfile(i_ref, 10.0, 35.0, step_events=events)
        amp = i_ref
        for idx, value in events:
            if idx <= k:
                amp = value
        assert prof.amplitude_at(k) == amp

    @given(theta=st.floats(0, 45), k=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_zero_outside_window_for_all_k(self, theta, k):
        prof = ReferenceProfile(4.0, 10.0, 35.0, step_events=((100, 5.5),))
        if not (10.0 <= theta < 35.0):
            assert reference_at(prof, theta, k) == 0.0

    @given(i_ref=st.floats(0, 10), k=st.integers(0, 100),
           events=st.lists(st.tuples(st.integers(-5, 150), st.floats(0, 10)),
                           max_size=8),
           thetas=st.lists(st.floats(0, 45), max_size=40))
    @settings(max_examples=300, deadline=None)
    @example(i_ref=4.0, k=10, events=[(10, 5.0), (12, 6.0), (12, 7.0),
                                      (13, 1.0)],
             thetas=[20.0, 5.0, 10.0, 35.0, 34.9])
    def test_block_matches_scalar_rule(self, i_ref, k, events, thetas):
        # a block of samples from step k on: the amplitude in force at each
        # step inside the window, events at the block's first and last steps
        # and inside it included
        events = sorted(events, key=lambda e: e[0])
        prof = ReferenceProfile(i_ref, 10.0, 35.0, step_events=events)
        got = _references(prof, np.array(thetas, float), k)
        want = [prof.amplitude_at(k + j) if 10.0 <= theta < 35.0 else 0.0
                for j, theta in enumerate(thetas)]
        assert got.tobytes() == np.array(want, float).tobytes()

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ReferenceProfile(4.0, 30.0, 10.0)
        with pytest.raises(ValueError):
            ReferenceProfile(-1.0, 10.0, 35.0)
        with pytest.raises(ValueError, match="i_ref"):
            ReferenceProfile(float("nan"), 10.0, 35.0)
        with pytest.raises(ValueError, match="event amplitude at step 100"):
            ReferenceProfile(4.0, 10.0, 35.0, step_events=((100, float("nan")),))
