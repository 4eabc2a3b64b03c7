import math

import numpy as np
import pytest

from reference import (
    exact_peak_trapped_fraction,
    exact_trapped_charge,
    exact_trapped_fraction,
    spin_recovery_curve,
)
from spintrap import trapdyn
from spintrap.trace import SignalTrace
from spintrap.trapdyn import TrapParams, boxcar_charge, flip_fraction_from_state

PRESET = TrapParams()  # k0 = 1e4/s, k_e = 400/s


def trapped_fraction(flip_fraction, params, t):
    """:func:`spintrap.trapdyn.trapped_fraction` at each time of ``t``."""
    return np.array([trapdyn.trapped_fraction(flip_fraction, params, ti) for ti in np.asarray(t).tolist()])


def transient_response(flip_fraction, params, t_grid):
    """:func:`spintrap.trapdyn.transient_response` as a trace over ``t_grid``."""
    return SignalTrace("time", t_grid, trapdyn.transient_response(flip_fraction, params, t_grid.tolist()), "A")
NEAR_CONFLUENT = 400.0 * (1 + 1e-11)  # one rate 1e-11 above the other: no longer equal


def rate_equation_oracle(flip_fraction, k_c, k_e, t_end, n_steps):
    """Brute force: fixed-step RK4 on the two-compartment rate equations."""
    dt = t_end / n_steps
    d = flip_fraction  # flipped D0 population
    m = 0.0  # trapped D- population
    ts = [0.0]
    ms = [0.0]

    def deriv(d, m):
        return -k_c * d, k_c * d - k_e * m

    for i in range(n_steps):
        k1 = deriv(d, m)
        k2 = deriv(d + dt / 2 * k1[0], m + dt / 2 * k1[1])
        k3 = deriv(d + dt / 2 * k2[0], m + dt / 2 * k2[1])
        k4 = deriv(d + dt * k3[0], m + dt * k3[1])
        d += dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        m += dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        ts.append((i + 1) * dt)
        ms.append(m)
    return np.array(ts), np.array(ms)


class TestTransientResponse:
    def test_zero_at_t0(self):
        trace = transient_response(0.5, PRESET, np.linspace(0, 10e-3, 100))
        assert trace.y[0] == 0.0

    def test_nonpositive_everywhere(self):
        trace = transient_response(1.0, PRESET, np.linspace(0, 20e-3, 400))
        assert all(v <= 0 for v in trace.y)

    def test_extremum_position_and_depth(self):
        # analytic extremum of the biexponential: t* = ln(kc/ke)/(kc-ke)
        t = np.linspace(0, 2e-3, 200001)
        frac = trapped_fraction(1.0, PRESET, t)
        i = int(np.argmax(frac))
        assert t[i] == pytest.approx(335e-6, abs=1e-6)
        assert frac[i] == pytest.approx(0.874, abs=1e-3)

    def test_late_time_slope_is_emission_rate(self):
        t = np.linspace(2e-3, 12e-3, 2001)
        frac = trapped_fraction(1.0, PRESET, t)
        slope = np.polyfit(t, np.log(frac), 1)[0]
        assert slope == pytest.approx(-PRESET.emission_rate_per_second, rel=1e-4)
        assert -1.0 / slope == pytest.approx(2.5e-3, rel=1e-3)

    def test_degenerate_rates_limit(self):
        # at k_c = k_e the confluent f k t e^{-kt}; next to it, in either
        # order, no digits lost
        t = np.linspace(0, 20e-3, 2001)
        for k_c, k_e in [(400.0, 400.0), (NEAR_CONFLUENT, 400.0), (400.0, NEAR_CONFLUENT)]:
            params = TrapParams(capture_rate_per_second=k_c, emission_rate_per_second=k_e)
            frac = trapped_fraction(0.7, params, t)
            np.testing.assert_allclose(frac, exact_trapped_fraction(0.7, k_c, k_e, t), rtol=1e-12, atol=0,
                                       err_msg=f"k_c={k_c!r} k_e={k_e!r}")

    def test_against_rate_equation_oracle(self):
        # fixed-step integration with dt <= 1/(100 k_c) agrees within 0.1%
        k_c = PRESET.capture_rate_per_second
        k_e = PRESET.emission_rate_per_second
        t_end = 10e-3
        n_steps = int(t_end * 100 * k_c)  # dt = 1/(100 kc) = 1 us
        ts, ms = rate_equation_oracle(0.8, k_c, k_e, t_end, n_steps)
        closed = trapped_fraction(0.8, PRESET, ts)
        scale = closed.max()
        assert np.all(np.abs(ms - closed) <= 1e-3 * scale)

    def test_population_conservation(self):
        f = 0.6
        t = np.linspace(0, 15e-3, 512)
        trapped = trapped_fraction(f, PRESET, t)
        flipped = f * np.exp(-PRESET.capture_rate_per_second * t)
        reemitted = f - flipped - trapped
        d0 = (1 - f) + flipped + reemitted
        assert np.allclose(d0 + trapped, 1.0, atol=1e-12)


def _charge(trace):
    """Trapezoidal integral of a transient over the span of its samples."""
    return float(np.trapezoid(trace.y, trace.x))


class TestTransientCharge:
    def test_zero_trace(self):
        grid = np.linspace(0, 1e-2, 50)
        assert _charge(transient_response(0.0, PRESET, grid)) == 0.0

    def test_linear_in_flip_fraction(self):
        grid = np.linspace(0, 30e-3, 3001)
        q1 = _charge(transient_response(0.3, PRESET, grid))
        q2 = _charge(transient_response(0.6, PRESET, grid))
        assert q2 == pytest.approx(2 * q1, rel=1e-12)

    def test_full_span_integral_matches_closed_form(self):
        # integral of the biexponential: a kc/(kc-ke) (1/ke - 1/kc)
        k_c = PRESET.capture_rate_per_second
        k_e = PRESET.emission_rate_per_second
        span = 20.0 / k_e  # truncation error ~ e^-20
        grid = np.linspace(0, span, 20001)
        f = 0.5
        q = _charge(transient_response(f, PRESET, grid))
        closed = -PRESET.coupling_amplitude_amperes * f * k_c / (k_c - k_e) * (1 / k_e - 1 / k_c)
        assert q == pytest.approx(closed, rel=1e-3)


_BOXCAR_PARAMS = pytest.mark.parametrize(
    "params",
    [
        PRESET,
        TrapParams(capture_rate_per_second=400.0, emission_rate_per_second=400.0),
        TrapParams(capture_rate_per_second=NEAR_CONFLUENT, emission_rate_per_second=400.0),
    ],
    ids=["preset", "confluent_kc_equals_ke", "near_confluent"],
)


class TestBoxcarCharge:
    @pytest.mark.parametrize("window", [1e-3, 10e-3])
    @_BOXCAR_PARAMS
    def test_matches_trapezoid_reference(self, params, window):
        grid = np.linspace(0.0, window, 400_001)
        reference = _charge(transient_response(0.7, params, grid))
        assert 0.7 * boxcar_charge(params, window) == pytest.approx(reference, rel=1e-8)

    @pytest.mark.parametrize("window", [1e-3, 10e-3])
    @_BOXCAR_PARAMS
    def test_matches_exact_integral(self, params, window):
        # the trapezoid above integrates the same float transient, so a digit
        # lost in both closed forms alike would pass it; this reference cannot
        k_c, k_e = params.capture_rate_per_second, params.emission_rate_per_second
        expected = -params.coupling_amplitude_amperes * exact_trapped_charge(k_c, k_e, window)
        assert boxcar_charge(params, window) == pytest.approx(expected, rel=1e-12, abs=0)


    @pytest.mark.parametrize("params", [PRESET, TrapParams(capture_rate_per_second=400.0,
                                                           emission_rate_per_second=400.0)],
                             ids=["preset", "confluent_kc_equals_ke"])
    def test_short_and_long_windows_keep_their_digits(self, params):
        # windows from 1 ps to 1 s; below 1/K the closed form's bracket
        # cancels, and its Taylor series takes over
        k_c, k_e = params.capture_rate_per_second, params.emission_rate_per_second
        for window in np.logspace(-12, 0, 97).tolist():
            expected = -params.coupling_amplitude_amperes * exact_trapped_charge(k_c, k_e, window)
            assert boxcar_charge(params, window) == pytest.approx(expected, rel=1e-15, abs=0), window


class TestFlipFraction:
    def test_no_pulse_no_signal(self):
        assert flip_fraction_from_state(0.968, 0.968) == 0.0

    def test_perfect_inversion(self):
        assert flip_fraction_from_state(-1.0, 1.0) == 1.0

    def test_half_pulse(self):
        assert flip_fraction_from_state(0.0, 0.968) == pytest.approx(0.484, abs=1e-12)

    def test_clipped(self):
        assert flip_fraction_from_state(1.0, -1.0) == 0.0  # below equilibrium clips to 0

    def test_nan_stays_nan(self):
        assert math.isnan(flip_fraction_from_state(math.nan, 0.968))


class TestSpinRecovery:
    def test_recovery_constant_matches_reemission(self):
        # k_c = 25 k_e: the spin recovery tail must carry 1/k_e within 5%
        params = TrapParams(capture_rate_per_second=25 * 400.0, emission_rate_per_second=400.0)
        t = np.linspace(0, 20e-3, 4001)
        trace = spin_recovery_curve(params, t)
        y = trace.y
        deficit = 1.0 - y
        sel = (t > 1e-3) & (deficit > 1e-8)  # past the capture transient
        slope = np.polyfit(t[sel], np.log(deficit[sel]), 1)[0]
        assert -1.0 / slope == pytest.approx(1.0 / params.emission_rate_per_second, rel=0.05)

    def test_same_decay_as_current_transient(self):
        # the trap-readout signature: spin recovery and current tail share 1/k_e
        params = TrapParams(capture_rate_per_second=1e4, emission_rate_per_second=400.0)
        t = np.linspace(2e-3, 15e-3, 2001)
        mz_deficit = 1.0 - spin_recovery_curve(params, t).y
        current = trapped_fraction(1.0, params, t)
        slope_spin = np.polyfit(t, np.log(mz_deficit), 1)[0]
        slope_current = np.polyfit(t, np.log(current), 1)[0]
        assert slope_spin == pytest.approx(slope_current, rel=1e-3)

    def test_starts_inverted_and_recovers_fully(self):
        params = TrapParams()
        t = np.linspace(0, 50e-3, 501)
        y = spin_recovery_curve(params, t).y
        assert y[0] == pytest.approx(-1.0, rel=1e-12)
        assert y[-1] == pytest.approx(1.0, abs=1e-6)


class TestTrapParams:
    def test_preset_rates(self):
        assert PRESET.capture_rate_per_second == 1e4
        assert PRESET.emission_rate_per_second == 400.0
        assert PRESET.capture_rate_per_second > PRESET.emission_rate_per_second

    def test_default_coupling_normalization(self):
        # peak |dI| of a fully flipped ensemble = 1% of baseline
        t = np.linspace(0, 2e-3, 20001)
        di = transient_response(1.0, PRESET, t).y
        assert np.min(di) == pytest.approx(-0.01 * PRESET.baseline_current_amperes, rel=1e-4)

    @pytest.mark.parametrize("k_c, k_e", [
        (1e4, 400.0),
        (400.0, 400.0),
        (NEAR_CONFLUENT, 400.0),
        (400.0, NEAR_CONFLUENT),
    ], ids=["preset", "equal", "near_equal", "near_equal_swapped"])
    def test_coupling_against_exact_peak(self, k_c, k_e):
        params = TrapParams(capture_rate_per_second=k_c, emission_rate_per_second=k_e)
        expected = 0.01 * params.baseline_current_amperes / exact_peak_trapped_fraction(k_c, k_e)
        assert params.coupling_amplitude_amperes == pytest.approx(expected, rel=1e-12, abs=0)

    def test_replace_rederives_the_coupling(self):
        edited = PRESET.replace(capture_rate_per_second=5e3)
        alone = TrapParams(capture_rate_per_second=5e3)
        assert edited.coupling_amplitude_amperes == alone.coupling_amplitude_amperes
        assert edited.coupling_amplitude_amperes != PRESET.coupling_amplitude_amperes

    def test_validation(self):
        with pytest.raises(ValueError):
            TrapParams(capture_rate_per_second=-1.0)
        with pytest.raises(ValueError):
            TrapParams(baseline_current_amperes=0.0)
