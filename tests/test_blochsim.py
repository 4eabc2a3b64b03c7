import json
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as hs
from scipy.linalg import expm
from scipy.stats import chi2

from reference import echo_envelope_analytic, inversion_recovery_curve
from spintrap import blochsim, rabi, spincore
from spintrap.blochsim import run_program
from spintrap.config import load_config
from spintrap.errors import CsvFormatError
from spintrap.rabi import nutation_curve
from spintrap.seqlang import (AcquireStmt, DelayStmt, PulseStmt, SequenceError, parse, statement_duration, sweep_values,
                              unparse)
from spintrap.spincore import (PHOSPHORUS, EnsembleSpec, Environment, RelaxationParams, SpinSpecies,
                               gyromagnetic_ratio, resonance_lines, thermal_polarization)
from spintrap.trapdyn import TrapParams, boxcar_charge
from test_seqlang import acquire_statements, delay_statements, pulse_statements

W1 = 2 * math.pi * (1.0 / (2 * 480e-9))  # default drive, rad/s
RELAX = RelaxationParams(t1_seconds=2.5e-3, t2_seconds=160e-6, t_s_seconds=200e-6)
RELAX_NONOISE = RelaxationParams(t1_seconds=2.5e-3, t2_seconds=160e-6, t_s_seconds=math.inf)
SEQ_DIR = Path(__file__).resolve().parents[1] / "src" / "spintrap" / "sequences" / "v1"


def rotation_oracle(state, w1, phase_angle, duration, det):
    """Independent check: matrix exponential of the rotation generator."""
    axis = np.array([w1 * math.cos(phase_angle), w1 * math.sin(phase_angle), det])
    speed = np.linalg.norm(axis)
    if speed == 0 or duration == 0:
        return np.array(state)
    n = axis / speed
    generator = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    rot = expm(generator * speed * duration)
    return rot @ np.array(state)


def pulse(state, w1, phase, duration, det):
    """The engine's pulse kernel on one Bloch vector ``state = (mx, my, mz)``."""
    rotation = blochsim._pulse_rotation(np.full(1, det), w1, phase, float(duration))
    return np.array(blochsim._apply_rotation(rotation, *(np.full(1, v) for v in state)))[:, 0]


def free(state, duration, relax, det, m_eq, shared=0.0):
    """The engine's free-evolution kernel on one Bloch vector, precessing at
    ``det``: ``shared`` of it as the phase the lines share, the rest as the
    line's own detuning."""
    mx, my, mz = (np.full((1, 1), v) for v in state)
    psi = np.full(1, shared * duration)
    line_det = np.full((1, 1), det - shared)
    factors = blochsim._free_factors(DelayStmt(duration), duration, (0, 1, 2), line_det, relax)
    return np.array(blochsim._free(mx, my, mz, psi, factors, m_eq))[:, 0, 0]


def _narrow_species():
    return SpinSpecies(1.9985, 0.0, 0.0, 1e-30)


def _resonant_env(species, **kwargs):
    (b_res, _), = resonance_lines(species, 240e9)
    return Environment(static_field_tesla=b_res, **kwargs)


class TestPulseRotation:
    """The engine's pulse kernel: ``blochsim._pulse_rotation`` applied by ``_apply_rotation``."""

    def test_resonant_pi_inverts(self):
        mx, my, mz = pulse((0, 0, 1), W1, "+x", 480e-9, 0.0)
        assert abs(mx) < 1e-9 and abs(my) < 1e-9
        assert mz == pytest.approx(-1.0, abs=1e-9)

    def test_resonant_half_pulse_to_minus_y(self):
        mx, my, mz = pulse((0, 0, 1), W1, "+x", 240e-9, 0.0)
        assert my == pytest.approx(-1.0, abs=1e-9)
        assert abs(mx) < 1e-9 and abs(mz) < 1e-9

    def test_generalized_rabi_formula_and_oracle(self):
        # detuning equal to w1: mz = 1 - 2 (w1^2/weff^2) sin^2(weff t / 2)
        det = W1
        t = 480e-9
        mz = pulse((0, 0, 1), W1, "+x", t, det)[2]
        weff = math.sqrt(2) * W1
        expected = 1 - 2 * (W1**2 / weff**2) * math.sin(weff * t / 2) ** 2
        assert mz == pytest.approx(expected, abs=1e-12)
        oracle = rotation_oracle((0, 0, 1), W1, 0.0, t, det)
        assert mz == pytest.approx(oracle[2], abs=1e-10)
        # the closed form that `transient` and `nutation` use is the kernel's mz
        # from equilibrium, at any angle, detuning and polarization
        rng = np.random.default_rng(2026)
        n = 200
        m0 = 1.0 - rng.uniform(0.0, 1.0, n)  # (0, 1]
        det = rng.uniform(-10.0, 10.0, n) * W1
        duration = rng.uniform(0.0, 4.0 * math.pi, n) / W1
        closed = rabi._rabi_mz(m0, W1, det, duration)
        kernel = [pulse((0, 0, m0[i]), W1, "+x", duration[i], det[i])[2] for i in range(n)]
        assert np.max(np.abs(closed - kernel)) <= 1e-12

    def test_small_flip_keeps_its_digits(self):
        # on resonance the flipped fraction is m0 sin^2(theta/2); formed as
        # (m0 - mz)/2 it kept only about 6 digits at 1e-3 degrees
        env = Environment()
        m0 = thermal_polarization(PHOSPHORUS.g_factor, env.static_field_tesla, env.temperature_kelvin)
        for angle_deg in (1e-3, 1e-6, 90.0, 180.0):
            expected = m0 * math.sin(math.radians(angle_deg) / 2) ** 2
            fraction = rabi.pulse_flip_fraction(angle_deg, 0.0, env, PHOSPHORUS)
            assert fraction == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("angle_deg, field_offset", [
        (180.0, 0.0), (90.0, 0.0), (1e-3, 0.0), (73.0, 2e-4), (180.0, -3e-5), (540.0, 1e-3), (0.0, 0.0),
    ])
    def test_scalar_flip_is_the_array_flip(self, angle_deg, field_offset):
        # pulse_flip_fraction writes _rabi_flip out on one float, in its operation order
        env = Environment()
        m0, w1, _, _ = spincore._ensemble_setup(env, PHOSPHORUS)
        w1 = np.float64(w1)
        det = np.float64(spincore.gyromagnetic_ratio(PHOSPHORUS.g_factor)) * field_offset
        expected = float(np.clip(m0 * rabi._rabi_flip(w1, det, np.radians(angle_deg) / w1), 0.0, 1.0))
        fraction = rabi.pulse_flip_fraction(angle_deg, field_offset, env, PHOSPHORUS)
        assert fraction == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.parametrize("rabi_hz, field_offset", [(5e-324, 0.0), (1e6, 1e300)],
                             ids=["vanishing-drive", "overflowing-detuning"])
    def test_no_finite_flip_is_refused(self, rabi_hz, field_offset):
        # where _rabi_flip gives NaN, the scalar flip raises CsvFormatError, not a Python arithmetic error
        env = Environment(rabi_frequency_hz=rabi_hz)
        with pytest.raises(CsvFormatError, match="no finite fraction"):
            rabi.pulse_flip_fraction(180.0, field_offset, env, PHOSPHORUS)

    def test_against_matrix_exponential_on_random_inputs(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            v = rng.normal(size=3)
            v /= max(np.linalg.norm(v), 1.0)
            det = rng.normal() * W1
            dur = rng.uniform(0, 2e-6)
            phase = rng.choice(["+x", "+y", "-x", "-y"])
            phase_angle = {"+x": 0, "+y": math.pi / 2, "-x": math.pi, "-y": 1.5 * math.pi}[phase]
            got = pulse(v, W1, phase, dur, det)
            want = rotation_oracle(v, W1, phase_angle, dur, det)
            assert np.allclose(got, want, atol=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            out = pulse(v, W1, "+y", rng.uniform(0, 1e-5), rng.normal() * 1e7)
            assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)

    def test_composition_property(self):
        # two half-duration pulses equal one full pulse about the same axis
        rng = np.random.default_rng(7)
        for _ in range(1000):
            v = rng.normal(size=3)
            v /= max(np.linalg.norm(v), 1.0)
            det = rng.normal() * 5e6
            half = pulse(pulse(v, W1, "+x", 240e-9, det), W1, "+x", 240e-9, det)
            full = pulse(v, W1, "+x", 480e-9, det)
            assert np.allclose(half, full, atol=1e-12)


class TestFreeEvolution:
    """The engine's free-evolution kernel, ``blochsim._free``."""

    def test_half_recovery_point(self):
        mz = free((0, 0, -1), RELAX.t1_seconds * math.log(2), RELAX, 0.0, m_eq=1.0)[2]
        assert mz == pytest.approx(0.0, abs=1e-12)

    def test_one_t2_of_transverse_decay(self):
        mx, my, _ = free((1, 0, 0), RELAX.t2_seconds, RELAX, 0.0, m_eq=1.0)
        assert mx == pytest.approx(math.exp(-1), abs=1e-12)
        assert my == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn_precession(self):
        relax = RelaxationParams(t1_seconds=1e30, t2_seconds=1e30, t_s_seconds=math.inf)  # effectively no decay
        det = 2 * math.pi * 1e6
        duration = (math.pi / 2) / det
        mx, my, _ = free((1, 0, 0), duration, relax, det, m_eq=0.0)
        assert my == pytest.approx(1.0, abs=1e-9)  # +x precesses to +y
        assert abs(mx) < 1e-9

    def test_norm_non_increasing(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            out = free(v, rng.uniform(0, 1e-3), RELAX, rng.normal() * 1e6, m_eq=0.5)
            assert np.linalg.norm(out) <= np.linalg.norm(v) + 1e-9

    def test_shared_phase_and_line_detuning_add(self):
        # the precession may be split in any way between the phase the lines
        # share and the line's own detuning
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = rng.normal(size=3)
            duration, det = rng.uniform(0, 1e-4), rng.normal() * 1e6
            whole = free(v, duration, RELAX, det, m_eq=0.5)
            split = free(v, duration, RELAX, det, m_eq=0.5, shared=rng.normal() * 1e6)
            assert np.allclose(split, whole, rtol=0, atol=1e-9)


class TestEnvelopes:
    def test_zero_tau(self):
        assert echo_envelope_analytic(0.0, RELAX) == 1.0

    def test_preset_constants_at_80us(self):
        assert echo_envelope_analytic(80e-6, RELAX) == pytest.approx(0.2205, abs=1e-4)

    def test_preset_constants_at_50us(self):
        assert echo_envelope_analytic(50e-6, RELAX) == pytest.approx(0.4724, abs=1e-4)

    def test_infinite_ts_is_pure_exponential(self):
        tau = 70e-6
        assert echo_envelope_analytic(tau, RELAX_NONOISE) == pytest.approx(
            math.exp(-2 * tau / RELAX.t2_seconds), rel=1e-12
        )


class TestInversionRecoveryCurve:
    def test_endpoints_and_zero_crossing(self):
        t1 = 2.5e-3
        grid = np.linspace(0, 20e-3, 2001)
        trace = inversion_recovery_curve(grid, t1, m_eq=0.968)
        y = trace.y
        assert y[0] == pytest.approx(-0.968, rel=1e-12)
        assert y[-1] == pytest.approx(0.968, rel=1e-3)
        # analytic zero crossing at t1 ln 2 = 1.733 ms (grid interpolation)
        crossing = np.interp(0.0, y, grid)
        assert crossing == pytest.approx(t1 * math.log(2), rel=1e-4)

    def test_exact_zero_at_log2(self):
        t1 = 2.5e-3
        trace = inversion_recovery_curve([1e-6, t1 * math.log(2)], t1, m_eq=1.0)
        assert trace.y[1] == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            inversion_recovery_curve([], 1e-3, 1.0)
        with pytest.raises(ValueError):
            inversion_recovery_curve([-1e-3], 1e-3, 1.0)


class TestNutation:
    def test_zero_duration_gives_equilibrium(self):
        species = _narrow_species()
        env = _resonant_env(species)
        trace = nutation_curve([0.0, 1e-9], env, species, EnsembleSpec(4, 1, 1))
        assert trace.y[0] == pytest.approx(0.9681, abs=1e-3)

    def test_zero_crossing_and_first_minimum(self):
        species = SpinSpecies(1.9985, 0.0, 0.0, 1e-6)
        env = _resonant_env(species)
        durations = np.linspace(0, 1.2e-6, 601)  # 2 ns grid
        trace = nutation_curve(durations, env, species, EnsembleSpec(256, 1, 3))
        x, y = trace.x, trace.y
        # first zero crossing at a quarter Rabi period, about 240 ns
        crossing = x[np.argmax(y < 0)]
        assert crossing == pytest.approx(240e-9, abs=4e-9)
        # first minimum at the pi time, 480 ns
        assert x[np.argmin(y)] == pytest.approx(480e-9, abs=4e-9)

    def test_matches_per_duration_loop(self):
        # 1000 offsets make chunks of 65 durations, so 200 durations end in a
        # partial chunk; the per-duration loop is the reference, bit for bit
        species = SpinSpecies(1.9985, 0.0, 0.0, 3e-5)
        env = _resonant_env(species)
        durations = np.linspace(0, 6e-6, 200)
        ensemble = EnsembleSpec(1000, 1, 9)
        m0, w1, sigma, _ = spincore._ensemble_setup(env, species)
        offsets = spincore._philox(9, spincore._STATIC_STREAM).standard_normal(1000) * sigma
        expected = np.zeros_like(durations)
        for b_res, weight in resonance_lines(species, env.mw_frequency_hz):
            det = gyromagnetic_ratio(species.g_factor) * (env.static_field_tesla - b_res) + offsets
            weff2 = w1 * w1 + det * det
            for k, tp in enumerate(durations):
                mz = m0 * (1.0 - 2.0 * (w1 * w1 / weff2) * np.sin(np.sqrt(weff2) * tp / 2.0) ** 2)
                expected[k] += weight * float(np.mean(mz))
        trace = nutation_curve(durations, env, species, ensemble)
        assert np.array_equal(trace.y, expected)

    def test_stderr_is_the_two_pass_error_of_the_offsets(self):
        # 1000 offsets make chunks of 65 durations, so 200 durations end in a
        # partial chunk; each offset's readout is the sum of the two lines
        cfg = load_config(json.loads((SEQ_DIR / "pulsed_defaults.json").read_text()))
        env, species = cfg.environment, cfg.species
        durations = np.linspace(0, 6e-6, 200)
        trace = nutation_curve(durations, env, species, EnsembleSpec(1000, 1, 9))
        m0, w1, sigma, lines = spincore._ensemble_setup(env, species)
        offsets = spincore._philox(9, spincore._STATIC_STREAM).standard_normal(1000) * sigma
        readout = sum(rabi._rabi_mz(weight * m0, w1, det + offsets, durations[:, None]) for weight, det in lines)
        expected = np.sqrt(((readout - readout.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)) / 1000
        np.testing.assert_allclose(trace.y_stderr, expected, rtol=1e-9, atol=0)
        assert (trace.y_stderr[1:] > 0).all()

    def test_inhomogeneity_damps_oscillations(self):
        species = SpinSpecies(1.9985, 0.0, 0.0, 3e-5)
        env = _resonant_env(species)
        durations = np.linspace(0, 6e-6, 301)
        trace = nutation_curve(durations, env, species, EnsembleSpec(2048, 1, 3))
        y = trace.y
        m0 = y[0]
        late = y[-50:]
        # oscillations decay after a few microseconds
        assert np.ptp(late) < 0.5 * 2 * m0


def _hahn(tau_s):
    return parse(f"pulse pi/2 +x\ndelay {tau_s!r}s\npulse pi +x\ndelay {tau_s!r}s\nacquire echo\n")


class TestOnePointPhysics:
    """The physics of :func:`run_program` on one-point programs."""

    def test_echo_refocuses_static_dephasing(self):
        # heavy static inhomogeneity, no spectral diffusion: the echo
        # amplitude must match exp(-2 tau/t2) regardless of the spread
        tau = 80e-6
        for width in (1e-5, 3e-4):
            species = SpinSpecies(1.9985, 0.0, 0.0, width)
            env = _resonant_env(species, rabi_frequency_hz=5e8)  # near-ideal pulses
            tr = run_program(_hahn(tau), env, species, RELAX_NONOISE, EnsembleSpec(2000, 1, 11),
                             TrapParams())["echo"]
            amp = tr.y[0] / tr.meta["equilibrium_mz"]
            assert amp == pytest.approx(math.exp(-2 * tau / RELAX.t2_seconds), rel=2e-3)

    def test_hahn_echo_matches_analytic_envelope(self):
        species = _narrow_species()
        env = _resonant_env(species)
        tau = 80e-6
        tr = run_program(_hahn(tau), env, species, RELAX, EnsembleSpec(1, 20000, 7), TrapParams())["echo"]
        m0 = tr.meta["equilibrium_mz"]
        amp = tr.y[0] / m0
        se = tr.y_stderr[0] / m0
        assert amp == pytest.approx(0.2205, abs=3 * se + 1e-3)

    def test_seed_reproducible_across_blocks(self):
        species = _narrow_species()
        env = _resonant_env(species)
        ast = _hahn(40e-6)
        # 2000 trajectories fit one block; 12 000 span two, so the fixed
        # block-order reduction is exercised
        for ens in (EnsembleSpec(50, 40, 123), EnsembleSpec(3, 4000, 123)):
            a = run_program(ast, env, species, RELAX, ens, TrapParams())["echo"]
            b = run_program(ast, env, species, RELAX, ens, TrapParams())["echo"]
            c = run_program(ast, env, species, RELAX, ens, TrapParams())["echo"]
            assert a.y.tolist() == b.y.tolist() == c.y.tolist()

    @pytest.mark.parametrize("emission_rate, window", [(400.0, "15ms"), (200.0, "30ms")])
    def test_unwindowed_charge_integrates_six_emission_times(self, emission_rate, window):
        # an acquire without a window has duration 0; its charge is integrated over 6/k_e
        species = _narrow_species()
        env = _resonant_env(species)
        trap = TrapParams(emission_rate_per_second=emission_rate)
        body = "pulse pi/2 +x\ndelay 20us\npulse pi/2 +y\nacquire charge"
        default, windowed = (
            run_program(parse(source), env, species, RELAX, EnsembleSpec(8, 4, 5), trap)["charge"]
            for source in (body, f"{body} window={window}"))
        assert default.y.tolist() == windowed.y.tolist() and default.meta == windowed.meta
        assert default.y_stderr.tolist() == windowed.y_stderr.tolist()
        assert default.y[0] != 0.0

    def test_mz_channel_after_pi_pulse(self):
        species = _narrow_species()
        env = _resonant_env(species)
        tr = run_program(parse("pulse pi +x\nacquire mz"), env, species, RELAX_NONOISE,
                         EnsembleSpec(4, 1, 1), TrapParams())["mz"]
        assert tr.y[0] == pytest.approx(-tr.meta["equilibrium_mz"], abs=1e-9)


def _point_source(source, value):
    """The unswept program of one sweep point: the sweep line (the first)
    dropped and the sweep variable written as the literal ``value``."""
    name = parse(source).sweep.name
    return re.sub(rf"\b{name}\b", f"{value!r}s", source.split("\n", 1)[1])


_MICROSECONDS = hs.integers(min_value=1, max_value=300).map(lambda n: f"{n}us")


@hs.composite
def _swept_programs(draw):
    """A sweep of 1-4 points over ``tau``, which any statement may use."""
    statement = hs.one_of(pulse_statements(True, _MICROSECONDS), delay_statements(True, _MICROSECONDS),
                          acquire_statements(_MICROSECONDS))
    start = draw(hs.integers(min_value=1, max_value=100))
    lines = [f"sweep tau {start}us {start + 50}us {draw(hs.integers(min_value=1, max_value=4))}"]
    lines += draw(hs.lists(statement, max_size=5))
    lines.append(draw(acquire_statements(_MICROSECONDS)))
    return "\n".join(lines)


class TestSweepEngine:
    """One engine pass over a sweep equals running each point on its own, bit for bit."""

    CONFIG = load_config({})

    def _check_sweep(self, source, ensemble):
        """Assert that one engine pass over the sweep of ``source`` gives each
        point's rows as its unswept program does; return how many statements
        the pass propagated once for all points."""
        cfg = self.CONFIG
        args = (cfg.environment, cfg.species, cfg.relaxation, ensemble)
        ast = parse(source)
        values = [float(v) for v in sweep_values(ast.sweep)]
        with mock.patch.object(blochsim, "_walk", wraps=blochsim._walk) as walk:
            m0, swept = blochsim._run_engine(ast, values, *args)
        alone = [blochsim._run_engine(parse(_point_source(source, v)), [None], *args) for v in values]
        assert {m for m, _ in alone} == {m0}
        # repr shows every float exactly
        assert repr(swept.tolist()) == repr([stats[0].tolist() for _, stats in alone])
        return len(walk.call_args_list[0].args[0])

    @given(source=_swept_programs(), n_static=hs.integers(1, 4), n_noise=hs.integers(1, 4),
           seed=hs.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_each_point(self, source, n_static, n_noise, seed):
        self._check_sweep(source, EnsembleSpec(n_static, n_noise, seed))

    @pytest.mark.parametrize("source, n_shared, ensemble", [
        pytest.param("sweep tau 100ns 900ns 5\npulse 90deg +x dur=tau\ndelay 20us\nacquire echo",
                     0, EnsembleSpec(4, 3, 1), id="empty-prefix"),
        pytest.param("sweep tau 10us 30us 3\npulse pi/2 +x\nacquire mz window=5us\ndelay 40us\n"
                     "acquire echo\npulse pi +x\ndelay tau\nacquire echo",
                     5, EnsembleSpec(4, 3, 2), id="acquires-in-prefix"),
        pytest.param("sweep tr 70us 90us 4\npulse pi/2 +x\ndelay 80us\npulse pi +x\ndelay tr\n"
                     "pulse pi/2 +x\nacquire charge window=10ms",
                     3, EnsembleSpec(4, 3, 3), id="windowed-final-acquire"),
        pytest.param("sweep tr 70us 90us 4\npulse pi/2 +x\ndelay 80us\npulse pi +x\ndelay tr\n"
                     "pulse pi/2 +x\nacquire charge window=10ms",
                     3, EnsembleSpec(300, 30, 4), id="two-blocks"),
    ])
    def test_explicit_cases(self, source, n_shared, ensemble):
        assert self._check_sweep(source, ensemble) == n_shared

    @pytest.mark.parametrize("n_static, n_noise", [(300, 30), (3, 4000), (20000, 1), (1, 9000), (4, 8192)])
    def test_block_offsets_equal_one_full_draw(self, n_static, n_noise):
        ensemble = EnsembleSpec(n_static, n_noise, 77)
        full = spincore._philox(77, spincore._STATIC_STREAM).standard_normal(n_static) * 2.5
        blocks = list(blochsim._block_offsets(ensemble, 2.5))
        assert [b.size for b in blocks[:-1]] == [blochsim._BLOCK] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), full[np.arange(ensemble.n_trajectories) // n_noise])

    def test_static_offsets_bounded_by_block(self):
        # a million static offsets would take 8 MB if drawn up front
        cfg = self.CONFIG
        ast = parse("pulse pi +x\nacquire mz")
        tracemalloc.start()
        try:
            run_program(ast, cfg.environment, cfg.species, cfg.relaxation, EnsembleSpec(10**6, 1, 5),
                        cfg.trap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_engine_working_set(self):
        # At the shipped 128 x 32 the engine peaks at 0.77 MiB on
        # three_pulse_ed_echo and 0.86 MiB on hahn_echo (1.20 and 1.42 when a
        # whole block was walked at once).  128 x 64 is one full
        # 8192-trajectory block: its draws and offsets add 0.14 MiB (0.90 and
        # 1.00 MiB), but each chunk still holds 2048 trajectories, so the
        # chunk, not the block, bounds the peak (a whole block walked at once
        # held 2.39 and 2.82 MiB).  1.1 MiB is the highest of the four plus
        # a 0.1 MiB margin.  A first run loads what numpy imports lazily,
        # untraced.
        cfg = load_config(json.loads((SEQ_DIR / "pulsed_defaults.json").read_text()))
        peaks = {}
        for name in ("three_pulse_ed_echo", "hahn_echo"):
            ast = parse((SEQ_DIR / f"{name}.seq").read_text())
            values = [float(v) for v in sweep_values(ast.sweep)]
            for n_noise in (32, 64):
                args = (cfg.environment, cfg.species, cfg.relaxation, EnsembleSpec(128, n_noise, cfg.ensemble.rng_seed))
                blochsim._run_engine(ast, values[:1], *args)
                tracemalloc.start()
                try:
                    blochsim._run_engine(ast, values, *args)
                    peaks[name, n_noise] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert max(peaks.values()) <= 1.1 * 2**20, peaks

    @pytest.mark.parametrize("source", [
        pytest.param((SEQ_DIR / "hahn_echo.seq").read_text(), id="hahn_echo"),
        pytest.param((SEQ_DIR / "three_pulse_ed_echo.seq").read_text(), id="three_pulse_ed_echo"),
        pytest.param("sweep tau 10us 50us 5\npulse pi/2 +x\ndelay 20us\nacquire echo\npulse pi +x\ndelay tau\n"
                     "acquire mz window=5us\npulse pi/2 +x\nacquire charge window=10ms", id="echo-mz-charge"),
    ])
    @pytest.mark.parametrize("n_static", [128, 375])
    def test_chunks_match_one_pass(self, source, n_static):
        # Walking each block in chunks moves no draw.  At 4096 trajectories
        # (128 x 32) numpy's pairwise sum over the block already adds two
        # halves of 2048, so every mean, and so every value, is the same bit
        # for bit; the centred moments differ by rounding.  At 12000 (375 x
        # 32: two blocks, the second ending in a partial chunk) the sums
        # also differ by rounding, within 1e-15 of the trace's largest value.
        cfg = load_config(json.loads((SEQ_DIR / "pulsed_defaults.json").read_text()))
        ensemble = EnsembleSpec(n_static, 32, cfg.ensemble.rng_seed)
        args = (parse(source), cfg.environment, cfg.species, cfg.relaxation, ensemble, cfg.trap)
        chunked = run_program(*args)
        with mock.patch.object(blochsim, "_CHUNK", blochsim._BLOCK):
            one_pass = run_program(*args)
        assert chunked.keys() == one_pass.keys()
        for channel, trace in one_pass.items():
            if n_static == 128:
                assert np.array_equal(chunked[channel].y, trace.y)
            for column in ("y", "y_stderr"):
                want = getattr(trace, column)
                np.testing.assert_allclose(getattr(chunked[channel], column), want, rtol=0,
                                           atol=1e-15 * np.abs(want).max())


class TestLiveComponents:
    """The engine computes only what the final acquire reads, and no number moves for it."""

    @given(source=_swept_programs(), n_static=hs.integers(1, 4), n_noise=hs.integers(1, 4),
           seed=hs.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_final_acquire_as_with_every_component_live(self, source, n_static, n_noise, seed):
        # one more acquire of another channel after the final one makes every
        # component of every statement before it live.  The final acquire's
        # window is dropped, as the engine never evolves it, so the extra
        # acquire moves no draw row and no layout.
        cfg = TestSweepEngine.CONFIG
        ast = parse(source)
        *body, last = ast.statements
        extra = AcquireStmt("mz" if last.channel == "echo" else "echo")
        longer = ast.replace(statements=(*body, AcquireStmt(last.channel), extra))
        values = [float(v) for v in sweep_values(ast.sweep)]
        args = (cfg.environment, cfg.species, cfg.relaxation, EnsembleSpec(n_static, n_noise, seed))
        _, stats = blochsim._run_engine(ast, values, *args)
        _, every_live = blochsim._run_engine(longer, values, *args)
        # each acquire's value and y_stderr follow from its row of stats,
        # which repr shows to every bit
        assert repr(stats.tolist()) == repr(every_live[:, :-1].tolist())

    @pytest.mark.parametrize("name, live", [
        ("three_pulse_ed_echo", [(0, 1, 2)] * 4 + [(2,), ()]),
        ("readout_vee", [(0, 1, 2)] * 2 + [(2,), ()]),
        ("hahn_echo", [(0, 1, 2)] * 2 + [(0, 1)] * 2 + [()]),
        ("nutation", [(2,), ()]),
    ])
    def test_shipped_sequences(self, name, live):
        # the readout pi/2 builds 3 of its 9 rotation rows, the Hahn pi 6
        statements = parse((SEQ_DIR / f"{name}.seq").read_text()).statements
        assert [components for components, _ in blochsim._live_components(statements)] == live


class TestRotationBuilds:
    """The engine builds a pulse's rotation once per chunk of a block,
    unless the pulse's duration names the sweep variable: a pulse after the
    shared prefix for all lines at once, and one in the prefix, which is
    walked once, one line at a time."""

    CONFIG = load_config({})

    @pytest.mark.parametrize("name", ["three_pulse_ed_echo", "hahn_echo", "nutation"])
    def test_builds_per_block(self, name):
        cfg = self.CONFIG
        ast = parse((SEQ_DIR / f"{name}.seq").read_text())
        values = [float(v) for v in sweep_values(ast.sweep)]
        pulses = [s for s in ast.statements if isinstance(s, PulseStmt)]
        if any(p.duration == ast.sweep.name for p in pulses):  # nutation: one build per point
            per_chunk = values
        else:  # each pulse once; the readout pi/2 is not rebuilt at each of the 61 points
            per_chunk = [statement_duration(p, cfg.environment) for p in pulses]
        # the pulses before the first swept statement are in the shared prefix
        swept = next(i for i, s in enumerate(ast.statements) if getattr(s, "duration", None) == ast.sweep.name)
        n_prefix = sum(isinstance(s, PulseStmt) for s in ast.statements[:swept])
        # 12 000 trajectories: two blocks, walked in chunks of 2048, the last
        # one partial (nutation has no free evolution, so it runs one
        # trajectory per static sample)
        ensemble = EnsembleSpec(12000, 1, 1)
        chunks = [min(blochsim._CHUNK, size - lo) for size in (blochsim._BLOCK, 12000 - blochsim._BLOCK)
                  for lo in range(0, size, blochsim._CHUNK)]
        assert chunks == [2048] * 5 + [1760]
        with mock.patch.object(blochsim, "_pulse_rotation", wraps=blochsim._pulse_rotation) as build:
            blochsim._run_engine(ast, values, cfg.environment, cfg.species, cfg.relaxation, ensemble)
        # per chunk, a prefix pulse is one call per hyperfine line, on that
        # line's trajectories; any other is one call that holds both lines
        expected = [(d, (size,)) if k < n_prefix else (d, (2, size))
                    for size in chunks
                    for k, d in enumerate(per_chunk) for _ in range(2 if k < n_prefix else 1)]
        assert [c.args[3] for c in build.call_args_list] == [d for d, _ in expected]
        assert [c.args[0].shape for c in build.call_args_list] == [shape for _, shape in expected]


class TestRunProgram:
    """``run_program``, as the CLI calls it, on swept and unswept programs."""

    CONFIG = load_config({})

    def _run(self, source, ensemble=EnsembleSpec(3, 2, 5)):
        cfg = self.CONFIG
        return run_program(parse(source), cfg.environment, cfg.species, cfg.relaxation, ensemble, cfg.trap)

    @given(source=_swept_programs(), n_static=hs.integers(1, 3), n_noise=hs.integers(1, 3),
           seed=hs.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_sweep_equals_each_point_as_its_own_program(self, source, n_static, n_noise, seed):
        ensemble = EnsembleSpec(n_static, n_noise, seed)
        try:
            swept = self._run(source, ensemble)
        except SequenceError:  # a channel acquired twice
            reject()
        values = [float(v) for v in sweep_values(parse(source).sweep)]
        assert all(trace.x.tolist() == values for trace in swept.values())
        for i, v in enumerate(values):
            alone = self._run(_point_source(source, v), ensemble)
            assert alone.keys() == swept.keys()
            for channel, trace in alone.items():
                # repr shows every float exactly
                assert repr((trace.y.tolist(), trace.y_stderr.tolist())) == repr(
                    (swept[channel].y[i:i + 1].tolist(), swept[channel].y_stderr[i:i + 1].tolist()))

    @pytest.mark.parametrize("source, axis_kind, xs", [
        ("sweep tau 10us 30us 3\npulse pi/2 +x\ndelay tau\npulse pi +x dur=tau\nacquire echo",
         "tau", (10e-6, 20e-6, 30e-6)),
        ("sweep tp 100ns 300ns 3\npulse 90deg +x dur=tp\ndelay 2us\nacquire mz\nacquire charge",
         "pulse_duration", (100e-9, 200e-9, 300e-9)),
        ("pulse pi/2 +x dur=500ns\ndelay 10us\nacquire echo window=5us\nacquire echo\nacquire mz",
         "time", (500 * 1e-9 + 10 * 1e-6, 500 * 1e-9 + 10 * 1e-6 + 5 * 1e-6)),
    ], ids=["tau", "pulse_duration", "time"])
    def test_axis_kind_and_meta(self, source, axis_kind, xs):
        swept = parse(source).sweep is not None
        traces = self._run(source)
        assert sorted(traces) == sorted(set(parse(source).acquire_channels))
        x = traces["echo" if "echo" in traces else "mz"].x
        # an acquire's time is exactly the running float sum of the durations before it
        assert tuple(x.tolist()) == (pytest.approx(xs, rel=1e-12) if swept else xs)
        for trace in traces.values():
            assert trace.axis_kind == axis_kind
            # only what the run computes or what labels x; the CLI records the config
            assert set(trace.meta) == {"equilibrium_mz"} | ({"sweep_variable"} if swept else set())
            assert len(trace.y_stderr) == len(trace)
        if swept:
            assert {t.meta["sweep_variable"] for t in traces.values()} == {parse(source).sweep.name}

    @pytest.mark.parametrize("angle, rtol", [("1deg", 1e-8), ("0.1deg", 1e-5)])
    @pytest.mark.parametrize("n_static, n_noise", [(20000, 1), (500, 40), (64, 1)])
    def test_stderr_is_the_two_pass_error_of_the_readouts(self, angle, rtol, n_static, n_noise):
        # a small flip spreads mz little against its mean, where a one-pass
        # sum_sq/n - mean^2 cancels (it read 0 at 0.1deg); the reference is
        # the closed-form readout of each trajectory, its spread taken about
        # its mean; 20000 trajectories are three blocks.  No walk acts, so
        # each static sample is one readout, whatever n_noise is
        cfg = load_config(json.loads((SEQ_DIR / "pulsed_defaults.json").read_text()))
        trace = run_program(parse(f"pulse {angle} +x\nacquire mz"), cfg.environment, cfg.species,
                            cfg.relaxation, EnsembleSpec(n_static, n_noise, 3), cfg.trap)["mz"]
        m0, w1, sigma, lines = spincore._ensemble_setup(cfg.environment, cfg.species)
        offsets = np.concatenate(list(blochsim._block_offsets(EnsembleSpec(n_static, 1, 3), sigma)))
        duration = math.radians(float(angle.removesuffix("deg"))) / w1
        readout = sum(rabi._rabi_mz(weight * m0, w1, det + offsets, duration) for weight, det in lines)
        assert trace.y[0] == pytest.approx(readout.mean(), rel=1e-15)
        assert trace.y_stderr[0] == pytest.approx(readout.std() / math.sqrt(readout.size), rel=rtol, abs=0)

    def test_coincident_doublet_reads_as_its_singlet(self):
        # the two lines of `doublet` fall on one float field, so each trajectory
        # reads exactly what the singlet's does: the standard error must carry
        # the covariance between the lines, not only each line's own variance
        doublet = SpinSpecies(1.9985, 1e-16, -0.3, 3e-4)
        singlet = SpinSpecies(1.9985, 0.0, -0.3, 3e-4)
        assert len({b for b, _ in resonance_lines(doublet, 240e9)}) == 1
        source = ("pulse pi/2 +x\ndelay 20us\npulse pi +x\ndelay 20us\nacquire echo\n"
                  "pulse pi/2 +x\nacquire mz\nacquire charge")
        cfg, env = self.CONFIG, _resonant_env(singlet)
        a, b = (run_program(parse(source), env, species, cfg.relaxation, EnsembleSpec(16, 4, 3), cfg.trap)
                for species in (doublet, singlet))
        assert sorted(a) == sorted(b) == ["charge", "echo", "mz"]
        for channel in a:
            assert a[channel].y_stderr[0] > 0
            np.testing.assert_allclose(a[channel].y, b[channel].y, rtol=1e-9)
            np.testing.assert_allclose(a[channel].y_stderr, b[channel].y_stderr, rtol=1e-9)


class TestSamplesWithoutWalk:
    """With no free evolution, or at ``t_s = inf``, no noise walk acts, so
    the ``n_noise`` trajectories of a static sample would be copies: the
    engine runs each sample once, and the error is taken over the samples."""

    CONFIG = load_config(json.loads((SEQ_DIR / "pulsed_defaults.json").read_text()))
    HAHN = (SEQ_DIR / "hahn_echo.seq").read_text()

    def _run(self, source, t_s, ensemble):
        """The traces, and how many trajectories the engine propagated."""
        cfg = self.CONFIG
        relax = cfg.relaxation.replace(t_s_seconds=t_s)
        with mock.patch.object(blochsim, "_block_offsets", wraps=blochsim._block_offsets) as offsets:
            traces = run_program(parse(source), cfg.environment, cfg.species, relax, ensemble, cfg.trap)
        (call,) = offsets.call_args_list
        return traces, call.args[0].n_trajectories

    @pytest.mark.parametrize("source, t_s", [
        ((SEQ_DIR / "nutation.seq").read_text(), 200e-6),
        ("pulse 1deg +x\nacquire mz", 200e-6),
        (HAHN, math.inf),
    ], ids=["nutation", "1deg-mz", "hahn_echo-t_s-inf"])
    def test_equals_one_trajectory_per_sample(self, source, t_s):
        two_level, n_run = self._run(source, t_s, EnsembleSpec(24, 5, 7))
        one_level, _ = self._run(source, t_s, EnsembleSpec(24, 1, 7))
        assert two_level.keys() == one_level.keys()
        for channel, trace in one_level.items():
            assert two_level[channel].y_stderr.tolist() == trace.y_stderr.tolist()
            assert two_level[channel].y.tolist() == trace.y.tolist()
        assert n_run == 24

    def test_walked_program_runs_every_trajectory(self):
        assert self._run(self.HAHN, 200e-6, EnsembleSpec(24, 5, 7))[1] == 120

    @pytest.mark.parametrize("name, channel", [("nutation", "mz"), ("hahn_echo", "echo")])
    def test_stderr_calibrated_across_seeds(self, name, channel):
        # a two-level layout over 200 seeds: at each point more than 5 errors
        # from zero, the seed SD over the reported error lies in the
        # chi-square interval of the seed count, at a family-wise level of
        # 1e-3 over those points (Bonferroni).  The reported error is the
        # root mean square over the seeds: at 64 samples a skewed point's
        # median error understates its spread (a nutation point read 1.31).
        # Counting the 8 copies of a sample as independent reads sqrt(8).
        cfg = self.CONFIG
        relax = cfg.relaxation.replace(t_s_seconds=math.inf)
        ast = parse((SEQ_DIR / f"{name}.seq").read_text())
        runs = [run_program(ast, cfg.environment, cfg.species, relax, EnsembleSpec(64, 8, seed), cfg.trap)[channel]
                for seed in range(1, 201)]
        y = np.array([trace.y for trace in runs])
        reported = np.sqrt(np.mean([trace.y_stderr ** 2 for trace in runs], axis=0))
        far = np.abs(y.mean(axis=0)) > 5 * reported
        assert far.sum() >= 20
        ratio = y.std(axis=0, ddof=1)[far] / reported[far]
        level = 1e-3 / far.sum()
        low, high = np.sqrt(chi2.ppf([level / 2, 1 - level / 2], len(runs) - 1) / (len(runs) - 1))
        assert low <= ratio.min() and ratio.max() <= high, (ratio.min(), ratio.max(), low, high)


def _turned(ast):
    """``ast`` with every pulse phase turned by 90 degrees about z."""
    turn = {"+x": "+y", "+y": "-x", "-x": "-y", "-y": "+x"}
    return ast.replace(statements=tuple(
        s.replace(phase=turn[s.phase]) if isinstance(s, PulseStmt) else s for s in ast.statements))


def _split(ast):
    """``ast`` with every delay of fixed duration split into two halves.

    Halving is exact in binary floating point, so each half's phase is
    exactly half the whole's, and the relation holds to the rounding of the
    evolution itself.  An uneven split would round each part's phase by
    about eps times the phase, 1e-10 rad at a hyperfine line's 3.7e8 rad/s
    over a millisecond, which would move an echo of two interfering lines
    by more than the bound."""
    statements = []
    for s in ast.statements:
        if isinstance(s, DelayStmt) and not isinstance(s.duration, str):
            statements += [DelayStmt(s.duration / 2)] * 2
        else:
            statements.append(s)
    return ast.replace(statements=tuple(statements))


class TestMetamorphicRelations:
    """Two changes to a program that leave its physics alone move no output
    beyond rounding: turning every pulse phase by 90 degrees (the free
    evolution, the noise walk and each readout commute with a turn about z),
    and, without spectral diffusion, splitting a fixed delay in two."""

    NO_DIFFUSION = load_config({"relaxation": {"t_s_seconds": "inf"}})

    @staticmethod
    def _assert_unmoved(ast, cfg, a, b, tol):
        """Each channel of ``b`` is within ``tol`` of its full scale of ``a``'s:
        the equilibrium mz for echo and mz, and the charge of flipping all of
        it over the acquire's window for charge.  Not its peak: rounding in a
        state of size m0 stays, and a small flip's (m0 - mz)/2 cancels."""
        assert a.keys() == b.keys()
        m0 = next(iter(a.values())).meta["equilibrium_mz"]
        for acquire in (s for s in ast.statements if isinstance(s, AcquireStmt)):
            channel, scale = acquire.channel, m0
            if channel == "charge":
                scale *= abs(boxcar_charge(cfg.trap, acquire.window or 6.0 / cfg.trap.emission_rate_per_second))
            assert np.abs(b[channel].y - a[channel].y).max() <= tol * scale, channel

    @staticmethod
    def _run(ast, cfg, ensemble):
        return run_program(ast, cfg.environment, cfg.species, cfg.relaxation, ensemble, cfg.trap)

    def _check(self, ast, cfg, ensemble):
        try:
            plain = self._run(ast, cfg, ensemble)
        except SequenceError:  # a channel acquired twice
            reject()
        self._assert_unmoved(ast, cfg, plain, self._run(_turned(ast), cfg, ensemble), 1e-14)
        if cfg.relaxation.diffusion_constant == 0.0:
            self._assert_unmoved(ast, cfg, plain, self._run(_split(ast), cfg, ensemble), 1e-12)

    @given(source=_swept_programs(), n_static=hs.integers(1, 3), n_noise=hs.integers(1, 3),
           seed=hs.integers(0, 2**32), diffusion=hs.booleans())
    @settings(max_examples=60, deadline=None)
    def test_generated_programs(self, source, n_static, n_noise, seed, diffusion):
        cfg = TestRunProgram.CONFIG if diffusion else self.NO_DIFFUSION
        self._check(parse(source), cfg, EnsembleSpec(n_static, n_noise, seed))

    @pytest.mark.parametrize("name, config", [
        ("hahn_echo", "pulsed_defaults"), ("three_pulse_ed_echo", "pulsed_defaults"),
        ("nutation", "pulsed_defaults"), ("readout_vee", "pulsed_defaults"),
        ("inversion_recovery", "inversion_recovery")])
    def test_shipped_sequences(self, name, config):
        data = json.loads((SEQ_DIR / f"{config}.json").read_text())
        ensemble = EnsembleSpec(16, 4, 1)
        ast = parse((SEQ_DIR / f"{name}.seq").read_text())
        self._check(ast, load_config(data), ensemble)
        # each sweep point's delays are fixed; split them all, with no diffusion
        data["relaxation"]["t_s_seconds"] = "inf"
        for value in sweep_values(ast.sweep)[[0, -1]]:
            self._check(parse(_point_source(unparse(ast), float(value))), load_config(data), ensemble)


class TestNoiseCalibration:
    """Monte Carlo Wiener-walk amplitudes against the closed-form laws."""

    def test_free_induction_cubic_law(self):
        # FID with pure spectral diffusion decays as exp(-4 t^3 / t_s^3)
        species = _narrow_species()
        env = _resonant_env(species)
        relax = RelaxationParams(t1_seconds=1e3, t2_seconds=1e3, t_s_seconds=200e-6)
        for t in (60e-6, 100e-6):
            ast = parse(f"pulse pi/2 +x\ndelay {t!r}s\nacquire echo\n")
            tr = run_program(ast, env, species, relax, EnsembleSpec(1, 20000, 21), TrapParams())["echo"]
            m0 = tr.meta["equilibrium_mz"]
            amp = tr.y[0] / m0
            se = tr.y_stderr[0] / m0
            expected = math.exp(-4 * t**3 / relax.t_s_seconds**3)
            assert amp == pytest.approx(expected, abs=3 * se + 2e-3)

    def test_hahn_cubic_law(self):
        species = _narrow_species()
        env = _resonant_env(species)
        relax = RelaxationParams(t1_seconds=1e3, t2_seconds=1e3, t_s_seconds=200e-6)
        tau = 100e-6
        tr = run_program(_hahn(tau), env, species, relax, EnsembleSpec(1, 20000, 22), TrapParams())["echo"]
        m0 = tr.meta["equilibrium_mz"]
        amp = tr.y[0] / m0
        se = tr.y_stderr[0] / m0
        expected = math.exp(-8 * tau**3 / relax.t_s_seconds**3)
        assert amp == pytest.approx(expected, abs=3 * se + 2e-3)


class TestNoiseCalibrationAcrossSeeds:
    """The exact sampler is unbiased: z-scores over many seeds are standard."""

    # the tau values share draws under one seed, so each case gets its own seeds
    @pytest.mark.parametrize("kind, tau, first_seed", [
        ("fid", 60e-6, 1000), ("fid", 100e-6, 2000), ("hahn", 60e-6, 3000), ("hahn", 100e-6, 4000),
    ])
    def test_z_scores_standard(self, kind, tau, first_seed):
        species = _narrow_species()
        env = _resonant_env(species)
        relax = RelaxationParams(t1_seconds=1e3, t2_seconds=1e3, t_s_seconds=200e-6)
        if kind == "fid":
            ast = parse(f"pulse pi/2 +x\ndelay {tau!r}s\nacquire echo\n")
            expected = math.exp(-4 * tau**3 / relax.t_s_seconds**3)
        else:
            ast = _hahn(tau)
            expected = math.exp(-8 * tau**3 / relax.t_s_seconds**3)
        z = []
        for seed in range(first_seed, first_seed + 200):
            tr = run_program(ast, env, species, relax, EnsembleSpec(1, 4000, seed), TrapParams())["echo"]
            m0 = tr.meta["equilibrium_mz"]
            z.append((tr.y[0] / m0 - expected) / (tr.y_stderr[0] / m0))
        assert abs(np.mean(z)) <= 0.25
        assert 0.8 <= np.std(z, ddof=1) <= 1.2


class TestRelaxationParamsValidation:
    def test_t2_bound(self):
        with pytest.raises(ValueError):
            RelaxationParams(t1_seconds=1e-3, t2_seconds=3e-3)  # t2 > 2 t1
        RelaxationParams(t1_seconds=1e-3, t2_seconds=2e-3)  # boundary allowed

    def test_positive(self):
        with pytest.raises(ValueError):
            RelaxationParams(t1_seconds=0, t2_seconds=1e-3)
        with pytest.raises(ValueError):
            RelaxationParams(t1_seconds=1e-3, t2_seconds=1e-3, t_s_seconds=0)

    def test_diffusion_constant_at_extreme_t_s(self):
        relax = RelaxationParams(t1_seconds=1e-3, t2_seconds=1e-3, t_s_seconds=200e-6)
        assert relax.diffusion_constant == 24.0 / 200e-6**3
        for t_s in (math.inf, 1e300, 1e103):  # t_s^3 past the float range: no diffusion
            assert RelaxationParams(t1_seconds=1e-3, t2_seconds=1e-3, t_s_seconds=t_s).diffusion_constant == 0.0
        for t_s in (1e-105, 1e-300, 5e-324):  # 24/t_s^3 overflows, or t_s^3 underflows to 0
            with pytest.raises(ValueError, match="finite"):
                RelaxationParams(t1_seconds=1e-3, t2_seconds=1e-3, t_s_seconds=t_s)

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n_static=0)
