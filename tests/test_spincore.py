import math

import numpy as np
import pytest

from spintrap.spincore import (
    BOHR_MAGNETON,
    BOLTZMANN_K,
    DANGLING_BOND,
    HBAR,
    PHOSPHORUS,
    PLANCK_H,
    Environment,
    SpinSpecies,
    gyromagnetic_ratio,
    resonance_lines,
    thermal_polarization,
)


def _fields(species):
    """Resonance fields of the species' lines at 240 GHz, lower first."""
    return [b for b, _ in resonance_lines(species, 240e9)]


def _detuning(species, b0):
    """Rotating-frame offset (rad/s) of the lower-field line at static field
    ``b0``, as the engine forms it."""
    return gyromagnetic_ratio(species.g_factor) * (b0 - _fields(species)[0])


class TestConstants:
    def test_codata_values(self):
        assert PLANCK_H == 6.62607015e-34
        assert BOHR_MAGNETON == 9.2740100783e-24
        assert BOLTZMANN_K == 1.380649e-23
        assert HBAR == PLANCK_H / (2.0 * math.pi)


class TestThermalPolarization:
    def test_zero_field(self):
        assert thermal_polarization(1.9985, 0.0, 2.8) == 0.0

    def test_operating_point(self):
        # independent evaluation of tanh(g muB B / 2 kB T) = 0.96813
        p = thermal_polarization(1.9985, 8.6, 2.8)
        assert p == pytest.approx(0.968, abs=1e-3)
        assert p > 0.95  # the headline polarization bound

    def test_high_temperature_limit(self):
        assert thermal_polarization(1.9985, 8.6, 1e6) < 1e-5

    def test_monotone_in_field_and_temperature(self):
        fields = np.linspace(0, 12, 25)
        ps = [thermal_polarization(2.0, b, 2.8) for b in fields]
        assert all(b > a for a, b in zip(ps, ps[1:]))
        temps = np.linspace(1.0, 50.0, 25)
        pt = [thermal_polarization(2.0, 8.6, t) for t in temps]
        assert all(b < a for a, b in zip(pt, pt[1:]))


class TestLinePositions:
    """The line positions of :func:`resonance_lines`."""

    def test_phosphorus_doublet_split(self):
        lo, hi = _fields(PHOSPHORUS)
        assert hi - lo == pytest.approx(4.2e-3, abs=1e-15)
        assert lo < hi  # the lower-field line comes first

    def test_phosphorus_center(self):
        lo, hi = _fields(PHOSPHORUS)
        assert (lo + hi) / 2 == pytest.approx(8.580, abs=1e-3)

    def test_dangling_bond_position(self):
        (b,) = _fields(DANGLING_BOND)
        assert b == pytest.approx(8.570, abs=1e-3)


class TestLineDetuning:
    """The rotating-frame offset from a line of :func:`resonance_lines`."""

    def test_zero_on_resonance(self):
        b_res = _fields(PHOSPHORUS)[0]
        assert abs(_detuning(PHOSPHORUS, b_res)) <= 1e-12 * gyromagnetic_ratio(1.9985) * b_res

    def test_offset_value(self):
        # g muB dB / hbar for dB = 1e-4 T, g = 1.9985: 1.7575e7 rad/s
        d = _detuning(PHOSPHORUS, _fields(PHOSPHORUS)[0] + 1e-4)
        assert d == pytest.approx(1.760e7, rel=5e-3)

    def test_antisymmetric_in_field_offset(self):
        b_res = _fields(PHOSPHORUS)[0]
        up = _detuning(PHOSPHORUS, b_res + 2e-4)
        dn = _detuning(PHOSPHORUS, b_res - 2e-4)
        assert up == pytest.approx(-dn, rel=1e-9)
        assert up > 0


class TestPolarizationAtEnvironment:
    """The thermal polarization at an environment's field and temperature."""

    @staticmethod
    def _polarization(env):
        return thermal_polarization(PHOSPHORUS.g_factor, env.static_field_tesla, env.temperature_kelvin)

    def test_default_preset(self):
        assert self._polarization(Environment()) == pytest.approx(0.968, abs=1e-3)

    def test_high_temperature(self):
        assert abs(self._polarization(Environment(temperature_kelvin=1e9))) < 1e-8

    def test_norm_bounded(self):
        for t in (0.5, 2.8, 30.0, 1e4):
            assert 0.0 <= self._polarization(Environment(temperature_kelvin=t)) <= 1.0


class TestSpeciesValidation:
    def test_good_preset_fields(self):
        assert PHOSPHORUS.g_factor == 1.9985
        assert PHOSPHORUS.hyperfine_splitting_tesla == 4.2e-3
        assert PHOSPHORUS.nuclear_polarization < 0
        assert DANGLING_BOND.g_factor == 2.0009
        assert DANGLING_BOND.hyperfine_splitting_tesla == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(g_factor=-1.0),
            dict(g_factor=0.0),
            dict(hyperfine_splitting_tesla=-1e-3),
            dict(nuclear_polarization=1.5),
            dict(linewidth_tesla=0.0),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(
            g_factor=2.0,
            hyperfine_splitting_tesla=0.0,
            nuclear_polarization=0.0,
            linewidth_tesla=1e-4,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            SpinSpecies(**base)

    def test_environment_positive(self):
        with pytest.raises(ValueError):
            Environment(temperature_kelvin=0.0)
        with pytest.raises(ValueError):
            Environment(static_field_tesla=-8.58)
        with pytest.raises(ValueError):
            Environment(mw_frequency_hz=0.0)


class TestLineWeights:
    """The lines of :func:`resonance_lines`: position, order and population weight."""

    def test_labels(self):
        lines = resonance_lines(PHOSPHORUS, 240e9)
        assert len(lines) == 2
        (lo, w_lo), (hi, w_hi) = lines
        center = PLANCK_H * 240e9 / (PHOSPHORUS.g_factor * BOHR_MAGNETON)
        assert lo < hi  # lower field first
        assert hi - lo == pytest.approx(PHOSPHORUS.hyperfine_splitting_tesla, rel=1e-12)
        assert (lo + hi) / 2 == pytest.approx(center, rel=1e-15)
        p = PHOSPHORUS.nuclear_polarization
        assert (w_lo, w_hi) == ((1 + p) / 2, (1 - p) / 2)
        center_db = PLANCK_H * 240e9 / (DANGLING_BOND.g_factor * BOHR_MAGNETON)
        assert resonance_lines(DANGLING_BOND, 240e9) == ((center_db, 1.0),)

    def test_weights_sum_to_one(self):
        for p in (-1.0, -0.3, 0.0, 0.7, 1.0):
            species = SpinSpecies(2.0, 4.2e-3, p, 1e-4)
            weights = [w for _, w in resonance_lines(species, 240e9)]
            assert sum(weights) == pytest.approx(1.0, abs=1e-15)

    def test_negative_polarization_favors_high_field_line(self):
        (_, w_lo), (_, w_hi) = resonance_lines(PHOSPHORUS, 240e9)
        assert w_hi > w_lo
