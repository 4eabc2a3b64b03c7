import numpy as np
import pytest

from reference import find_dips
from spintrap import spectrum
from spintrap.spincore import PHOSPHORUS, Environment, SpinSpecies, resonance_lines
from spintrap.spectrum import SweepSpec
from spintrap.trace import SignalTrace

ENV = Environment()
SWEEP = SweepSpec(8.560, 8.600, 2001)  # 2e-5 T resolution


def _depths(sweep, amplitude, db_ratio=0.0):
    """``sweep`` with the species' line depth ``amplitude`` and the dangling-bond
    line at ``db_ratio`` of it (0 leaves the dangling bond out)."""
    return sweep.replace(phosphorus_amplitude_amperes=amplitude, db_amplitude_ratio=db_ratio)


def simulate_field_sweep(species, env, sweep):
    """:func:`spintrap.spectrum.simulate_field_sweep`'s columns as a trace."""
    return SignalTrace("field", *spectrum.simulate_field_sweep(species, env, sweep), "A")


def _phosphorus(pol):
    return SpinSpecies(1.9985, 4.2e-3, pol, 3.0e-4)


class TestFieldSweep:
    def test_symmetric_doublet_at_zero_polarization(self):
        trace = simulate_field_sweep(_phosphorus(0.0), ENV, _depths(SWEEP, 1.0))
        peaks = find_dips(trace, 0.05)
        assert len(peaks) == 2
        assert peaks[0][1] == pytest.approx(peaks[1][1], abs=1e-12)

    def test_doublet_split_by_hyperfine(self):
        trace = simulate_field_sweep(PHOSPHORUS, ENV, _depths(SWEEP, 1.0))
        peaks = find_dips(trace, 0.05)
        assert len(peaks) == 2
        step = (SWEEP.b_stop_tesla - SWEEP.b_start_tesla) / (SWEEP.n_points - 1)
        assert peaks[1][0] - peaks[0][0] == pytest.approx(4.2e-3, abs=step)

    def test_negative_polarization_high_field_taller(self):
        trace = simulate_field_sweep(PHOSPHORUS, ENV, _depths(SWEEP, 1.0))
        lo, hi = find_dips(trace, 0.05)
        assert hi[1] > lo[1]

    def test_amplitude_conservation(self):
        # the summed line depths are independent of the nuclear polarization
        base = SweepSpec(8.560, 8.600, 40001)
        depths = []
        for pol in (0.0, -0.3, -0.9, 0.5):
            trace = simulate_field_sweep(_phosphorus(pol), ENV, _depths(base, 1.0))
            peaks = find_dips(trace, 0.01)
            depths.append(sum(d for _, d in peaks))
        assert np.allclose(depths, depths[0], rtol=1e-6)

    def test_nonpositive_everywhere(self):
        trace = simulate_field_sweep(PHOSPHORUS, ENV, _depths(SWEEP, 1.0, 0.05))
        assert all(v <= 0 for v in trace.y)

    def test_lorentzian_selectable(self):
        sweep = SweepSpec(8.560, 8.600, 2001, lineshape="lorentzian")
        trace = simulate_field_sweep(PHOSPHORUS, ENV, _depths(sweep, 1.0))
        assert len(find_dips(trace, 0.05)) == 2


class TestSpectrumDips:
    """The dips of a synthesized spectrum, found by ``reference.find_dips``."""

    def test_flat_trace_empty(self):
        # a species with zero line depth leaves the sweep flat: no dips
        trace = simulate_field_sweep(PHOSPHORUS, ENV, _depths(SWEEP, 0.0))
        assert trace.y.max() == trace.y.min() == 0.0
        assert find_dips(trace, 0.1) == []

    def test_three_peak_preset(self):
        trace = simulate_field_sweep(PHOSPHORUS, ENV, _depths(SWEEP, 1.0, 0.05))
        peaks = find_dips(trace, 0.02)
        assert len(peaks) == 3
        fields = [f for f, _ in peaks]
        assert fields[0] == pytest.approx(8.570, abs=1e-3)
        assert fields[1] == pytest.approx(8.578, abs=1e-3)
        assert fields[2] == pytest.approx(8.582, abs=1e-3)

    def test_positions_match_resonance_fields_within_grid(self):
        step = (SWEEP.b_stop_tesla - SWEEP.b_start_tesla) / (SWEEP.n_points - 1)
        # linewidth <= splitting/4 keeps the doublet resolvable to one step
        species = SpinSpecies(1.9985, 4.2e-3, -0.3, 4.2e-3 / 4)
        trace = simulate_field_sweep(species, ENV, _depths(SWEEP, 1.0))
        peaks = find_dips(trace, 0.05)
        expected = sorted(b for b, _ in resonance_lines(species, ENV.mw_frequency_hz))
        assert len(peaks) == 2
        for (field, _), want in zip(peaks, expected):
            assert field == pytest.approx(want, abs=step)

    def test_merged_peaks_when_linewidth_dominates(self):
        species = SpinSpecies(1.9985, 4.2e-3, 0.0, 2e-2)
        wide = SweepSpec(8.50, 8.66, 2001)
        trace = simulate_field_sweep(species, ENV, _depths(wide, 1.0))
        assert len(find_dips(trace, 0.05)) == 1


class TestSweepSpec:
    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            SweepSpec(8.60, 8.56)

    def test_rejects_few_points(self):
        with pytest.raises(ValueError):
            SweepSpec(8.56, 8.60, 1)

    def test_rejects_unknown_lineshape(self):
        with pytest.raises(ValueError):
            SweepSpec(8.56, 8.60, 100, "voigt")
