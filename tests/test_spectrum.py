import numpy as np
import pytest

from spintrap.spectrum import SweepSpec, find_peaks, simulate_field_sweep
from spintrap.spincore import DANGLING_BOND, PHOSPHORUS, Environment, SpinSpecies, resonance_field
from spintrap.trace import SignalTrace

ENV = Environment()
SWEEP = SweepSpec(8.560, 8.600, 2001)  # 2e-5 T resolution


def _phosphorus(pol):
    return SpinSpecies("phosphorus", 1.9985, 4.2e-3, pol, 3.0e-4)


class TestFieldSweep:
    def test_symmetric_doublet_at_zero_polarization(self):
        trace = simulate_field_sweep([(_phosphorus(0.0), 1.0)], ENV, SWEEP)
        peaks = find_peaks(trace, 0.05)
        assert len(peaks) == 2
        assert peaks[0][1] == pytest.approx(peaks[1][1], abs=1e-12)

    def test_doublet_split_by_hyperfine(self):
        trace = simulate_field_sweep([(PHOSPHORUS, 1.0)], ENV, SWEEP)
        peaks = find_peaks(trace, 0.05)
        assert len(peaks) == 2
        step = (SWEEP.b_stop - SWEEP.b_start) / (SWEEP.n_points - 1)
        assert peaks[1][0] - peaks[0][0] == pytest.approx(4.2e-3, abs=step)

    def test_negative_polarization_high_field_taller(self):
        trace = simulate_field_sweep([(PHOSPHORUS, 1.0)], ENV, SWEEP)
        lo, hi = find_peaks(trace, 0.05)
        assert hi[1] > lo[1]

    def test_amplitude_conservation(self):
        # the summed line depths are independent of the nuclear polarization
        base = SweepSpec(8.560, 8.600, 40001)
        depths = []
        for pol in (0.0, -0.3, -0.9, 0.5):
            trace = simulate_field_sweep([(_phosphorus(pol), 1.0)], ENV, base)
            peaks = find_peaks(trace, 0.01)
            depths.append(sum(d for _, d in peaks))
        assert np.allclose(depths, depths[0], rtol=1e-6)

    def test_nonpositive_everywhere(self):
        trace = simulate_field_sweep(
            [(PHOSPHORUS, 1.0), (DANGLING_BOND, 0.05)], ENV, SWEEP
        )
        assert all(v <= 0 for v in trace.y)

    def test_lorentzian_selectable(self):
        sweep = SweepSpec(8.560, 8.600, 2001, lineshape="lorentzian")
        trace = simulate_field_sweep([(PHOSPHORUS, 1.0)], ENV, sweep)
        assert len(find_peaks(trace, 0.05)) == 2

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            simulate_field_sweep([(PHOSPHORUS, -1.0)], ENV, SWEEP)


class TestFindPeaks:
    def test_flat_trace_empty(self):
        x = np.linspace(8.56, 8.60, 100)
        trace = SignalTrace("field", tuple(x), tuple(np.zeros_like(x)), "A")
        assert find_peaks(trace, 0.1) == []

    def test_three_peak_preset(self):
        trace = simulate_field_sweep(
            [(PHOSPHORUS, 1.0), (DANGLING_BOND, 0.05)], ENV, SWEEP
        )
        peaks = find_peaks(trace, 0.02)
        assert len(peaks) == 3
        fields = [f for f, _ in peaks]
        assert fields[0] == pytest.approx(8.570, abs=1e-3)
        assert fields[1] == pytest.approx(8.578, abs=1e-3)
        assert fields[2] == pytest.approx(8.582, abs=1e-3)

    def test_positions_match_resonance_fields_within_grid(self):
        step = (SWEEP.b_stop - SWEEP.b_start) / (SWEEP.n_points - 1)
        # linewidth <= splitting/4 keeps the doublet resolvable to one step
        species = SpinSpecies("p", 1.9985, 4.2e-3, -0.3, 4.2e-3 / 4)
        trace = simulate_field_sweep([(species, 1.0)], ENV, SWEEP)
        peaks = find_peaks(trace, 0.05)
        expected = sorted(
            resonance_field(species, ENV.mw_frequency, m) for m in (+0.5, -0.5)
        )
        assert len(peaks) == 2
        for (field, _), want in zip(peaks, expected):
            assert field == pytest.approx(want, abs=step)

    def test_merged_peaks_when_linewidth_dominates(self):
        species = SpinSpecies("blurred", 1.9985, 4.2e-3, 0.0, 2e-2)
        wide = SweepSpec(8.50, 8.66, 2001)
        trace = simulate_field_sweep([(species, 1.0)], ENV, wide)
        assert len(find_peaks(trace, 0.05)) == 1

    def test_prominence_validation(self):
        trace = simulate_field_sweep([(PHOSPHORUS, 1.0)], ENV, SWEEP)
        with pytest.raises(ValueError):
            find_peaks(trace, -0.1)


class TestFindPeaksAgainstScipy:
    """The numpy peak search picks the same dips as ``scipy.signal.find_peaks``."""

    @staticmethod
    def _random_spectrum(rng, variant):
        species = [
            (SpinSpecies("p", 1.9985, rng.uniform(0.0, 8e-3), rng.uniform(-1, 1),
                         10 ** rng.uniform(-5, -3)), rng.uniform(0.1, 1.0)),
            (SpinSpecies("db", rng.uniform(1.996, 2.002), 0.0, 0.0, 10 ** rng.uniform(-4.5, -3)),
             rng.uniform(0.0, 0.3)),
        ]
        sweep = SweepSpec(8.560, 8.600, int(rng.integers(3, 2001)), str(rng.choice(["gaussian", "lorentzian"])))
        y = simulate_field_sweep(species, ENV, sweep).y_array()
        if variant == "noisy":
            y = y + rng.uniform(0.0, 0.05) * rng.standard_normal(len(y))
        elif variant == "plateaus":  # runs of equal values, flat dips included
            y = np.round(y * rng.uniform(3, 30)) / 10
        return SignalTrace("field", sweep.field_axis(), y)

    @pytest.mark.parametrize("variant", ["clean", "noisy", "plateaus"])
    def test_same_dips_as_scipy(self, variant):
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(["clean", "noisy", "plateaus"].index(variant))
        for _ in range(40):
            trace = self._random_spectrum(rng, variant)
            prominence = rng.choice([0.0, 0.02, 0.1, 0.5])
            y = -trace.y_array()
            span = y.max() - y.min()
            expected = signal.find_peaks(y, prominence=prominence * span)[0] if span > 0 else []
            found = find_peaks(trace, prominence)
            assert [f for f, _ in found] == [trace.x[i] for i in expected]
            assert [d for _, d in found] == [y[i] for i in expected]


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
