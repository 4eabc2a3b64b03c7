import numpy as np
import pytest
from spintrap import fitkit
from spintrap.fitkit import (
    DegenerateDataError,
    compare_models,
    fit,
    model_predict,
)
from spintrap.trace import SignalTrace

TAU_GRID = np.linspace(10e-6, 250e-6, 25)


def _trace(x, y, axis="tau"):
    return SignalTrace(axis, tuple(x), tuple(y), "dimensionless")


def _echo_cubic_trace(a=1.0, t2=160e-6, t_s=200e-6, x=TAU_GRID, noise=0.0, seed=0):
    y = a * np.exp(-2 * x / t2 - 8 * x**3 / t_s**3)
    if noise:
        y = y + noise * np.random.default_rng(seed).standard_normal(len(x))
    return _trace(x, y)


class TestRefitIdempotence:
    """Noiseless model-generated data must refit to 0.1%."""

    def test_exp_decay(self):
        x = TAU_GRID
        y = 0.8 * np.exp(-2 * x / 120e-6)
        res = fit("exp_decay", _trace(x, y))
        assert res.params["t2_seconds"] == pytest.approx(120e-6, rel=1e-3)
        assert res.params["amplitude"] == pytest.approx(0.8, rel=1e-3)
        assert res.converged

    def test_inversion_recovery(self):
        x = np.linspace(1e-4, 12e-3, 30)
        y = 0.95 * (1 - 2 * np.exp(-x / 2.5e-3))
        res = fit("inversion_recovery", _trace(x, y, axis="tau"))
        assert res.params["t1_seconds"] == pytest.approx(2.5e-3, rel=1e-3)
        assert res.params["equilibrium_mz"] == pytest.approx(0.95, rel=1e-3)

    def test_echo_cubic(self):
        res = fit("echo_cubic", _echo_cubic_trace())
        assert res.params["t2_seconds"] == pytest.approx(160e-6, rel=1e-3)
        assert res.params["t_s_seconds"] == pytest.approx(200e-6, rel=1e-3)
        assert res.params["amplitude"] == pytest.approx(1.0, rel=1e-3)

    def test_trap_biexp(self):
        x = np.linspace(1e-5, 15e-3, 40)
        y = -0.6e-9 * (np.exp(-400.0 * x) - np.exp(-1e4 * x))
        res = fit("trap_biexp", _trace(x, y, axis="time"))
        assert res.params["emission_rate_per_second"] == pytest.approx(400.0, rel=1e-3)
        assert res.params["capture_rate_per_second"] == pytest.approx(1e4, rel=1e-3)
        assert res.params["amplitude"] == pytest.approx(0.6e-9, rel=1e-3)


class TestHeadlineValues:
    def test_exponential_only_fit_lands_in_widened_band(self):
        # Fitting a*exp(-2 tau/T) to the cubic-law curve on the 10-250 us,
        # 25-point grid gives T = 94.4 us (grid-sensitive; scans over nearby
        # grids give 73-101 us), inside the widened 108 +/- 20 us band.
        res = fit("exp_decay", _echo_cubic_trace())
        t_fit = res.params["t2_seconds"]
        assert t_fit == pytest.approx(94.4e-6, rel=1e-2)
        assert 88e-6 <= t_fit <= 128e-6

    def test_t1_recovery_with_noise(self):
        rng = np.random.default_rng(42)
        x = np.linspace(1e-4, 12e-3, 25)
        clean = 0.968 * (1 - 2 * np.exp(-x / 2.5e-3))
        y = clean + 0.01 * rng.standard_normal(len(x))
        res = fit("inversion_recovery", _trace(x, y))
        assert res.params["t1_seconds"] == pytest.approx(2.5e-3, rel=0.02)


class TestCompareModels:
    def test_prefers_cubic_on_cubic_data(self):
        trace = _echo_cubic_trace(noise=0.01, seed=3)
        cmp = compare_models(trace, "echo_cubic", "exp_decay")
        assert cmp.preferred == "echo_cubic"
        assert cmp.delta_criterion < 0

    def test_prefers_exponential_on_exponential_data(self):
        x = TAU_GRID
        rng = np.random.default_rng(4)
        y = np.exp(-2 * x / 100e-6) + 0.01 * rng.standard_normal(len(x))
        cmp = compare_models(_trace(x, y), "echo_cubic", "exp_decay")
        assert cmp.preferred == "exp_decay"

    def test_equal_fits_tie_to_zero(self):
        # same model against itself: identical rss and k, delta exactly 0
        trace = _echo_cubic_trace(noise=0.02, seed=5)
        cmp = compare_models(trace, "exp_decay", "exp_decay")
        assert cmp.delta_criterion == 0.0
        assert cmp.preferred == "exp_decay"

    def test_reports_both_fits(self):
        trace = _echo_cubic_trace(noise=0.01, seed=3)
        cmp = compare_models(trace, "echo_cubic", "exp_decay")
        assert cmp.fit_a == fit("echo_cubic", trace)
        assert cmp.fit_b == fit("exp_decay", trace)

    def test_non_converged_fit_refused(self, monkeypatch):
        # one Levenberg-Marquardt iteration reaches neither stopping criterion
        monkeypatch.setattr(fitkit, "_MAX_ITER", 1)
        assert not fit("echo_cubic", _echo_cubic_trace(noise=0.01, seed=3)).converged
        with pytest.raises(DegenerateDataError, match="did not converge"):
            compare_models(_echo_cubic_trace(noise=0.01, seed=3), "echo_cubic", "exp_decay")


def _noisy(x, clean, seed):
    # 1% of the peak |y| of Gaussian noise
    return clean + 0.01 * np.max(np.abs(clean)) * np.random.default_rng(seed).standard_normal(len(x))


_IR_GRID = np.linspace(1e-4, 12e-3, 25)
_TRAP_GRID = np.linspace(1e-5, 15e-3, 40)
# Each model on a fixed noisy trace, with the optimum the earlier Nelder-Mead
# multistart fitter (xatol 1e-11 in log space) found there.
REFERENCE_OPTIMA = {
    "exp_decay": (
        _trace(TAU_GRID, _noisy(TAU_GRID, 0.8 * np.exp(-2 * TAU_GRID / 120e-6), 21)),
        {"amplitude": 0.8023605719728542, "t2_seconds": 0.00011984232136529921},
    ),
    "inversion_recovery": (
        _trace(_IR_GRID, _noisy(_IR_GRID, 0.95 * (1 - 2 * np.exp(-_IR_GRID / 2.5e-3)), 22)),
        {"equilibrium_mz": 0.9516611735673144, "t1_seconds": 0.0025012504353090206},
    ),
    "echo_cubic": (
        _trace(TAU_GRID, _noisy(TAU_GRID, np.exp(-2 * TAU_GRID / 160e-6 - 8 * TAU_GRID**3 / 200e-6**3), 23)),
        {"amplitude": 1.0149566878451044, "t2_seconds": 0.00014979835344614795,
         "t_s_seconds": 0.00020830438512737886},
    ),
    "trap_biexp": (
        _trace(_TRAP_GRID, _noisy(_TRAP_GRID, -0.6e-9 * (np.exp(-400 * _TRAP_GRID) - np.exp(-1e4 * _TRAP_GRID)), 24),
               axis="time"),
        {"amplitude": 6.066394490979521e-10, "emission_rate_per_second": 402.9070910922695,
         "capture_rate_per_second": 8804.832125908653},
    ),
}


@pytest.mark.parametrize("model_id", sorted(REFERENCE_OPTIMA))
def test_matches_reference_optimum(model_id):
    trace, expected = REFERENCE_OPTIMA[model_id]
    res = fit(model_id, trace)
    assert res.converged
    assert res.params == pytest.approx(expected, rel=1e-6)


class TestFitMechanics:
    def test_scale_equivariance(self):
        trace = _echo_cubic_trace(noise=0.005, seed=9)
        res1 = fit("echo_cubic", trace)
        scaled = _trace(trace.x, 137.0 * trace.y_array())
        res2 = fit("echo_cubic", scaled)
        assert res2.params["amplitude"] == pytest.approx(137.0 * res1.params["amplitude"], rel=1e-6)
        assert res2.params["t2_seconds"] == pytest.approx(res1.params["t2_seconds"], rel=1e-6)
        assert res2.params["t_s_seconds"] == pytest.approx(res1.params["t_s_seconds"], rel=1e-6)
        sig1, sig2 = res1.param_uncertainties, res2.param_uncertainties
        assert sig2["amplitude"] == pytest.approx(137.0 * sig1["amplitude"], rel=1e-6)
        assert sig2["t2_seconds"] == pytest.approx(sig1["t2_seconds"], rel=1e-6)
        assert sig2["t_s_seconds"] == pytest.approx(sig1["t_s_seconds"], rel=1e-6)

    def test_rss_nonnegative_and_reported(self):
        res = fit("exp_decay", _echo_cubic_trace(noise=0.02, seed=13))
        assert res.rss >= 0
        assert res.n_points == 25

    def test_uncertainties_nonnegative(self):
        res = fit("echo_cubic", _echo_cubic_trace(noise=0.01, seed=15))
        assert all(v >= 0 for v in res.param_uncertainties.values())

    def test_model_predict_round_trip(self):
        trace = _echo_cubic_trace()
        res = fit("echo_cubic", trace)
        y = model_predict("echo_cubic", trace.x, res.params)
        assert np.allclose(y, trace.y_array(), atol=1e-6)

    def test_coverage_smoke(self):
        # 1-sigma on T2 covers the truth in >= 60% of 200 seeded repetitions
        x = TAU_GRID
        clean = np.exp(-2 * x / 160e-6 - 8 * x**3 / (200e-6) ** 3)
        hits = 0
        for seed in range(200):
            y = clean + 0.01 * np.random.default_rng(seed).standard_normal(len(x))
            res = fit("echo_cubic", _trace(x, y))
            t2, sig = res.params["t2_seconds"], res.param_uncertainties["t2_seconds"]
            if abs(t2 - 160e-6) <= sig:
                hits += 1
        assert hits >= 120  # 60% of 200

    def test_degenerate_data_flagged(self):
        x = TAU_GRID
        with pytest.raises(DegenerateDataError):
            fit("exp_decay", _trace(x, np.ones_like(x)))

    def test_too_few_points(self):
        with pytest.raises(DegenerateDataError):
            fit("echo_cubic", _trace([1e-6, 2e-6, 3e-6], [1.0, 0.5, 0.2]))

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit("stretched_exp", _echo_cubic_trace())


class TestUnconstrainedParameters:
    # y flat to 1e-6 over the span: the echo decay time runs off to ~1e12 s
    FLAT = _trace(np.linspace(1e-5, 6e-5, 6), [1, 1, 1, 1, 1, 0.999999])

    def test_infinite_sigma_refused_by_name(self):
        res = fit("echo_cubic", self.FLAT)
        assert res.param_uncertainties["t2_seconds"] == np.inf
        assert np.isfinite(res.param_uncertainties["amplitude"])
        with pytest.raises(DegenerateDataError, match="t2_seconds"):
            res.require_constrained()

    def test_constrained_fit_passes(self):
        res = fit("echo_cubic", _echo_cubic_trace(noise=0.01, seed=3))
        assert res.require_constrained() is res

    def test_compare_keeps_it_with_infinite_sigma(self):
        x = TAU_GRID
        y = np.exp(-2 * x / 100e-6) + 0.01 * np.random.default_rng(4).standard_normal(len(x))
        cmp = compare_models(_trace(x, y), "echo_cubic", "exp_decay")
        assert cmp.fit_a.param_uncertainties["t_s_seconds"] == np.inf
        assert np.isfinite(cmp.fit_a.param_uncertainties["t2_seconds"])
        assert np.isfinite(cmp.fit_a.params["t_s_seconds"])
        assert cmp.preferred == "exp_decay"

    def test_overflowing_vertex_rejected(self):
        # trial points whose t_s overflows are rejected; t_s runs off unconstrained
        trace = _trace([0, 1e-5, 2e-5, 3e-5, 4e-5], [1, 0.5, 0.3, 0.2, 0.1])
        assert fit("echo_cubic", trace).param_uncertainties["t_s_seconds"] == np.inf
