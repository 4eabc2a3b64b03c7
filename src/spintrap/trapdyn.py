"""Spin-to-charge conversion by Pauli-blocked capture and slow reemission.

A conduction electron can only be captured by a donor whose spin is
anti-parallel (the pair must form a singlet), so flipping the donor spin
gates the photocurrent.  A flipped donor is anti-aligned with the polarized
conduction electrons, so its Pauli factor is 1 and it captures at the full
spin-allowed rate ``k0``; aligned donors are blocked and never enter the
model.  The minimal model matching the two observed timescales is a
two-compartment linear system: flipped donors capture an electron at rate
``k_c = k0`` (D0 -> D-), trapped electrons are reemitted at rate ``k_e``
(D- -> D0), and each trapped electron reduces the current by a coupling
amplitude derived from the rates and the baseline photocurrent, the one scale.

Reemission randomizes the donor spin between the two anticorrelated pair
states.  In the operating regime ``k_c >> k_e`` the anti-parallel branch of
that randomization is recaptured within ``1/k_c``, so on the observed
timescale every completed release leaves the donor aligned with the (nearly
fully polarized) conduction bath.  ``emission_rate_per_second`` is therefore
the *net* release rate, which is what a fit to the current tail measures;
with that convention the current transient and the donor spin recovery share
the same time constant ``1/k_e``, which is the experimental signature this
model is built to reproduce.  Every formula here is a closed form on
Python floats.
"""

from __future__ import annotations

import math

from .errors import Value

__all__ = [
    "TrapParams",
    "transient_response",
    "trapped_fraction",
    "flip_fraction_from_state",
    "boxcar_charge",
]


class TrapParams(Value):
    """Rates and current scale of the capture/reemission process.

    The defaults encode the preset operating point: spin-allowed capture in
    ~100 us, reemission in 2.5 ms, and 60 nA baseline photocurrent, the one
    current scale: the coupling is derived so a fully flipped donor ensemble dips the
    current by 1% of baseline at the transient extremum (a plotting default,
    the measured quantity is relative).
    """

    capture_rate_per_second: float = 1.0e4  # spin-allowed capture rate k0
    emission_rate_per_second: float = 400.0  # net release rate (2.5 ms)
    baseline_current_amperes: float = 60e-9

    def __post_init__(self) -> None:
        for name in ("capture_rate_per_second", "emission_rate_per_second", "baseline_current_amperes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        try:
            coupling = self.coupling_amplitude_amperes
        except (ValueError, ArithmeticError):  # a rate ratio past the float range
            coupling = math.nan
        if not 0.0 < coupling < math.inf:
            raise ValueError("capture_rate_per_second and emission_rate_per_second give no finite coupling")

    @property
    def coupling_amplitude_amperes(self) -> float:
        """Current dip per unit trapped fraction: 1% of baseline over the rates' peak trapped fraction."""
        return 0.01 * self.baseline_current_amperes / _peak_trapped_fraction(
            self.capture_rate_per_second, self.emission_rate_per_second)


def _peak_trapped_fraction(k_c: float, k_e: float) -> float:
    d = k_c - k_e
    if d == 0.0:
        return math.exp(-1.0)  # k t e^{-kt} peaks at 1/e
    t_star = math.log1p(d / k_e) / d  # ln(k_c/k_e)/(k_c - k_e)
    return k_c / d * (math.exp(-k_e * t_star) * -math.expm1(-d * t_star))


def _rise(d: float, t: float) -> float:
    """``(1 - e^{-d t})/d`` for ``d >= 0`` without cancellation: ``t`` at ``d = 0``."""
    return -math.expm1(-d * t) / d if d else t


def trapped_fraction(flip_fraction: float, params: TrapParams, t: float) -> float:
    """D- population at time ``t`` after an instantaneous flip at t=0.

    Biexponential solution of the two-compartment rate equations,
    ``f k_c/(k_c - k_e) (e^{-k_e t} - e^{-k_c t})``, evaluated as
    ``f k_c e^{-k t} (1 - e^{-d t})/d`` with ``k = min(k_c, k_e)`` and
    ``d = |k_c - k_e|``: no two near-equal terms are subtracted, so it holds
    to rounding at and near ``k_c = k_e``, where it is ``f k t e^{-kt}``.
    """
    k_c = params.capture_rate_per_second
    k_e = params.emission_rate_per_second
    return flip_fraction * k_c * math.exp(-min(k_c, k_e) * t) * _rise(abs(k_c - k_e), t)


def transient_response(flip_fraction: float, params: TrapParams, t_grid) -> list[float]:
    """Photocurrent change ``dI(t) = -coupling * trapped_fraction(t)`` in
    amperes at each time of ``t_grid``.

    ``dI`` is zero at t=0, everywhere non-positive, and returns to zero once
    the trapped electrons have been reemitted.  ``flip_fraction`` lies in
    [0, 1] and ``t_grid`` increases strictly from 0 or above; the callers
    guarantee both.
    """
    scale = -params.coupling_amplitude_amperes
    return [scale * trapped_fraction(flip_fraction, params, t) for t in t_grid]


def flip_fraction_from_state(final_mz: float, equilibrium_mz: float) -> float:
    """Excess population moved into the capture-allowed spin state.

    ``(equilibrium_mz - final_mz)/2`` clipped to [0, 1]: zero when nothing was
    flipped, one for a perfect inversion of a fully polarized ensemble.  A
    NaN ``final_mz`` (a pulse program that overflowed) gives NaN.
    """
    return float(min(max((equilibrium_mz - final_mz) / 2.0, 0.0), 1.0))  # NaN first, so NaN is kept


def _short_window_series(a: float, big_a: float) -> float:
    """The bracket of :func:`boxcar_charge` over ``k K W^2``, for ``a = kW <=
    big_a = KW < 1``, summed as its Taylor series
    ``sum_m (-1)^m h_m/(m + 2)!`` with ``h_m = sum_j a^j big_a^(m-j)``, whose
    terms shrink at least as fast as ``(m + 1)/(m + 2)!``: 20 of them leave
    a remainder below 1e-17 of the sum."""
    total, h, a_power, coeff = 0.0, 1.0, 1.0, 0.5
    for m in range(20):
        total += coeff * h
        a_power *= a
        h = big_a * h + a_power
        coeff /= -(m + 3)
    return total


def boxcar_charge(params: TrapParams, window: float) -> float:
    """Boxcar charge per flipped donor: the closed-form ``integral_0^window dI dt``
    after a full flip (``flip_fraction = 1``) at t=0.

    The charge is linear in the flip fraction, so a fraction ``f`` gives
    ``f`` times this.  It is the exact integral of :func:`transient_response`
    over ``[0, window]``,
    ``-coupling k_c/(k_c - k_e) [(1 - e^{-k_e W})/k_e - (1 - e^{-k_c W})/k_c]``,
    evaluated as ``-coupling k_c [1 - e^{-kW} - k e^{-kW} (1 - e^{-dW})/d] / (k K)``
    with ``k = min(k_c, k_e)``, ``K = max(k_c, k_e)`` and ``d = K - k``, which
    holds to rounding at and near ``k_c = k_e``.  For a window shorter than
    ``1/K`` the two terms of that bracket agree to about ``K W/2`` of their
    size, so there the bracket is its Taylor series in ``W``
    (:func:`_short_window_series`), which holds to rounding too.  The
    trapezoidal integral of a transient sampled across the window is the
    numerical reference.
    """
    k_c = params.capture_rate_per_second
    k_e = params.emission_rate_per_second
    k, k_fast = min(k_c, k_e), max(k_c, k_e)
    if k_fast * window < 1.0:
        series = _short_window_series(k * window, k_fast * window)
        return float(-params.coupling_amplitude_amperes * k_c * (window * window * series))
    bracket = -math.expm1(-k * window) - k * math.exp(-k * window) * _rise(k_fast - k, window)
    return float(-params.coupling_amplitude_amperes * k_c * bracket / (k * k_fast))
