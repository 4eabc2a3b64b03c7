"""Closed forms of one pulse from thermal equilibrium: the flipped fraction and nutation.

``transient`` and ``nutation`` need only what one +x pulse does to the
equilibrium state, and relaxation is suspended during pulses, so both take it
from the generalized Rabi formula instead of the engine of
:mod:`spintrap.blochsim`.  Its rotation convention and its static offsets
(stream 0 of :func:`spintrap.spincore._philox`) are the engine's, and a test
holds :func:`_rabi_mz` to the engine's rotation.  Neither command loads the
engine or the sequence language.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CsvFormatError
from .spincore import (_STATIC_STREAM, EnsembleSpec, Environment, SpinSpecies, _ensemble_setup, _philox,
                       gyromagnetic_ratio)
from .trace import SignalTrace

__all__ = ["pulse_flip_fraction", "nutation_curve"]


def _rabi_flip(w1, det, duration):
    """``(w1/weff)^2 sin^2(weff t / 2)`` with ``weff = sqrt(w1^2 + det^2)``: the
    share of the polarization one +x pulse of ``duration`` at detuning ``det``
    turns over, by the generalized Rabi formula.  Broadcasts over ``det`` and
    ``duration``."""
    weff2 = w1 * w1 + det * det
    return (w1 * w1 / weff2) * np.sin(np.sqrt(weff2) * duration / 2.0) ** 2


def _rabi_mz(m0, w1, det, duration):
    """mz ``m0 (1 - 2 flip)`` after one +x pulse from ``(0, 0, m0)``, with
    ``flip`` from :func:`_rabi_flip`; ``blochsim._pulse_rotation`` computes the
    same by rotation."""
    return m0 * (1.0 - 2.0 * _rabi_flip(w1, det, duration))


def pulse_flip_fraction(angle_deg: float, field_offset: float, env: Environment,
                        species: SpinSpecies) -> float:
    """Fraction of the donors flipped by one +x pulse from thermal equilibrium.

    The pulse lasts as long as an on-resonance pulse of ``angle_deg`` and
    meets a static field ``field_offset`` tesla off resonance.  The fraction
    is ``m0`` times :func:`_rabi_flip`, clipped to [0, 1]; formed without the
    difference ``(m0 - mz)/2``, it keeps its digits for a small flip.  The
    arithmetic is in numpy floats, so a drive so weak that the pulse never
    ends, or an offset whose detuning overflows, gives a non-finite fraction
    (not a Python arithmetic error), which raises :class:`CsvFormatError`.
    """
    m0, w1, _, _ = _ensemble_setup(env, species)
    w1 = np.float64(w1)
    duration = np.radians(angle_deg) / w1
    det = np.float64(gyromagnetic_ratio(species.g_factor)) * field_offset
    fraction = m0 * _rabi_flip(w1, det, duration)
    if not math.isfinite(fraction):
        raise CsvFormatError(f"refusing to write a transient: the pulse flips a fraction {fraction}")
    return float(np.clip(fraction, 0.0, 1.0))


# Elements of one (durations x offsets) chunk of `nutation_curve`: large
# enough that the per-chunk numpy calls cost nothing, small enough that the
# chunk's temporaries stay well under a megabyte each.
_NUTATION_CHUNK = 2**16


def nutation_curve(
    pulse_durations,
    env: Environment,
    species: SpinSpecies,
    ensemble: EnsembleSpec,
) -> SignalTrace:
    """Ensemble-averaged mz after one resonant pulse of each duration.

    The oscillation frequency equals the Rabi frequency; static detuning
    inhomogeneity (the species linewidth) damps the oscillations.  Relaxation
    is suspended during pulses, so the curve is closed-form per trajectory
    (:func:`_rabi_mz`) and needs no noise walk.  ``y_stderr`` is the Monte
    Carlo error of the mean over the ``n_static`` offsets, from the spread of
    each offset's readout, the sum of the lines.
    """
    durations = np.asarray(pulse_durations, dtype=float)
    m0, w1, sigma, lines = _ensemble_setup(env, species)
    offsets = _philox(ensemble.rng_seed, _STATIC_STREAM).standard_normal(ensemble.n_static) * sigma

    rows = max(1, _NUTATION_CHUNK // ensemble.n_static)  # durations per chunk
    y, se = np.zeros_like(durations), np.empty_like(durations)
    for lo in range(0, durations.size, rows):
        readout = 0.0
        for weight, line_det in lines:
            mz = _rabi_mz(m0, w1, line_det + offsets, durations[lo:lo + rows, None])
            y[lo:lo + rows] += weight * mz.mean(axis=1)
            readout += weight * mz
        se[lo:lo + rows] = readout.std(axis=1) / math.sqrt(ensemble.n_static)
    return SignalTrace("pulse_duration", durations, y, y_stderr=se)
