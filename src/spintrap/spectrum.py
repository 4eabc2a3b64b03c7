"""Field-swept spectrum synthesis: hyperfine doublet plus broad background line.

Resonance only ever reduces the current, so the synthesized signal is a sum
of negative-going lines.  A species with hyperfine splitting contributes two
lines whose combined amplitude is conserved; the nuclear polarization tilts
the pair (negative polarization makes the high-field line the larger one).
Lineshapes are normalized to unit peak so the per-species amplitude is the
line depth in amperes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spincore import Environment, SpinSpecies, manifold_labels, manifold_weight, resonance_field
from .trace import SignalTrace

__all__ = ["SweepSpec", "simulate_field_sweep", "find_peaks"]

LINESHAPES = ("gaussian", "lorentzian")


@dataclass(frozen=True)
class SweepSpec:
    """Field axis and lineshape of one synthesized spectrum."""

    b_start: float
    b_stop: float
    n_points: int = 2001
    lineshape: str = "gaussian"

    def __post_init__(self) -> None:
        if self.b_start >= self.b_stop:
            raise ValueError(f"b_start must be < b_stop, got {self.b_start} >= {self.b_stop}")
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        if self.lineshape not in LINESHAPES:
            raise ValueError(f"lineshape must be one of {LINESHAPES}, got {self.lineshape!r}")

    def field_axis(self) -> np.ndarray:
        return np.linspace(self.b_start, self.b_stop, self.n_points)


def _unit_peak_line(b, center, width, lineshape):
    if lineshape == "gaussian":
        return np.exp(-((b - center) ** 2) / (2.0 * np.square(width)))  # inf, not OverflowError
    return 1.0 / (1.0 + ((b - center) / width) ** 2)


def simulate_field_sweep(
    species_amplitudes: list[tuple[SpinSpecies, float]],
    env: Environment,
    sweep: SweepSpec,
) -> SignalTrace:
    """Synthesize the current change dI(B) over a field sweep.

    ``species_amplitudes`` pairs each species with its total line depth in
    amperes.  A hyperfine pair splits that depth by the nuclear-manifold
    populations: the ``m_i = +1/2`` (low-field) line carries ``(1 + p)/2``
    for nuclear polarization ``p``.  dI <= 0 everywhere.
    """
    b = sweep.field_axis()
    di = np.zeros_like(b)
    for species, amplitude in species_amplitudes:
        if amplitude < 0:
            raise ValueError(f"line amplitude must be >= 0, got {amplitude} for {species.label!r}")
        for m_i in manifold_labels(species):
            center = resonance_field(species, env.mw_frequency, m_i)
            weight = manifold_weight(species, m_i)
            di -= amplitude * weight * _unit_peak_line(b, center, species.linewidth_field, sweep.lineshape)
    return SignalTrace(
        axis_kind="field",
        x=tuple(b),
        y=tuple(di),
        units="A",
        meta={"lineshape": sweep.lineshape, "mw_frequency": env.mw_frequency},
    )


def _local_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of ``y``: runs of equal values with a lower
    neighbour on both sides, at the run's middle sample (the left one of two).
    A run that touches either end of the array is not a maximum."""
    run_starts = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    run_ends = np.append(run_starts[1:], len(y)) - 1
    level = y[run_starts]
    inner = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    return (run_starts[inner] + run_ends[inner]) // 2


def _prominence(y: np.ndarray, peak: int) -> float:
    """Height of ``y[peak]`` above the higher of its two bases: the lowest
    points between it and the nearest strictly higher sample on each side
    (or the array end)."""
    higher = np.flatnonzero(y > y[peak])
    left = higher[higher < peak]
    right = higher[higher > peak]
    left_base = y[(left[-1] + 1 if left.size else 0):peak + 1].min()
    right_base = y[peak:(right[0] if right.size else len(y))].min()
    return float(y[peak] - max(left_base, right_base))


def find_peaks(trace: SignalTrace, min_prominence: float = 0.02) -> list[tuple[float, float]]:
    """Locate resonance dips: local minima of dI(B), sorted by field.

    ``min_prominence`` is a fraction of the deepest excursion; shallower
    features are ignored.  Returns ``(field, depth)`` pairs with positive
    depth ``|dI|``.  The dips and their prominences follow the definitions
    of ``scipy.signal.find_peaks`` (a flat dip counts once, at its middle).
    """
    if not 0.0 <= min_prominence <= 1.0:
        raise ValueError(f"min_prominence must lie in [0, 1], got {min_prominence}")
    y = -trace.y_array()
    span = float(np.max(y) - np.min(y))
    if span == 0.0:
        return []
    fields = trace.x_array()
    return [(float(fields[i]), float(y[i])) for i in _local_maxima(y)
            if _prominence(y, i) >= min_prominence * span]
