"""Field-swept spectrum synthesis: hyperfine doublet plus broad background line.

Resonance only ever reduces the current, so the synthesized signal is a sum
of negative-going lines: the main species' and the dangling-bond line, whose
depths in amperes the :class:`SweepSpec` holds.  A species with hyperfine
splitting contributes two lines whose combined depth is conserved; the
nuclear polarization tilts the pair (negative polarization makes the
high-field line the larger one).  Lineshapes are normalized to unit peak so
a species' depth is the depth of its lines summed.
"""

from __future__ import annotations

import numpy as np

from .errors import Value
from .spincore import DANGLING_BOND, Environment, SpinSpecies, resonance_lines
from .trace import SignalTrace

__all__ = ["SweepSpec", "simulate_field_sweep"]

LINESHAPES = ("gaussian", "lorentzian")


class SweepSpec(Value):
    """Field axis and lineshape of one synthesized spectrum, by default over
    the preset lines, plus the display amplitudes of those lines (the
    config's ``spectrum`` section)."""

    b_start_tesla: float = 8.560
    b_stop_tesla: float = 8.600
    n_points: int = 2001
    lineshape: str = "gaussian"
    phosphorus_amplitude_amperes: float = 6.0e-10  # 1% of the 60 nA baseline
    db_amplitude_ratio: float = 0.05  # "barely visible" background line; 0 drops it

    def __post_init__(self) -> None:
        if self.b_start_tesla >= self.b_stop_tesla:
            raise ValueError("b_start_tesla must be < b_stop_tesla, got "
                             f"{self.b_start_tesla} >= {self.b_stop_tesla}")
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        if self.lineshape not in LINESHAPES:
            raise ValueError(f"lineshape must be one of {LINESHAPES}, got {self.lineshape!r}")
        for name in ("phosphorus_amplitude_amperes", "db_amplitude_ratio"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def field_axis(self) -> np.ndarray:
        return np.linspace(self.b_start_tesla, self.b_stop_tesla, self.n_points)


def _unit_peak_line(b, center, width, lineshape):
    if lineshape == "gaussian":
        return np.exp(-((b - center) ** 2) / (2.0 * np.square(width)))  # inf, not OverflowError
    return 1.0 / (1.0 + ((b - center) / width) ** 2)


def simulate_field_sweep(species: SpinSpecies, env: Environment, sweep: SweepSpec) -> SignalTrace:
    """Synthesize the current change dI(B) over a field sweep.

    ``species`` has total line depth ``sweep.phosphorus_amplitude_amperes``,
    and the :data:`spincore.DANGLING_BOND` line that depth times
    ``sweep.db_amplitude_ratio``.  A hyperfine pair splits its depth by the
    nuclear-manifold populations: the low-field line carries ``(1 + p)/2``
    for nuclear polarization ``p`` (:func:`spincore.resonance_lines`).
    dI <= 0 everywhere.
    """
    b = sweep.field_axis()
    di = np.zeros_like(b)
    depth = sweep.phosphorus_amplitude_amperes
    for source, amplitude in ((species, depth), (DANGLING_BOND, depth * sweep.db_amplitude_ratio)):
        for center, weight in resonance_lines(source, env.mw_frequency_hz):
            di -= amplitude * weight * _unit_peak_line(b, center, source.linewidth_tesla, sweep.lineshape)
    return SignalTrace("field", b, di, "A")
