"""Field-swept spectrum synthesis: hyperfine doublet plus broad background line.

Resonance only ever reduces the current, so the synthesized signal is a sum
of negative-going lines: the main species' and the dangling-bond line, whose
depths in amperes the :class:`SweepSpec` holds.  A species with hyperfine
splitting contributes two lines whose combined depth is conserved; the
nuclear polarization tilts the pair (negative polarization makes the
high-field line the larger one).  Lineshapes are normalized to unit peak so
a species' depth is the depth of its lines summed.  The lines are closed
forms evaluated on Python floats, one field at a time.
"""

from __future__ import annotations

import math

from .errors import Value
from .spincore import DANGLING_BOND, Environment, SpinSpecies, resonance_lines
from .trace import linspace

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

    def field_axis(self) -> list[float]:
        return linspace(self.b_start_tesla, self.b_stop_tesla, self.n_points)


def _unit_peak_line(offset: float, width: float, lineshape: str) -> float:
    """The line of unit peak ``offset`` tesla from its center.  Squares are
    products, which overflow to inf where ``**`` raises OverflowError; a
    Gaussian whose ``2 width^2`` underflows to 0 is 0 off its center and NaN
    on it, as the IEEE quotient would give."""
    if lineshape == "gaussian":
        two_var = 2.0 * (width * width)
        if not two_var:
            return 0.0 if offset * offset else math.nan
        return math.exp(-(offset * offset) / two_var)
    u = offset / width
    return 1.0 / (1.0 + u * u)


def simulate_field_sweep(species: SpinSpecies, env: Environment,
                         sweep: SweepSpec) -> tuple[list[float], list[float]]:
    """Synthesize the current change dI(B) over a field sweep.

    ``species`` has total line depth ``sweep.phosphorus_amplitude_amperes``,
    and the :data:`spincore.DANGLING_BOND` line that depth times
    ``sweep.db_amplitude_ratio``.  A hyperfine pair splits its depth by the
    nuclear-manifold populations: the low-field line carries ``(1 + p)/2``
    for nuclear polarization ``p`` (:func:`spincore.resonance_lines`).
    dI <= 0 everywhere.  Returns the fields and dI (amperes) at each, one
    field at a time, so no column but the two is held.
    """
    depth = sweep.phosphorus_amplitude_amperes
    lines = [(amplitude * weight, center, source.linewidth_tesla)
             for source, amplitude in ((species, depth), (DANGLING_BOND, depth * sweep.db_amplitude_ratio))
             for center, weight in resonance_lines(source, env.mw_frequency_hz)]
    fields = sweep.field_axis()
    di = []
    for b in fields:
        value = 0.0
        for scale, center, width in lines:
            value -= scale * _unit_peak_line(b - center, width, sweep.lineshape)
        di.append(value)
    return fields, di
