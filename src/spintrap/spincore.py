"""Physical constants, spin species, and resonance relations.

Everything downstream (pulse simulation, spectra, trap dynamics) builds on the
quantities defined here: CODATA constants, the two built-in spin species of a
Si:P sample (the phosphorus donor doublet and the broad dangling-bond line),
thermal electron polarization, resonance fields, and rotating-frame detunings.
The relaxation times and the Monte Carlo ensemble layout that
:mod:`spintrap.blochsim` runs with are defined here too, so a configuration
can be built without importing the engine.

Conventions
-----------
* All internal units are SI: Tesla, seconds, Hz, rad/s.  Unit suffixes appear
  only in I/O key names (see :mod:`spintrap.config`).
* ``m_i = +1/2`` labels the lower-field hyperfine line; the line separation is
  exactly ``hyperfine_splitting_field``.
* Hyperfine structure is treated to first order: lines sit at
  ``B_center -/+ A/2``.  Second-order (Breit-Rabi) corrections are negligible
  at 8.6 T against the 4.2 mT splitting and are not modeled.

All functions are pure and all types are immutable, so everything here is safe
for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PhysicalConstants",
    "CODATA",
    "SpinSpecies",
    "Environment",
    "RelaxationParams",
    "EnsembleSpec",
    "BlochState",
    "PHOSPHORUS",
    "DANGLING_BOND",
    "DEFAULT_ENVIRONMENT",
    "thermal_polarization",
    "resonance_field",
    "detuning",
    "gyromagnetic_ratio",
    "equilibrium_state",
    "manifold_labels",
    "manifold_weight",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA values used throughout; immutable."""

    planck_h: float = 6.62607015e-34  # J s
    bohr_magneton: float = 9.2740100783e-24  # J/T
    boltzmann_k: float = 1.380649e-23  # J/K

    @property
    def hbar(self) -> float:
        return self.planck_h / (2.0 * math.pi)


CODATA = PhysicalConstants()


@dataclass(frozen=True)
class SpinSpecies:
    """One resonant line family.

    Parameters
    ----------
    label : str
        Human-readable name, used in error messages.  It comes from the
        preset and is not a configuration key.
    g_factor : float
        Electron g-factor, > 0.
    hyperfine_splitting_field : float
        Field separation of the two hyperfine lines in Tesla; 0 for a species
        without resolved hyperfine structure.
    nuclear_polarization : float
        Population imbalance of the two nuclear manifolds, in [-1, 1].
        Negative values make the high-field line the larger one.
    linewidth_field : float
        Gaussian standard deviation of the inhomogeneous broadening in Tesla.
    """

    label: str
    g_factor: float
    hyperfine_splitting_field: float
    nuclear_polarization: float
    linewidth_field: float

    def __post_init__(self) -> None:
        if self.g_factor <= 0:
            raise ValueError(f"g_factor must be > 0, got {self.g_factor}")
        if self.hyperfine_splitting_field < 0:
            raise ValueError(
                "hyperfine_splitting_field must be >= 0, got "
                f"{self.hyperfine_splitting_field}"
            )
        if not -1.0 <= self.nuclear_polarization <= 1.0:
            raise ValueError(
                f"nuclear_polarization must lie in [-1, 1], got {self.nuclear_polarization}"
            )
        if self.linewidth_field <= 0:
            raise ValueError(f"linewidth_field must be > 0, got {self.linewidth_field}")

    @property
    def has_hyperfine(self) -> bool:
        return self.hyperfine_splitting_field > 0.0


@dataclass(frozen=True)
class Environment:
    """Static field, temperature, and drive settings of one experiment."""

    static_field_b0: float = 8.58  # T
    temperature: float = 2.8  # K
    mw_frequency: float = 240e9  # Hz
    rabi_frequency: float = 1.0 / (2 * 480e-9)  # Hz; 480 ns pi pulse

    def __post_init__(self) -> None:
        for name in ("static_field_b0", "temperature", "mw_frequency", "rabi_frequency"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class RelaxationParams:
    """T1/T2/spectral-diffusion times in seconds; ``t_s`` may be infinite."""

    t1: float
    t2: float
    t_s: float = math.inf

    def __post_init__(self) -> None:
        if self.t1 <= 0:
            raise ValueError(f"t1 must be > 0, got {self.t1}")
        if not 0 < self.t2 <= 2 * self.t1:
            raise ValueError(f"t2 must satisfy 0 < t2 <= 2*t1, got t2={self.t2}, t1={self.t1}")
        if not self.t_s > 0:
            raise ValueError(f"t_s must be > 0 (may be inf), got {self.t_s}")
        if not math.isfinite(self.diffusion_constant):
            raise ValueError(f"t_s must be large enough that 24/t_s^3 is finite, got {self.t_s}")

    @property
    def diffusion_constant(self) -> float:
        """Frequency random-walk diffusion constant D = 24/t_s^3 (rad^2/s^3)."""
        try:
            return 24.0 / self.t_s**3
        except OverflowError:  # t_s^3 is past the float range, and D below 1.4e-307
            return 0.0
        except ZeroDivisionError:  # t_s^3 underflows to 0
            return math.inf


@dataclass(frozen=True)
class EnsembleSpec:
    """Monte Carlo ensemble layout.

    ``n_static`` static-detuning samples (Gaussian, sigma from the species
    linewidth) times ``n_noise`` stochastic trajectories each.  Each
    hyperfine manifold is weighted by its nuclear-polarization population
    (:func:`manifold_weight`).
    """

    n_static: int = 128
    n_noise: int = 32
    rng_seed: int = 20260810

    def __post_init__(self) -> None:
        if self.n_static < 1 or self.n_noise < 1:
            raise ValueError("n_static and n_noise must be >= 1")
        if not 0 <= self.rng_seed < 2**64:  # the Philox key word; no two seeds may alias
            raise ValueError(f"rng_seed must lie in [0, 2**64), got {self.rng_seed}")

    @property
    def n_trajectories(self) -> int:
        return self.n_static * self.n_noise


@dataclass(frozen=True)
class BlochState:
    """Classical magnetization 3-vector of a spin-1/2 sub-ensemble."""

    mx: float
    my: float
    mz: float

    def norm(self) -> float:
        return math.sqrt(self.mx**2 + self.my**2 + self.mz**2)


# Built-in species.  The g-factors are inverted from the nominal line
# positions at 240 GHz (P doublet centered at 8.58 T, dangling bonds at
# 8.57 T) and carry that precision only.  Linewidths and the nuclear
# polarization are display presets, not measured values.
PHOSPHORUS = SpinSpecies(
    label="phosphorus",
    g_factor=1.9985,
    hyperfine_splitting_field=4.2e-3,
    nuclear_polarization=-0.3,
    linewidth_field=3.0e-4,
)

DANGLING_BOND = SpinSpecies(
    label="dangling_bond",
    g_factor=2.0009,
    hyperfine_splitting_field=0.0,
    nuclear_polarization=0.0,
    linewidth_field=1.2e-3,
)

DEFAULT_ENVIRONMENT = Environment()

SPECIES_PRESETS = {
    "phosphorus": PHOSPHORUS,
    "dangling_bond": DANGLING_BOND,
}


def thermal_polarization(g: float, b: float, t: float) -> float:
    """Two-level Boltzmann polarization tanh(g mu_B B / 2 kB T).

    Returns the net electron polarization in [0, 1) for b >= 0.  At the
    default operating point (8.6 T, 2.8 K) this evaluates to ~0.968.

    Raises
    ------
    ValueError
        If the temperature is not strictly positive.
    """
    if t <= 0:
        raise ValueError(f"temperature must be > 0, got {t}")
    if b < 0:
        raise ValueError(f"field must be >= 0, got {b}")
    return math.tanh(g * CODATA.bohr_magneton * b / (2.0 * CODATA.boltzmann_k * t))


def _m_i_sign(species: SpinSpecies, m_i: float | None) -> float:
    if species.has_hyperfine:
        if m_i is None:
            raise ValueError(
                f"species {species.label!r} has hyperfine structure; m_i is required"
            )
        if m_i not in (+0.5, -0.5):
            raise ValueError(f"m_i must be +0.5 or -0.5, got {m_i}")
        return 1.0 if m_i > 0 else -1.0
    if m_i is not None:
        raise ValueError(
            f"species {species.label!r} has no hyperfine splitting; m_i must be None"
        )
    return 0.0


def resonance_field(species: SpinSpecies, f_mw: float, m_i: float | None = None) -> float:
    """Field at which the given hyperfine line is resonant with ``f_mw``.

    ``m_i = +0.5`` gives the lower-field line, ``m_i = -0.5`` the higher one;
    pass ``None`` for species without hyperfine splitting.
    """
    if f_mw <= 0:
        raise ValueError(f"mw frequency must be > 0, got {f_mw}")
    sign = _m_i_sign(species, m_i)
    center = CODATA.planck_h * f_mw / (species.g_factor * CODATA.bohr_magneton)
    return center - sign * species.hyperfine_splitting_field / 2.0


def gyromagnetic_ratio(g: float) -> float:
    """g mu_B / hbar, in rad/s per Tesla."""
    return g * CODATA.bohr_magneton / CODATA.hbar


def detuning(species: SpinSpecies, env: Environment, m_i: float | None = None) -> float:
    """Rotating-frame offset (rad/s) of one line at the static field.

    Positive when the static field sits above the line's resonance field.
    """
    b_res = resonance_field(species, env.mw_frequency, m_i)
    return gyromagnetic_ratio(species.g_factor) * (env.static_field_b0 - b_res)


def equilibrium_state(env: Environment, species: SpinSpecies) -> BlochState:
    """Thermal starting state: purely longitudinal, magnitude from Boltzmann."""
    mz = thermal_polarization(species.g_factor, env.static_field_b0, env.temperature)
    return BlochState(0.0, 0.0, mz)


def manifold_labels(species: SpinSpecies) -> tuple[float | None, ...]:
    """The m_i values of the species' hyperfine manifolds (``(None,)`` if unsplit)."""
    if species.has_hyperfine:
        return (+0.5, -0.5)
    return (None,)


def manifold_weight(species: SpinSpecies, m_i: float | None) -> float:
    """Relative population of one nuclear manifold.

    ``m_i = +1/2`` (the lower-field line) carries ``(1 + p)/2`` of the
    population for nuclear polarization ``p``, so ``p < 0`` puts the larger
    weight on the high-field line.
    """
    sign = _m_i_sign(species, m_i)
    if sign == 0.0:
        return 1.0
    return (1.0 + sign * species.nuclear_polarization) / 2.0
