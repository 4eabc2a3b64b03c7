"""Physical constants, spin species, and resonance relations.

Everything downstream (pulse simulation, spectra, trap dynamics) builds on the
quantities defined here: physical constants, the two built-in spin species of a
Si:P sample (the phosphorus donor doublet and the broad dangling-bond line),
thermal electron polarization, and the resonance lines of a species.
The relaxation times and the Monte Carlo ensemble layout that
:mod:`spintrap.blochsim` runs with are defined here too, so a configuration
can be built without importing the engine, and so are the ensemble's drive,
lines and static-offset stream, which the engine and the closed forms of
:mod:`spintrap.rabi` share.

Conventions
-----------
* All internal units are SI: Tesla, seconds, Hz, rad/s.  A configured
  quantity has one name: each field of a config type is spelled as its JSON
  key, unit suffix included (``static_field_tesla``, ``t2_seconds``; see
  :mod:`spintrap.config`).
* A split species' lines come lower field first; the line separation is
  exactly ``hyperfine_splitting_tesla``.
* Hyperfine structure is treated to first order: lines sit at
  ``B_center -/+ A/2``.  Second-order (Breit-Rabi) corrections are negligible
  at 8.6 T against the 4.2 mT splitting and are not modeled.

All functions are pure and all types are immutable, so everything here is safe
for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Value

__all__ = [
    "PLANCK_H",
    "HBAR",
    "BOHR_MAGNETON",
    "BOLTZMANN_K",
    "SpinSpecies",
    "Environment",
    "RelaxationParams",
    "EnsembleSpec",
    "PHOSPHORUS",
    "DANGLING_BOND",
    "thermal_polarization",
    "gyromagnetic_ratio",
    "resonance_lines",
]


# Physical constants: h and k_B are exact in the 2019 SI, mu_B is the 2018
# recommended value.
PLANCK_H = 6.62607015e-34  # J s
HBAR = PLANCK_H / (2.0 * math.pi)  # J s
BOHR_MAGNETON = 9.2740100783e-24  # J/T
BOLTZMANN_K = 1.380649e-23  # J/K


class SpinSpecies(Value):
    """One resonant line family.

    Parameters
    ----------
    g_factor : float
        Electron g-factor, > 0.
    hyperfine_splitting_tesla : float
        Field separation of the two hyperfine lines in Tesla; 0 for a species
        without resolved hyperfine structure.
    nuclear_polarization : float
        Population imbalance of the two nuclear manifolds, in [-1, 1].
        Negative values make the high-field line the larger one.
    linewidth_tesla : float
        Gaussian standard deviation of the inhomogeneous broadening in Tesla.
    """

    g_factor: float
    hyperfine_splitting_tesla: float
    nuclear_polarization: float
    linewidth_tesla: float

    def __post_init__(self) -> None:
        if self.g_factor <= 0:
            raise ValueError(f"g_factor must be > 0, got {self.g_factor}")
        if self.hyperfine_splitting_tesla < 0:
            raise ValueError(
                f"hyperfine_splitting_tesla must be >= 0, got {self.hyperfine_splitting_tesla}"
            )
        if not -1.0 <= self.nuclear_polarization <= 1.0:
            raise ValueError(
                f"nuclear_polarization must lie in [-1, 1], got {self.nuclear_polarization}"
            )
        if self.linewidth_tesla <= 0:
            raise ValueError(f"linewidth_tesla must be > 0, got {self.linewidth_tesla}")


class Environment(Value):
    """Static field, temperature, and drive settings of one experiment."""

    static_field_tesla: float = 8.58
    temperature_kelvin: float = 2.8
    mw_frequency_hz: float = 240e9
    rabi_frequency_hz: float = 1.0 / (2 * 480e-9)  # 480 ns pi pulse

    def __post_init__(self) -> None:
        for name in ("static_field_tesla", "temperature_kelvin", "mw_frequency_hz", "rabi_frequency_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


class RelaxationParams(Value):
    """T1, T2 and the spectral-diffusion time T_S in seconds, by default the
    preset 2.5 ms, 160 us and 200 us; an infinite ``t_s_seconds`` turns
    spectral diffusion off."""

    t1_seconds: float = 2.5e-3
    t2_seconds: float = 160e-6
    t_s_seconds: float = 200e-6

    def __post_init__(self) -> None:
        if self.t1_seconds <= 0:
            raise ValueError(f"t1_seconds must be > 0, got {self.t1_seconds}")
        if not 0 < self.t2_seconds <= 2 * self.t1_seconds:
            raise ValueError("t2_seconds must satisfy 0 < t2_seconds <= 2*t1_seconds, got "
                             f"t2_seconds={self.t2_seconds}, t1_seconds={self.t1_seconds}")
        if not self.t_s_seconds > 0:
            raise ValueError(f"t_s_seconds must be > 0 (may be inf), got {self.t_s_seconds}")
        if not math.isfinite(self.diffusion_constant):
            raise ValueError("t_s_seconds must be large enough that 24/t_s_seconds^3 is finite, "
                             f"got {self.t_s_seconds}")

    @property
    def diffusion_constant(self) -> float:
        """Frequency random-walk diffusion constant D = 24/T_S^3 (rad^2/s^3)."""
        try:
            return 24.0 / self.t_s_seconds**3
        except OverflowError:  # T_S^3 is past the float range, and D below 1.4e-307
            return 0.0
        except ZeroDivisionError:  # T_S^3 underflows to 0
            return math.inf


class EnsembleSpec(Value):
    """Monte Carlo ensemble layout.

    ``n_static`` static-detuning samples (Gaussian, sigma from the species
    linewidth) times ``n_noise`` stochastic trajectories each.  Each
    hyperfine manifold is weighted by its nuclear-polarization population
    (:func:`resonance_lines`).
    """

    n_static: int = 128
    n_noise: int = 32
    rng_seed: int = 20260810

    def __post_init__(self) -> None:
        for name in ("n_static", "n_noise"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.rng_seed < 2**64:  # the Philox key word; no two seeds may alias
            raise ValueError(f"rng_seed must lie in [0, 2**64), got {self.rng_seed}")

    @property
    def n_trajectories(self) -> int:
        return self.n_static * self.n_noise


# Built-in species.  The g-factors are inverted from the nominal line
# positions at 240 GHz (P doublet centered at 8.58 T, dangling bonds at
# 8.57 T) and carry that precision only.  Linewidths and the nuclear
# polarization are display presets, not measured values.
PHOSPHORUS = SpinSpecies(
    g_factor=1.9985,
    hyperfine_splitting_tesla=4.2e-3,
    nuclear_polarization=-0.3,
    linewidth_tesla=3.0e-4,
)

DANGLING_BOND = SpinSpecies(
    g_factor=2.0009,
    hyperfine_splitting_tesla=0.0,
    nuclear_polarization=0.0,
    linewidth_tesla=1.2e-3,
)

SPECIES_PRESETS = {
    "phosphorus": PHOSPHORUS,
    "dangling_bond": DANGLING_BOND,
}


def thermal_polarization(g: float, b: float, t: float) -> float:
    """Two-level Boltzmann polarization tanh(g mu_B B / 2 kB T).

    Returns the net electron polarization in [0, 1) for b >= 0.  At the
    default operating point (8.6 T, 2.8 K) this evaluates to ~0.968.
    """
    return math.tanh(g * BOHR_MAGNETON * b / (2.0 * BOLTZMANN_K * t))


def gyromagnetic_ratio(g: float) -> float:
    """g mu_B / hbar, in rad/s per Tesla."""
    return g * BOHR_MAGNETON / HBAR


def resonance_lines(species: SpinSpecies, f_mw: float) -> tuple[tuple[float, float], ...]:
    """``(resonance field, population weight)`` of each line resonant with ``f_mw``.

    A species with hyperfine splitting ``A`` has two lines, the lower-field
    one first: ``center - A/2`` with weight ``(1 + p)/2`` for nuclear
    polarization ``p``, then ``center + A/2`` with ``(1 - p)/2``, so ``p < 0``
    puts the larger weight on the high-field line.  An unsplit species has
    the single line ``(center, 1.0)``.
    """
    center = PLANCK_H * f_mw / (species.g_factor * BOHR_MAGNETON)
    if species.hyperfine_splitting_tesla == 0.0:
        return ((center, 1.0),)
    half, p = species.hyperfine_splitting_tesla / 2.0, species.nuclear_polarization
    return ((center - half, (1.0 + p) / 2.0), (center + half, (1.0 - p) / 2.0))


# Stream 0 of the Philox key draws the static detuning offsets; the engine's
# noise streams follow it (see spintrap.blochsim).
_STATIC_STREAM = 0


def _philox(seed: int, stream: int) -> np.random.Generator:
    """The counter-based generator of stream ``stream`` under ``seed``."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _ensemble_setup(env: Environment, species: SpinSpecies):
    """``(m0, w1, sigma, lines)``: equilibrium mz, on-resonance drive rate, the
    standard deviation of the static detuning offsets (drawn from stream 0),
    and each resonance line's ``(weight, detuning)``, the detuning (rad/s)
    positive when the static field sits above the line."""
    m0 = thermal_polarization(species.g_factor, env.static_field_tesla, env.temperature_kelvin)
    w1 = 2.0 * math.pi * env.rabi_frequency_hz
    gamma = gyromagnetic_ratio(species.g_factor)
    sigma = gamma * species.linewidth_tesla
    lines = [(weight, gamma * (env.static_field_tesla - b_res))
             for b_res, weight in resonance_lines(species, env.mw_frequency_hz)]
    return m0, w1, sigma, lines
