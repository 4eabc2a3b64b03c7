"""Bloch-vector dynamics: pulses, relaxation, spectral diffusion, timelines.

The simulation picture is classical: each hyperfine manifold contributes a
weighted sub-ensemble of magnetization 3-vectors.  Pulses are exact rotations
about the effective rotating-frame field (relaxation is suspended during
pulses; at 480 ns against 160 us coherence times the error is below 1%), free
evolution applies precession plus T1/T2 decay, and dephasing by the nuclear
bath enters as a per-trajectory frequency random walk.

Rotation convention (right-handed, fixed by the tests): a +x-phase pi/2 pulse
takes +z to -y, and free precession with positive detuning takes +x towards
+y.

Noise model
-----------
Spectral diffusion is a Wiener frequency walk with diffusion constant
``D = 24 / t_s**3`` (rad^2/s^3).  Over a free-evolution event of duration
``T`` the walk increment and the phase it accumulates are jointly Gaussian,
so each event takes one exact update from two standard normals ``z1, z2``
(Gillespie, Phys. Rev. E 54, 2084 (1996))::

    step   = sqrt(D T) z1
    phase += w0 T + (T/2) step + sqrt(D T^3 / 12) z2
    w0    += step

where ``w0`` is the walk value at the start of the event.  The accumulated
phase variance then reproduces ``exp(-4 t^3/t_s^3)`` free-induction decay and
``exp(-8 tau^3/t_s^3)`` Hahn-echo decay, which is exactly the cubic term of
the echo envelope, with no discretization error; the Monte Carlo calibration
against the closed form is an acceptance test.  The walk persists across
events within a trajectory and is frozen during pulses.

Reproducibility
---------------
All randomness comes from counter-based Philox streams keyed by
``(rng_seed, stream)``: stream 0 draws the static detuning offsets, and
stream ``1 + block`` draws every noise normal of one fixed-size block of
trajectories at once, as a ``(2 * n_free_events, n_block)`` array.  Both
hyperfine manifolds reuse the block's draws, and so does every sweep point
of a sequence (common random numbers).  Partial sums are accumulated per
block and reduced in block order, so results depend only on the seed and
the ensemble layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import trapdyn
from .seqlang import AcquireEvent, FreeEvolutionEvent, PulseEvent, Timeline
from .spincore import (
    BlochState,
    Environment,
    SpinSpecies,
    gyromagnetic_ratio,
    manifold_labels,
    manifold_weight,
    thermal_polarization,
)
from .spincore import detuning as line_detuning
from .trace import SignalTrace

__all__ = [
    "BlochState",
    "RelaxationParams",
    "EnsembleSpec",
    "apply_pulse",
    "evolve_free",
    "run_timeline_by_channel",
    "echo_envelope_analytic",
    "nutation_curve",
    "inversion_recovery_curve",
]

_PHASE_ANGLES = {"+x": 0.0, "+y": 0.5 * math.pi, "-x": math.pi, "-y": 1.5 * math.pi}

# Fixed block size for ensemble propagation.  It fixes the RNG layout (one
# noise stream per block) and bounds the working set, so changing it changes
# the results.
_BLOCK = 8192

_STATIC_STREAM = 0
_NOISE_STREAM_BASE = 1
_SEED_MASK = 0xFFFFFFFFFFFFFFFF


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

    @property
    def diffusion_constant(self) -> float:
        """Frequency random-walk diffusion constant D = 24/t_s^3 (rad^2/s^3)."""
        if math.isinf(self.t_s):
            return 0.0
        return 24.0 / self.t_s**3


@dataclass(frozen=True)
class EnsembleSpec:
    """Monte Carlo ensemble layout.

    ``n_static`` static-detuning samples (Gaussian, sigma from the species
    linewidth) times ``n_noise`` stochastic trajectories each.  Each
    hyperfine manifold is weighted by its nuclear-polarization population
    (:func:`spincore.manifold_weight`).
    """

    n_static: int = 128
    n_noise: int = 32
    rng_seed: int = 20260810

    def __post_init__(self) -> None:
        if self.n_static < 1 or self.n_noise < 1:
            raise ValueError("n_static and n_noise must be >= 1")

    @property
    def n_trajectories(self) -> int:
        return self.n_static * self.n_noise


def _philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _SEED_MASK, stream & _SEED_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rotate(mx, my, mz, ax, ay, az, angle):
    """Rodrigues rotation of (mx,my,mz) about unit axis (ax,ay,az) by angle."""
    c = np.cos(angle)
    s = np.sin(angle)
    dot = ax * mx + ay * my + az * mz
    cx = ay * mz - az * my
    cy = az * mx - ax * mz
    cz = ax * my - ay * mx
    k = dot * (1.0 - c)
    return (
        mx * c + cx * s + ax * k,
        my * c + cy * s + ay * k,
        mz * c + cz * s + az * k,
    )


def _pulse_arrays(mx, my, mz, angle_rate, phase_axis, duration, det):
    """Vectorized finite-duration pulse about the effective field axis."""
    if duration == 0.0:
        return mx, my, mz
    phi = _PHASE_ANGLES[phase_axis]
    wx = angle_rate * math.cos(phi)
    wy = angle_rate * math.sin(phi)
    weff = np.sqrt(angle_rate * angle_rate + det * det)
    safe = np.where(weff > 0.0, weff, 1.0)
    ax, ay, az = wx / safe, wy / safe, det / safe
    angle = weff * duration
    return _rotate(mx, my, mz, ax, ay, az, angle)


def _free_arrays(mx, my, mz, phase, duration, relax, m_eq):
    """Precession by ``phase`` plus T2 shrinkage and T1 recovery."""
    decay = np.exp(-duration / relax.t2)
    c = np.cos(phase) * decay
    s = np.sin(phase) * decay
    mx, my = mx * c - my * s, mx * s + my * c
    mz = m_eq + (mz - m_eq) * np.exp(-duration / relax.t1)
    return mx, my, mz


def apply_pulse(
    state: BlochState,
    angle_rate: float,
    phase_axis: str,
    duration: float,
    detuning: float = 0.0,
) -> BlochState:
    """Rotate a Bloch vector by a finite-duration rotating-frame pulse.

    ``angle_rate`` is the on-resonance angular rotation rate
    ``2 pi * rabi_frequency``; the actual rotation happens about the tilted
    axis ``(w1 cos phi, w1 sin phi, detuning)`` by ``|w_eff| * duration``.
    Norm is preserved to machine precision; relaxation is not applied.
    """
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if phase_axis not in _PHASE_ANGLES:
        raise ValueError(f"phase_axis must be one of {tuple(_PHASE_ANGLES)}, got {phase_axis!r}")
    mx, my, mz = _pulse_arrays(
        np.float64(state.mx),
        np.float64(state.my),
        np.float64(state.mz),
        float(angle_rate),
        phase_axis,
        float(duration),
        np.float64(detuning),
    )
    return BlochState(float(mx), float(my), float(mz))


def evolve_free(
    state: BlochState,
    duration: float,
    relax: RelaxationParams,
    detuning: float = 0.0,
    m_eq: float = 0.0,
) -> BlochState:
    """Free evolution: precession, transverse decay, longitudinal recovery."""
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    mx, my, mz = _free_arrays(
        np.float64(state.mx),
        np.float64(state.my),
        np.float64(state.mz),
        np.float64(detuning) * duration,
        float(duration),
        relax,
        float(m_eq),
    )
    return BlochState(float(mx), float(my), float(mz))


def echo_envelope_analytic(tau, relax: RelaxationParams):
    """Hahn-echo amplitude ``exp(-2 tau/t2 - 8 tau^3/t_s^3)`` at delay tau.

    With infinite ``t_s`` this is the pure exponential.  Accepts scalars or
    arrays; tau must be non-negative.
    """
    t = np.asarray(tau, dtype=float)
    if np.any(t < 0):
        raise ValueError("tau must be >= 0")
    cubic = 0.0 if math.isinf(relax.t_s) else 8.0 * t**3 / relax.t_s**3
    out = np.exp(-2.0 * t / relax.t2 - cubic)
    return float(out) if np.isscalar(tau) else out


def inversion_recovery_curve(tau_grid, t1: float, m_eq: float) -> SignalTrace:
    """Longitudinal recovery after perfect inversion: ``m_eq (1 - 2 e^{-tau/t1})``."""
    tau = np.asarray(tau_grid, dtype=float)
    if tau.size == 0:
        raise ValueError("tau_grid must be non-empty")
    if np.any(tau < 0):
        raise ValueError("tau_grid must be non-negative")
    if t1 <= 0:
        raise ValueError(f"t1 must be > 0, got {t1}")
    y = m_eq * (1.0 - 2.0 * np.exp(-tau / t1))
    return SignalTrace(axis_kind="tau", x=tuple(tau), y=tuple(y), units="dimensionless")


def nutation_curve(
    pulse_durations,
    env: Environment,
    species: SpinSpecies,
    relax: RelaxationParams,
    ensemble: EnsembleSpec,
) -> SignalTrace:
    """Ensemble-averaged mz after one resonant pulse of each duration.

    The oscillation frequency equals the Rabi frequency; static detuning
    inhomogeneity (the species linewidth) damps the oscillations.  Relaxation
    is suspended during pulses, so the curve is closed-form per trajectory and
    needs no stochastic sampling.
    """
    durations = np.asarray(pulse_durations, dtype=float)
    if np.any(durations < 0):
        raise ValueError("pulse durations must be >= 0")
    m0 = thermal_polarization(species.g_factor, env.static_field_b0, env.temperature)
    w1 = 2.0 * math.pi * env.rabi_frequency
    sigma = gyromagnetic_ratio(species.g_factor) * species.linewidth_field
    offsets = _philox(ensemble.rng_seed, _STATIC_STREAM).standard_normal(ensemble.n_static) * sigma

    y = np.zeros_like(durations)
    for m_i in manifold_labels(species):
        weight = manifold_weight(species, m_i)
        det = line_detuning(species, env, m_i) + offsets
        weff2 = w1 * w1 + det * det
        frac = w1 * w1 / weff2  # depth of the generalized-Rabi dip per spin
        for k, tp in enumerate(durations):
            mz = m0 * (1.0 - 2.0 * frac * np.sin(np.sqrt(weff2) * tp / 2.0) ** 2)
            y[k] += weight * float(np.mean(mz))
    return SignalTrace(
        axis_kind="pulse_duration",
        x=tuple(durations),
        y=tuple(y),
        units="dimensionless",
        meta={"rng_seed": ensemble.rng_seed, "n_static": ensemble.n_static},
    )


def _plan_events(timeline: Timeline):
    """Flatten the timeline into engine steps and count free events."""
    plan = []
    n_free = 0
    acquire_count = 0
    for event in timeline.events:
        if isinstance(event, PulseEvent):
            plan.append(("pulse", event))
        elif isinstance(event, FreeEvolutionEvent):
            plan.append(("free", event, n_free))
            n_free += 1
        elif isinstance(event, AcquireEvent):
            plan.append(("acquire", event, acquire_count))
            acquire_count += 1
            if event.duration > 0:
                plan.append(("free", FreeEvolutionEvent(event.start, event.duration), n_free))
                n_free += 1
        else:  # pragma: no cover
            raise TypeError(f"unknown event {event!r}")
    return plan, n_free, acquire_count


_ACC_FIELDS = 7  # sum_x, sum_y, sum_z, sum_xx, sum_yy, sum_xy, sum_zz


def _run_block(plan, n_acquire, det, m0, w1, relax, draws):
    """Propagate one block of trajectories and return per-acquire moment sums.

    ``det`` holds each trajectory's static detuning; ``draws`` holds rows
    ``2j, 2j+1`` of standard normals for free event ``j``, or is None when
    there is no spectral diffusion.
    """
    n = det.size
    mx = np.zeros(n)
    my = np.zeros(n)
    mz = np.full(n, m0)
    diffusion = relax.diffusion_constant

    acc = np.zeros((n_acquire, _ACC_FIELDS))
    walk = np.zeros(n)  # current frequency offset of the noise walk, rad/s
    for step in plan:
        kind = step[0]
        if kind == "pulse":
            event = step[1]
            mx, my, mz = _pulse_arrays(mx, my, mz, w1, event.phase, event.duration, det)
        elif kind == "free":
            event, j = step[1], step[2]
            duration = event.duration
            phase = det * duration
            if draws is not None:
                # exact joint update of the walk end and its time integral
                increment = math.sqrt(diffusion * duration) * draws[2 * j]
                bridge = math.sqrt(diffusion * np.float64(duration) ** 3 / 12.0) * draws[2 * j + 1]
                phase = phase + walk * duration + 0.5 * duration * increment + bridge
                walk = walk + increment
            mx, my, mz = _free_arrays(mx, my, mz, phase, duration, relax, m0)
        else:  # acquire
            k = step[2]
            acc[k, 0] = mx.sum()
            acc[k, 1] = my.sum()
            acc[k, 2] = mz.sum()
            acc[k, 3] = (mx * mx).sum()
            acc[k, 4] = (my * my).sum()
            acc[k, 5] = (mx * my).sum()
            acc[k, 6] = (mz * mz).sum()
    return acc


def _run_engine(timeline, env, species, relax, ensemble):
    """Shared ensemble propagation; returns per-acquire statistics.

    Returns (acquire_events, stats) where stats[k] holds the weighted means
    and standard errors for acquire event k.
    """
    plan, n_free, n_acquire = _plan_events(timeline)
    if n_acquire == 0:
        raise ValueError("timeline has no acquisition events")

    m0 = thermal_polarization(species.g_factor, env.static_field_b0, env.temperature)
    w1 = 2.0 * math.pi * env.rabi_frequency
    sigma = gyromagnetic_ratio(species.g_factor) * species.linewidth_field
    offsets = _philox(ensemble.rng_seed, _STATIC_STREAM).standard_normal(ensemble.n_static) * sigma

    labels = manifold_labels(species)
    weights = [manifold_weight(species, m_i) for m_i in labels]
    base_dets = [line_detuning(species, env, m_i) for m_i in labels]
    n_traj = ensemble.n_trajectories

    # Both manifolds share each block's draws; partial sums are added in
    # block order.
    per_manifold = [np.zeros((n_acquire, _ACC_FIELDS)) for _ in labels]
    for b, lo in enumerate(range(0, n_traj, _BLOCK)):
        hi = min(lo + _BLOCK, n_traj)
        static = offsets[np.arange(lo, hi) // ensemble.n_noise]
        draws = None
        if relax.diffusion_constant > 0.0:
            stream = _philox(ensemble.rng_seed, _NOISE_STREAM_BASE + b)
            draws = stream.standard_normal((2 * n_free, hi - lo))
        for mf, base_det in enumerate(base_dets):
            per_manifold[mf] += _run_block(plan, n_acquire, base_det + static, m0, w1, relax, draws)

    acquire_events = [e for e in timeline.events if isinstance(e, AcquireEvent)]
    stats = []
    for k in range(n_acquire):
        mean = np.zeros(3)
        var = np.zeros(4)  # var_x, var_y, cov_xy, var_z, weighted by w^2/n
        for weight, acc in zip(weights, per_manifold):
            mx, my, mzv = acc[k, 0] / n_traj, acc[k, 1] / n_traj, acc[k, 2] / n_traj
            mean += weight * np.array([mx, my, mzv])
            vx = max(acc[k, 3] / n_traj - mx * mx, 0.0)
            vy = max(acc[k, 4] / n_traj - my * my, 0.0)
            cxy = acc[k, 5] / n_traj - mx * my
            vz = max(acc[k, 6] / n_traj - mzv * mzv, 0.0)
            var += weight * weight / n_traj * np.array([vx, vy, cxy, vz])
        stats.append({"mean": mean, "var": var})
    return acquire_events, stats, m0


def _channel_value(event, stat, m0, trap):
    """(value, stderr, units) of one acquire event."""
    mean = stat["mean"]
    vx, vy, cxy, vz = stat["var"]
    if event.channel == "mz":
        return mean[2], math.sqrt(vz), "dimensionless"
    if event.channel == "echo":
        amp = math.hypot(mean[0], mean[1])
        if amp > 0:
            ux, uy = mean[0] / amp, mean[1] / amp
        else:
            ux, uy = 1.0, 0.0
        se = math.sqrt(max(ux * ux * vx + 2 * ux * uy * cxy + uy * uy * vy, 0.0))
        return amp, se, "dimensionless"
    if event.channel == "charge":
        window = event.window if event.window is not None else 6.0 / trap.emission_rate
        fraction = trapdyn.flip_fraction_from_state(mean[2], m0)
        unit_charge = trapdyn.boxcar_charge(1.0, trap, window)
        se = abs(unit_charge) * math.sqrt(vz) / 2.0  # charge is linear in mz
        return unit_charge * fraction, se, "C"
    raise ValueError(f"unknown channel {event.channel!r}")  # pragma: no cover


def run_timeline_by_channel(
    timeline: Timeline,
    env: Environment,
    species: SpinSpecies,
    relax: RelaxationParams,
    ensemble: EnsembleSpec,
    trap: "trapdyn.TrapParams | None" = None,
) -> dict[str, SignalTrace]:
    """Run one compiled timeline; one trace per acquisition channel.

    Each trace's x axis holds the acquire-event start times.  Deterministic
    for a fixed ``ensemble.rng_seed``.
    """
    channels = {e.channel for e in timeline.events if isinstance(e, AcquireEvent)}
    if "charge" in channels and trap is None:
        raise ValueError("timeline acquires the charge channel but no trap parameters were given")
    acquire_events, stats, m0 = _run_engine(timeline, env, species, relax, ensemble)

    out = {}
    for channel in sorted(channels):
        xs, ys, ses = [], [], []
        units = "dimensionless"
        for event, stat in zip(acquire_events, stats):
            if event.channel != channel:
                continue
            value, se, units = _channel_value(event, stat, m0, trap)
            xs.append(event.start)
            ys.append(value)
            ses.append(se)
        meta = {
            "rng_seed": ensemble.rng_seed,
            "n_static": ensemble.n_static,
            "n_noise": ensemble.n_noise,
            "equilibrium_mz": m0,
            "y_stderr": tuple(ses),
        }
        if timeline.sweep_value is not None:
            meta["sweep_value"] = timeline.sweep_value
        out[channel] = SignalTrace(axis_kind="time", x=tuple(xs), y=tuple(ys), units=units, meta=meta)
    return out
