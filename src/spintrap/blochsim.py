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
trajectories at once, as a ``(2 * n_free, n_block)`` array.  The engine
walks the compiled timeline's events in order; the ``j``-th free evolution
(a delay, or the window of an acquire, which records its moments first)
takes rows ``2j, 2j+1``.  Both hyperfine manifolds reuse the block's draws,
and so does every sweep point of a sequence (common random numbers).
Partial sums are accumulated per block and reduced in block order, so
results depend only on the seed and the ensemble layout.

Sweeps
------
:func:`run_program` runs a parsed program.  It compiles a swept program's
points as it goes, ``_SWEEP_CHUNK`` at a time, and runs each chunk in one
engine pass (every shipped sweep is one chunk).  Each block draws its
static offsets (continuing one stream-0 generator) and its noise once for
every point.  The leading events equal in every point's
timeline are propagated once per block and manifold; each point then runs
its own remaining events from a copy of that state.  A block stops at each
point's last acquire, since nothing reads the state after it, so the
window of a final acquire is never evolved and its draw rows are not
drawn.  None of this moves a draw: the RNG layout above is unchanged and a
swept point gives the same numbers as the same timeline run alone.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import trapdyn
from .errors import SequenceError
from .seqlang import (AcquireEvent, DelayStmt, FreeEvolutionEvent, PulseEvent, SequenceAst,
                      compile_timeline, sweep_values)
from .spincore import (
    BlochState,
    EnsembleSpec,
    Environment,
    RelaxationParams,
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
    "run_program",
    "echo_envelope_analytic",
    "nutation_curve",
    "inversion_recovery_curve",
]

_PHASE_ANGLES = {"+x": 0.0, "+y": 0.5 * math.pi, "-x": math.pi, "-y": 1.5 * math.pi}

# Fixed block size for ensemble propagation.  It fixes the RNG layout (one
# noise stream per block) and bounds the working set, so changing it changes
# the results.
_BLOCK = 8192

# Timelines go through the engine this many at a time.  A sweep of up to
# this many points (every shipped one) draws its offsets and noise once; a
# longer one, which the CLI work bound allows only with small ensembles,
# draws them once per chunk and never holds more compiled timelines.
_SWEEP_CHUNK = 4096

_STATIC_STREAM = 0
_NOISE_STREAM_BASE = 1


def _philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
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
    cubic = relax.diffusion_constant * t**3 / 3.0  # 8 tau^3 / t_s^3
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


def _ensemble_setup(env: Environment, species: SpinSpecies):
    """``(m0, w1, sigma)``: equilibrium mz, on-resonance drive rate, and the
    standard deviation of the static detuning offsets (drawn from stream 0)."""
    m0 = thermal_polarization(species.g_factor, env.static_field_b0, env.temperature)
    w1 = 2.0 * math.pi * env.rabi_frequency
    sigma = gyromagnetic_ratio(species.g_factor) * species.linewidth_field
    return m0, w1, sigma


# Elements of one (durations x offsets) chunk of `nutation_curve`: large
# enough that the per-chunk numpy calls cost nothing, small enough that the
# chunk's temporaries stay well under a megabyte each.
_NUTATION_CHUNK = 2**16


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
    m0, w1, sigma = _ensemble_setup(env, species)
    offsets = _philox(ensemble.rng_seed, _STATIC_STREAM).standard_normal(ensemble.n_static) * sigma

    rows = max(1, _NUTATION_CHUNK // ensemble.n_static)  # durations per chunk
    y = np.zeros_like(durations)
    for m_i in manifold_labels(species):
        weight = manifold_weight(species, m_i)
        det = line_detuning(species, env, m_i) + offsets
        weff2 = w1 * w1 + det * det
        weff = np.sqrt(weff2)
        frac = w1 * w1 / weff2  # depth of the generalized-Rabi dip per spin
        for lo in range(0, durations.size, rows):
            tp = durations[lo:lo + rows, None]
            mz = m0 * (1.0 - 2.0 * frac * np.sin(weff * tp / 2.0) ** 2)
            y[lo:lo + rows] += weight * mz.mean(axis=1)
    return SignalTrace(
        axis_kind="pulse_duration",
        x=tuple(durations),
        y=tuple(y),
        units="dimensionless",
        meta={"rng_seed": ensemble.rng_seed, "n_static": ensemble.n_static},
    )


_ACC_FIELDS = 7  # sum_x, sum_y, sum_z, sum_xx, sum_yy, sum_xy, sum_zz


def _evolves_freely(event) -> bool:
    """A delay, or an acquire with a window, is free evolution over its span."""
    return isinstance(event, FreeEvolutionEvent) or (isinstance(event, AcquireEvent) and event.duration > 0)


def _moments(mx, my, mz):
    """The ``_ACC_FIELDS`` moment sums an acquire records."""
    return (mx.sum(), my.sum(), mz.sum(),
            (mx * mx).sum(), (my * my).sum(), (mx * my).sum(), (mz * mz).sum())


def _walk(events, state, det, m0, w1, relax, draws):
    """Propagate ``state = (mx, my, mz, walk, acc, j, k)`` through ``events``.

    ``walk`` is each trajectory's current noise-walk frequency offset (rad/s),
    ``j`` the next free evolution and ``k`` the next acquire, whose moment
    sums go to ``acc[k]`` (written in place; no other array is).  ``det``
    holds each trajectory's static detuning; ``draws`` holds rows ``2j,
    2j+1`` of standard normals for the ``j``-th free evolution, or is None
    when there is no spectral diffusion.  An acquire records its moments and
    then evolves freely over its window.
    """
    mx, my, mz, walk, acc, j, k = state
    diffusion = relax.diffusion_constant
    for event in events:
        if isinstance(event, PulseEvent):
            mx, my, mz = _pulse_arrays(mx, my, mz, w1, event.phase, event.duration, det)
            continue
        if isinstance(event, AcquireEvent):
            acc[k] = _moments(mx, my, mz)
            k += 1
        if not _evolves_freely(event):
            continue
        duration = event.duration
        phase = det * duration
        if draws is not None:
            # exact joint update of the walk end and its time integral
            increment = math.sqrt(diffusion * duration) * draws[2 * j]
            bridge = math.sqrt(diffusion * np.float64(duration) ** 3 / 12.0) * draws[2 * j + 1]
            phase = phase + walk * duration + 0.5 * duration * increment + bridge
            walk = walk + increment
        j += 1
        mx, my, mz = _free_arrays(mx, my, mz, phase, duration, relax, m0)
    return mx, my, mz, walk, acc, j, k


def _block_offsets(ensemble: EnsembleSpec, sigma: float):
    """Each block's static detuning offsets, one per trajectory, in block order.

    Trajectory ``t`` has static sample ``t // n_noise``.  Each block draws
    only the samples it needs, continuing one stream-0 generator, so the
    offsets equal one draw of all ``n_static`` (Philox normals do not depend
    on how the draw is split) while memory stays bounded by the block.  A
    block that starts inside a sample's run of ``n_noise`` trajectories
    carries that sample's offset over.
    """
    stream = _philox(ensemble.rng_seed, _STATIC_STREAM)
    carry, n_drawn = np.empty(0), 0
    n_traj, n_noise = ensemble.n_trajectories, ensemble.n_noise
    for lo in range(0, n_traj, _BLOCK):
        hi = min(lo + _BLOCK, n_traj)
        first, last = lo // n_noise, (hi - 1) // n_noise
        fresh = stream.standard_normal(last + 1 - n_drawn) * sigma
        offsets = np.concatenate((carry[:n_drawn - first], fresh))
        carry, n_drawn = offsets[-1:], last + 1
        yield offsets[np.arange(lo, hi) // n_noise - first]


def _shared_prefix(sequences, limit: int) -> int:
    """Length of the longest run of leading items equal in every sequence, at most ``limit``."""
    n = 0
    for column in zip(*sequences):
        if n == limit or any(item != column[0] for item in column[1:]):
            break
        n += 1
    return n


def _run_engine(timelines, env, species, relax, ensemble):
    """Shared ensemble propagation of every timeline of a sweep.

    Returns ``(m0, stats)``.  ``stats[i, k]`` holds the weighted means
    ``(x, y, z)`` and the variances of the mean ``(var_x, var_y, cov_xy,
    var_z)`` at acquire event ``k`` of timeline ``i``; rows past a timeline's
    own acquires stay zero.
    """
    acquire_at = [[i for i, e in enumerate(t.events) if isinstance(e, AcquireEvent)] for t in timelines]
    if not all(acquire_at):
        raise ValueError("timeline has no acquisition events")
    # Nothing after a timeline's last acquire is read, so each one stops
    # there; the leading events equal in every timeline are propagated once
    # per block and manifold, and each timeline continues from that state.
    ends = [at[-1] for at in acquire_at]
    n_shared = _shared_prefix([t.events for t in timelines], min(ends))
    shared = timelines[0].events[:n_shared]
    n_free = max(sum(map(_evolves_freely, t.events[:end])) for t, end in zip(timelines, ends))
    n_acquire = max(map(len, acquire_at))

    m0, w1, sigma = _ensemble_setup(env, species)
    labels = manifold_labels(species)
    weights = [manifold_weight(species, m_i) for m_i in labels]
    base_dets = [line_detuning(species, env, m_i) for m_i in labels]
    n_traj = ensemble.n_trajectories

    # Both manifolds and every timeline share each block's draws; partial
    # sums are added in block order.
    sums = np.zeros((len(labels), len(timelines), n_acquire, _ACC_FIELDS))
    for b, static in enumerate(_block_offsets(ensemble, sigma)):
        draws = None
        if relax.diffusion_constant > 0.0:
            stream = _philox(ensemble.rng_seed, _NOISE_STREAM_BASE + b)
            draws = stream.standard_normal((2 * n_free, static.size))
        n = static.size
        for mf, base_det in enumerate(base_dets):
            det = base_det + static
            start = (np.zeros(n), np.zeros(n), np.full(n, m0), np.zeros(n),
                     np.zeros((n_acquire, _ACC_FIELDS)), 0, 0)
            mx, my, mz, walk, acc, j, k = _walk(shared, start, det, m0, w1, relax, draws)
            for i, (timeline, end) in enumerate(zip(timelines, ends)):
                px, py, pz, _, point_acc, _, k_last = _walk(
                    timeline.events[n_shared:end], (mx, my, mz, walk, acc.copy(), j, k),
                    det, m0, w1, relax, draws)
                point_acc[k_last] = _moments(px, py, pz)  # the last acquire
                sums[mf, i] += point_acc

    stats = np.zeros((len(timelines), n_acquire, _ACC_FIELDS))
    for weight, acc in zip(weights, sums):
        mean = acc[..., :3] / n_traj
        mx, my, mz = np.moveaxis(mean, -1, 0)
        stats[..., :3] += weight * mean
        var = acc[..., 3:] / n_traj - np.stack((mx * mx, my * my, mx * my, mz * mz), axis=-1)
        var[..., [0, 1, 3]] = np.maximum(var[..., [0, 1, 3]], 0.0)  # a covariance may be negative
        stats[..., 3:] += weight * weight / n_traj * var
    return m0, stats


def _channel_value(event, stat, m0, trap):
    """(value, stderr) of one acquire event from its row of engine stats."""
    mean = stat[:3]
    vx, vy, cxy, vz = stat[3:]
    if event.channel == "mz":
        return mean[2], math.sqrt(vz)
    if event.channel == "echo":
        amp = math.hypot(mean[0], mean[1])
        if amp > 0:
            ux, uy = mean[0] / amp, mean[1] / amp
        else:
            ux, uy = 1.0, 0.0
        se = math.sqrt(max(ux * ux * vx + 2 * ux * uy * cxy + uy * uy * vy, 0.0))
        return amp, se
    if event.channel == "charge":
        window = event.window if event.window is not None else 6.0 / trap.emission_rate
        # a non-finite mz stays non-finite, and the trace is refused where it is written
        fraction = trapdyn.flip_fraction_from_state(mean[2], m0) if math.isfinite(mean[2]) else math.nan
        unit_charge = trapdyn.boxcar_charge(1.0, trap, window)
        se = abs(unit_charge) * math.sqrt(vz) / 2.0  # charge is linear in mz
        return unit_charge * fraction, se
    raise ValueError(f"unknown channel {event.channel!r}")  # pragma: no cover


def _run_points(timelines, env, species, relax, ensemble, trap):
    """Run compiled timelines, one engine pass per ``_SWEEP_CHUNK`` of them.

    Yields, per timeline, a list of ``(channel, start, value, stderr)``, one
    per acquire event in time order.  Every timeline sees the same draws
    (common random numbers), so each gives the values it gives run alone.
    Read in chunks, a generator keeps a long sweep from holding all of its
    compiled timelines at once.
    """
    timelines = iter(timelines)
    while chunk := list(itertools.islice(timelines, _SWEEP_CHUNK)):
        m0, stats = _run_engine(chunk, env, species, relax, ensemble)
        for timeline, point_stats in zip(chunk, stats):
            acquires = [e for e in timeline.events if isinstance(e, AcquireEvent)]
            yield [(e.channel, e.start, *_channel_value(e, stat, m0, trap))
                   for e, stat in zip(acquires, point_stats)]


# Units of each acquire channel's values.
_CHANNEL_UNITS = {"mz": "dimensionless", "echo": "dimensionless", "charge": "C"}


def run_program(ast: SequenceAst, env: Environment, species: SpinSpecies, relax: RelaxationParams,
                ensemble: EnsembleSpec, trap: "trapdyn.TrapParams | None" = None) -> dict[str, SignalTrace]:
    """Run a parsed pulse program; one trace per acquisition channel.

    An unswept program's x axis (``time``) holds the acquire times.  A swept
    one runs all of its points in one engine pass, and its x axis holds the
    sweep values: ``tau`` when a delay takes the sweep variable, else
    ``pulse_duration``.  Each trace's meta holds the seed, the ensemble
    layout, the equilibrium mz that echo amplitudes are measured against, a
    swept program's ``sweep_variable``, and ``y_stderr``: the Monte Carlo
    standard error of each value.  A swept program that acquires a channel
    twice, or whose sweep values do not increase, raises SequenceError.
    """
    if trap is None and "charge" in ast.acquire_channels:
        raise ValueError("program acquires the charge channel but no trap parameters were given")
    meta = {"rng_seed": ensemble.rng_seed, "n_static": ensemble.n_static, "n_noise": ensemble.n_noise,
            "equilibrium_mz": _ensemble_setup(env, species)[0]}
    sweep, points, axis_kind = ast.sweep, [None], "time"  # an unswept program is the single point None
    if sweep is not None:
        # a swept trace holds one value per point, so a second acquire on the
        # same channel would have nowhere to go
        repeated = sorted({c for c in ast.acquire_channels if ast.acquire_channels.count(c) > 1})
        if repeated:
            raise SequenceError(f"swept sequence acquires channel {', '.join(repeated)} more than once; "
                                "a sweep records one value per channel and point")
        points = [float(v) for v in sweep_values(sweep)]
        meta["sweep_variable"] = sweep.name
        axis_kind = "tau" if DelayStmt(sweep.name) in ast.statements else "pulse_duration"

    timelines = (compile_timeline(ast, env, sweep_value=value) for value in points)
    columns: dict[str, tuple[list, list, list]] = {}  # per channel: acquire times, values, stderrs
    for acquires in _run_points(timelines, env, species, relax, ensemble, trap):
        for channel, start, value, se in acquires:
            starts, values, ses = columns.setdefault(channel, ([], [], []))
            starts.append(start)
            values.append(value)
            ses.append(se)
    return {channel: SignalTrace(axis_kind, starts if sweep is None else points, values,
                                 _CHANNEL_UNITS[channel], {**meta, "y_stderr": tuple(ses)})
            for channel, (starts, values, ses) in sorted(columns.items())}
