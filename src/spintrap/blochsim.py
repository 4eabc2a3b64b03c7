"""Bloch-vector dynamics: pulses, relaxation, spectral diffusion, pulse programs.

The simulation picture is classical: each hyperfine line contributes a
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
``D = 24 / T_S**3`` (rad^2/s^3).  Over a free-evolution event of duration
``T`` the walk increment and the phase it accumulates are jointly Gaussian,
so each event takes one exact update from two standard normals ``z1, z2``
(Gillespie, Phys. Rev. E 54, 2084 (1996))::

    step   = sqrt(D T) z1
    phase += w0 T + (T/2) step + sqrt(D T^3 / 12) z2
    w0    += step

where ``w0`` is the walk value at the start of the event.  The accumulated
phase variance then reproduces ``exp(-4 t^3/T_S^3)`` free-induction decay and
``exp(-8 tau^3/T_S^3)`` Hahn-echo decay, which is exactly the cubic term of
the echo envelope, with no discretization error; the Monte Carlo calibration
against the closed form is an acceptance test.  The walk persists across
events within a trajectory and is frozen during pulses.

Reproducibility
---------------
All randomness comes from counter-based Philox streams keyed by
``(rng_seed, stream)``: stream 0 draws the static detuning offsets, and
stream ``1 + block`` draws every noise normal of one fixed-size block of
trajectories at once, as a ``(2 * n_free, n_block)`` array.  The engine
walks the program's statements in order; the ``j``-th free evolution (a
delay, or the window of an acquire, which records its moments first) takes
rows ``2j, 2j+1``.  Both hyperfine lines reuse the block's draws, and so
does every sweep point of a sequence (common random numbers).  The block
fixes the RNG layout; the chunk bounds the working set.  Each block is
walked in chunks of ``_CHUNK = 2048`` trajectories, column slices of its
offsets and draws, and each chunk's sums and its moments centred on its own
means are merged in order, so results depend only on the seed and the
ensemble layout.  Chunking moves no draw, and a mean only by rounding: not
at all in a block of at most 2048 trajectories (one chunk) or of exactly
4096, whose pairwise sum numpy already splits into two halves of 2048.

Engine
------
A chunk holds both hyperfine lines at once: the state is three
``(n_lines, n_chunk)`` arrays, one row per line.  Row ``l`` carries its
line's weight ``w_l``: it starts at ``(0, 0, w_l m0)`` and relaxes toward
``w_l m0``.  An acquire reads the sum of the rows, one readout per
trajectory, whose mean and variance of the mean are the stats, so the
variance includes the covariance between the lines.  A trajectory's
static offset, its noise walk and its draws are the same on every line,
which differ only by the line's own detuning.  So a free evolution takes
the cosine and sine of the phase the lines share once per trajectory, and
turns each line by its scalar ``decay e^{i delta T}`` by angle addition.
Every pulse is the per-trajectory 3x3 rotation about its effective field,
each row applied as three multiplies and two adds.  The engine computes only
what the final acquire reads.  Echo reads x and y; mz and charge read z.
Working back from it, once per program, a free evolution needs the
components it outputs, and a pulse or an earlier acquire needs all three
(:func:`_live_components`).  So the readout pi/2 before a charge or mz
acquire builds and applies the z row of its rotation alone, the evolution
before a final echo does not relax z, and the noise walk is not advanced
past the last free evolution that reads it.  Every element still computed
takes the same operations in the same order, so no number moves.  When no
walk acts (no free evolution, or ``t_s = inf``) a static sample's
``n_noise`` trajectories would be copies, so each sample runs once: the
layout ``n_static x 1``, with the same offsets and the variance taken over
the samples.

Sweeps
------
:func:`run_program` runs a parsed program, swept or not, in one engine
pass.  The points of a sweep differ only in the durations that name the
sweep variable.  Each statement's duration at each point's value
(:func:`seqlang.statement_duration`), and the factors of each free
evolution that every trajectory shares, are worked out once for every
chunk.  Each block draws its static
offsets (continuing one stream-0 generator) and its noise once for every
point.  The statements before the first swept one are walked once per
chunk, each pulse among them built and applied one line at a time in one
buffer; each point then walks the rest from that state, which it never
writes, to the last acquire in one walk.  A pulse after them is built for
both lines at the first point and kept for the chunk, unless its duration
names the sweep variable: that one is rebuilt at each point.  A chunk's
state and rotations are dropped before the next chunk starts, so the chunk,
not the block, bounds the working set: at 128 x 32 (one 4096-trajectory
block, two chunks) the engine's traced peak is 0.86 MiB on
``hahn_echo.seq``, 1.42 when the block was walked whole, and a full 8192
block adds only its draws and offsets (1.00 MiB).  Nothing reads the state
after the last acquire, so the walk takes it without its window: the
window is never evolved and its draw rows are not drawn.  None of this
moves a draw: the RNG layout above is unchanged and a swept point gives the
same numbers as the unswept program with its value written in.
"""

from __future__ import annotations

import math

import numpy as np

from . import trapdyn
from .errors import SequenceError
from .seqlang import AcquireStmt, DelayStmt, PulseStmt, SequenceAst, statement_duration, sweep_values
from .spincore import (_STATIC_STREAM, EnsembleSpec, Environment, RelaxationParams, SpinSpecies, _ensemble_setup,
                       _philox)
from .trace import SignalTrace

__all__ = ["run_program"]

_PHASE_ANGLES = {"+x": 0.0, "+y": 0.5 * math.pi, "-x": math.pi, "-y": 1.5 * math.pi}

# The block fixes the RNG layout (one noise stream per block), so changing it
# changes the results.  The chunk bounds the working set: a block is walked
# _CHUNK trajectories at a time (a divisor of _BLOCK), each chunk's moments
# merged into the totals, which moves them by rounding only.  2048 took the
# engine's traced peak at the shipped 128 x 32 from 1.42 to 0.86 MiB on
# hahn_echo.seq for about 4% more engine time; 1024 cost 28-36%.
_BLOCK = 8192
_CHUNK = 2048

_NOISE_STREAM_BASE = 1


_XYZ = (0, 1, 2)  # all three components (mx, my, mz): the rows of a whole rotation


def _pulse_rotation(det, w1, phase, duration, out=None, rows=_XYZ):
    """Rows ``rows`` of each trajectory's rotation by one pulse: ``out[3 k +
    j]`` is element ``(rows[k], j)`` of its 3x3 matrix, shaped like ``det``.

    The axis is the unit effective field ``a = (w1 cos phi, w1 sin phi, det) /
    weff`` and the angle ``weff * duration``: Rodrigues' formula ``c I + s
    [a]x + (1 - c) a a^T``.  An element takes the same operations in the same
    order whichever rows are built.  ``out`` (a new array when None) is
    filled in place, so that a swept pulse refills one buffer at every point
    and few temporaries are alive at once: a fresh rotation and its
    temporaries at each point made the heap return and re-fault its pages,
    point by point.
    """
    r = np.empty((3 * len(rows),) + det.shape) if out is None else out
    at = {(i, j): 3 * n + j for n, i in enumerate(rows) for j in _XYZ}  # element (i, j) -> its row of r
    phi = _PHASE_ANGLES[phase]
    weff = np.sqrt(w1 * w1 + det * det)
    inv = 1.0 / np.where(weff > 0.0, weff, 1.0)
    a = (w1 * math.cos(phi) * inv, w1 * math.sin(phi) * inv, det * inv)
    weff *= duration  # the angle
    c = np.cos(weff)
    s = np.sin(weff, out=weff)
    k = np.subtract(1.0, c, out=inv)  # 1 - c, in the buffer of 1/weff
    for i in rows:
        for j, aj in enumerate(a):
            np.multiply(k, a[i], out=r[at[i, j]])
            r[at[i, j]] *= aj
        r[at[i, i]] += c
    sa = c  # the diagonal is done; c's buffer holds s a_m
    # s a_m enters element `plus` and leaves element `minus`
    for am, plus, minus in zip(a, ((2, 1), (0, 2), (1, 0)), ((1, 2), (2, 0), (0, 1))):
        if plus in at or minus in at:
            np.multiply(s, am, out=sa)
        if plus in at:
            r[at[plus]] += sa
        if minus in at:
            r[at[minus]] -= sa
    return r


def _apply_rotation(r, mx, my, mz, out=None):
    """``r`` from :func:`_pulse_rotation` applied to ``(mx, my, mz)``: three
    multiplies and two adds per row and trajectory, into ``out`` (new arrays
    when None), one per row of ``r``."""
    rotated = []
    for k in range(len(r) // 3):
        v = np.multiply(r[3 * k], mx, out=None if out is None else out[k])
        v += r[3 * k + 1] * my
        v += r[3 * k + 2] * mz
        rotated.append(v)
    return rotated


def _rotate_lines(det, w1, phase, duration, rows, mx, my, mz):
    """Components ``rows`` of ``(mx, my, mz)`` after one pulse, whose
    rotation rows are built and applied one line at a time in one buffer
    that holds one line's rotation and is freed on return."""
    rotated, rotation = [np.empty(det.shape) for _ in rows], None
    for line, out in enumerate(zip(*rotated)):
        rotation = _pulse_rotation(det[line], w1, phase, duration, rotation, rows)
        _apply_rotation(rotation, mx[line], my[line], mz[line], out)
    return rotated


def _free_factors(stmt, duration, live, line_det, relax):
    """For a free evolution over ``duration`` that outputs the components
    ``live``, the factors that every trajectory shares, as :func:`_free`
    takes them: for x and y each line's ``decay cos`` and ``decay sin`` of
    its own turn ``line_det * duration``, for z its T1 decay (None where
    not output).  None for a statement that is no free evolution."""
    if not _evolves_freely(stmt):
        return None
    c = s = z_decay = None
    if live[0] == 0:
        decay = np.exp(-duration / relax.t2_seconds)
        turn = line_det * duration
        c, s = decay * np.cos(turn), decay * np.sin(turn)
    if live[-1] == 2:
        z_decay = np.exp(-duration / relax.t1_seconds)
    return c, s, z_decay


def _free(mx, my, mz, psi, factors, m_eq):
    """Free evolution, with ``factors`` from :func:`_free_factors`:
    precession plus T2 shrinkage and T1 recovery of ``(n_lines, n)`` states.

    Trajectory ``t`` of line ``l`` turns by ``psi[t] + line_det[l] *
    duration``.  ``cos psi`` and ``sin psi`` are taken once for all lines;
    each line's scalar ``decay e^{i line_det duration}`` joins them by angle
    addition.  ``m_eq``, each trajectory's equilibrium, is shaped like
    ``mz``, as broadcasting a column costs more time.  With ``psi`` None, x
    and y are not evolved, and without a T1 decay z is not; each comes back
    None.
    """
    c, s, z_decay = factors
    x = y = z = None
    if psi is not None:
        cos_psi, sin_psi = np.cos(psi), np.sin(psi)
        cos_t = cos_psi * c
        cos_t -= sin_psi * s
        sin_t = sin_psi * c
        sin_t += cos_psi * s
        x = mx * cos_t
        x -= my * sin_t
        y = mx * sin_t
        y += my * cos_t
    if z_decay is not None:
        z = mz - m_eq
        z *= z_decay
        z += m_eq
    return x, y, z


_ACC_FIELDS = 7  # sum_x, sum_y, sum_z, then the centred m_xx, m_yy, m_xy, m_zz


def _evolves_freely(stmt) -> bool:
    """A delay, or an acquire with a window, is free evolution over its span."""
    return isinstance(stmt, DelayStmt) or (isinstance(stmt, AcquireStmt) and stmt.window is not None)


def _moments(channel, mx, my, mz):
    """The ``_ACC_FIELDS`` moments of the readout, the sum of the line rows,
    that an acquire of ``channel`` reads: its sums, and the sums of squares
    and products of its deviations from their mean over the block (centred,
    so they do not cancel when the spread is small against the mean); the
    rest are 0."""
    if channel == "echo":
        x, y = mx.sum(axis=0), my.sum(axis=0)
        sx, sy = x.sum(), y.sum()
        x -= sx / x.size
        y -= sy / y.size
        return sx, sy, 0.0, (x * x).sum(), (y * y).sum(), (x * y).sum(), 0.0
    z = mz.sum(axis=0)  # mz and charge read mz alone
    sz = z.sum()
    z -= sz / z.size
    return 0.0, 0.0, sz, 0.0, 0.0, 0.0, (z * z).sum()


def _shared_phase(static, walk, draws, duration, diffusion, advance):
    """The phase the lines share over a free evolution of ``duration``, and
    the walk at its end: advanced by its increment if ``advance``, else as
    it was.  ``draws`` holds the evolution's two rows of standard normals,
    or is None without spectral diffusion."""
    if draws is None:
        return static * duration, walk
    # exact joint update of the walk end and its time integral
    increment = math.sqrt(diffusion * duration) * draws[0]
    bridge = math.sqrt(diffusion * np.float64(duration) ** 3 / 12.0) * draws[1]
    psi = (static + walk) * duration + 0.5 * duration * increment + bridge
    return psi, walk + increment if advance else walk


def _live_components(statements):
    """For each of ``statements``, which end in the final acquire: the
    components of the state (0, 1, 2 for mx, my, mz) it must output for that
    acquire, and whether a later free evolution reads the noise walk it
    leaves.

    The final acquire reads x and y (echo) or z (mz and charge) and outputs
    nothing.  A free evolution turns x and y into x and y and relaxes z into
    z, so it needs the components it outputs; it reads the walk when it
    outputs x and y.  A pulse mixes all three, and an earlier acquire reads
    them all, so each needs all three.
    """
    live = (0, 1) if statements[-1].channel == "echo" else (2,)
    walk_read = False
    steps = [((), False)]
    for stmt in reversed(statements[:-1]):
        steps.append((live, walk_read))
        walk_read |= _evolves_freely(stmt) and live[0] == 0
        if not isinstance(stmt, DelayStmt):  # a pulse or an earlier acquire
            live = _XYZ
    return steps[::-1]


def _components(live, values):
    """``(mx, my, mz)`` with the arrays ``values`` of the components ``live``
    in place, and None for the others."""
    by_index = dict(zip(live, values))
    return by_index.get(0), by_index.get(1), by_index.get(2)


def _walk(steps, state, chunk, rotations, moments, m_eq, w1, relax):
    """Propagate ``state = (mx, my, mz, walk, j)`` through ``steps``; each
    acquire appends its moment sums to ``moments``.

    ``mx, my, mz`` are ``(n_lines, n)`` arrays, one row per resonance line,
    which carries its line's weight and relaxes toward its row of ``m_eq``.
    ``walk`` is each trajectory's current noise-walk frequency offset
    (rad/s), which the lines share, and ``j`` the next free evolution.
    ``chunk = (static, det, draws)``: the chunk's static offsets ``(n,)``,
    their sums ``det`` with the lines' detunings, ``(n_lines, n)``, and the
    standard normals, rows ``2j, 2j+1`` for the ``j``-th free evolution
    (None when there is no spectral diffusion).

    Each step is ``(statement, live, walk_read, duration, factors)``: from
    :func:`_live_components` the components ``live`` that the final acquire
    needs from the statement (it outputs only those; the others come out
    None), so a pulse builds and applies only those rows of its rotation,
    and whether a later free evolution reads the walk, which is advanced
    only then; the statement's duration at the point's sweep value; and
    its :func:`_free_factors`.
    ``rotations`` keeps each pulse's rotation rows and the duration they were
    built for, by step, for the next point, which rebuilds them (in place)
    only if the duration changed.  None keeps nothing: a pulse walked once
    is built and applied one line at a time (:func:`_rotate_lines`).  An
    acquire records its moments (:func:`_moments`) and then evolves freely
    over its window.  Every statement writes its output to new arrays, never
    into ``state``, so each point may start from the same one; the walk
    drops ``state`` at once, so a start state that its caller does not keep
    is freed as soon as the walk has moved past it.
    """
    mx, my, mz, walk, j = state
    del state  # so a start state the caller does not keep is freed once moved past
    static, det, draws = chunk
    for i, (stmt, live, walk_read, duration, factors) in enumerate(steps):
        if isinstance(stmt, PulseStmt):
            if rotations is None:
                mx, my, mz = _components(live, _rotate_lines(det, w1, stmt.phase, duration, live, mx, my, mz))
                continue
            built, rotation = rotations.get(i, (None, None))
            if built != duration:  # never built, or swept
                rotation = _pulse_rotation(det, w1, stmt.phase, duration, rotation, live)
                rotations[i] = duration, rotation
            mx, my, mz = _components(live, _apply_rotation(rotation, mx, my, mz))
            continue
        if isinstance(stmt, AcquireStmt):
            moments.append(_moments(stmt.channel, mx, my, mz))
        if factors is None:  # not a free evolution
            continue
        # x and y turn by the phase the lines share; each line adds its own
        # line_det * duration.  A free evolution that outputs no x and y has
        # no later one that does, so no later one reads the walk it skips.
        psi = None
        if live[0] == 0:
            psi, walk = _shared_phase(static, walk, None if draws is None else draws[2 * j:2 * j + 2],
                                      duration, relax.diffusion_constant, walk_read)
        j += 1
        mx, my, mz = _free(mx, my, mz, psi, factors, m_eq)
        del psi  # not held through the next pulse
    return mx, my, mz, walk, j


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


def _run_engine(ast, values, env, species, relax, ensemble):
    """Shared ensemble propagation of a program at each of its sweep values.

    ``values`` is the list of sweep values, or ``[None]`` for an unswept
    program.  Returns ``(m0, stats)``.  ``stats[i, k]`` holds the means
    ``(x, y, z)`` and the variances of the mean ``(var_x, var_y, cov_xy,
    var_z)`` of the readout, the sum of the line rows (see Engine), at
    acquire ``k`` of point ``i``.  An acquire sums only what its channel
    reads, so an echo's ``z`` and ``var_z``, and the ``x``, ``y``,
    ``var_x``, ``var_y`` and ``cov_xy`` of an mz or charge acquire, are 0.
    Per chunk, one :func:`_walk` takes the shared prefix, and one per point
    the rest, to the last acquire without its window (see Sweeps).
    """
    end = max(i for i, s in enumerate(ast.statements) if isinstance(s, AcquireStmt))
    statements = (*ast.statements[:end], AcquireStmt(ast.statements[end].channel))
    name = ast.sweep.name if ast.sweep is not None else None
    n_shared = next((i for i, s in enumerate(statements[:end])
                     if not isinstance(s, AcquireStmt) and s.duration == name), end)
    n_free = sum(map(_evolves_freely, statements))
    walked = n_free > 0 and relax.diffusion_constant > 0.0
    if not walked:  # a sample's n_noise trajectories would be copies
        ensemble = EnsembleSpec(ensemble.n_static, 1, ensemble.rng_seed)

    m0, w1, sigma, lines = _ensemble_setup(env, species)
    line_det = np.array([[d] for _, d in lines])
    m_eq = np.array([[weight * m0] for weight, _ in lines])
    n_traj = ensemble.n_trajectories
    # each point's steps (see _walk), worked out once for every chunk; the
    # prefix names no sweep variable, so the first point's serves them all
    points = [[(stmt, live, walk_read, d, _free_factors(stmt, d, live, line_det, relax))
               for stmt, (live, walk_read) in zip(statements, _live_components(statements))
               for d in [statement_duration(stmt, env, value)]] for value in values]
    prefix, points = points[0][:n_shared], [steps[n_shared:] for steps in points]

    # The lines and every point share each block's draws; each block is
    # walked in chunks, whose moments are merged in order.
    sums = np.zeros((len(values), len(ast.acquire_channels), _ACC_FIELDS))
    chunk_sums = np.empty_like(sums)
    n_done = 0  # trajectories in `sums`
    for b, static in enumerate(_block_offsets(ensemble, sigma)):
        draws = None
        if walked:
            stream = _philox(ensemble.rng_seed, _NOISE_STREAM_BASE + b)
            draws = stream.standard_normal((2 * n_free, static.size))
        for lo in range(0, static.size, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            chunk = (static[part], line_det + static[part], None if draws is None else draws[:, part])
            n = chunk[0].size
            shared = []  # the moments of the acquires in the prefix
            eq = np.repeat(m_eq, n, axis=1)  # each trajectory's equilibrium, also the start mz
            # the prefix is walked once, so it keeps no rotation, and its start x, y and walk are not kept
            state = _walk(prefix, (np.zeros(eq.shape), np.zeros(eq.shape), eq, np.zeros(n), 0), chunk, None, shared,
                          eq, w1, relax)
            rotations = {}  # a fixed pulse is built at the first point and kept
            for i, steps in enumerate(points):
                moments = shared.copy()
                _walk(steps, state, chunk, rotations, moments, eq, w1, relax)
                chunk_sums[i] = moments
            del chunk, state, rotations, eq  # freed before the next chunk's are built
            # the centred moments of two sets add, plus the outer product of the
            # difference of their means times n_a n_b / (n_a + n_b) (Chan, Golub
            # & LeVeque, Am. Stat. 37, 242 (1983)); the sums add
            dx, dy, dz = np.moveaxis(chunk_sums[..., :3] / n - sums[..., :3] / max(n_done, 1), -1, 0)
            sums[..., 3:] += np.stack((dx * dx, dy * dy, dx * dy, dz * dz), axis=-1) * (n_done * n / (n_done + n))
            sums += chunk_sums
            n_done += n

    # the means, and the variances of the mean: the centred moments / n^2
    return m0, np.concatenate((sums[..., :3] / n_traj, sums[..., 3:] / n_traj / n_traj), axis=-1)


def _channel_value(channel, stat, m0, unit_charge):
    """(value, stderr) of one acquire statement from its row of engine stats;
    a charge acquire's ``unit_charge`` is the charge per flipped donor over
    its window."""
    mean = stat[:3]
    vx, vy, cxy, vz = stat[3:]
    if channel == "mz":
        return mean[2], math.sqrt(vz)
    if channel == "echo":
        amp = math.hypot(mean[0], mean[1])
        if amp > 0:
            ux, uy = mean[0] / amp, mean[1] / amp
        else:
            ux, uy = 1.0, 0.0
        se = math.sqrt(max(ux * ux * vx + 2 * ux * uy * cxy + uy * uy * vy, 0.0))
        return amp, se
    # the charge channel; a NaN mz gives a NaN charge, refused where the trace is written
    se = abs(unit_charge) * math.sqrt(vz) / 2.0  # charge is linear in mz
    return unit_charge * trapdyn.flip_fraction_from_state(mean[2], m0), se


# Units of each acquire channel's values.
_CHANNEL_UNITS = {"mz": "dimensionless", "echo": "dimensionless", "charge": "C"}


@np.errstate(all="ignore")  # a non-finite value is refused where the trace is written
def run_program(ast: SequenceAst, env: Environment, species: SpinSpecies, relax: RelaxationParams,
                ensemble: EnsembleSpec, trap: trapdyn.TrapParams) -> dict[str, SignalTrace]:
    """Run a parsed pulse program; one trace per acquisition channel.

    An unswept program's x axis (``time``) holds the acquire times.  A swept
    one runs all of its points in one engine pass, and its x axis holds the
    sweep values: ``tau`` when a delay takes the sweep variable, else
    ``pulse_duration``.  Each trace's ``y_stderr`` holds the Monte Carlo
    standard error of each value; with no noise walk, ``n_noise`` does not
    enter it (see Engine).  Its meta holds only what the run computes
    or what labels x: the equilibrium mz that echo amplitudes are measured
    against, and a swept program's ``sweep_variable``.  A channel's x column
    must strictly increase, so a swept program that acquires a channel
    twice, or whose sweep values do not increase, raises SequenceError, and
    so does an unswept one that acquires a channel twice at the same time.
    """
    meta = {}
    acquires = [s for s in ast.statements if isinstance(s, AcquireStmt)]
    sweep = ast.sweep
    if sweep is None:  # the single point None; x holds each acquire's time
        points, axis_kind, t, times = [None], "time", 0.0, []
        for stmt in ast.statements:
            if isinstance(stmt, AcquireStmt):
                times.append(t)
            t += statement_duration(stmt, env)
    else:
        points = [float(v) for v in sweep_values(sweep)]
        meta["sweep_variable"] = sweep.name
        axis_kind = "tau" if DelayStmt(sweep.name) in ast.statements else "pulse_duration"
    columns: dict[str, tuple[list, list, list]] = {}  # per channel: x values, values, stderrs
    for value in points:
        for k, acquire in enumerate(acquires):
            columns.setdefault(acquire.channel, ([], [], []))[0].append(value if sweep else times[k])
    for channel, (x, _, _) in sorted(columns.items()):  # a trace's x axis strictly increases
        repeat = next((b for a, b in zip(x, x[1:]) if b <= a), None)
        if repeat is not None:
            raise SequenceError(f"swept sequence acquires channel {channel} more than once; a sweep records "
                                "one value per channel and point" if sweep else
                                f"channel {channel!r} is acquired twice at t = {repeat!r} s")

    m0, stats = _run_engine(ast, points, env, species, relax, ensemble)
    meta["equilibrium_mz"] = m0
    # a charge acquire's charge per flipped donor is set by its window, the same at every point
    unit_charges = [trapdyn.boxcar_charge(trap, acquire.window or 6.0 / trap.emission_rate_per_second)
                    if acquire.channel == "charge" else None for acquire in acquires]
    for point_stats in stats:
        for acquire, unit_charge, stat in zip(acquires, unit_charges, point_stats):
            _, values, ses = columns[acquire.channel]
            y, se = _channel_value(acquire.channel, stat, m0, unit_charge)
            values.append(y)
            ses.append(se)
    return {channel: SignalTrace(axis_kind, xs, values, _CHANNEL_UNITS[channel], meta, y_stderr=ses)
            for channel, (xs, values, ses) in sorted(columns.items())}
