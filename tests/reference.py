"""Analytic references that the tests compare the program against.

No command runs these; they are closed forms (and a scipy peak search) that
give the numbers the engine, the fitter and the spectrum must reproduce.
The spectrum, the transient and its pulse are also kept here as numpy
computed them before the program moved them to Python floats.
"""

from decimal import Context, Decimal, localcontext

import numpy as np
from scipy.signal import find_peaks

from spintrap import fitkit, rabi
from spintrap.spincore import DANGLING_BOND, RelaxationParams, _ensemble_setup, gyromagnetic_ratio, resonance_lines
from spintrap.trace import SignalTrace
from spintrap.trapdyn import TrapParams, trapped_fraction


def echo_envelope_analytic(tau, relax: RelaxationParams):
    """Hahn-echo amplitude ``exp(-2 tau/t2 - 8 tau^3/t_s^3)`` at delay tau.

    With infinite ``t_s`` this is the pure exponential.  Accepts scalars or
    arrays; tau must be non-negative.
    """
    t = np.asarray(tau, dtype=float)
    if np.any(t < 0):
        raise ValueError("tau must be >= 0")
    cubic = relax.diffusion_constant * t**3 / 3.0  # 8 tau^3 / t_s^3
    out = np.exp(-2.0 * t / relax.t2_seconds - cubic)
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


def spin_recovery_curve(params: TrapParams, t_grid, flip_fraction: float = 1.0) -> SignalTrace:
    """Donor mz recovery driven by repeated capture/reemission cycles.

    Flipped donors are captured at ``k_c``; completed releases return donors
    aligned with the conduction bath at the net rate ``k_e`` (see the
    :mod:`spintrap.trapdyn` docstring for why the anti-aligned reemission
    branch folds into ``k_e`` when ``k_c >> k_e``).  Trapped donors are
    spin-silent singlets.  The recovery tail therefore carries the time
    constant ``1/k_e`` -- the same constant as the current transient.
    """
    if not 0.0 <= flip_fraction <= 1.0:
        raise ValueError(f"flip_fraction must lie in [0, 1], got {flip_fraction}")
    t = np.asarray(t_grid, dtype=float)
    if np.any(t < 0) or np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be sorted, non-negative, strictly increasing")
    k_c = params.capture_rate_per_second
    flipped = flip_fraction * np.exp(-k_c * t)
    trapped = np.array([trapped_fraction(flip_fraction, params, ti) for ti in t.tolist()])
    aligned = 1.0 - flipped - trapped
    mz = aligned - flipped  # trapped singlets contribute zero
    return SignalTrace(
        axis_kind="time",
        x=tuple(t),
        y=tuple(mz),
        units="dimensionless",
        meta={"flip_fraction": flip_fraction},
    )


# 50 significant digits: the two-rate closed forms below subtract terms that
# agree to 11 digits near k_c = k_e and keep over 35 of them
_EXACT = Context(prec=50)


def exact_exp_difference(a: float, b: float, t) -> np.ndarray:
    """``e^{-a t} - e^{-b t}`` at each t, in 50-digit decimal arithmetic from
    the exact float inputs, rounded to float."""
    with localcontext(_EXACT):
        a, b = Decimal(a), Decimal(b)
        return np.array([float((-a * Decimal(ti)).exp() - (-b * Decimal(ti)).exp())
                         for ti in np.asarray(t, dtype=float).ravel().tolist()])


def exact_trapped_fraction(flip_fraction: float, k_c: float, k_e: float, t) -> np.ndarray:
    """The trapped fraction ``f k_c/(k_c - k_e) (e^{-k_e t} - e^{-k_c t})``, and
    ``f k t e^{-kt}`` at ``k_c = k_e``, in 50-digit decimal arithmetic."""
    with localcontext(_EXACT):
        f, kc, ke = Decimal(flip_fraction), Decimal(k_c), Decimal(k_e)
        out = []
        for ti in map(Decimal, np.asarray(t, dtype=float).ravel().tolist()):
            if kc == ke:
                out.append(f * kc * ti * (-kc * ti).exp())
            else:
                out.append(f * kc / (kc - ke) * ((-ke * ti).exp() - (-kc * ti).exp()))
        return np.array([float(v) for v in out])


def exact_trapped_charge(k_c: float, k_e: float, window: float) -> float:
    """Integral over ``[0, window]`` of the trapped fraction after a full flip,
    ``k_c/(k_c - k_e) [(1 - e^{-k_e W})/k_e - (1 - e^{-k_c W})/k_c]``, and
    ``[1 - e^{-kW} (1 + kW)]/k`` at ``k_c = k_e``, in 50-digit decimal arithmetic."""
    with localcontext(_EXACT):
        kc, ke, w = Decimal(k_c), Decimal(k_e), Decimal(window)
        if kc == ke:
            return float((1 - (-kc * w).exp() * (1 + kc * w)) / kc)
        return float(kc / (kc - ke) * ((1 - (-ke * w).exp()) / ke - (1 - (-kc * w).exp()) / kc))


def exact_peak_trapped_fraction(k_c: float, k_e: float) -> float:
    """Maximum over t of the trapped fraction after a full flip, at
    ``t* = ln(k_c/k_e)/(k_c - k_e)`` (``1/k`` at ``k_c = k_e``), in 50-digit
    decimal arithmetic."""
    with localcontext(_EXACT):
        kc, ke = Decimal(k_c), Decimal(k_e)
        if kc == ke:
            return float(Decimal(-1).exp())
        t_star = (kc / ke).ln() / (kc - ke)
        return float(kc / (kc - ke) * ((-ke * t_star).exp() - (-kc * t_star).exp()))


def model_predict(model_id: str, x, params: dict) -> np.ndarray:
    """Evaluate a model curve from a fitted (or constructed) parameter dict."""
    model = fitkit._MODELS[model_id]
    a, *q = (params[name] for name in model.param_names)
    return a * model.shape(np.asarray(x, dtype=float), tuple(q))[0]


def find_dips(trace: SignalTrace, min_prominence: float = 0.02) -> list[tuple[float, float]]:
    """Resonance dips of dI(B) as ``(field, depth)`` pairs sorted by field.

    The dips are the peaks of ``-y`` that ``scipy.signal.find_peaks`` finds
    with a prominence of at least ``min_prominence`` of the deepest
    excursion; the depth is ``|dI|``.  A flat trace has none.
    """
    y = -trace.y
    span = float(np.max(y) - np.min(y))
    if span == 0.0:
        return []
    return [(trace.x[i], float(y[i])) for i in find_peaks(y, prominence=min_prominence * span)[0]]


def _numpy_unit_peak_line(b, center, width, lineshape):
    if lineshape == "gaussian":
        return np.exp(-((b - center) ** 2) / (2.0 * np.square(width)))
    return 1.0 / (1.0 + ((b - center) / width) ** 2)


def numpy_field_sweep(species, env, sweep) -> tuple[np.ndarray, np.ndarray]:
    """The fields and dI of :func:`spintrap.spectrum.simulate_field_sweep`,
    computed on numpy arrays."""
    b = np.linspace(sweep.b_start_tesla, sweep.b_stop_tesla, sweep.n_points)
    di = np.zeros_like(b)
    depth = sweep.phosphorus_amplitude_amperes
    with np.errstate(all="ignore"):  # a vanishing width gives 0 (and NaN at a line center) quietly
        for source, amplitude in ((species, depth), (DANGLING_BOND, depth * sweep.db_amplitude_ratio)):
            for center, weight in resonance_lines(source, env.mw_frequency_hz):
                di -= amplitude * weight * _numpy_unit_peak_line(b, center, source.linewidth_tesla, sweep.lineshape)
    return b, di


def numpy_pulse_flip_fraction(angle_deg, field_offset, env, species) -> float:
    """:func:`spintrap.rabi.pulse_flip_fraction`, computed on numpy floats
    by :func:`spintrap.rabi._rabi_flip`; NaN where the pulse has no finite flip."""
    m0, w1, _, _ = _ensemble_setup(env, species)
    w1 = np.float64(w1)
    det = np.float64(gyromagnetic_ratio(species.g_factor)) * field_offset
    with np.errstate(all="ignore"):
        fraction = m0 * rabi._rabi_flip(w1, det, np.radians(angle_deg) / w1)
    return float(np.clip(fraction, 0.0, 1.0))


def numpy_transient(flip_fraction, params: TrapParams, t_max, n_points) -> tuple[np.ndarray, np.ndarray]:
    """The times and dI of ``spintrap transient``: ``n_points`` times from 0
    to ``t_max`` and the trapped fraction's biexponential, on numpy arrays."""
    t = np.linspace(0.0, t_max, n_points)
    k_c = params.capture_rate_per_second
    k_e = params.emission_rate_per_second
    d = abs(k_c - k_e)
    rise = -np.expm1(-d * t) / d if d else t
    return t, -params.coupling_amplitude_amperes * (flip_fraction * k_c * np.exp(-min(k_c, k_e) * t) * rise)
