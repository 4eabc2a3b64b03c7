"""Analytic references that the tests compare the program against.

No command runs these; they are closed forms (and a scipy peak search) that
give the numbers the engine, the fitter and the spectrum must reproduce.
"""

import numpy as np
from scipy.signal import find_peaks

from spintrap import fitkit
from spintrap.spincore import RelaxationParams
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
    trapped = trapped_fraction(flip_fraction, params, t)
    aligned = 1.0 - flipped - trapped
    mz = aligned - flipped  # trapped singlets contribute zero
    return SignalTrace(
        axis_kind="time",
        x=tuple(t),
        y=tuple(mz),
        units="dimensionless",
        meta={"flip_fraction": flip_fraction},
    )


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
