"""Nonlinear least-squares extraction of relaxation times and trap rates.

Four decay models cover the toolkit's observables:

``exp_decay``
    ``a * exp(-2 tau / T)`` -- the echo-decay exponential (the infinite-T_S
    limit of ``echo_cubic``), so the reported constant follows the same
    convention as the coherence time it approximates.
``inversion_recovery``
    ``m_eq * (1 - 2 exp(-tau / T1))``.
``echo_cubic``
    ``a * exp(-2 tau / T2 - 8 tau^3 / T_S^3)``.
``trap_biexp``
    ``-a * (exp(-k_e t) - exp(-k_c t))`` with ``k_c >= k_e`` normalized.

Every model is ``a * g(x; q)``: linear in its amplitude ``a`` and nonlinear
in one or two time constants or rates ``q``.  Fitting is separable least
squares by variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10,
413 (1973)): for a given ``q`` the best amplitude is ``(g . y) / (g . g)``
in closed form, so Levenberg-Marquardt only searches ``log q``, with the
analytic Jacobian of the projected residual.  It runs from eight
deterministic starts whose time-constant guesses are decade-spaced across
the x range and keeps the lowest rss; a start stops when the residual is
orthogonal to the Jacobian to ``_GTOL`` or its step falls below ``_XTOL``
in ``log q``.  Log space keeps time constants and rates positive without
constraints.  A trial point where the model overflows or is undefined
scores ``inf`` and is rejected.  Data are normalized to unit peak
internally, which makes the fit exactly scale-equivariant.  The solver is
numpy alone; nothing here imports scipy.

1-sigma uncertainties come from the Gauss-Newton covariance
``(rss / dof) * pinv(J^T J)``, the one ``scipy.optimize.curve_fit`` reports,
with ``J`` the analytic Jacobian of the model in ``(a, log q)`` at the
optimum.  ``pinv`` gives a direction the data do not constrain (a singular
value of ``J`` at most ``_RANK_RTOL`` times the largest) sigma 0; its
dominant parameter gets sigma ``inf`` instead, and
:meth:`FitResult.require_constrained` refuses such a fit.  Every other
trace the models cannot fit raises :class:`DegenerateDataError` in
:func:`fit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .trace import SignalTrace

__all__ = [
    "FitResult",
    "ModelComparison",
    "DegenerateDataError",
    "MODEL_IDS",
    "fit",
    "compare_models",
    "model_predict",
]


class DegenerateDataError(ValueError):
    """The trace cannot be fitted: too few points, constant y, a non-finite
    result, a parameter the data do not constrain, or (in
    :func:`compare_models`) a fit that did not converge."""


# J is analytic, so it carries only rounding error, but the covariance inverts
# J^T J, whose condition number is J's squared: a singular value of J below
# ~sqrt(eps) = 1.5e-8 of the largest is lost to rounding in J^T J.
_RANK_RTOL = 1e-8
# Levenberg-Marquardt stops when every Jacobian column is orthogonal to the
# residual to _GTOL (cosine), or when a step in log q is below _XTOL relative;
# a start that reaches neither within _MAX_ITER iterations has not converged.
_GTOL = 1e-10
_XTOL = 1e-10
_MAX_ITER = 200


@dataclass(frozen=True)
class FitResult:
    model_id: str
    params: dict
    param_uncertainties: dict  # inf for a parameter the data do not constrain
    rss: float
    n_points: int
    converged: bool

    def require_constrained(self) -> FitResult:
        """This fit, or :class:`DegenerateDataError` naming a parameter the
        data do not constrain."""
        for name, sigma in self.param_uncertainties.items():
            if sigma == math.inf:
                raise DegenerateDataError(f"the data do not constrain {name} of model {self.model_id!r}")
        return self


@dataclass(frozen=True)
class ModelComparison:
    preferred: str
    delta_criterion: float  # criterion(model_a) - criterion(model_b)
    fit_a: FitResult
    fit_b: FitResult


@dataclass(frozen=True)
class _ModelDef:
    param_names: tuple[str, ...]  # the amplitude a, then the nonlinear q
    shape: Callable  # (x, q) -> (g, dg): model a * g, dg[:, j] = d g / d log q_j
    start: Callable  # decade-spaced time guess t -> start values of q
    normalize: Callable | None = None  # canonicalize physical params after fit

    @property
    def n_params(self) -> int:
        return len(self.param_names)


def _decade_guesses(x: np.ndarray) -> np.ndarray:
    # Eight guesses, half-decade spaced, bracketing the x span.
    return x[-1] * 10.0 ** np.arange(-3.0, 1.0, 0.5)


def _exp_decay_shape(x, q):
    (t,) = q
    g = np.exp(-2.0 * x / t)
    return g, (g * (2.0 * x / t))[:, None]


def _inversion_shape(x, q):
    (t1,) = q
    e = np.exp(-x / t1)
    return 1.0 - 2.0 * e, (-2.0 * e * (x / t1))[:, None]


def _echo_cubic_shape(x, q):
    t2, t_s = q
    # float64, not a Python float, so a huge t_s overflows to inf instead of raising
    cubic = 8.0 * x**3 / np.float64(t_s) ** 3
    g = np.exp(-2.0 * x / t2 - cubic)
    return g, np.column_stack((g * (2.0 * x / t2), g * (3.0 * cubic)))


def _trap_biexp_shape(x, q):
    k_e, k_c = q
    e_c = np.exp(-k_c * x)
    if math.isclose(k_e, k_c, rel_tol=1e-12):
        g = -k_c * x * e_c
        return g, np.column_stack((np.zeros_like(x), g * (1.0 - k_c * x)))
    e_e = np.exp(-k_e * x)
    return -(e_e - e_c), np.column_stack((k_e * x * e_e, -k_c * x * e_c))


def _trap_biexp_normalize(p):
    a, k_e, k_c = p
    if k_c < k_e:  # swap symmetry: exchanging rates flips the bracket's sign
        k_e, k_c, a = k_c, k_e, -a
    return a, k_e, k_c


_MODELS: dict[str, _ModelDef] = {
    "exp_decay": _ModelDef(
        param_names=("amplitude", "t2_seconds"),
        shape=_exp_decay_shape,
        start=lambda t: (t,),
    ),
    "inversion_recovery": _ModelDef(
        param_names=("equilibrium_mz", "t1_seconds"),
        shape=_inversion_shape,
        start=lambda t: (t,),
    ),
    "echo_cubic": _ModelDef(
        param_names=("amplitude", "t2_seconds", "t_s_seconds"),
        shape=_echo_cubic_shape,
        start=lambda t: (t, 2.0 * t),
    ),
    "trap_biexp": _ModelDef(
        param_names=("amplitude", "emission_rate_per_second", "capture_rate_per_second"),
        shape=_trap_biexp_shape,
        start=lambda t: (1.0 / t, 20.0 / t),
        normalize=_trap_biexp_normalize,
    ),
}

MODEL_IDS = tuple(_MODELS)


def _exp(v: float) -> float:
    # nan where exp leaves the positive finite floats: the model is undefined
    # there, so the solver rejects the trial point
    try:
        value = math.exp(v)
    except OverflowError:
        return math.nan
    return value if 0.0 < value < math.inf else math.nan


def model_predict(model_id: str, x, params: dict) -> np.ndarray:
    """Evaluate a model curve from a fitted (or constructed) parameter dict."""
    model = _get_model(model_id)
    a, *q = (params[name] for name in model.param_names)
    return a * model.shape(np.asarray(x, dtype=float), tuple(q))[0]


def _get_model(model_id: str) -> _ModelDef:
    if model_id not in _MODELS:
        raise ValueError(f"unknown model {model_id!r}; expected one of {MODEL_IDS}")
    return _MODELS[model_id]


def _projection(model: _ModelDef, x: np.ndarray, y: np.ndarray, theta: np.ndarray):
    """Variable projection at ``q = exp(theta)``: ``(rss, a, r, J)`` with the
    closed-form amplitude ``a``, residual ``r = y - a g`` and the
    Golub-Pereyra Jacobian ``J = dr / dtheta``; None where any is not finite."""
    g, dg = model.shape(x, tuple(_exp(v) for v in theta))
    gg = g @ g
    a = (g @ y) / gg
    r = y - a * g
    rss = float(r @ r)
    jac = -(a * (dg - np.outer(g, (g @ dg) / gg)) + np.outer(g, (r @ dg) / gg))
    if not (math.isfinite(rss) and np.all(np.isfinite(jac))):
        return None
    return rss, a, r, jac


def _levenberg_marquardt(project: Callable, theta: np.ndarray):
    """Minimize the projected rss from one start; ``(theta, state, converged)``
    with ``state`` the :func:`_projection` tuple at ``theta`` (None when the
    start itself is undefined)."""
    state = project(theta)
    if state is None:
        return theta, None, False
    damping = 1e-3
    scale = np.zeros(len(theta))
    for _ in range(_MAX_ITER):
        rss, _, r, jac = state
        grad = jac.T @ r
        jtj = jac.T @ jac
        diag = np.diag(jtj)
        if np.all(np.abs(grad) <= _GTOL * np.sqrt(diag * rss)):
            return theta, state, True
        # Marquardt's scaling by the largest squared column norm seen so far
        # (More 1978), so a parameter whose column fades (a time constant
        # running off to infinity) stays damped instead of taking huge steps
        scale = np.maximum(scale, diag)
        try:
            step = np.linalg.solve(jtj + damping * np.diag(scale), -grad)
        except np.linalg.LinAlgError:  # J^T J underflowed to 0: the model is flat here
            return theta, state, False
        trial = project(theta + step)
        if trial is not None and trial[0] < rss:
            theta, state = theta + step, trial
            damping /= 10.0
        else:
            damping *= 10.0
        if np.linalg.norm(step) <= _XTOL * (_XTOL + np.linalg.norm(theta)):
            return theta, state, True
    return theta, state, False


# Start guesses, trial points and the rescaled results may overflow; the
# projection rejects a non-finite trial point and every result is checked.
@np.errstate(all="ignore")
def fit(model_id: str, trace: SignalTrace) -> FitResult:
    """Least-squares fit of one model to a trace, from eight decade-spaced
    starts.  A parameter the data do not constrain gets uncertainty ``inf``;
    :meth:`FitResult.require_constrained` refuses it.

    Raises
    ------
    DegenerateDataError
        When the trace cannot be fitted: too few points, constant y, a
        largest x not well above 0, or a non-finite rss, parameter or
        uncertainty.
    ValueError
        For an unknown model.
    """
    model = _get_model(model_id)
    x = trace.x_array()
    y = trace.y_array()
    n = len(x)
    if n < 2 + model.n_params:
        raise DegenerateDataError(f"model {model_id!r} needs >= {2 + model.n_params} points, got {n}")
    if np.ptp(y) == 0.0:
        raise DegenerateDataError("constant y data cannot constrain a decay model")
    if not x[-1] * 1e-3 > 0.0:  # the start guesses reach three decades below the largest x
        raise DegenerateDataError(f"x must reach well above 0 to guess decay times, got max x {x[-1]:g}")

    scale = float(np.max(np.abs(y)))
    y_norm = y / scale
    starts = [np.log(model.start(t)) for t in _decade_guesses(x)]

    def project(theta):
        return _projection(model, x, y_norm, theta)

    runs = [_levenberg_marquardt(project, theta) for theta in starts]
    runs = [run for run in runs if run[1] is not None]
    if not runs:
        raise DegenerateDataError(f"model {model_id!r} is not finite at any start")
    theta, (rss_norm, a, _, _), converged = min(runs, key=lambda run: run[1][0])  # ties keep the earliest

    physical = (a, *(_exp(v) for v in theta))
    if model.normalize is not None:
        physical = model.normalize(physical)
    a, *q = physical

    # Gauss-Newton covariance in (a, log q), as curve_fit reports it
    g, dg = model.shape(x, tuple(q))
    jac = np.column_stack((g, a * dg))
    if not np.all(np.isfinite(jac)):  # pinv would turn an infinite column into sigma 0
        raise DegenerateDataError(f"fit of {model_id!r} has a non-finite Jacobian at the optimum")
    cov = rss_norm / (n - model.n_params) * np.linalg.pinv(jac.T @ jac)
    sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, np.inf))

    params = {model.param_names[0]: a * scale}
    uncertainties = {model.param_names[0]: sigmas[0] * scale}
    for name, value, sig in zip(model.param_names[1:], q, sigmas[1:]):
        params[name] = value
        uncertainties[name] = abs(value) * sig  # delta method from log space
    rss = rss_norm * scale * scale
    if not np.all(np.isfinite([rss, *params.values(), *uncertainties.values()])):
        raise DegenerateDataError(f"fit of {model_id!r} produced non-finite values")
    _, singular, vt = np.linalg.svd(jac, full_matrices=False)
    for direction in vt[singular <= _RANK_RTOL * singular[0]]:
        uncertainties[model.param_names[int(np.argmax(np.abs(direction)))]] = math.inf
    return FitResult(
        model_id=model_id,
        params=params,
        param_uncertainties=uncertainties,
        rss=rss,
        n_points=n,
        converged=converged,
    )


def _aicc(n: int, k: int, rss_unit: float) -> float:
    # small-sample information criterion of the rss in units of the peak |y|,
    # floored at the data's rounding: a residual below eps of the peak is
    # not resolved, so two fits that both reach it tie on rss
    rss_unit = max(rss_unit, n * np.finfo(float).eps ** 2)
    return n * math.log(rss_unit / n) + 2.0 * k * n / (n - k - 1)


def compare_models(trace: SignalTrace, model_a: str, model_b: str) -> ModelComparison:
    """Fit both models and prefer the lower small-sample information criterion.

    ``delta_criterion`` is ``criterion(model_a) - criterion(model_b)``; ties
    prefer ``model_a``.  Residuals below the rounding of the data count as
    zero, so on noiseless data the model with fewer parameters wins.  A fit
    may leave a parameter unconstrained (uncertainty ``inf``): an extra
    parameter the data do not need is what the comparison is there to find.
    Raises :class:`DegenerateDataError` if either fit fails to converge.
    """
    fit_a = fit(model_a, trace)
    fit_b = fit(model_b, trace)
    for f in (fit_a, fit_b):
        if not f.converged:
            raise DegenerateDataError(f"fit of {f.model_id!r} did not converge; cannot compare")
    n = len(trace)
    scale = float(np.max(np.abs(trace.y_array())))
    delta = (_aicc(n, len(fit_a.params), fit_a.rss / scale / scale)
             - _aicc(n, len(fit_b.params), fit_b.rss / scale / scale))
    return ModelComparison(
        preferred=model_a if delta <= 0 else model_b,
        delta_criterion=delta,
        fit_a=fit_a,
        fit_b=fit_b,
    )
