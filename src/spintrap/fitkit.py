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

Fitting is derivative-free Nelder-Mead with eight deterministic multi-starts
whose time-constant guesses are decade-spaced across the x range; time
constants and rates are parameterized in log space so positivity needs no
constraints.  A simplex vertex where the model overflows or is undefined
scores ``inf`` and is rejected.  Data are normalized to unit peak
internally, which makes the fit exactly scale-equivariant.  1-sigma
uncertainties come from the Gauss-Newton covariance
``(rss / dof) * pinv(J^T J)``, the one ``scipy.optimize.curve_fit``
reports, with ``J`` the central-difference Jacobian of the residuals at the
optimum.  ``pinv`` gives a direction the data do not constrain (a singular
value of ``J`` at most ``_RANK_RTOL`` times the largest) sigma 0; its
dominant parameter gets sigma ``inf`` instead, and
:meth:`FitResult.require_constrained` refuses such a fit.  Every other
trace the models cannot fit raises :class:`DegenerateDataError` in
:func:`fit`.

The optimizer is ``scipy.optimize.minimize``, imported on the first call of
the module-level :func:`minimize`: the import takes about 0.6 s, and only
``fit`` pays it, not every command that imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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


# J is a central difference with step ~1e-6, so its columns carry relative
# errors of ~1e-10; a singular value below 1e-8 of the largest is noise.
_RANK_RTOL = 1e-8


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on first use."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


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
    param_names: tuple[str, ...]
    param_kinds: tuple[str, ...]  # "scale" (linear, tracks y units) or "log"
    predict: Callable
    starts: Callable  # (x, y_norm) -> list of internal start vectors
    normalize: Callable | None = None  # canonicalize physical params after fit

    @property
    def n_params(self) -> int:
        return len(self.param_names)


def _decade_guesses(x: np.ndarray) -> np.ndarray:
    # Eight guesses, half-decade spaced, bracketing the x span.
    return x[-1] * 10.0 ** np.arange(-3.0, 1.0, 0.5)


def _exp_decay_predict(x, p):
    a, t = p
    return a * np.exp(-2.0 * x / t)


def _exp_decay_starts(x, y):
    return [np.array([y[0] if y[0] != 0 else 1.0, math.log(t)]) for t in _decade_guesses(x)]


def _inversion_predict(x, p):
    m_eq, t1 = p
    return m_eq * (1.0 - 2.0 * np.exp(-x / t1))


def _inversion_starts(x, y):
    m0 = y[-1] if y[-1] != 0 else 1.0
    return [np.array([m0, math.log(t)]) for t in _decade_guesses(x)]


def _echo_cubic_predict(x, p):
    a, t2, t_s = p
    # float64, not a Python float, so a huge t_s overflows to inf instead of raising
    return a * np.exp(-2.0 * x / t2 - 8.0 * x**3 / np.float64(t_s) ** 3)


def _echo_cubic_starts(x, y):
    a0 = y[0] if y[0] != 0 else 1.0
    return [np.array([a0, math.log(t), math.log(2.0 * t)]) for t in _decade_guesses(x)]


def _trap_biexp_predict(x, p):
    a, k_e, k_c = p
    if math.isclose(k_e, k_c, rel_tol=1e-12):
        return -a * k_c * x * np.exp(-k_c * x)
    return -a * (np.exp(-k_e * x) - np.exp(-k_c * x))


def _trap_biexp_starts(x, y):
    a0 = float(np.max(np.abs(y)))
    if a0 == 0:
        a0 = 1.0
    return [np.array([a0, math.log(1.0 / t), math.log(20.0 / t)]) for t in _decade_guesses(x)]


def _trap_biexp_normalize(p):
    a, k_e, k_c = p
    if k_c < k_e:  # swap symmetry: exchanging rates flips the bracket's sign
        k_e, k_c, a = k_c, k_e, -a
    return a, k_e, k_c


_MODELS: dict[str, _ModelDef] = {
    "exp_decay": _ModelDef(
        param_names=("amplitude", "t2_seconds"),
        param_kinds=("scale", "log"),
        predict=_exp_decay_predict,
        starts=_exp_decay_starts,
    ),
    "inversion_recovery": _ModelDef(
        param_names=("equilibrium_mz", "t1_seconds"),
        param_kinds=("scale", "log"),
        predict=_inversion_predict,
        starts=_inversion_starts,
    ),
    "echo_cubic": _ModelDef(
        param_names=("amplitude", "t2_seconds", "t_s_seconds"),
        param_kinds=("scale", "log", "log"),
        predict=_echo_cubic_predict,
        starts=_echo_cubic_starts,
    ),
    "trap_biexp": _ModelDef(
        param_names=("amplitude", "emission_rate_per_second", "capture_rate_per_second"),
        param_kinds=("scale", "log", "log"),
        predict=_trap_biexp_predict,
        starts=_trap_biexp_starts,
        normalize=_trap_biexp_normalize,
    ),
}

MODEL_IDS = tuple(_MODELS)


def _exp(v: float) -> float:
    # nan where exp leaves the positive finite floats: the model is undefined
    # there, so the objective rejects the simplex vertex
    try:
        value = math.exp(v)
    except OverflowError:
        return math.nan
    return value if 0.0 < value < math.inf else math.nan


def _to_physical(model: _ModelDef, internal: np.ndarray) -> tuple:
    return tuple(_exp(v) if kind == "log" else v for v, kind in zip(internal, model.param_kinds))


def _to_internal(model: _ModelDef, physical: Sequence[float]) -> np.ndarray:
    out = []
    for v, kind in zip(physical, model.param_kinds):
        if kind == "log":
            if v <= 0:
                raise ValueError(f"log-space parameter must be > 0, got {v}")
            out.append(math.log(v))
        else:
            out.append(float(v))
    return np.asarray(out)


def model_predict(model_id: str, x, params: dict) -> np.ndarray:
    """Evaluate a model curve from a fitted (or constructed) parameter dict."""
    model = _get_model(model_id)
    p = tuple(params[name] for name in model.param_names)
    return model.predict(np.asarray(x, dtype=float), p)


def _get_model(model_id: str) -> _ModelDef:
    if model_id not in _MODELS:
        raise ValueError(f"unknown model {model_id!r}; expected one of {MODEL_IDS}")
    return _MODELS[model_id]


def _residual_jacobian(residuals: Callable, theta: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of the residual vector, one column per parameter."""
    h = 1e-6 * (1.0 + np.abs(theta))
    return np.column_stack(
        [(residuals(theta + step) - residuals(theta - step)) / (2.0 * hi)
         for step, hi in zip(np.diag(h), h)]
    )


# Start guesses, simplex vertices, Jacobian steps and the rescaled results may
# overflow; the objective scores such a vertex inf and every result is checked.
@np.errstate(all="ignore")
def fit(model_id: str, trace: SignalTrace, initial_guess: dict | None = None) -> FitResult:
    """Least-squares fit of one model to a trace.

    With ``initial_guess`` (a dict of physical parameter values keyed like
    the result params) the fit runs from that single start instead of the
    eight default multi-starts.  A parameter the data do not constrain gets
    uncertainty ``inf``; :meth:`FitResult.require_constrained` refuses it.

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

    def residuals(theta):
        return model.predict(x, _to_physical(model, theta)) - y_norm

    def objective(theta):
        resid = residuals(theta)
        rss = float(resid @ resid)
        return rss if math.isfinite(rss) else math.inf

    if initial_guess is not None:
        physical = [initial_guess[name] for name in model.param_names]
        # scale-kind entries live in y units; normalize to match y_norm
        physical = [
            v / scale if kind == "scale" else v
            for v, kind in zip(physical, model.param_kinds)
        ]
        starts = [_to_internal(model, physical)]
    else:
        starts = model.starts(x, y_norm)

    options = dict(xatol=1e-11, fatol=1e-15, maxiter=6000, maxfev=8000)
    runs = [minimize(objective, x0, method="Nelder-Mead", options=options) for x0 in starts]
    best = min(runs, key=lambda res: res.fun)  # ties keep the earliest start

    theta = best.x
    physical = _to_physical(model, theta)
    if model.normalize is not None:
        physical = model.normalize(physical)
        theta = _to_internal(model, physical)

    # Gauss-Newton covariance in the internal parameters, as curve_fit reports it
    rss_norm = float(best.fun)
    jac = _residual_jacobian(residuals, theta)
    if not np.all(np.isfinite(jac)):  # pinv would turn an infinite column into sigma 0
        raise DegenerateDataError(f"fit of {model_id!r} has a non-finite Jacobian at the optimum")
    cov = rss_norm / (n - model.n_params) * np.linalg.pinv(jac.T @ jac)
    sigmas_internal = np.sqrt(np.clip(np.diag(cov), 0.0, np.inf))

    params = {}
    uncertainties = {}
    for name, kind, value, sig in zip(model.param_names, model.param_kinds, physical, sigmas_internal):
        if kind == "scale":
            params[name] = value * scale
            uncertainties[name] = sig * scale
        else:
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
        converged=bool(best.success),
    )


def _aicc(n: int, k: int, rss: float) -> float:
    # small-sample information criterion; rss floored to keep it finite
    rss = max(rss, n * 1e-280)
    return n * math.log(rss / n) + 2.0 * k * n / (n - k - 1)


def compare_models(trace: SignalTrace, model_a: str, model_b: str) -> ModelComparison:
    """Fit both models and prefer the lower small-sample information criterion.

    ``delta_criterion`` is ``criterion(model_a) - criterion(model_b)``; ties
    prefer ``model_a``.  A fit may leave a parameter unconstrained
    (uncertainty ``inf``): an extra parameter the data do not need is what
    the comparison is there to find.  Raises :class:`DegenerateDataError` if
    either fit fails to converge.
    """
    fit_a = fit(model_a, trace)
    fit_b = fit(model_b, trace)
    for f in (fit_a, fit_b):
        if not f.converged:
            raise DegenerateDataError(f"fit of {f.model_id!r} did not converge; cannot compare")
    n = len(trace)
    delta = _aicc(n, len(fit_a.params), fit_a.rss) - _aicc(n, len(fit_b.params), fit_b.rss)
    return ModelComparison(
        preferred=model_a if delta <= 0 else model_b,
        delta_criterion=delta,
        fit_a=fit_a,
        fit_b=fit_b,
    )
