"""Output checks for the benchmark's CLI calls.

Each check reads one output file and returns ``None`` when it passes or a
one-line reason when it fails.  The checks use physical tolerances, not
golden bytes, so they hold on any workload seed and survive a change of
random-number layout that keeps the physics.
"""

from __future__ import annotations

import json
import math

# Hahn echo closed loop: pulsed_defaults.json values.  With its 128x32
# trajectories the fitted T2 scatters by 2.3% (SD over 30 seeds) and T_S by
# 1.5% around the true values, so 5% (acceptance criterion 06, one fixed
# seed) fails on about one seed in 40; 10% is over 4 SD for both.
ECHO_T2_S, ECHO_TS_S, ECHO_REL = 160e-6, 200e-6, 0.10
# three_pulse_ed_echo.seq: the Hahn pair refocuses at tr = 80 us
CHARGE_ECHO_S = 80e-6
# default spectrum: dangling bond, then the 31P hyperfine pair, in Tesla
SPECTRUM_PEAKS_T = (8.56988, 8.57806, 8.58226)
SPECTRUM_STEP_T = 2e-5
# default transient: the trapped population peaks at ln(k_c/k_e)/(k_c-k_e)
TRANSIENT_DIP_S = 335e-6
TRAP_RATES = {"emission_rate_per_second": 400.0, "capture_rate_per_second": 1e4}
TRAP_REL = 0.02
# nutation.seq at the default drive: the first minimum is the pi time
PI_TIME_S = 480e-9


def read_csv(path: str) -> tuple[list[float], list[float]]:
    """x and y columns of a spintrap trace CSV."""
    xs, ys = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line == "x,y":
                continue
            x, y = line.split(",")[:2]
            xs.append(float(x))
            ys.append(float(y))
    return xs, ys


def _rows(path: str, expected: int):
    xs, ys = read_csv(path)
    if len(xs) != expected:
        return None, f"{path}: {len(xs)} rows, expected {expected}"
    if not all(math.isfinite(v) for v in xs + ys):
        return None, f"{path}: non-finite value"
    return (xs, ys), None


def _within_step(what: str, found: float, expected: float, step: float):
    if abs(found - expected) > step * (1 + 1e-9):
        return f"{what} at {found:.6g}, expected {expected:.6g} within {step:.3g}"
    return None


def echo_trace(path: str):
    data, problem = _rows(path, 25)
    if problem:
        return problem
    if not all(y > 0 for y in data[1]):
        return f"{path}: echo amplitude not positive"
    return None


def echo_fit(path: str):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    params = report["params"]
    for key, expected in (("t2_seconds", ECHO_T2_S), ("t_s_seconds", ECHO_TS_S)):
        if abs(params[key] / expected - 1) > ECHO_REL:
            return f"{key} = {params[key]:.4g}, expected {expected:.4g} within {ECHO_REL:.0%}"
    preferred = report["comparison"]["preferred"]
    if preferred != "echo_cubic":
        return f"model comparison prefers {preferred}, expected echo_cubic"
    return None


def charge_trace(path: str):
    data, problem = _rows(path, 61)
    if problem:
        return problem
    xs, ys = data
    if not all(y < 0 for y in ys):
        return f"{path}: charge not negative everywhere"
    top = max(range(len(ys)), key=ys.__getitem__)
    return _within_step("charge maximum", xs[top], CHARGE_ECHO_S, xs[1] - xs[0])


def spectrum_trace(path: str):
    data, problem = _rows(path, 2001)
    if problem:
        return problem
    xs, ys = data
    floor = 0.02 * min(ys)  # dips shallower than 2% of the deepest are ignored
    dips = [xs[i] for i in range(1, len(ys) - 1)
            if ys[i] < ys[i - 1] and ys[i] <= ys[i + 1] and ys[i] < floor]
    if len(dips) != len(SPECTRUM_PEAKS_T):
        return f"{len(dips)} spectrum dips, expected {len(SPECTRUM_PEAKS_T)}"
    for found, expected in zip(dips, SPECTRUM_PEAKS_T):
        problem = _within_step("spectrum dip", found, expected, SPECTRUM_STEP_T)
        if problem:
            return problem
    return None


def transient_trace(path: str):
    data, problem = _rows(path, 1501)
    if problem:
        return problem
    xs, ys = data
    low = min(range(len(ys)), key=ys.__getitem__)
    return _within_step("transient dip", xs[low], TRANSIENT_DIP_S, xs[1] - xs[0])


def nutation_trace(path: str):
    data, problem = _rows(path, 81)
    if problem:
        return problem
    if not all(-1.0 <= y <= 1.0 for y in data[1]):
        return f"{path}: mz outside [-1, 1]"
    return None


def nutation_seq_trace(path: str):
    data, problem = _rows(path, 100)
    if problem:
        return problem
    xs, ys = data
    first_min = next((i for i in range(1, len(ys) - 1)
                      if ys[i] < ys[i - 1] and ys[i] <= ys[i + 1]), None)
    if first_min is None:
        return f"{path}: no nutation minimum"
    return _within_step("first nutation minimum", xs[first_min], PI_TIME_S, xs[1] - xs[0])


def trap_fit(path: str):
    with open(path, encoding="utf-8") as fh:
        params = json.load(fh)["params"]
    for key, expected in TRAP_RATES.items():
        if abs(params[key] / expected - 1) > TRAP_REL:
            return f"{key} = {params[key]:.6g}, expected {expected:.6g} within {TRAP_REL:.0%}"
    return None
