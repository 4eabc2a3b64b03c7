"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from reference import echo_envelope_analytic, find_dips, inversion_recovery_curve, spin_recovery_curve
from spintrap.blochsim import _apply_rotation, _pulse_rotation, run_program
from spintrap.cli import main
from spintrap.fitkit import compare_models, fit
from spintrap.seqlang import (
    AcquireStmt,
    SequenceError,
    parse,
    statement_duration,
    unparse,
)
from spintrap.spectrum import SweepSpec, simulate_field_sweep
from spintrap.spincore import (
    PHOSPHORUS,
    EnsembleSpec,
    Environment,
    RelaxationParams,
    SpinSpecies,
    resonance_lines,
    thermal_polarization,
)
from spintrap.trace import SignalTrace
from spintrap.trapdyn import TrapParams, transient_response, trapped_fraction

SEQ_DIR = Path(__file__).resolve().parents[1] / "src" / "spintrap" / "sequences" / "v1"

W1 = 2 * math.pi / (2 * 480e-9)  # rad/s at the 480 ns pi-pulse drive


def _report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def _narrow_species():
    return SpinSpecies(1.9985, 0.0, 0.0, 1e-30)


def _resonant_env(species):
    (b_res, _), = resonance_lines(species, 240e9)
    return Environment(static_field_tesla=b_res)


def _hahn(tau):
    return parse(f"pulse pi/2 +x\ndelay {tau!r}s\npulse pi +x\ndelay {tau!r}s\nacquire echo\n")


def test_criterion_01_spectrum_positions():
    start = time.perf_counter()
    step = 2e-5
    sweep = SweepSpec(8.560, 8.600, int(round((8.600 - 8.560) / step)) + 1,
                      phosphorus_amplitude_amperes=1.0, db_amplitude_ratio=0.05)
    trace = SignalTrace("field", *simulate_field_sweep(PHOSPHORUS, Environment(), sweep), "A")
    peaks = find_dips(trace, 0.02)
    assert len(peaks) == 3
    (db_field, db_depth), (lo_field, lo_depth), (hi_field, hi_depth) = peaks
    assert hi_field - lo_field == pytest.approx(4.2e-3, abs=step)
    assert (lo_field + hi_field) / 2 == pytest.approx(8.580, abs=1e-3)
    assert db_field == pytest.approx(8.570, abs=1e-3)
    assert PHOSPHORUS.nuclear_polarization < 0 and hi_depth > lo_depth
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"doublet split {1e3*(hi_field-lo_field):.2f} mT centered "
               f"{(lo_field+hi_field)/2:.4f} T, db at {db_field:.4f} T, "
               f"high-field taller ({elapsed:.2f} s)")


def test_criterion_02_thermal_polarization():
    p = thermal_polarization(1.9985, 8.6, 2.8)
    assert p == pytest.approx(0.968, abs=1e-3)
    assert p > 0.95
    _report(2, f"polarization {p:.4f} (0.968 +/- 0.001, above the 95% bound)")


def _pulse(v, duration, det):
    """The engine's +x pulse kernel on one Bloch vector."""
    rotation = _pulse_rotation(np.full(1, det), W1, "+x", duration)
    return [c[0] for c in _apply_rotation(rotation, *(np.full(1, c) for c in v))]


def test_criterion_03_pulse_algebra():
    start = time.perf_counter()
    mx, my, mz = _pulse((0, 0, 1), 480e-9, 0.0)
    assert mz == pytest.approx(-1.0, abs=1e-9)
    assert abs(mx) < 1e-9 and abs(my) < 1e-9

    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(1000):
        v = rng.normal(size=3)
        v /= max(np.linalg.norm(v), 1.0)
        det = rng.normal() * 5e6
        two = _pulse(_pulse(v, 240e-9, det), 240e-9, det)
        one = _pulse(v, 480e-9, det)
        worst = max(
            worst,
            abs(two[0] - one[0]),
            abs(two[1] - one[1]),
            abs(two[2] - one[2]),
        )
    assert worst < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, f"pi inversion to 1e-9, composition worst dev {worst:.1e} on "
               f"1000 states ({elapsed:.2f} s)")


def test_criterion_04_inversion_recovery():
    start = time.perf_counter()
    t1 = 2.5e-3
    grid_step = 20e-6
    grid = np.arange(1e-6, 12e-3, grid_step)
    trace = inversion_recovery_curve(grid, t1, m_eq=0.968)
    y = trace.y
    i = int(np.argmax(y >= 0))
    crossing_target = t1 * math.log(2)  # 1.7329 ms
    assert abs(grid[i] - crossing_target) <= grid_step

    rng = np.random.default_rng(4)
    x = np.linspace(1e-4, 12e-3, 25)
    noisy = 0.968 * (1 - 2 * np.exp(-x / t1)) + 0.01 * rng.standard_normal(len(x))
    res = fit("inversion_recovery", SignalTrace("tau", tuple(x), tuple(noisy)))
    t1_fit = res.params["t1_seconds"]
    assert t1_fit == pytest.approx(t1, rel=0.02)
    assert abs(t1_fit - t1) <= 0.1e-3  # inside the quoted 2.5 +/- 0.1 ms
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, f"zero crossing at {grid[i]*1e3:.3f} ms (target 1.733), "
               f"T1 refit {t1_fit*1e3:.3f} ms ({elapsed:.1f} s)")


def test_criterion_05_echo_noise_calibration():
    start = time.perf_counter()
    species = _narrow_species()
    env = _resonant_env(species)
    relax = RelaxationParams(t1_seconds=1.0, t2_seconds=160e-6, t_s_seconds=200e-6)
    ensemble = EnsembleSpec(n_static=1, n_noise=100000, rng_seed=20260810)
    lines = []
    for tau in (40e-6, 80e-6, 120e-6):
        trace = run_program(_hahn(tau), env, species, relax, ensemble, TrapParams())["echo"]
        m0 = trace.meta["equilibrium_mz"]
        amp = trace.y[0] / m0
        se = trace.y_stderr[0] / m0
        expected = echo_envelope_analytic(tau, relax)
        dev = abs(amp - expected) / se
        assert dev <= 3.0, f"tau={tau}: {amp} vs {expected} is {dev:.2f} sigma"
        lines.append(f"tau={tau*1e6:.0f}us {amp:.4f} vs {expected:.4f} ({dev:.2f} se)")
    assert echo_envelope_analytic(80e-6, relax) == pytest.approx(0.2205, abs=1e-4)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(5, "; ".join(lines) + f" at 1e5 trajectories ({elapsed:.0f} s)")


def test_criterion_06_closed_loop_fit():
    species = _narrow_species()
    env = _resonant_env(species)
    relax = RelaxationParams(t1_seconds=1.0, t2_seconds=160e-6, t_s_seconds=200e-6)
    ensemble = EnsembleSpec(n_static=1, n_noise=8192, rng_seed=11)
    taus = np.linspace(10e-6, 250e-6, 25)
    amps = []
    for tau in taus:
        trace = run_program(_hahn(float(tau)), env, species, relax, ensemble, TrapParams())["echo"]
        amps.append(trace.y[0] / trace.meta["equilibrium_mz"])
    sim_trace = SignalTrace("tau", tuple(taus), tuple(amps))
    res = fit("echo_cubic", sim_trace)
    t2, t_s = res.params["t2_seconds"], res.params["t_s_seconds"]
    assert t2 == pytest.approx(160e-6, rel=0.05)
    assert t_s == pytest.approx(200e-6, rel=0.05)

    # exponential-only comparison on the noiseless analytic curve
    clean = SignalTrace("tau", tuple(taus), tuple(echo_envelope_analytic(taus, relax)))
    exp_res = fit("exp_decay", clean)
    t_exp = exp_res.params["t2_seconds"]
    assert 88e-6 <= t_exp <= 128e-6  # 108 +/- 20 us, widened for the unknown grid
    cmp = compare_models(sim_trace, "echo_cubic", "exp_decay")
    assert cmp.preferred == "echo_cubic"
    _report(6, f"MC refit T2={t2*1e6:.1f}us T_S={t_s*1e6:.1f}us (<=5%), "
               f"exp-only {t_exp*1e6:.1f}us in [88,128]us, cubic preferred")


def test_criterion_07_trap_transient():
    start = time.perf_counter()
    params = TrapParams()  # k_c = 1e4/s, k_e = 400/s presets
    grid = np.linspace(0.0, 15e-3, 30001)
    trace = SignalTrace("time", grid, transient_response(1.0, params, grid.tolist()), "A")
    y = trace.y
    assert np.all(y <= 0)
    t_peak = grid[int(np.argmin(y))]
    assert t_peak == pytest.approx(335e-6, abs=5e-6)

    res = fit("trap_biexp", trace)
    tail = 1.0 / res.params["emission_rate_per_second"]
    assert tail == pytest.approx(2.5e-3, rel=0.02)

    # closed form versus fixed-step RK4 on the rate equations, 0.1% everywhere
    k_c, k_e = params.capture_rate_per_second, params.emission_rate_per_second
    dt = 1.0 / (100 * k_c)
    n = int(10e-3 / dt)
    d, m = 1.0, 0.0
    worst = 0.0
    scale = float(trapped_fraction(1.0, params, 335e-6))
    for i in range(n):
        def deriv(d, m):
            return -k_c * d, k_c * d - k_e * m
        k1 = deriv(d, m)
        k2 = deriv(d + dt / 2 * k1[0], m + dt / 2 * k1[1])
        k3 = deriv(d + dt / 2 * k2[0], m + dt / 2 * k2[1])
        k4 = deriv(d + dt * k3[0], m + dt * k3[1])
        d += dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        m += dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if i % 50 == 0:
            closed = float(trapped_fraction(1.0, params, (i + 1) * dt))
            worst = max(worst, abs(m - closed) / scale)
    assert worst < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(7, f"extremum {t_peak*1e6:.0f}us, tail {tail*1e3:.3f}ms, dI<=0, "
               f"ODE-vs-closed worst {worst:.1e} ({elapsed:.1f} s)")


def test_criterion_08_trapping_as_t1():
    k_e = 400.0
    params = TrapParams(capture_rate_per_second=25 * k_e, emission_rate_per_second=k_e)
    t = np.linspace(0.0, 20e-3, 2001)
    trace = spin_recovery_curve(params, t)
    deficit = 1.0 - trace.y
    sel = (t > 0.5e-3) & (deficit > 1e-10)
    res = fit(
        "exp_decay",
        SignalTrace("time", tuple(t[sel]), tuple(deficit[sel])),
    )
    # exp_decay uses the 2/T echo convention; recovery constant = T/2
    recovery = res.params["t2_seconds"] / 2.0
    assert recovery == pytest.approx(1.0 / k_e, rel=0.05)
    _report(8, f"mz recovery constant {recovery*1e3:.3f} ms vs 1/k_e = "
               f"{1e3/k_e:.3f} ms at k_c = 25 k_e")


def _random_source(rng):
    times = ["20ns", "480ns", "1us", "80us", "2ms", "1s", "333us"]
    angles = ["pi", "pi/2", "45deg", "123deg"]
    phases = ["+x", "+y", "-x", "-y"]
    channels = ["echo", "mz", "charge"]
    lines = []
    has_sweep = rng.random() < 0.5
    if has_sweep:
        lines.append(f"sweep tau {rng.choice(times)} {rng.choice(times)} {rng.randint(1, 40)}")
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(["pulse", "delay", "acquire"])
        if kind == "pulse":
            dur = rng.choice(["", f" dur={rng.choice(times)}"] + ([" dur=tau"] if has_sweep else []))
            lines.append(f"pulse {rng.choice(angles)} {rng.choice(phases)}{dur}")
        elif kind == "delay":
            dur = rng.choice(times + (["tau"] if has_sweep else []))
            lines.append(f"delay {dur}")
        else:
            window = rng.choice(["", f" window={rng.choice(times)}"])
            lines.append(f"acquire {rng.choice(channels)}{window}")
    lines.append(f"acquire {rng.choice(channels)}")
    return "\n".join(lines)


BAD_SEQUENCES = [
    "delay -5us",
    "pulse pi +z\nacquire mz",
    "pulse +x\nacquire mz",
    "pulse pi/3 +x\nacquire mz",
    "delay 5lightyears\nacquire mz",
    "acquire voltage",
    "sweep tau 1us 2us 0\nacquire mz",
    "sweep tau 1us 2us -3\nacquire mz",
    "sweep a 1us 2us 3\nsweep b 1us 2us 3\nacquire mz",
    "delay tau\nacquire mz",
    "pulse pi +x dur=0ns\nacquire mz",
    "acquire mz window=oops",
]


def test_criterion_09_parser():
    rng = random.Random(20260810)
    for _ in range(1000):
        source = _random_source(rng)
        ast = parse(source)
        assert parse(unparse(ast)) == ast

    env = Environment()
    resolved = 0
    for name in ("nutation", "inversion_recovery", "hahn_echo", "three_pulse_ed_echo"):
        ast = parse((SEQ_DIR / f"{name}.seq").read_text())
        sweep = ast.sweep
        for stmt in ast.statements:
            duration = statement_duration(stmt, env, sweep.start if sweep else None)
            # every statement takes time but an acquire without a window
            if isinstance(stmt, AcquireStmt) and stmt.window is None:
                assert duration == 0.0
            else:
                assert 0.0 < duration < math.inf
        resolved += 1

    for source in BAD_SEQUENCES:
        with pytest.raises(SequenceError) as err:
            parse(source)
        assert err.value.line is not None
    _report(9, f"1000 generated round trips, {resolved} shipped sequences "
               f"resolve to positive durations, {len(BAD_SEQUENCES)} bad files rejected with line numbers")


def test_criterion_10_reproducibility(tmp_path):
    config = str(SEQ_DIR / "pulsed_defaults.json")
    sections = []
    for tag, workers in (("a", "1"), ("b", "4")):
        out = tmp_path / f"{tag}.csv"
        rc = main([
            "run", str(SEQ_DIR / "hahn_echo.seq"), "--config", config,
            "--out", str(out), "--seed", "424242", "--workers", workers,
            "--n-static", "32", "--n-noise", "8",
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        sections.append("\n".join(l for l in lines if not l.startswith("# created=")))
    assert sections[0] == sections[1]
    _report(10, "identical seed gives byte-identical data sections with 1 and 4 workers")
