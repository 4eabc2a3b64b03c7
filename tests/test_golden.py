"""Regenerate the shipped golden traces and compare against the committed
files; fit the committed traces and compare against the pinned reports."""

import json
from pathlib import Path

import numpy as np
import pytest

from spintrap.cli import main
from spintrap.trace import read_trace_csv

SEQ_DIR = Path(__file__).resolve().parents[1] / "src" / "spintrap" / "sequences" / "v1"


def _compare(golden_path, fresh_path):
    golden = read_trace_csv(str(golden_path))
    fresh = read_trace_csv(str(fresh_path))
    assert golden.meta.get("config_hash") == fresh.meta.get("config_hash")
    np.testing.assert_allclose(fresh.x, golden.x, rtol=1e-12, atol=0)
    np.testing.assert_allclose(fresh.y, golden.y, rtol=1e-10, atol=1e-30)


def test_golden_spectrum(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--out", str(out), "--seed", "31415"]) == 0
    _compare(SEQ_DIR / "golden_spectrum.csv", out)


def test_golden_transient(tmp_path):
    out = tmp_path / "transient.csv"
    assert main(["transient", "--out", str(out), "--seed", "31415"]) == 0
    _compare(SEQ_DIR / "golden_transient.csv", out)


def _compare_run(tmp_path, name, config="pulsed_defaults"):
    out = tmp_path / f"{name}.csv"
    rc = main([
        "run", str(SEQ_DIR / f"{name}.seq"),
        "--config", str(SEQ_DIR / f"{config}.json"),
        "--out", str(out), "--seed", "31415", "--n-static", "16", "--n-noise", "4",
    ])
    assert rc == 0
    _compare(SEQ_DIR / f"golden_{name}.csv", out)


def test_golden_hahn_echo(tmp_path):
    _compare_run(tmp_path, "hahn_echo")


def test_golden_three_pulse_ed_echo(tmp_path):
    # the charge channel: the echo converted through the trap model
    _compare_run(tmp_path, "three_pulse_ed_echo")


def test_golden_nutation(tmp_path):
    _compare_run(tmp_path, "nutation")


def test_golden_readout_vee(tmp_path):
    _compare_run(tmp_path, "readout_vee")


def test_golden_inversion_recovery(tmp_path):
    _compare_run(tmp_path, "inversion_recovery", "inversion_recovery")


# the fit reports on the committed golden traces, pinned to 1e-10 relative
_ECHO_CUBIC = {
    "params": {"amplitude": 0.5745209194829837, "t2_seconds": 0.00016435022137870515,
               "t_s_seconds": 0.00018949488577308887},
    "param_uncertainties": {"amplitude": 0.007269735894952368, "t2_seconds": 7.070801524598225e-06,
                            "t_s_seconds": 3.9824564869889486e-06},
}
_EXP_DECAY = {
    "params": {"amplitude": 0.6874812042661244, "t2_seconds": 9.235599565310504e-05},
    "param_uncertainties": {"amplitude": 0.028065824101613426, "t2_seconds": 4.7693352154709365e-06},
}


def _fit_report(tmp_path, golden, flags):
    out = tmp_path / "fit.json"
    assert main(["fit", str(SEQ_DIR / golden), *flags, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["converged"] is True
    return report


def _assert_pinned(report, pinned):
    for key in ("params", "param_uncertainties"):
        assert report[key] == pytest.approx(pinned[key], rel=1e-10, abs=0), key


@pytest.mark.parametrize("flags, pinned, delta", [
    (["--model", "echo_cubic"], _ECHO_CUBIC, None),
    (["--model", "exp_decay"], _EXP_DECAY, None),
    (["--model", "echo_cubic", "--compare-with", "exp_decay"], _ECHO_CUBIC, -76.06676765175808),
], ids=["echo_cubic", "exp_decay", "compare-with"])
def test_golden_fit_hahn_echo(tmp_path, flags, pinned, delta):
    report = _fit_report(tmp_path, "golden_hahn_echo.csv", flags)
    _assert_pinned(report, pinned)
    if delta is not None:
        assert report["comparison"]["preferred"] == "echo_cubic"
        assert report["comparison"]["delta_criterion"] == pytest.approx(delta, rel=1e-10, abs=0)


def test_golden_fit_transient(tmp_path):
    report = _fit_report(tmp_path, "golden_transient.csv", ["--model", "trap_biexp"])
    params = {"amplitude": 6.917119301572843e-10, "capture_rate_per_second": 9999.99999999999,
              "emission_rate_per_second": 399.9999999999999}
    assert report["params"] == pytest.approx(params, rel=1e-10, abs=0)
    # the trace is noiseless, so its sigmas are rounding noise (about 1e-17
    # of each parameter here), bounded rather than pinned
    for name, sigma in report["param_uncertainties"].items():
        assert 0 <= sigma < 1e-9 * report["params"][name], name
