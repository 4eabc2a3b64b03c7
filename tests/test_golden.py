"""Re-run each shipped golden trace from its own header and compare against
the committed data; fit the committed traces and compare against the pinned
reports."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from spintrap.cli import main
from spintrap.trace import read_trace_csv

SEQ_DIR = Path(__file__).resolve().parents[1] / "src" / "spintrap" / "sequences" / "v1"


@pytest.mark.parametrize("name", sorted(p.stem for p in SEQ_DIR.glob("golden_*.csv")))
def test_golden_reruns_from_its_header(tmp_path, name):
    # the command, the resolved config and, for `run`, the program are the
    # whole input: no seed, layout or file name is supplied here (the
    # transient golden was written at the command's default pulse and grid,
    # which no line records)
    golden = read_trace_csv(str(SEQ_DIR / f"{name}.csv"))
    meta = golden.meta
    assert meta["config_hash"] == hashlib.sha256(meta["config"].encode("utf-8")).hexdigest()[:16]
    config = tmp_path / "config.json"
    config.write_text(meta["config"])
    argv = [meta["command"], "--config", str(config), "--out", str(tmp_path / "fresh.csv")]
    if "program" in meta:
        program = tmp_path / "program.seq"
        program.write_text(json.loads(meta["program"]))
        argv.insert(1, str(program))
    assert main(argv) == 0
    fresh = read_trace_csv(str(tmp_path / "fresh.csv"))
    assert fresh.meta["config_hash"] == meta["config_hash"]
    np.testing.assert_allclose(fresh.x, golden.x, rtol=1e-12, atol=0)
    np.testing.assert_allclose(fresh.y, golden.y, rtol=1e-10, atol=1e-30)


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
