"""Regenerate the shipped golden traces and compare against the committed files."""

from pathlib import Path

import numpy as np

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
