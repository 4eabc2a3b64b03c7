"""Closure: each configured quantity comes back out of its own channel.

A row runs a command at the default configuration, fits its output, and
compares a fitted parameter with the configured field of the same name.
"""

import json

import pytest

from spintrap.cli import main
from spintrap.config import load_config


@pytest.mark.parametrize("command, model, section, name, rel", [
    # noise-free: the fit returns the rates to rounding
    ("transient", "trap_biexp", "trap", "emission_rate_per_second", 1e-9),
    ("transient", "trap_biexp", "trap", "capture_rate_per_second", 1e-9),
])
def test_fit_recovers_configured_value(tmp_path, command, model, section, name, rel):
    trace, report = tmp_path / "trace.csv", tmp_path / "fit.json"
    assert main([command, "--out", str(trace)]) == 0
    assert main(["fit", str(trace), "--model", model, "--out", str(report)]) == 0
    params = json.loads(report.read_text())["params"]
    assert params[name] == pytest.approx(getattr(getattr(load_config({}), section), name), rel=rel)
