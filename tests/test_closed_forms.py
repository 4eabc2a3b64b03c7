"""The spectrum and the transient, which run on Python floats, give the
numbers their numpy forms in ``reference`` give: the same x, bit for bit, and
y to the last digit or two of ``math.exp`` against numpy's ``exp``."""

import numpy as np
import pytest

from reference import numpy_field_sweep, numpy_pulse_flip_fraction, numpy_transient
from spintrap import rabi, spectrum, trapdyn
from spintrap.spincore import PHOSPHORUS, Environment
from spintrap.trace import linspace
from spintrap.trapdyn import TrapParams

ENV = Environment()
# at most 4.1e-16 at the defaults, where math.exp and numpy's exp differ in
# the last bit at some points
RTOL = 1e-15


@pytest.mark.parametrize("lineshape, db_ratio, linewidth", [
    ("gaussian", 0.05, None),
    ("gaussian", 0.0, None),
    ("lorentzian", 0.05, None),
    ("lorentzian", 0.0, None),
    ("gaussian", 0.0, 1e-200),  # 2 w^2 underflows to 0: the line is 0 off its center
    ("lorentzian", 0.0, 1e-200),  # (offset/w)^2 overflows to inf: the line is 0
], ids=["gaussian", "gaussian-no-db", "lorentzian", "lorentzian-no-db", "gaussian-vanishing-width",
        "lorentzian-vanishing-width"])
def test_spectrum_equals_its_numpy_form(lineshape, db_ratio, linewidth):
    sweep = spectrum.SweepSpec(lineshape=lineshape, db_amplitude_ratio=db_ratio)
    species = PHOSPHORUS if linewidth is None else PHOSPHORUS.replace(linewidth_tesla=linewidth)
    fields, di = spectrum.simulate_field_sweep(species, ENV, sweep)
    b, expected = numpy_field_sweep(species, ENV, sweep)
    assert fields == b.tolist()
    np.testing.assert_allclose(di, expected, rtol=RTOL, atol=0)


@pytest.mark.parametrize("angle_deg, field_offset", [(180.0, 0.0), (73.0, 2e-4)],
                         ids=["defaults", "off-resonance-73deg"])
def test_transient_equals_its_numpy_form(angle_deg, field_offset):
    params, t_max, n_points = TrapParams(), 15e-3, 1501  # the command's defaults
    fraction = rabi.pulse_flip_fraction(angle_deg, field_offset, ENV, PHOSPHORUS)
    expected_fraction = numpy_pulse_flip_fraction(angle_deg, field_offset, ENV, PHOSPHORUS)
    assert fraction == pytest.approx(expected_fraction, rel=RTOL, abs=0)
    grid = linspace(0.0, t_max, n_points)
    t, expected = numpy_transient(expected_fraction, params, t_max, n_points)
    assert grid == t.tolist()
    np.testing.assert_allclose(trapdyn.transient_response(fraction, params, grid), expected, rtol=RTOL, atol=0)


@pytest.mark.parametrize("start, stop, num", [
    (0.0, 15e-3, 1501), (8.56, 8.6, 2001), (0.0, 1e-320, 7), (0.0, 5e-324, 3), (0.0, 4e-6, 1), (-1.0, 1e300, 3),
])
def test_linspace_is_numpys(start, stop, num):
    assert linspace(start, stop, num) == np.linspace(start, stop, num).tolist()
