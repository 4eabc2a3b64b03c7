"""The contract of the immutable value types (:class:`spintrap.errors.Value`)."""

import math

import numpy as np
import pytest

from spintrap.config import _SECTIONS, load_config
from spintrap.errors import Value
from spintrap.fitkit import _MODELS, FitResult, ModelComparison
from spintrap.seqlang import AcquireStmt, DelayStmt, PulseStmt, SequenceAst, SweepDecl, parse
from spintrap.spectrum import SweepSpec
from spintrap.spincore import PHOSPHORUS, EnsembleSpec, Environment, RelaxationParams
from spintrap.trace import SignalTrace
from spintrap.trapdyn import TrapParams

_FIT = FitResult("exp_decay", {"amplitude": 1.0}, {"amplitude": 0.1}, 0.5, 10, True)
_CONFIG = load_config({})
# one instance of each of the 16 value types
_INSTANCES = [
    PulseStmt(90.0, "+x"), DelayStmt("tau"), AcquireStmt("echo"), SweepDecl("tau", 1e-6, 2e-6, 2),
    parse("sweep tau 1us 2us 2\ndelay tau\nacquire echo\n"),
    PHOSPHORUS, Environment(), RelaxationParams(), EnsembleSpec(),
    _FIT, ModelComparison("exp_decay", -1.0, _FIT, _FIT), _MODELS["exp_decay"],
    _CONFIG, SweepSpec(), TrapParams(),
    SignalTrace("time", [0.0, 1.0], [1.0, 2.0]),
]


def test_every_value_type_is_listed():
    assert len({type(v) for v in _INSTANCES}) == 16
    assert all(isinstance(v, Value) for v in _INSTANCES)


@pytest.mark.parametrize("value", _INSTANCES, ids=lambda v: type(v).__name__)
def test_assignment_and_deletion_raise(value):
    name = value.fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1


class TestEquality:
    def test_by_values(self):
        assert PulseStmt(90.0, "+x") == PulseStmt(angle_deg=90.0, phase="+x", duration="auto")
        assert hash(PulseStmt(90.0, "+x")) == hash(PulseStmt(90.0, "+x"))
        assert PulseStmt(90.0, "+x") != PulseStmt(90.0, "+y")
        assert {DelayStmt(1e-6): "kept"}[DelayStmt(1e-6)] == "kept"

    def test_not_equal_to_a_tuple(self):
        assert DelayStmt("tau") != ("tau",)
        assert ("tau",) != DelayStmt("tau")
        assert DelayStmt("tau") not in [("tau",), "tau"]

    def test_not_equal_to_another_type_with_the_same_values(self):
        class First(Value):
            v: str

        class Second(Value):
            v: str

        assert First("tau") != Second("tau")
        assert hash(First("tau")) != hash(Second("tau"))
        assert EnsembleSpec(1, 1, 1) != RelaxationParams(1.0, 1.0, 1.0)
        program = parse("sweep tau 1us 2us 2\nacquire echo window=1us\n")
        assert DelayStmt(1e-6) not in program.statements
        assert AcquireStmt("echo", 1e-6) in program.statements

    def test_nested_values_compare_by_value(self):
        source = "sweep tau 1us 2us 2\npulse pi +x\ndelay tau\nacquire echo\n"
        assert parse(source) == parse(source) and hash(parse(source)) == hash(parse(source))
        assert load_config({}) == _CONFIG


class TestConstruction:
    def test_positional_keyword_and_defaults(self):
        assert SweepDecl("tau", 1e-6, 2e-6, 2) == SweepDecl(steps=2, stop=2e-6, start=1e-6, name="tau")
        assert AcquireStmt("mz").window is None
        assert SequenceAst(()).sweep is None
        assert Environment(9.0).temperature_kelvin == Environment().temperature_kelvin

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),  # a field with no default is missing
        (("echo", None, 1), {}),  # too many
        (("echo",), {"channel": "mz"}),  # given twice
        (("echo",), {"duration": 1e-6}),  # not a field
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            AcquireStmt(*args, **kwargs)

    def test_validation_runs(self):
        with pytest.raises(ValueError, match="t2_seconds must satisfy"):
            RelaxationParams(t1_seconds=1e-3, t2_seconds=3e-3)

    def test_repr_names_fields(self):
        assert repr(AcquireStmt("echo", 1e-6)) == "AcquireStmt(channel='echo', window=1e-06)"

    def test_as_dict_in_field_order(self):
        assert PHOSPHORUS.as_dict() == {"g_factor": 1.9985, "hyperfine_splitting_tesla": 4.2e-3,
                                        "nuclear_polarization": -0.3, "linewidth_tesla": 3.0e-4}
        assert list(PHOSPHORUS.as_dict()) == list(PHOSPHORUS.fields)


class TestReplace:
    def test_changes_only_the_given_fields(self):
        relax = RelaxationParams().replace(t_s_seconds=math.inf)
        assert relax.t_s_seconds == math.inf and relax.t1_seconds == RelaxationParams().t1_seconds

    def test_revalidates(self):
        relax = RelaxationParams()
        with pytest.raises(ValueError, match="t2_seconds must satisfy"):
            relax.replace(t2_seconds=2 * relax.t1_seconds * (1 + 1e-9))
        with pytest.raises(ValueError, match="n_points must be >= 2"):
            SweepSpec().replace(n_points=1)

    def test_unknown_field_raises_type_error(self):
        with pytest.raises(TypeError):
            Environment().replace(field_tesla=1.0)


class TestSignalTrace:
    def _trace(self, **kwargs):
        return SignalTrace("time", np.array([0.0, 1.0]), np.array([1.0, 2.0]), **kwargs)

    def test_identity_equality(self):
        trace = self._trace()
        assert trace == trace and hash(trace) == hash(trace)
        assert trace != self._trace()
        assert trace.replace() != trace

    def test_each_instance_has_its_own_meta(self):
        first, second = self._trace(), self._trace()
        assert first.meta == {} and first.meta is not second.meta
        first.meta["key"] = "value"
        assert second.meta == {} and self._trace().meta == {}
        given = {"key": "value"}
        assert self._trace(meta=given).meta is not given

    def test_replace_keeps_the_columns(self):
        trace = self._trace(y_stderr=[0.1, 0.2])
        changed = trace.replace(meta={"key": "value"})
        assert changed.meta == {"key": "value"} and trace.meta == {}
        for name in ("x", "y", "y_stderr"):
            assert getattr(changed, name).tolist() == getattr(trace, name).tolist()
            assert not getattr(changed, name).flags.writeable


def test_config_schema_keys():
    assert [f"{section}.{key}" for section, cls in _SECTIONS.items() for key in cls.fields] == [
        "environment.static_field_tesla", "environment.temperature_kelvin",
        "environment.mw_frequency_hz", "environment.rabi_frequency_hz",
        "species.g_factor", "species.hyperfine_splitting_tesla", "species.nuclear_polarization",
        "species.linewidth_tesla",
        "relaxation.t1_seconds", "relaxation.t2_seconds", "relaxation.t_s_seconds",
        "trap.capture_rate_per_second", "trap.emission_rate_per_second",
        "trap.baseline_current_amperes",
        "ensemble.n_static", "ensemble.n_noise", "ensemble.rng_seed",
        "spectrum.b_start_tesla", "spectrum.b_stop_tesla", "spectrum.n_points", "spectrum.lineshape",
        "spectrum.phosphorus_amplitude_amperes", "spectrum.db_amplitude_ratio",
    ]
