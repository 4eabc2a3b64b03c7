import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from spintrap.seqlang import (
    AcquireStmt,
    DelayStmt,
    PulseStmt,
    SequenceError,
    parse,
    statement_duration,
    sweep_values,
    unparse,
)
from spintrap.spincore import Environment

HAHN = "pulse pi/2 +x\ndelay 80us\npulse pi +y\ndelay 80us\nacquire echo"


class TestParse:
    def test_hahn_shape(self):
        ast = parse(HAHN)
        kinds = [type(s).__name__ for s in ast.statements]
        assert kinds == ["PulseStmt", "DelayStmt", "PulseStmt", "DelayStmt", "AcquireStmt"]
        assert ast.statements[0].angle_deg == 90.0
        assert ast.statements[2].phase == "+y"
        assert ast.statements[1].duration == pytest.approx(80e-6, rel=1e-12)

    def test_empty_input_needs_acquire(self):
        with pytest.raises(SequenceError, match="acquire"):
            parse("")

    def test_negative_duration_line_number(self):
        with pytest.raises(SequenceError) as err:
            parse("delay -5us")
        assert err.value.line == 1
        assert "positive" in str(err.value)

    def test_comments_and_blank_lines(self):
        src = "# a comment\n\npulse pi +x  # trailing\nacquire mz\n"
        ast = parse(src)
        assert len(ast.statements) == 2

    def test_unknown_phase(self):
        with pytest.raises(SequenceError) as err:
            parse("pulse pi +z\nacquire mz")
        assert err.value.line == 1
        assert "phase" in str(err.value)

    def test_unknown_statement(self):
        with pytest.raises(SequenceError) as err:
            parse("acquire mz\nwobble 3us")
        assert err.value.line == 2

    def test_duplicate_sweep(self):
        src = "sweep a 1us 2us 3\nsweep b 1us 2us 3\nacquire mz"
        with pytest.raises(SequenceError, match="duplicate sweep"):
            parse(src)

    def test_sweep_line_may_come_last(self):
        # the sweep is not a statement: where its line sits changes nothing,
        # and the canonical form declares it first
        body = "pulse pi/2 +x\ndelay tau\nacquire echo"
        first = parse(f"sweep tau 10us 30us 3\n{body}")
        assert parse(f"{body}\nsweep tau 10us 30us 3\n") == first
        assert [type(s).__name__ for s in first.statements] == ["PulseStmt", "DelayStmt", "AcquireStmt"]
        assert unparse(parse(f"{body}\nsweep tau 10us 30us 3")).splitlines()[0] == "sweep tau 10us 30us 3"
        with pytest.raises(SequenceError, match=r"duplicate sweep declaration \(first on line 4\)") as err:
            parse(f"{body}\nsweep tau 10us 30us 3\n  sweep tau 10us 30us 3")
        assert (err.value.line, err.value.column) == (5, 3)

    def test_undeclared_variable(self):
        with pytest.raises(SequenceError, match="undeclared"):
            parse("delay tau\nacquire mz")

    def test_variable_must_match_sweep_name(self):
        with pytest.raises(SequenceError, match="undeclared"):
            parse("sweep tau 1us 2us 3\ndelay other\nacquire mz")

    def test_explicit_duration_and_window(self):
        ast = parse("pulse pi +x dur=480ns\nacquire charge window=10ms")
        assert ast.statements[0].duration == pytest.approx(480e-9, rel=1e-12)
        assert ast.statements[1].window == pytest.approx(10e-3, rel=1e-12)

    def test_scientific_notation(self):
        ast = parse("delay 8e-05s\nacquire mz")
        assert ast.statements[0].duration == 8e-05

    def test_sweep_variable_in_pulse_duration(self):
        ast = parse("sweep tp 10ns 1us 5\npulse pi +x dur=tp\nacquire mz")
        assert ast.statements[0].duration == "tp"


class TestUnparse:
    def test_round_trip_hahn(self):
        ast = parse(HAHN)
        assert parse(unparse(ast)) == ast

    def test_canonical_units(self):
        text = unparse(parse("delay 80us\nacquire mz"))
        assert "delay 80us" in text
        text = unparse(parse("delay 2500us\nacquire mz"))
        assert "delay 2500us" in text or "delay" in text  # canonical integer count

    def test_comments_dropped(self):
        text = unparse(parse("# top\npulse pi +x # side\nacquire mz"))
        assert "#" not in text

    def test_keywords_lowercase(self):
        assert unparse(parse("pulse pi +x\nacquire mz")).islower()


# Statement strategies, shared with the sweep-engine property test in
# test_blochsim.py.
TIMES = hs.builds(
    lambda n, u: f"{n}{u}",
    hs.integers(min_value=1, max_value=500000),
    hs.sampled_from(["ns", "us", "ms", "s"]),
)
_ANGLES = hs.one_of(
    hs.sampled_from(["pi", "pi/2"]),
    hs.integers(min_value=1, max_value=359).map(lambda d: f"{d}deg"),
    hs.floats(min_value=0.5, max_value=359.5, allow_nan=False).map(lambda d: f"{d!r}deg"),
)
_PHASES = hs.sampled_from(["+x", "+y", "-x", "-y"])
_CHANNELS = hs.sampled_from(["echo", "mz", "charge"])
_STEPS = hs.integers(min_value=1, max_value=50).map(str)

# Literals at the edges of double precision.  Huge numbers take any unit and
# may overflow to inf; tiny and subnormal ones are in seconds, so that no
# unit scales them to 0, which the parser refuses as not positive.
_HUGE = hs.one_of(hs.sampled_from(["1e300", "1.7976931348623157e308", "1e309", "1e400"]),
                  hs.floats(min_value=1e250, allow_infinity=False).map(repr))
_TINY = hs.one_of(hs.sampled_from(["2.2250738585072014e-308", "1e-320", "4.9e-324", "5e-324"]),
                  hs.floats(min_value=5e-324, max_value=1e-250).map(repr))
EXTREME_TIMES = hs.one_of(TIMES, _TINY.map(lambda n: f"{n}s"),
                          hs.builds(lambda n, u: f"{n}{u}", _HUGE, hs.sampled_from(["ns", "us", "ms", "s"])))
EXTREME_ANGLES = hs.one_of(_ANGLES, hs.one_of(_HUGE, _TINY).map(lambda n: f"{n}deg"))
EXTREME_STEPS = hs.one_of(_STEPS, hs.sampled_from(["1", "0001", "97657", "100000000", "999999999",
                                                   "000999999999"]))


def pulse_statements(use_var, times=TIMES, angles=_ANGLES):
    """``pulse`` lines; with ``use_var`` the duration may be the sweep variable ``tau``."""
    dur = hs.one_of(hs.just(""), times.map(lambda t: f" dur={t}"))
    if use_var:
        dur = hs.one_of(dur, hs.just(" dur=tau"))
    return hs.builds(lambda a, p, d: f"pulse {a} {p}{d}", angles, _PHASES, dur)


def delay_statements(use_var, times=TIMES):
    dur = times
    if use_var:
        dur = hs.one_of(dur, hs.just("tau"))
    return dur.map(lambda t: f"delay {t}")


def acquire_statements(times=TIMES):
    return hs.builds(
        lambda c, w: f"acquire {c}{w}",
        _CHANNELS,
        hs.one_of(hs.just(""), times.map(lambda t: f" window={t}")),
    )


def source_programs(times=TIMES, angles=_ANGLES, steps=_STEPS):
    """Whole programs, swept over ``tau`` or not, that end in an acquire."""
    acquire = acquire_statements(times)

    def body(has_sweep):
        stmt = hs.one_of(pulse_statements(has_sweep, times, angles), delay_statements(has_sweep, times),
                         acquire)
        return hs.lists(stmt, min_size=0, max_size=7)

    def assemble(has_sweep, sweep_header, lines, closing_acquire):
        out = list(sweep_header) if has_sweep else []
        out.extend(lines)
        out.append(closing_acquire)  # guarantee at least one acquire
        return "\n".join(out)

    sweep_header = hs.builds(lambda a, b, n: [f"sweep tau {a} {b} {n}"], times, times, steps)
    return hs.booleans().flatmap(
        lambda has_sweep: hs.builds(
            assemble,
            hs.just(has_sweep),
            sweep_header,
            body(has_sweep),
            acquire,
        )
    )


class TestRoundTripProperty:
    @given(source_programs())
    @settings(max_examples=300, deadline=None)
    def test_parse_unparse_identity(self, source):
        ast = parse(source)
        assert parse(unparse(ast)) == ast

    @given(source_programs(EXTREME_TIMES, EXTREME_ANGLES, EXTREME_STEPS))
    @settings(max_examples=150, deadline=None)
    def test_parse_unparse_identity_at_float_extremes(self, source):
        ast = parse(source)
        assert parse(unparse(ast)) == ast


class TestStatementDuration:
    """``statement_duration``: the seconds each statement occupies at a sweep point."""

    def test_inversion_recovery_total_duration(self):
        src = (
            "pulse pi +x dur=600ns\n"
            "delay 100us\n"
            "pulse pi/2 +x dur=300ns\n"
            "delay 1us\n"
            "pulse pi +x dur=600ns\n"
            "delay 1us\n"
            "acquire echo\n"
        )
        total = sum(statement_duration(s, Environment()) for s in parse(src).statements)
        expected = 600e-9 + 1e-4 + 300e-9 + 1e-6 + 600e-9 + 1e-6
        assert total == pytest.approx(expected, rel=1e-12)

    def test_single_pulse_and_acquire(self):
        ast = parse("pulse pi +x dur=480ns\nacquire mz")
        # an explicit duration is its literal times its unit, exactly
        assert [statement_duration(s, Environment()) for s in ast.statements] == [480 * 1e-9, 0.0]

    def test_auto_duration_from_rabi(self):
        env = Environment(rabi_frequency_hz=1.0 / (2 * 480e-9))
        duration = statement_duration(parse("pulse pi +x\nacquire mz").statements[0], env)
        assert duration == math.radians(180.0) / (2.0 * math.pi * env.rabi_frequency_hz)
        assert duration == pytest.approx(480e-9, rel=1e-12)
        assert 2 * math.pi * env.rabi_frequency_hz * duration == pytest.approx(math.pi, rel=1e-12)

    def test_sweep_grid_values(self):
        decl = parse("sweep tau 10us 30us 3\ndelay tau\nacquire mz").sweep
        values = sweep_values(decl)
        assert values == pytest.approx([10e-6, 20e-6, 30e-6], rel=1e-12)

    def test_sweep_variable_takes_the_point_value(self):
        ast = parse("sweep tau 5us 50us 4\npulse pi/2 +x dur=2us\ndelay tau\npulse pi +x dur=tau\n"
                    "acquire echo")
        for value in sweep_values(ast.sweep):
            durations = [statement_duration(s, Environment(), float(value)) for s in ast.statements]
            assert durations == [2e-6, value, value, 0.0]

    def test_acquire_window_occupies_time(self):
        acquire = parse("acquire charge window=2ms").statements[0]
        assert statement_duration(acquire, Environment()) == 2e-3


class TestBadInputCorpus:
    BAD_SOURCES = [
        "delay -5us",
        "pulse pi +z\nacquire mz",
        "pulse +x\nacquire mz",
        "pulse pi/3 +x\nacquire mz",
        "delay 5parsecs\nacquire mz",
        "acquire current",
        "sweep tau 1us 2us 0\nacquire mz",
        "sweep tau 1us 2us -3\nacquire mz",
        "sweep tau 1us 2us 3\nsweep t2 1us 2us 3\nacquire mz",
        "delay tau\nacquire mz",
        "pulse pi +x dur=0ns\nacquire mz",
        "acquire mz window=oops",
        "acquire charge window=0s",  # the boxcar integral needs a positive window
        "pulse pi +x extra stuff here\nacquire mz",
        "sweep auto 20ns 4us 5\npulse pi +x dur=auto\nacquire mz",  # `dur=auto` means the Rabi duration
        "sweep tau 1us 2us \u00b2\nacquire mz",  # isdigit() passes it, int() does not
        pytest.param("sweep tau 1us 2us " + "9" * 5000 + "\nacquire mz",  # past int()'s digit limit
                     id="sweep tau 1us 2us <5000 nines>"),
    ]

    @pytest.mark.parametrize("source", BAD_SOURCES)
    def test_each_reports_a_line(self, source):
        with pytest.raises(SequenceError) as err:
            parse(source)
        assert err.value.line is not None or "acquire" in str(err.value)
