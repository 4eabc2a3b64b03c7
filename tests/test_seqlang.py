import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from spintrap.seqlang import (
    AcquireEvent,
    AcquireStmt,
    DelayStmt,
    PulseEvent,
    PulseStmt,
    SequenceError,
    compile_timeline,
    parse,
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
        assert ast.statements[1].duration == "tp"


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


def _source_strategy():
    times = hs.builds(
        lambda n, u: f"{n}{u}",
        hs.integers(min_value=1, max_value=500000),
        hs.sampled_from(["ns", "us", "ms", "s"]),
    )
    angles = hs.one_of(
        hs.sampled_from(["pi", "pi/2"]),
        hs.integers(min_value=1, max_value=359).map(lambda d: f"{d}deg"),
        hs.floats(min_value=0.5, max_value=359.5, allow_nan=False).map(lambda d: f"{d!r}deg"),
    )
    phases = hs.sampled_from(["+x", "+y", "-x", "-y"])
    channels = hs.sampled_from(["echo", "mz", "charge"])

    def pulse(use_var):
        dur = hs.one_of(hs.just(""), times.map(lambda t: f" dur={t}"))
        if use_var:
            dur = hs.one_of(dur, hs.just(" dur=tau"))
        return hs.builds(lambda a, p, d: f"pulse {a} {p}{d}", angles, phases, dur)

    def delay(use_var):
        dur = times
        if use_var:
            dur = hs.one_of(dur, hs.just("tau"))
        return dur.map(lambda t: f"delay {t}")

    acquire = hs.builds(
        lambda c, w: f"acquire {c}{w}",
        channels,
        hs.one_of(hs.just(""), times.map(lambda t: f" window={t}")),
    )

    def body(has_sweep):
        stmt = hs.one_of(pulse(has_sweep), delay(has_sweep), acquire)
        return hs.lists(stmt, min_size=0, max_size=7)

    def assemble(has_sweep, sweep_header, lines, closing_acquire):
        out = list(sweep_header) if has_sweep else []
        out.extend(lines)
        out.append(closing_acquire)  # guarantee at least one acquire
        return "\n".join(out)

    sweep_header = hs.builds(
        lambda a, b, n: [f"sweep tau {a} {b} {n}"],
        times,
        times,
        hs.integers(min_value=1, max_value=50),
    )
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
    @given(_source_strategy())
    @settings(max_examples=300, deadline=None)
    def test_parse_unparse_identity(self, source):
        ast = parse(source)
        assert parse(unparse(ast)) == ast


class TestCompile:
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
        tl = compile_timeline(parse(src), Environment())
        expected = 600e-9 + 1e-4 + 300e-9 + 1e-6 + 600e-9 + 1e-6
        assert tl.total_duration == pytest.approx(expected, rel=1e-12)

    def test_single_pulse_and_acquire(self):
        tl = compile_timeline(parse("pulse pi +x dur=480ns\nacquire mz"), Environment())
        assert len(tl.events) == 2
        assert isinstance(tl.events[0], PulseEvent)
        assert tl.events[0].duration == pytest.approx(480e-9, rel=1e-12)
        assert isinstance(tl.events[1], AcquireEvent)

    def test_auto_duration_from_rabi(self):
        env = Environment(rabi_frequency=1.0 / (2 * 480e-9))
        tl = compile_timeline(parse("pulse pi +x\nacquire mz"), env)
        assert tl.events[0].duration == pytest.approx(480e-9, rel=1e-12)
        assert tl.events[0].angle == pytest.approx(math.pi, rel=1e-12)

    def test_sweep_grid_values(self):
        decl = parse("sweep tau 10us 30us 3\ndelay tau\nacquire mz").sweep
        values = sweep_values(decl)
        assert values == pytest.approx([10e-6, 20e-6, 30e-6], rel=1e-12)

    def test_sweep_value_required_iff_declared(self):
        ast = parse("sweep tau 10us 30us 3\ndelay tau\nacquire mz")
        with pytest.raises(SequenceError, match="sweep value"):
            compile_timeline(ast, Environment())
        plain = parse("acquire mz")
        with pytest.raises(SequenceError, match="no sweep"):
            compile_timeline(plain, Environment(), sweep_value=1e-6)

    def test_gap_free_and_strictly_increasing(self):
        ast = parse(
            "sweep tau 5us 50us 4\npulse pi/2 +x\ndelay tau\npulse pi +x\ndelay tau\nacquire echo"
        )
        for value in sweep_values(ast.sweep):
            tl = compile_timeline(ast, Environment(), sweep_value=float(value))
            t = 0.0
            for event in tl.events:
                assert event.start == t  # exact: starts are cumulative sums
                t = event.start + event.duration
            assert t == tl.total_duration
            starts = [e.start for e in tl.events]
            assert all(b > a for a, b in zip(starts, starts[1:]))

    def test_deterministic(self):
        ast = parse("sweep tau 5us 50us 4\ndelay tau\nacquire echo")
        a = compile_timeline(ast, Environment(), sweep_value=1e-5)
        b = compile_timeline(ast, Environment(), sweep_value=1e-5)
        assert a == b

    def test_acquire_window_occupies_time(self):
        tl = compile_timeline(parse("acquire charge window=2ms"), Environment())
        assert tl.total_duration == pytest.approx(2e-3, rel=1e-12)


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
        "pulse pi +x extra stuff here\nacquire mz",
        "sweep tau 1us 2us \u00b2\nacquire mz",  # isdigit() passes it, int() does not
        pytest.param("sweep tau 1us 2us " + "9" * 5000 + "\nacquire mz",  # past int()'s digit limit
                     id="sweep tau 1us 2us <5000 nines>"),
    ]

    @pytest.mark.parametrize("source", BAD_SOURCES)
    def test_each_reports_a_line(self, source):
        with pytest.raises(SequenceError) as err:
            parse(source)
        assert err.value.line is not None or "acquire" in str(err.value)
