import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as hs

from reference import find_dips
from spintrap import cli, config, fitkit
from spintrap.cli import main
from spintrap.trace import read_trace_csv
from test_seqlang import EXTREME_ANGLES, EXTREME_STEPS, EXTREME_TIMES, source_programs

SEQ_DIR = Path(__file__).resolve().parents[1] / "src" / "spintrap" / "sequences" / "v1"

SMALL = ["--n-static", "16", "--n-noise", "4"]


def _data_section(path):
    lines = Path(path).read_text().splitlines()
    return "\n".join(l for l in lines if not l.startswith("# created="))


def _write_config(tmp_path, data):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    return str(p)


def _single_error_line(capsys):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return captured


class TestSpectrumCommand:
    def test_default_three_peaks(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--out", str(out)]) == 0
        trace = read_trace_csv(str(out))
        peaks = find_dips(trace, 0.02)
        assert len(peaks) == 3
        assert peaks[2][0] - peaks[1][0] == pytest.approx(4.2e-3, abs=2e-5)

    def test_zero_nuclear_polarization_symmetric(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--out", str(out), "--nuclear-polarization", "0"]) == 0
        peaks = find_dips(read_trace_csv(str(out)), 0.05)
        doublet = [p for p in peaks if p[0] > 8.574]
        assert doublet[0][1] == pytest.approx(doublet[1][1], rel=1e-9)

    def test_reversed_bounds_exit_2(self, tmp_path, capsys):
        rc = main(["spectrum", "--out", str(tmp_path / "x.csv"),
                   "--b-start", "8.60", "--b-stop", "8.56"])
        assert rc == 2
        assert "b_start" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        # a typo, and keys that were removed because no output read them or,
        # for the coupling, because the baseline current already sets it
        for section, key, value in (
            ("spectrum", "b_strat_tesla", 8.5),
            ("trap", "conduction_polarization", -0.968),
            ("trap", "donor_density_per_cm3", 1e15),
            ("ensemble", "manifold_weights", [0.5, 0.5]),
            ("trap", "coupling_amplitude_amperes", 7e-10),
        ):
            cfg = _write_config(tmp_path, {section: {key: value}})
            rc = main(["spectrum", "--out", str(tmp_path / "x.csv"), "--config", cfg])
            assert rc == 2
            assert key in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_embeds_config_hash(self, tmp_path):
        out = tmp_path / "spec.csv"
        main(["spectrum", "--out", str(out)])
        assert "config_hash" in read_trace_csv(str(out)).meta


class TestInputValidation:
    @pytest.mark.parametrize("command, section, key, value", [
        ("nutation", "ensemble", "n_static", 2.5),
        ("nutation", "ensemble", "n_noise", True),
        ("nutation", "ensemble", "rng_seed", 1.5),
        ("spectrum", "spectrum", "n_points", 2.5),
    ])
    def test_non_integer_count_exit_2(self, tmp_path, capsys, command, section, key, value):
        cfg = _write_config(tmp_path, {section: {key: value}})
        out = tmp_path / "x.csv"
        assert main([command, "--out", str(out), "--config", cfg]) == 2
        assert "integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, config, flags", [
        ("nutation", {"environment": {"rabi_frequency_hz": float("nan")}}, []),
        ("transient", {"trap": {"capture_rate_per_second": float("inf")}}, []),
        ("spectrum", {}, ["--b-start", "nan"]),
        ("spectrum", {}, ["--b-stop", "inf"]),
    ], ids=["json-nan", "json-infinity", "b-start-nan", "b-stop-inf"])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, command, config, flags):
        # json.dumps writes NaN/Infinity, which json.load reads back
        cfg = _write_config(tmp_path, config)
        out = tmp_path / "x.csv"
        assert main([command, "--out", str(out), "--config", cfg] + flags) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("transient", ["--t-max", "-1"]),
        ("transient", ["--t-max", "inf"]),
        ("transient", ["--n-points", "0"]),
        ("transient", ["--pulse-angle-deg", "nan"]),
        ("transient", ["--field-offset-tesla", "inf"]),
        ("nutation", ["--t-max", "-1"]),
        ("nutation", ["--n-points", "0"]),
        ("transient", ["--n-points", str(10**20)]),
        ("nutation", ["--n-points", str(10**20)]),
    ], ids=lambda v: v if isinstance(v, str) else "=".join(v))
    def test_bad_grid_or_pulse_argument_exit_2(self, tmp_path, capsys, command, flags):
        out = tmp_path / "x.csv"
        assert main([command, "--out", str(out)] + flags) == 2
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, config, flags", [
        ("spectrum", {}, ["--n-points", str(10**20)]),
        ("spectrum", {"spectrum": {"n_points": 10**20}}, []),
        ("nutation", {"ensemble": {"n_static": 10**20}}, []),
        ("nutation", {"ensemble": {"n_static": 10**5}}, ["--n-points", "1001"]),
    ], ids=["spectrum-flag", "spectrum-config", "nutation-ensemble", "nutation-work"])
    def test_size_bound_exit_2(self, tmp_path, capsys, command, config, flags):
        # refused before the grid or any ensemble is allocated
        out = tmp_path / "x.csv"
        assert main([command, "--out", str(out), "--config", _write_config(tmp_path, config)]
                    + flags) == 2
        assert str(cli.MAX_POINTS) in _single_error_line(capsys).err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("spectrum", ["--b-start", "8.58", "--b-stop", "8.580000000000001", "--n-points", "1000"]),
        ("transient", ["--t-max", "1e-320", "--n-points", "5000"]),
        ("nutation", ["--t-max", "1e-320", "--n-points", "5000"]),
    ], ids=["spectrum", "transient", "nutation"])
    def test_grid_too_fine_for_floats_exit_2(self, tmp_path, capsys, command, flags):
        # the grid becomes the trace's x axis, which must strictly increase
        out = tmp_path / "x.csv"
        assert main([command, "--out", str(out)] + flags) == 2
        assert "tell apart" in _single_error_line(capsys).err
        assert not out.exists()


    @pytest.mark.parametrize("command, config, flags, code", [
        ("spectrum", {"species": {"linewidth_tesla": 1e300}}, [], 0),
        ("spectrum", {"species": {"preset": ["phosphorus"]}}, [], 2),
        ("spectrum", {"spectrum": {"phosphorus_amplitude_amperes": -1}}, [], 2),
        ("spectrum", {"spectrum": {"db_amplitude_ratio": -0.5}}, [], 2),
        ("transient", {"trap": {"emission_rate_per_second": 5e-324}}, [], 2),
        ("transient", {}, ["--pulse-angle-deg", "-90"], 2),
        ("transient", {"environment": {"rabi_frequency_hz": 5e-324}}, [], 4),
        ("nutation", {"environment": {"temperature_kelvin": 5e-324}}, [], 4),
        ("run", {}, [str(SEQ_DIR / "readout_vee.seq"), "--linewidth", "1e300", *SMALL], 4),
        ("run", {"relaxation": {"t_s_seconds": 1e-300}}, [str(SEQ_DIR / "hahn_echo.seq"), *SMALL], 2),
        ("run", {"relaxation": {"t_s_seconds": 1e300}}, [str(SEQ_DIR / "hahn_echo.seq"), *SMALL], 0),
        ("nutation", {"environment": {"temperature_kelvin": True}}, [], 2),
        ("nutation", {}, ["--seed", str(2**64 + 1)], 2),
        ("nutation", {}, ["--seed", "-1"], 2),
    ], ids=["wide-line", "preset-array", "negative-amplitude", "negative-db-ratio",
            "emission-underflow", "negative-angle", "vanishing-drive", "vanishing-temperature",
            "charge-of-nan", "t_s-underflow", "t_s-overflow", "boolean-temperature",
            "seed-past-64-bits", "negative-seed"])
    def test_extreme_value_exit_code(self, tmp_path, capsys, command, config, flags, code):
        # a float formula that overflows ends in one error line, never a traceback
        out = tmp_path / "x.csv"
        assert main([command, "--out", str(out), "--config", _write_config(tmp_path, config)]
                    + flags) == code
        if code:
            _single_error_line(capsys)
            assert not out.exists()
        else:
            assert np.isfinite(read_trace_csv(str(out)).y).all()

    def test_huge_t_s_runs_as_infinite(self, tmp_path):
        # t_s^3 is past the float range, so D = 0: no spectral diffusion, as with "inf"
        sections = []
        for t_s in (1e300, "inf"):
            out = tmp_path / f"{t_s}.csv"
            config = _write_config(tmp_path, {"relaxation": {"t_s_seconds": t_s}})
            assert main(["run", str(SEQ_DIR / "hahn_echo.seq"), "--config", config, "--out", str(out)]
                        + SMALL) == 0
            lines = _data_section(out).splitlines()
            # the configs, so their text and hash, differ
            sections.append([l for l in lines if not l.startswith(("# config=", "# config_hash="))])
        assert sections[0] == sections[1]

    @pytest.mark.parametrize("argv", [["transient", "--n-points", "abc"], ["fit", "x.csv"]],
                             ids=["non-integer-flag", "missing-required-flag"])
    def test_refused_argument_vector_one_error_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        _single_error_line(capsys)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: spintrap {argv[0]}")


class TestFileErrors:
    @pytest.mark.parametrize("content, argv", [
        (b"[1]", ["spectrum"]),
        (b'"abc"', ["spectrum"]),
        (b"5", ["spectrum"]),
        (b"[1]", ["spectrum", "--b-start", "8.5"]),
        (b"null", ["spectrum"]),
        (b"\xff{}", ["spectrum"]),
        (None, ["spectrum"]),
        (b'{"ensemble": 5}', ["run", str(SEQ_DIR / "nutation.seq"), "--n-static", "2"]),
        (b'{"spectrum": [1]}', ["spectrum", "--b-start", "8.5"]),
        (b'{"trap": {"emission_rate_per_second": 1' + b"0" * 5000 + b"}}", ["spectrum"]),
    ], ids=["array", "string", "number", "array-with-flag", "null", "undecodable", "directory",
            "number-section-with-flag", "array-section-with-flag", "integer-past-digit-limit"])
    def test_unusable_config_file_exit_2(self, tmp_path, capsys, content, argv):
        cfg = tmp_path / "config.json"
        if content is None:
            cfg.mkdir()
        else:
            cfg.write_bytes(content)
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out), "--config", str(cfg)]) == 2
        _single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        ("run {dir} --out {out}", 3),
        ("run {undecodable} --out {out}", 3),
        ("fit {dir} --model exp_decay", 4),
        ("fit {undecodable} --model exp_decay", 4),
        ("fit {csv} --model exp_decay --out {dir}", 4),
        ("run {line_break} --out {out}", 0),
    ], ids=["run-directory", "run-undecodable", "fit-directory", "fit-undecodable",
            "fit-out-directory", "run-line-break-in-path"])
    def test_unreadable_file_exit_3_or_4(self, tmp_path, capsys, argv, code):
        paths = {
            "dir": tmp_path / "dir",
            "undecodable": tmp_path / "undecodable",
            "csv": tmp_path / "ok.csv",
            "out": tmp_path / "x.csv",
            # a legal path that no "#" line could hold; the output records the program instead
            "line_break": tmp_path / "a\nb,c.seq",
        }
        paths["dir"].mkdir()
        paths["undecodable"].write_bytes(b"\xffx,y\npulse pi +x\nacquire mz\n")
        paths["line_break"].write_text("pulse pi +x\nacquire mz\n")
        paths["csv"].write_text("x,y\n1e-5,1.0\n2e-5,0.8\n3e-5,0.6\n4e-5,0.5\n5e-5,0.4\n")
        assert main([arg.format(**paths) for arg in argv.split()]) == code
        if code == 0:
            assert json.loads(read_trace_csv(str(paths["out"])).meta["program"]) == "pulse pi +x\nacquire mz\n"
            return
        assert _single_error_line(capsys).out == ""
        assert not paths["out"].exists()
        assert not any(paths["dir"].iterdir())


class TestTransientCommand:
    def test_preset_extremum_and_tail(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["transient", "--out", str(out), "--t-max", "0.015",
                     "--n-points", "3001"]) == 0
        trace = read_trace_csv(str(out))
        t, y = trace.x, trace.y
        i = int(np.argmin(y))
        assert t[i] == pytest.approx(335e-6, abs=5e-6)
        sel = t > 2e-3
        slope = np.polyfit(t[sel], np.log(-y[sel]), 1)[0]
        assert -1.0 / slope == pytest.approx(2.5e-3, rel=0.02)

    def test_zero_flip_fraction_zero_trace(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["transient", "--out", str(out), "--flip-fraction", "0"]) == 0
        assert np.all(read_trace_csv(str(out)).y == 0.0)

    def test_off_resonance_pulse_negligible(self, tmp_path):
        on = tmp_path / "on.csv"
        off = tmp_path / "off.csv"
        main(["transient", "--out", str(on)])
        # 1 mT off resonance: detuning ~ 1.8e8 rad/s >> w1 ~ 6.5e6 rad/s
        main(["transient", "--out", str(off), "--field-offset-tesla", "1e-3"])
        peak_on = np.abs(read_trace_csv(str(on)).y).max()
        peak_off = np.abs(read_trace_csv(str(off)).y).max()
        assert peak_off < 0.01 * peak_on

    def test_bad_flip_fraction_exit_2(self, tmp_path):
        assert main(["transient", "--out", str(tmp_path / "t.csv"),
                     "--flip-fraction", "1.5"]) == 2


class TestRunCommand:
    def test_all_shipped_sequences_run(self, tmp_path):
        config = str(SEQ_DIR / "pulsed_defaults.json")
        for name in ("nutation", "hahn_echo", "three_pulse_ed_echo", "readout_vee"):
            out = tmp_path / f"{name}.csv"
            rc = main(["run", str(SEQ_DIR / f"{name}.seq"), "--config", config,
                       "--out", str(out)] + SMALL)
            assert rc == 0, name
            assert out.exists()

    def test_inversion_recovery_sequence(self, tmp_path):
        out = tmp_path / "ir.csv"
        rc = main(["run", str(SEQ_DIR / "inversion_recovery.seq"),
                   "--config", str(SEQ_DIR / "inversion_recovery.json"),
                   "--out", str(out), "--n-static", "8", "--n-noise", "2"])
        assert rc == 0
        trace = read_trace_csv(str(out))
        assert trace.meta["axis_kind"] == "tau"
        assert len(trace) == 30

    def test_parse_error_exit_3_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.seq"
        out = tmp_path / "x.csv"
        for line in ("delay -5us",
                     "sweep t 1ns 2ns \u00b2",  # isdigit() passes a superscript two, int() does not
                     "sweep t 1ns 2ns " + "9" * 5000):  # beyond int()'s 4300-digit limit
            bad.write_text(f"pulse pi/2 +x\n{line}\nacquire echo\n", encoding="utf-8")
            assert main(["run", str(bad), "--out", str(out)]) == 3
            assert "line 2" in _single_error_line(capsys).err
            assert not out.exists()

    def test_missing_seqfile_exit_3(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.seq"), "--out", str(tmp_path / "x.csv")]) == 3

    def test_hahn_echo_matches_analytic_envelope(self, tmp_path):
        out = tmp_path / "hahn.csv"
        main(["run", str(SEQ_DIR / "hahn_echo.seq"),
              "--config", str(SEQ_DIR / "pulsed_defaults.json"),
              "--out", str(out), "--n-static", "32", "--n-noise", "16"])
        trace = read_trace_csv(str(out))
        tau, y = trace.x, trace.y
        envelope = np.exp(-2 * tau / 160e-6 - 8 * tau**3 / (200e-6) ** 3)
        # amplitude prefactor (polarization, manifold weight, pulse errors)
        scale = y[0] / envelope[0]
        assert np.allclose(y, scale * envelope, atol=0.08 * scale)

    def test_three_pulse_echo_feature(self, tmp_path):
        out = tmp_path / "tp.csv"
        main(["run", str(SEQ_DIR / "three_pulse_ed_echo.seq"),
              "--config", str(SEQ_DIR / "pulsed_defaults.json"),
              "--out", str(out)] + SMALL)
        trace = read_trace_csv(str(out))
        x, y = trace.x, trace.y
        assert trace.units == "C"
        # charge magnitude dips (current increases) exactly at the echo
        assert x[int(np.argmax(y))] == pytest.approx(80e-6, abs=0.5e-6)
        plateau = np.median(y)
        assert abs(y[int(np.argmax(y))]) < 0.85 * abs(plateau)

    def test_readout_vee_contrast(self, tmp_path):
        out = tmp_path / "vee.csv"
        main(["run", str(SEQ_DIR / "readout_vee.seq"),
              "--config", str(SEQ_DIR / "pulsed_defaults.json"),
              "--out", str(out)] + SMALL)
        y = read_trace_csv(str(out)).y
        # adjacent pulses act as pi (max |charge|), dephased ones as pi/2
        assert abs(y[0]) > 1.4 * abs(y[-1])

    def test_reproducible_across_workers(self, tmp_path):
        config = str(SEQ_DIR / "pulsed_defaults.json")
        outs = []
        for tag, workers in (("a", "1"), ("b", "4"), ("c", "1")):
            out = tmp_path / f"{tag}.csv"
            main(["run", str(SEQ_DIR / "hahn_echo.seq"), "--config", config,
                  "--out", str(out), "--seed", "99", "--workers", workers] + SMALL)
            outs.append(_data_section(out))
        assert outs[0] == outs[1] == outs[2]

    def test_swept_repeated_acquire_exit_3(self, tmp_path, capsys):
        seq = tmp_path / "twice.seq"
        seq.write_text("sweep tau 10us 20us 3\npulse pi/2 +x\ndelay tau\n"
                       "acquire mz\ndelay 1us\nacquire mz\n")
        out = tmp_path / "x.csv"
        assert main(["run", str(seq), "--out", str(out)] + SMALL) == 3
        assert "more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", [
        "sweep tau 250us 10us 25\npulse pi/2 +x\ndelay tau\npulse pi +x\ndelay tau\nacquire echo\n",
        "sweep tau 10us 10us 3\npulse pi/2 +x\ndelay tau\nacquire echo\n",
        "pulse pi +x\nacquire mz\nacquire mz\n",
        "sweep tau 1us 1e400s 3\npulse pi/2 +x\ndelay tau\nacquire echo\n",
        "sweep tau 5e-324s 1e-323s 3\npulse pi/2 +x\ndelay tau\nacquire echo\n",
        "delay 1s\nacquire mz\ndelay 1e-20s\nacquire mz\n",  # 1.0 + 1e-20 == 1.0
    ], ids=["descending-sweep", "zero-span-sweep", "same-instant-acquire", "infinite-stop-sweep",
            "subnormal-steps-sweep", "same-float-instant-acquire"])
    def test_sequence_without_increasing_axis_exit_3(self, tmp_path, capsys, source):
        seq = tmp_path / "bad.seq"
        seq.write_text(source)
        out = tmp_path / "x.csv"
        assert main(["run", str(seq), "--out", str(out)] + SMALL) == 3
        _single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("source, flags, message", [
        ("pulse 1e400deg +x\nacquire echo\n", [], "non-finite"),
        (None, ["--rabi-frequency", "1e-300"], "non-finite"),  # the shipped hahn_echo.seq
        ("pulse pi/2 +x\ndelay 1e300s\npulse pi +x\ndelay 1us\nacquire echo\n", [], "non-finite"),
        ("pulse pi +x\nacquire charge window=1e300s\nacquire echo\n", [], "non-finite"),
        # the row's values print as Python floats, never as numpy scalar reprs
        ("sweep tau 1us 3us 3\npulse pi/2 +x\ndelay 1e400s\npulse pi/2 +x\ndelay tau\n"
         "acquire charge\n", [], "non-finite data row 1: x=1e-06, y=nan\n"),
    ], ids=["infinite-angle", "vanishing-drive", "huge-delay", "huge-window-then-echo", "nan-charge"])
    def test_non_finite_output_exit_4(self, tmp_path, capsys, source, flags, message):
        seq = SEQ_DIR / "hahn_echo.seq"
        if source is not None:
            seq = tmp_path / "extreme.seq"
            seq.write_text(source)
        rc = main(["run", str(seq), "--config", str(SEQ_DIR / "pulsed_defaults.json"),
                   "--out", str(tmp_path / "x.csv")] + SMALL + flags)
        assert rc == 4
        assert message in _single_error_line(capsys).err
        assert not list(tmp_path.glob("x*.csv"))  # no channel's file written

    def test_window_beyond_transient_is_whole_charge(self, tmp_path, capsys):
        # a 1e300 s boxcar holds the whole transient, as a 1 s one already does
        charges = []
        for window in ("1s", "1e300s"):
            seq = tmp_path / "window.seq"
            seq.write_text(f"pulse pi +x\nacquire charge window={window}\n")
            out = tmp_path / f"{window}.csv"
            assert main(["run", str(seq), "--config", str(SEQ_DIR / "pulsed_defaults.json"),
                         "--out", str(out)] + SMALL) == 0
            charges.append(read_trace_csv(str(out)).y)
        assert charges[0].tolist() == charges[1].tolist() and np.isfinite(charges[0][0])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("out, written", [
        ("d.v2/run.csv", ("d.v2/run_echo.csv", "d.v2/run_mz.csv")),
        ("d.v2/run", ("d.v2/run_echo", "d.v2/run_mz")),
    ], ids=["extension", "no-extension"])
    def test_channel_files_split_only_the_file_extension(self, tmp_path, out, written):
        # one file per channel, <stem>_<channel><ext>; a dot in a directory name is not an extension
        (tmp_path / "d.v2").mkdir()
        seq = tmp_path / "two.seq"
        seq.write_text("pulse pi/2 +x\ndelay 10us\nacquire echo\nacquire mz\n")
        assert main(["run", str(seq), "--out", str(tmp_path / out)] + SMALL) == 0
        assert sorted(str(p.relative_to(tmp_path)) for p in (tmp_path / "d.v2").iterdir()) == list(written)
        assert [read_trace_csv(str(tmp_path / p)).meta["channel"] for p in written] == ["echo", "mz"]

    @pytest.mark.parametrize("sweep, flags", [
        ("sweep t 1ns 2ns 100000000", []),
        ("sweep t 1ns 2ns 100000", ["--n-static", "1", "--n-noise", "1"]),
    ], ids=["many-points", "many-cheap-points"])
    def test_sweep_work_bound_exit_3(self, tmp_path, capsys, sweep, flags):
        # refused before the sweep grid or any ensemble is allocated
        seq = tmp_path / "long.seq"
        seq.write_text(f"{sweep}\npulse pi +x\ndelay t\nacquire mz\n")
        out = tmp_path / "x.csv"
        assert main(["run", str(seq), "--out", str(out)] + flags) == 3
        assert "work limit" in _single_error_line(capsys).err
        assert not out.exists()

    def test_swept_and_unswept_files_carry_ensemble(self, tmp_path, monkeypatch):
        written = {}
        write_output = cli._write_output

        def record(trace, config, path, extra_meta):
            written[path] = trace
            write_output(trace, config, path, extra_meta)

        monkeypatch.setattr(cli, "_write_output", record)
        once = tmp_path / "once.seq"
        once.write_text("pulse pi/2 +x\ndelay 40us\npulse pi +x\ndelay 40us\nacquire echo\n")
        for seq, swept in ((SEQ_DIR / "hahn_echo.seq", True), (once, False)):
            out = str(tmp_path / f"swept_{swept}.csv")
            assert main(["run", str(seq), "--config", str(SEQ_DIR / "pulsed_defaults.json"),
                         "--out", out] + SMALL) == 0
            meta = read_trace_csv(out).meta
            ensemble = json.loads(meta["config"])["ensemble"]
            assert (ensemble["n_static"], ensemble["n_noise"]) == (16, 4)
            assert float(meta["equilibrium_mz"]) == pytest.approx(0.968, abs=1e-3)
            assert ("sweep_variable" in meta) == swept
            assert "sweep_value" not in meta
            # the engine's standard errors reach the written trace, one per point
            stderr = written[out].y_stderr
            assert len(stderr) == (25 if swept else 1) and all(se > 0 for se in stderr)

    def test_seed_changes_data(self, tmp_path):
        config = str(SEQ_DIR / "pulsed_defaults.json")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["run", str(SEQ_DIR / "hahn_echo.seq"), "--config", config,
              "--out", str(a), "--seed", "1"] + SMALL)
        main(["run", str(SEQ_DIR / "hahn_echo.seq"), "--config", config,
              "--out", str(b), "--seed", "2"] + SMALL)
        assert _data_section(a) != _data_section(b)


class TestFileNamesItsInputs:
    """Every file holds the resolved config as canonical JSON (``config=``),
    and a ``run`` file the canonical program (``program=``): those lines
    alone run it again."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name, config_name", [
        ("hahn_echo", "pulsed_defaults"), ("three_pulse_ed_echo", "pulsed_defaults"),
        ("nutation", "pulsed_defaults"), ("readout_vee", "pulsed_defaults"),
        ("inversion_recovery", "inversion_recovery")])
    def test_rerun_from_its_own_lines(self, tmp_path, name, config_name, seed):
        first, again = tmp_path / "first", tmp_path / "again"
        first.mkdir()
        again.mkdir()
        assert main(["run", str(SEQ_DIR / f"{name}.seq"), "--config", str(SEQ_DIR / f"{config_name}.json"),
                     "--seed", str(seed), "--out", str(first / "run.csv")]) == 0
        written = sorted(p.name for p in first.iterdir())
        meta = read_trace_csv(str(first / written[0])).meta
        (tmp_path / "config.json").write_text(meta["config"])
        (tmp_path / "program.seq").write_text(json.loads(meta["program"]))
        assert main(["run", str(tmp_path / "program.seq"), "--config", str(tmp_path / "config.json"),
                     "--out", str(again / "run.csv")]) == 0
        assert sorted(p.name for p in again.iterdir()) == written
        for file_name in written:
            assert _data_section(again / file_name) == _data_section(first / file_name)

    @pytest.mark.parametrize("argv, keys", [
        (["spectrum", "--n-points", "11"], set()),
        (["transient", "--n-points", "11"], {"flip_fraction"}),
        (["nutation", "--n-points", "11"], set()),
        (["run", str(SEQ_DIR / "hahn_echo.seq")] + SMALL, {"channel", "equilibrium_mz", "program", "sweep_variable"}),
    ], ids=["spectrum", "transient", "nutation", "run"])
    def test_config_hash_is_the_hash_of_the_config_line(self, tmp_path, argv, keys):
        # an infinite value, written as "inf", and a seed that is not the default
        cfg = _write_config(tmp_path, {"relaxation": {"t_s_seconds": "inf"}, "ensemble": {"rng_seed": 9}})
        out = tmp_path / "x.csv"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
        meta = read_trace_csv(str(out)).meta
        assert set(meta) == {"axis_kind", "command", "config", "config_hash", "created", "tool_version",
                             "units"} | keys
        digest = hashlib.sha256(meta["config"].encode("utf-8")).hexdigest()[:16]
        assert meta["config_hash"] == digest == config.config_hash(config.load_config(json.loads(meta["config"])))
        assert json.loads(meta["config"])["ensemble"]["rng_seed"] == 9


class TestNutationCommand:
    def test_first_minimum_near_pi_time(self, tmp_path):
        out = tmp_path / "nut.csv"
        # sit on the high-field hyperfine line with a narrow packet
        cfg = _write_config(
            tmp_path,
            {
                "environment": {"static_field_tesla": 8.582263329462},
                "species": {"linewidth_tesla": 1e-6},
            },
        )
        assert main(["nutation", "--out", str(out), "--config", cfg,
                     "--t-max", "1.2e-6", "--n-points", "121"]) == 0
        trace = read_trace_csv(str(out))
        x, y = trace.x, trace.y
        assert x[int(np.argmin(y))] == pytest.approx(480e-9, abs=1e-8)


class TestFitCommand:
    def _hahn_csv(self, tmp_path, seed="7"):
        out = tmp_path / "hahn.csv"
        main(["run", str(SEQ_DIR / "hahn_echo.seq"),
              "--config", str(SEQ_DIR / "pulsed_defaults.json"),
              "--out", str(out), "--seed", seed, "--n-static", "32", "--n-noise", "16"])
        return out

    def test_closed_loop_fit(self, tmp_path):
        csv = self._hahn_csv(tmp_path)
        report_path = tmp_path / "fit.json"
        rc = main(["fit", str(csv), "--model", "echo_cubic",
                   "--compare-with", "exp_decay", "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["params"]["t2_seconds"] == pytest.approx(160e-6, rel=0.10)
        assert report["params"]["t_s_seconds"] == pytest.approx(200e-6, rel=0.15)
        assert report["comparison"]["preferred"] == "echo_cubic"
        assert report["config_hash"]

    def test_exponential_fit_shorter_constant(self, tmp_path):
        csv = self._hahn_csv(tmp_path)
        report_path = tmp_path / "fit.json"
        main(["fit", str(csv), "--model", "exp_decay", "--out", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["params"]["t2_seconds"] < 160e-6  # combined constant is shorter

    def test_empty_csv_exit_4(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["fit", str(empty), "--model", "exp_decay"]) == 4

    def test_malformed_row_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1.0,2.0\noops\n")
        assert main(["fit", str(bad), "--model", "exp_decay"]) == 4
        assert "row 3" in capsys.readouterr().err

    def test_non_finite_row_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("x,y\n1e-5,0.5\n2e-5,nan\n3e-5,0.3\n4e-5,0.2\n5e-5,0.1\n")
        assert main(["fit", str(bad), "--model", "exp_decay"]) == 4
        assert "row 3" in capsys.readouterr().err

    def test_non_finite_result_exit_4(self, tmp_path, capsys):
        # finite data whose residual sum overflows to infinity
        huge = tmp_path / "huge.csv"
        huge.write_text("x,y\n1e-5,1e300\n2e-5,0.8e300\n3e-5,0.5e300\n"
                        "4e-5,0.45e300\n5e-5,0.2e300\n6e-5,0.1e300\n")
        assert main(["fit", str(huge), "--model", "exp_decay"]) == 4
        assert "non-finite" in capsys.readouterr().err

    def test_too_few_points_exit_4(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("x,y\n1e-5,1.0\n2e-5,0.5\n3e-5,0.2\n")
        assert main(["fit", str(short), "--model", "echo_cubic"]) == 4
        assert _single_error_line(capsys).out == ""

    def test_unusable_comparison_exit_4(self, tmp_path, capsys):
        wild = tmp_path / "wild.csv"
        wild.write_text("x,y\n1,1\n2,0.5\n3,0.2\n4,0.1\n5,1e300\n6,-1e300\n")
        assert main(["fit", str(wild), "--model", "trap_biexp", "--compare-with", "exp_decay"]) == 4
        assert _single_error_line(capsys).out == ""

    @staticmethod
    def _noiseless_decay_csv(tmp_path):
        csv = tmp_path / "decay.csv"
        rows = "".join(f"{t},{np.exp(-2 * t / 1e-4)}\n" for t in np.linspace(1e-5, 2.5e-4, 25))
        csv.write_text("x,y\n" + rows)
        return csv

    def test_compare_fits_each_model_once(self, tmp_path, monkeypatch):
        csv = self._noiseless_decay_csv(tmp_path)
        calls = []
        fit = fitkit.fit

        def counting_fit(*args, **kwargs):
            calls.append(args[0])
            return fit(*args, **kwargs)

        monkeypatch.setattr(fitkit, "fit", counting_fit)
        assert main(["fit", str(csv), "--model", "echo_cubic", "--compare-with", "exp_decay",
                     "--out", str(tmp_path / "fit.json")]) == 0
        assert calls == ["echo_cubic", "exp_decay"]

    def test_noiseless_exponential_prefers_exp_decay(self, tmp_path):
        # both fits reach the rounding floor of the data; the simpler model wins
        csv = self._noiseless_decay_csv(tmp_path)
        out = tmp_path / "fit.json"
        assert main(["fit", str(csv), "--model", "echo_cubic", "--compare-with", "exp_decay",
                     "--out", str(out)]) == 0
        comparison = json.loads(out.read_text())["comparison"]
        assert comparison["preferred"] == "exp_decay"
        assert comparison["delta_criterion"] > 0

    def test_overflowing_simplex_vertex_exit_0_or_4(self, tmp_path, capsys):
        csv = tmp_path / "z.csv"
        csv.write_text("x,y\n0,1\n1e-5,0.5\n2e-5,0.3\n3e-5,0.2\n4e-5,0.1\n")
        rc = main(["fit", str(csv), "--model", "echo_cubic"])
        assert rc in (0, 4)
        if rc == 4:
            assert _single_error_line(capsys).out == ""

    def test_unconstrained_parameter_exit_4(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("x,y\n1e-5,1\n2e-5,1\n3e-5,1\n4e-5,1\n5e-5,1\n6e-5,0.999999\n")
        out = tmp_path / "fit.json"
        assert main(["fit", str(flat), "--model", "echo_cubic", "--out", str(out)]) == 4
        assert "t2_seconds" in _single_error_line(capsys).err
        assert not out.exists()

    def test_comparison_reports_unconstrained_sigma_as_null(self, tmp_path):
        csv = tmp_path / "decay.csv"
        x = np.linspace(10e-6, 250e-6, 25)
        y = np.exp(-2 * x / 100e-6) + 0.01 * np.random.default_rng(4).standard_normal(len(x))
        csv.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in zip(x, y)))
        out = tmp_path / "fit.json"
        assert main(["fit", str(csv), "--model", "echo_cubic", "--compare-with", "exp_decay",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["param_uncertainties"]["t_s_seconds"] is None
        assert report["param_uncertainties"]["t2_seconds"] > 0
        assert report["comparison"]["preferred"] == "exp_decay"

    @pytest.mark.parametrize("flags", [["--model", "nope"], ["--model", "exp_decay", "--compare-with", ""]])
    def test_unknown_model_exit_2(self, tmp_path, capsys, flags):
        assert main(["fit", str(SEQ_DIR / "golden_transient.csv"), *flags]) == 2
        assert ", ".join(fitkit.MODEL_IDS) in _single_error_line(capsys).err

    def test_help_names_every_model(self, capsys):
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        *others, last = fitkit.MODEL_IDS
        assert f"{', '.join(others)} or {last}" in " ".join(capsys.readouterr().out.split())

    def test_mixed_hash_refused_unless_forced(self, tmp_path):
        a = self._hahn_csv(tmp_path, seed="7")
        b = tmp_path / "b.csv"
        main(["run", str(SEQ_DIR / "hahn_echo.seq"),
              "--config", str(SEQ_DIR / "pulsed_defaults.json"),
              "--out", str(b), "--seed", "7", "--n-static", "8", "--n-noise", "2"])
        # concatenation with distinct config hashes (different ensembles)
        merged = tmp_path / "merged.csv"
        shifted = []
        for line in b.read_text().splitlines():
            if line.startswith("#") or line == "x,y":
                shifted.append(line)
            else:
                x, y = line.split(",")
                shifted.append(f"{float(x) + 1.0!r},{y}")  # keep x increasing
        merged.write_text(a.read_text() + "\n".join(shifted) + "\n")
        assert main(["fit", str(merged), "--model", "exp_decay"]) == 4
        report = tmp_path / "fit.json"
        assert main(["fit", str(merged), "--model", "exp_decay", "--force", "--out", str(report)]) == 0
        # the report names neither section's config
        assert json.loads(report.read_text())["config_hash"] is None


# y from 1e-300 to 1e300 in size, either sign, and zero
_Y = hs.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@hs.composite
def _trace_rows(draw):
    x = sorted(draw(hs.lists(hs.floats(min_value=-1.0, max_value=1e3), min_size=3, max_size=12,
                             unique=True)))
    return [(a, draw(_Y)) for a in x]


@pytest.mark.parametrize("model", fitkit.MODEL_IDS)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_trace_rows(), compare_with=hs.sampled_from((None,) + fitkit.MODEL_IDS))
def test_fit_exit_code_contract(tmp_path, capsys, model, rows, compare_with):
    """Any finite x,y trace ends in a report (0) or a one-line refusal (4)."""
    csv = tmp_path / "fuzz.csv"
    csv.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
    argv = ["fit", str(csv), "--model", model, "--out", str(tmp_path / "fit.json")]
    if compare_with:
        argv += ["--compare-with", compare_with]
    rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc in (0, 4)
    assert len(err) == (rc == 4) and all(line.startswith("error: ") for line in err), err


def test_commands_import_no_scipy(tmp_path):
    """No command, fit included, loads any scipy module."""
    seq = SEQ_DIR / "nutation.seq"
    config = SEQ_DIR / "pulsed_defaults.json"
    calls = [
        ["spectrum", "--n-points", "201", "--out", "spectrum.csv"],
        ["transient", "--n-points", "101", "--out", "transient.csv"],
        ["nutation", "--n-points", "11", "--out", "nutation.csv"],
        ["run", str(seq), "--config", str(config), *SMALL, "--out", "nutation_seq.csv"],
        ["fit", "transient.csv", "--model", "trap_biexp", "--out", "fit.json"],
        ["fit", "transient.csv", "--model", "trap_biexp", "--compare-with", "exp_decay",
         "--out", "compare.json"],
    ]
    script = f"""
import sys
from spintrap.cli import main

for argv in {calls!r}:
    assert main(argv) == 0, argv
    scipy_modules = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not scipy_modules, (argv, scipy_modules)
"""
    _run_python(script, tmp_path)


def _run_python(script, cwd, env=None):
    """Run ``script`` in a fresh interpreter that imports spintrap from this
    checkout, in ``env`` (by default this process's environment)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv, loaded, absent", [
    (["spectrum", "--n-points", "201", "--out", "spectrum.csv"],
     {"spectrum", "config"}, {"seqlang", "blochsim", "fitkit"}),
    (["fit", str(SEQ_DIR / "golden_hahn_echo.csv"), "--model", "echo_cubic",
      "--compare-with", "exp_decay", "--out", "fit.json"],
     {"fitkit"}, {"seqlang", "blochsim", "config", "spectrum", "trapdyn"}),
    (["run", str(SEQ_DIR / "hahn_echo.seq"), *SMALL, "--out", "run.csv"],
     {"seqlang", "blochsim"}, {"fitkit", "rabi"}),
    (["transient", "--n-points", "101", "--out", "transient.csv"],
     {"config", "rabi", "trapdyn"}, {"fitkit", "blochsim", "seqlang"}),
    (["nutation", "--n-points", "21", "--out", "nutation.csv"],
     {"config", "rabi"}, {"fitkit", "blochsim", "seqlang"}),
], ids=["spectrum", "fit", "run", "transient", "nutation"])
def test_command_imports_only_its_modules(tmp_path, argv, loaded, absent):
    """A fresh process loads the modules its command runs and not the others,
    imports neither ``dataclasses`` nor ``copy`` (the value types cost no
    class-building time) nor OpenSSL's ``_hashlib`` (and, on Linux, maps no
    libcrypto), and the heap its imports left is frozen out of the
    collector."""
    script = f"""
import gc, sys
from spintrap.cli import main

assert gc.get_freeze_count() > 0
assert main({argv!r}) == 0
assert "dataclasses" not in sys.modules and "copy" not in sys.modules
assert sys.modules.get("_hashlib") is None, sys.modules["_hashlib"]
if sys.platform.startswith("linux"):
    with open("/proc/self/maps") as fh:
        assert "libcrypto" not in fh.read()
print(" ".join(sorted(m.split(".")[1] for m in sys.modules if m.startswith("spintrap."))))
"""
    modules = set(_run_python(script, tmp_path).splitlines()[-1].split())
    assert loaded <= modules and not absent & modules, modules


def test_openssl_loaded_first_is_kept_and_changes_no_output(tmp_path):
    """A process that imported ``hashlib`` (and with it OpenSSL's ``_hashlib``)
    before the CLI keeps it, and its ``run`` writes the same data section and
    ``config_hash`` as a default child, which digests with CPython's builtin
    SHA-256.  That hash is the prefix of the digest of the file's ``config=``
    line computed here, where pytest has loaded OpenSSL."""
    argv = ["run", str(SEQ_DIR / "hahn_echo.seq"), *SMALL, "--seed", "1", "--out"]
    outputs = {}
    for case, first in (("default", ""), ("hashlib_first", "import hashlib")):
        script = f"""
{first}
import sys
from spintrap.cli import main

assert main({argv + [case + ".csv"]!r}) == 0
print(type(sys.modules.get("_hashlib")).__name__)
"""
        outputs[case] = _run_python(script, tmp_path).splitlines()[-1]
    assert outputs == {"default": "NoneType", "hashlib_first": "module"}
    default = tmp_path / "default.csv"
    assert _data_section(default) == _data_section(tmp_path / "hashlib_first.csv")
    meta = read_trace_csv(str(default)).meta
    assert meta["config_hash"] == hashlib.sha256(meta["config"].encode("utf-8")).hexdigest()[:16]


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("given", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"},
                                   {"OMP_NUM_THREADS": "2"}], ids=["unset", "openblas", "goto", "omp"])
def test_cli_starts_no_blas_worker_unless_told(tmp_path, given):
    """Importing the CLI keeps OpenBLAS to one thread, so a call starts no
    BLAS worker; a thread count the user set is left as set.  The child's
    environment is built here: this process has imported the CLI, so its own
    environment already holds the CLI's setting."""
    env = {key: value for key, value in os.environ.items() if key not in _THREAD_VARS}
    script = f"""
import json, os, sys
import spintrap.cli

threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
print(json.dumps([{{key: os.environ[key] for key in {_THREAD_VARS!r} if key in os.environ}}, threads]))
"""
    seen, threads = json.loads(_run_python(script, tmp_path, {**env, **given}).splitlines()[-1])
    assert seen == (given or {"OPENBLAS_NUM_THREADS": "1"})
    if not given and threads is not None:
        assert threads == 1


# Every key of config's schema table, and values of every JSON type: numbers
# small, huge and non-finite (json.dumps writes NaN and Infinity, which
# json.load reads back), strings, null, arrays and objects.
_CONFIG_KEYS = [(section, key) for section, cls in config._SECTIONS.items()
                for key in cls.fields]
_CONFIG_KEYS += [("species", "preset")]
_JSON_VALUES = hs.one_of(
    hs.integers(min_value=-3, max_value=40),
    hs.sampled_from([0, -1, 2**63, 10**30, 10**5 + 1]),
    hs.floats(allow_nan=True, allow_infinity=True),
    hs.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]),
    hs.booleans(),
    hs.sampled_from(["", "inf", "nan", "gaussian", "lorentzian", "phosphorus", "dangling_bond"]),
    hs.text(max_size=4),
    hs.none(),
    hs.sampled_from([[], [1.0], {}, {"a": 1}]),
)
_FLOAT_ARGS = hs.one_of(
    hs.floats(allow_nan=True, allow_infinity=True),
    hs.sampled_from([0.0, -1.0, 1e-300, 1e-320, 1e300, 4e-6, 15e-3, 8.57, 8.58, 8.580000000000001,
                     8.59, 0.5, 1e6]),
).map(repr)
_INT_ARGS = hs.one_of(hs.integers(min_value=-2, max_value=60),
                      hs.sampled_from([1000, 5000, 10**5 + 1, 10**20])).map(str)
_FLAGS = {
    "spectrum": {"--b-start": _FLOAT_ARGS, "--b-stop": _FLOAT_ARGS, "--n-points": _INT_ARGS,
                 "--lineshape": hs.sampled_from(["gaussian", "lorentzian", "cauchy"]),
                 "--nuclear-polarization": _FLOAT_ARGS},
    "transient": {"--flip-fraction": _FLOAT_ARGS, "--pulse-angle-deg": _FLOAT_ARGS,
                  "--field-offset-tesla": _FLOAT_ARGS, "--t-max": _FLOAT_ARGS,
                  "--n-points": _INT_ARGS},
    "run": {"--linewidth": _FLOAT_ARGS, "--rabi-frequency": _FLOAT_ARGS},
    "nutation": {"--t-max": _FLOAT_ARGS, "--n-points": _INT_ARGS, "--linewidth": _FLOAT_ARGS},
    "fit": {"--compare-with": hs.sampled_from(fitkit.MODEL_IDS + ("", "nope", "EXP_DECAY"))},
}
_SEQUENCES = ["hahn_echo.seq", "inversion_recovery.seq", "nutation.seq", "readout_vee.seq",
              "three_pulse_ed_echo.seq", "missing.seq"]
_FIT_INPUTS = ["golden_hahn_echo.csv", "golden_transient.csv", "golden_spectrum.csv", "missing.csv"]


@hs.composite
def _args(draw, command):
    """The arguments of ``command`` after its name, up to ``--config`` and ``--out``."""
    args = []
    if command == "run":
        args += [str(SEQ_DIR / draw(hs.sampled_from(_SEQUENCES))), "--n-static", "2", "--n-noise", "2"]
    if command == "fit":
        args += [str(SEQ_DIR / draw(hs.sampled_from(_FIT_INPUTS))), "--model",
                 draw(hs.sampled_from(fitkit.MODEL_IDS + ("nope",)))]
    elif draw(hs.booleans()):
        args += ["--seed", draw(_INT_ARGS)]
    flags = _FLAGS[command]
    for flag in draw(hs.lists(hs.sampled_from(sorted(flags)), max_size=3, unique=True)):
        args += [flag, draw(flags[flag])]
    return args


@hs.composite
def _configs(draw):
    """A config object over up to four keys of config's schema table, with
    some sections replaced by a value that is not an object."""
    data = {}
    for section, key in draw(hs.lists(hs.sampled_from(_CONFIG_KEYS), max_size=4, unique=True)):
        data.setdefault(section, {})[key] = draw(_JSON_VALUES)
    for section in draw(hs.lists(hs.sampled_from(sorted(config._SECTIONS)), max_size=2, unique=True)):
        data[section] = draw(_JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    return data


def _assert_finite_outputs(directory):
    """Every number in every CSV or JSON file under ``directory`` is finite."""
    def refuse(token):
        raise AssertionError(f"non-finite {token} in {path}")

    for path in directory.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=refuse)
            continue
        for line in text.splitlines():
            if line and not line.startswith("#") and line != "x,y":
                assert all(math.isfinite(float(v)) for v in line.split(",")), (path, line)


@pytest.mark.parametrize("command", ["spectrum", "transient", "run", "nutation", "fit"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=hs.data())
def test_exit_code_contract(tmp_path, capsys, command, data):
    """Any argument vector and config ends in 0, or in 2, 3 or 4 with one error line."""
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    argv = [command] + data.draw(_args(command), label="args")
    if command == "run" and data.draw(hs.booleans(), label="generated program"):
        program = tmp_path / "program.seq"
        program.write_text(data.draw(source_programs(EXTREME_TIMES, EXTREME_ANGLES, EXTREME_STEPS),
                                     label="program"))
        argv[1] = str(program)
    if command != "fit":  # fit takes no config
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(data.draw(_configs(), label="config")))
        argv += ["--config", str(cfg)]
    argv += ["--out", str(out / ("fit.json" if command == "fit" else "out.csv"))]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse refuses the argument vector
        rc = exc.code
    err = capsys.readouterr().err.splitlines()
    event(f"exit {rc}")
    assert rc in (0, 2, 3, 4)
    assert sum("error:" in line for line in err) == (rc != 0), err
    if rc != 0:
        assert len(err) == 1 and err[0].startswith("error: "), err
    _assert_finite_outputs(out)
