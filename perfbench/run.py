"""spintrap benchmark: CLI workloads timed end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload echo_sweep --seed 1 --seconds 40 --trace 0

A run makes passes over the workload's ``spintrap`` CLI calls: at least two,
and more while the next is expected to end within ``--seconds``.  Each call
runs in a fresh interpreter, one at a time: a closed loop with one client,
as a user at a shell runs them.  Every output is checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as the
low median over passes (of two passes, the lower).  ``--trace 1`` makes one
untraced pass and two traced passes and reports the per-layer metrics: spans
around each module's public functions (``spans.py``) and ``-X importtime``.
The work counts of the two traced passes must be identical, or the run fails.

The first line of standard output is ``run {...}``: the workload, seed,
trace flag and the machine as JSON.  The last line is the result as JSON.
``compare.py`` reads files of these outputs.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEQ = "src/spintrap/sequences/v1"  # relative to ROOT, the calls' working directory
CONFIG = f"{SEQ}/pulsed_defaults.json"
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 2
CALL_TIMEOUT_S = 150.0
RUN_LIMIT_S = 150.0  # no pass starts that would end after this

# counts that must repeat exactly between two traced passes of one seed
EXACT_SUFFIXES = (".calls", ".events", ".traj_points", ".nfev", ".starts", ".converged",
                  ".rows", ".bytes", ".points")


@dataclass
class Call:
    argv: list[str]
    output: str | None = None  # file in the pass directory the check reads
    check: Callable[[str], str | None] | None = None


def workload_calls(name: str, seed: int, out: Path, workers: int) -> list[Call]:
    """The CLI calls of one pass; outputs go to ``out``."""
    s = str(seed)
    if name == "echo_sweep":
        return [
            Call(["run", f"{SEQ}/hahn_echo.seq", "--config", CONFIG, "--workers", "1",
                  "--seed", s, "--out", str(out / "echo.csv")], "echo.csv", checks.echo_trace),
            Call(["fit", str(out / "echo.csv"), "--model", "echo_cubic",
                  "--compare-with", "exp_decay", "--out", str(out / "echo_fit.json")],
                 "echo_fit.json", checks.echo_fit),
        ]
    if name == "charge_sweep":
        return [
            Call(["run", f"{SEQ}/three_pulse_ed_echo.seq", "--config", CONFIG,
                  "--workers", str(workers), "--seed", s, "--out", str(out / "charge.csv")],
                 "charge.csv", checks.charge_trace),
        ]
    if name == "noise_free":
        return [
            Call(["spectrum", "--seed", s, "--out", str(out / "spectrum.csv")],
                 "spectrum.csv", checks.spectrum_trace),
            Call(["transient", "--seed", s, "--out", str(out / "transient.csv")],
                 "transient.csv", checks.transient_trace),
            Call(["nutation", "--seed", s, "--out", str(out / "nutation.csv")],
                 "nutation.csv", checks.nutation_trace),
            Call(["run", f"{SEQ}/nutation.seq", "--config", CONFIG, "--seed", s,
                  "--out", str(out / "nutation_seq.csv")], "nutation_seq.csv",
                 checks.nutation_seq_trace),
            Call(["fit", str(out / "transient.csv"), "--model", "trap_biexp",
                  "--out", str(out / "transient_fit.json")], "transient_fit.json",
                 checks.trap_fit),
        ]
    raise SystemExit(f"unknown workload {name!r}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_call(call: Call, traced: bool, out: Path, index: int) -> dict:
    """Run one CLI call in a fresh interpreter and time it from outside."""
    report_path = out / f"call{index}.report.json"
    stderr_path = out / f"call{index}.stderr"
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
           str(HERE / "launch.py"), str(report_path), "1" if traced else "0", "--", *call.argv]
    with open(out / f"call{index}.stdout", "wb") as stdout, open(stderr_path, "wb") as stderr:
        start = time.monotonic()  # the clock launch.py stamps its report with
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = {}
    stderr_lines = stderr_path.read_text(errors="replace").splitlines()
    result = {
        "argv": call.argv,
        "code": proc.returncode,
        "wall_s": end - start,
        "main_s": report.get("main_s", 0.0),
        "import_s": report.get("import_s", 0.0),
        "start_s": report["started"] - start if "started" in report else 0.0,
        "exit_s": end - report["main_end"] if "main_end" in report else 0.0,
        "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "problem": None,
    }
    if proc.returncode != 0:
        last = next((l for l in reversed(stderr_lines) if not l.startswith("import time:")), "")
        result["problem"] = f"exit {proc.returncode}: {last}"
    elif call.check is not None:
        try:
            result["problem"] = call.check(str(out / call.output))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result["problem"] = f"unreadable output {call.output}: {exc!r}"
    if traced:
        result["report"] = report
        result["stderr"] = stderr_lines
    return result


def run_pass(name: str, seed: int, traced: bool, workers: int, number: int) -> dict:
    out = Path(tempfile.mkdtemp(prefix=f"pass{number}-", dir=WORK))
    try:
        calls = [run_call(call, traced, out, i)
                 for i, call in enumerate(workload_calls(name, seed, out, workers))]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for call in calls:
        if call["problem"]:
            print(f"FAILED {' '.join(call['argv'][:2])}: {call['problem']}", file=sys.stderr)
    result = {
        "traced": traced,
        "wall_s": sum(c["wall_s"] for c in calls),
        "setup_s": sum(c["wall_s"] - c["main_s"] for c in calls),
        "peak_rss_mb": max(c["rss_mb"] for c in calls),
        "calls": calls,
    }
    if traced:
        result["layers"], result["absent"] = layers.pass_metrics(calls)
        for call in calls:  # keep the spans, drop the bulky import log
            del call["stderr"]
    return result


def machine_info() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    git_sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        git_sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "spintrap").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


def end_to_end(passes: list[dict]) -> dict[str, float]:
    # the low median: with two passes, one slow or bloated pass does not move it
    return {key: statistics.median_low(p[key] for p in passes)
            for key in ("wall_s", "setup_s", "peak_rss_mb")}


def per_layer(untraced: dict, traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Median layer metrics of the traced passes; raises if their counts differ."""
    first, second = (p["layers"] for p in traced)
    exact = sorted(k for k in first.keys() | second.keys() if k.endswith(EXACT_SUFFIXES))
    differ = [f"{k}: {first.get(k)} != {second.get(k)}"
              for k in exact if first.get(k) != second.get(k)]
    if differ:
        raise RuntimeError("work counts differ between two traced passes of one seed: "
                           + "; ".join(differ))
    merged = {k: first[k] if k in exact else statistics.median((first[k], second[k]))
              for k in first.keys() & second.keys()}
    merged["tracing.overhead_s"] = merged["tracing.wall_s"] - untraced["wall_s"]
    absent = sorted(set().union(*(p["absent"] for p in traced)))
    return merged, absent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "spintrap" / "cli.py").is_file():
        print(f"error: no spintrap sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; expected one of {names}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    machine = machine_info()
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                               "seconds": args.seconds, "machine": machine}, sort_keys=True))
    workers = min(2, machine["nproc"])  # never more threads than cores
    WORK.mkdir(exist_ok=True)

    correct = True
    absent: list[str] = []
    if args.trace:
        passes = [run_pass(args.workload, args.seed, False, workers, 0)]
        passes += [run_pass(args.workload, args.seed, True, workers, n) for n in (1, 2)]
        try:
            values, absent = per_layer(passes[0], passes[1:])
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            values, correct = passes[1]["layers"], False
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(args.workload, args.seed, False, workers, len(passes)))
            elapsed = time.perf_counter() - start
            next_end = elapsed + elapsed / len(passes)
            if next_end > RUN_LIMIT_S or (len(passes) >= MIN_PASSES and next_end > args.seconds):
                break
        values = end_to_end(passes)

    attempted = sum(len(p["calls"]) for p in passes)
    failed = sum(1 for p in passes for c in p["calls"] if c["problem"])
    correct = correct and failed == 0
    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"walls_s={[round(p['wall_s'], 3) for p in passes]} "
          f"setups_s={[round(p['setup_s'], 3) for p in passes]} "
          f"rss_mb={[round(p['peak_rss_mb'], 1) for p in passes]}")
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fail_frac':<42} {failed / attempted:>14.6g} ratio ({failed}/{attempted} calls)")
    if missing:
        print(f"  not measured (reported as 0): {', '.join(missing)}")
    if absent:
        print(f"  absent from the program: {', '.join(absent)}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
