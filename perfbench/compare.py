"""Summarise benchmark runs, or compare two sets of them.

Usage::

    python3 perfbench/compare.py NEW.log              # medians and spreads
    python3 perfbench/compare.py BASE.log NEW.log     # ratios NEW / BASE

Each file holds the standard output of ``run.py`` runs, appended one after
another, usually several seeds of each workload.  A run's ``run {...}``
line names its workload, seed, trace flag and machine; its last line is the
result.  Per workload it prints ``fail_frac``, the failed calls over the
attempted calls of all its runs, and per metric the median over the correct
runs and the spread, the distance between the first and third quartile as a
share of the median.  Runs that were not correct are left out of the
medians.

With two files it also prints the ratio of the medians.  An end-to-end
metric whose spread on either side exceeds its bound in ``BENCHMARK.json``
is marked unresolved, unless every new run beats every base run; otherwise
it is marked regressed when the new median is worse than the base by more
than the bound.  The exit code is 1 when a metric regressed or the new side
has a higher ``fail_frac`` than the base (with one file: when any call
failed).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path: str) -> tuple[dict, dict, list[dict]]:
    """Metric values of the correct runs, [failed, attempted] calls, machines.

    The first two are keyed by (workload, trace); values are
    ``{metric: [value per run]}``.
    """
    values: dict = defaultdict(lambda: defaultdict(list))
    calls: dict = defaultdict(lambda: [0, 0])
    machines = []
    run = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("run {"):
                run = json.loads(line[len("run "):])
                if run["machine"] not in machines:
                    machines.append(run["machine"])
                continue
            if not line.startswith("{") or run is None:
                continue
            result = json.loads(line)
            key = (run["workload"], run["trace"])
            calls[key][0] += result["failed"]
            calls[key][1] += result["attempted"]
            if not result["correct"]:
                print(f"{path}: {run['workload']} seed {run['seed']} trace {run['trace']} "
                      "was not correct; left out of the medians", file=sys.stderr)
            else:
                for name, metric in result["metrics"].items():
                    values[key][name].append(metric["value"])
            run = None
    return values, calls, machines


def fail_frac(counts: list[int]) -> float:
    failed, attempted = counts
    return failed / attempted if attempted else 0.0


def summary(values: list[float]) -> tuple[float, float]:
    """Median and quartile spread as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def worse_by(metric: dict, base: float, new: float) -> float:
    """How much worse new is than base, as a share of base."""
    change = (new - base) / abs(base)
    return -change if metric["better"] == "higher" else change


def verdict(metric: dict, base: list[float], new: list[float]) -> str:
    bound = metric.get("bound")
    if bound is None:
        return ""
    (b_med, b_spread), (n_med, n_spread) = summary(base), summary(new)
    if max(b_spread, n_spread) > bound:
        all_better = all(worse_by(metric, b, n) < 0 for b in base for n in new)
        return "better in every run" if all_better else "unresolved"
    return "REGRESSED" if worse_by(metric, b_med, n_med) > bound else "within bound"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(path) for path in argv]
    for path, (_, _, machines) in zip(argv, sides):
        for machine in machines:
            print(f"{path}: machine {json.dumps(machine, sort_keys=True)}")
    new, new_calls, _ = sides[-1]
    base, base_calls = sides[0][:2] if len(sides) == 2 else (None, None)
    regressed = False
    for key in sorted(new_calls):
        workload, trace = key
        print(f"\n{workload} (trace={trace})")
        failed, attempted = new_calls[key]
        line = (f"  {'fail_frac':<40} calls={attempted:<3} "
                f"value={fail_frac(new_calls[key]):<12.6g} ratio")
        if base is None:
            regressed |= failed > 0
        elif key in base_calls:
            more = fail_frac(new_calls[key]) > fail_frac(base_calls[key])
            regressed |= more
            line += (f"  base={fail_frac(base_calls[key]):<12.6g} "
                     + ("MORE FAILURES" if more else "no more failures"))
        print(line)
        for name, new_values in new[key].items():
            metric = METRICS.get(name, {"name": name, "unit": "?", "better": "lower"})
            median, spread = summary(new_values)
            bound = metric.get("bound")
            line = (f"  {name:<40} n={len(new_values):<3} median={median:<12.6g} "
                    f"{metric['unit']:<6} spread={spread:6.1%}")
            if base is None:
                if bound is not None:
                    line += f"  bound={bound:.0%} " + ("steady" if spread < bound / 3 else
                                                       "within bound" if spread <= bound else
                                                       "UNSTEADY")
            elif name in base.get(key, {}):
                base_values = base[key][name]
                base_median = statistics.median(base_values)
                ratio = median / base_median if base_median else float("nan")
                status = verdict(metric, base_values, new_values)
                regressed |= status == "REGRESSED"
                line += f"  base={base_median:<12.6g} ratio={ratio:.4f} {status}"
            print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
