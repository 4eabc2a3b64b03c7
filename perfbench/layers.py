"""Per-layer metrics of one traced pass, from spans and ``-X importtime``.

A pass is the workload's sequence of CLI calls.  Each traced call leaves a
report from ``launch.py`` (spans, counters, absent targets) and the
interpreter's ``-X importtime`` lines on stderr.  Times are summed over the
pass's calls; a layer's self time is its span time minus the time of the
spans it directly caused.
"""

from __future__ import annotations

from collections import defaultdict

from spans import COUNTERS, TARGETS

# modules whose import time is reported on its own; each value excludes the
# tracked modules imported beneath it, so the four add up to every import
# made from these modules (any spintrap.* module counts as spintrap)
IMPORTS = {
    "numpy": "import.numpy_s",
    "scipy.signal": "import.scipy_signal_s",
    "scipy.optimize": "import.scipy_optimize_s",
    "spintrap": "import.spintrap_s",
}
ENGINE = "blochsim.run_timeline_by_channel"


def parse_importtime(lines) -> dict[str, float]:
    """Exclusive seconds per tracked module.

    ``-X importtime`` prints ``import time: self | cumulative | name`` in
    microseconds, children before their parent, nested two spaces a level.
    """
    exclusive = defaultdict(float)
    pending: list[tuple[int, float]] = []  # (depth, tracked time) awaiting an ancestor
    for line in lines:
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        cumulative = int(fields[1]) * 1e-6
        raw = fields[2].rstrip("\n")
        name = raw.strip()
        if name.startswith("spintrap."):
            name = "spintrap"
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        inner = 0.0
        while pending and pending[-1][0] > depth:
            inner += pending.pop()[1]
        if name in IMPORTS:
            exclusive[IMPORTS[name]] += cumulative - inner
            pending.append((depth, cumulative))
        elif inner:
            pending.append((depth, inner))
    return {metric: exclusive.get(metric, 0.0) for metric in IMPORTS.values()}


def pass_metrics(calls: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Layer metrics of one traced pass and the names it could not measure.

    Each call dict holds the times ``run.py`` takes (``wall_s``,
    ``start_s``, ``import_s``, ``exit_s``), the ``report`` of launch.py and
    the ``stderr`` lines.  ``tracing.coverage`` is the share of the pass's
    wall time in a span that ``cli.main`` called directly or in an
    ``import.*`` layer.  ``tracing.coverage_with_interpreter`` adds
    interpreter start (spawn to the first line of launch.py) and exit (the
    end of ``main`` to the parent seeing the process end).
    """
    metrics: dict[str, float] = defaultdict(int)
    absent: set[str] = set()
    top_level = wall = engine_cpu = 0.0
    for call in calls:
        wall += call["wall_s"]
        for key in ("start_s", "import_s", "exit_s"):
            metrics[f"interpreter.{key}"] += call[key]
        report = call["report"]
        absent.update(report.get("absent", ()))
        spans = report.get("spans", [])
        for name, start, end, parent, _cpu in spans:
            span = end - start
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.busy_s"] += span
            metrics[f"{name}.self_s"] += span
            if parent is not None:
                parent_name = spans[parent][0]
                metrics[f"{parent_name}.self_s"] -= span
                if parent_name == "cli.main":
                    top_level += span
        engine_cpu += sum(s[4] for s in spans if s[0] == ENGINE)
        for key, value in report.get("counters", {}).items():
            metrics[key] += value
        for key, value in parse_importtime(call["stderr"]).items():
            metrics[key] += value

    # a wrapped function that was never called did zero work
    for module, functions in TARGETS.items():
        for function in functions:
            name = f"{module}.{function}"
            if name in absent:
                continue
            for suffix in ("calls", "busy_s", "self_s"):
                metrics.setdefault(f"{name}.{suffix}", 0)
    for target, (names, _) in COUNTERS.items():
        for name in names:
            if target in absent or f"{target} counters" in absent:
                metrics.pop(name, None)
            else:
                metrics.setdefault(name, 0)

    engine_busy = metrics.get(f"{ENGINE}.busy_s", 0.0)
    if engine_busy > 0:
        metrics["blochsim.parallelism"] = engine_cpu / engine_busy
        if "blochsim.traj_points" in metrics:
            metrics["blochsim.traj_points_per_s"] = metrics["blochsim.traj_points"] / engine_busy
    starts = metrics.get("fitkit.minimize.starts", 0)
    if starts:
        metrics["fitkit.minimize.converged_ratio"] = metrics["fitkit.minimize.converged"] / starts
    imports = sum(metrics[name] for name in IMPORTS.values())
    metrics["tracing.coverage"] = (top_level + imports) / wall
    process = sum(metrics[f"interpreter.{k}"] for k in ("start_s", "exit_s"))
    metrics["tracing.coverage_with_interpreter"] = (top_level + imports + process) / wall
    metrics["tracing.wall_s"] = wall
    return dict(metrics), sorted(absent)
