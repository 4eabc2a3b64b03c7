"""Run one spintrap CLI call in a fresh interpreter and report its timing.

Usage::

    python3 launch.py REPORT_JSON TRACE -- CLI_ARGS...

This is what the ``spintrap`` console script does (import ``spintrap.cli``
and call ``main``), plus clocks around both.  The report holds:

- ``import_s``: the time to import ``spintrap.cli``;
- ``main_s``: the time spent inside ``main``;
- ``started`` and ``main_end``: monotonic timestamps of reaching this script
  and of leaving ``main``, from which the parent times interpreter start
  and exit.

Everything the parent measures around this process outside ``main`` is
set-up time.  With ``TRACE`` = 1 the public functions of each module are
wrapped first (see ``spans.py``), and the report also holds their spans and
work counts.
"""

import time

STARTED = time.monotonic()  # CLOCK_MONOTONIC: one clock for every process

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    report_path, traced = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: launch.py REPORT_JSON TRACE -- CLI_ARGS...")
    argv = sys.argv[4:]

    report = {"started": STARTED}
    start = time.monotonic()
    from spintrap import cli

    report["import_s"] = time.monotonic() - start
    recorder = None
    if traced:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    start = time.monotonic()
    try:
        code = cli.main(argv)
    finally:
        report["main_end"] = time.monotonic()
        report["main_s"] = report["main_end"] - start
        if recorder is not None:
            report.update(recorder.report())
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
