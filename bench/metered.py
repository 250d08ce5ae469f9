"""Run a Python script or module with the speed meter of speed.py on.

    python3 bench/metered.py REPORT -m MODULE [ARGS...]
    python3 bench/metered.py REPORT SCRIPT [ARGS...]

runs MODULE (as ``python -m`` would) or SCRIPT with ARGS while a ``Meter``
samples the machine's speed in this process every ``CHILD_PERIOD_S``, and at exit writes the
meter's ``summary`` as JSON to the file REPORT. One untimed kernel call
first warms up the kernel, whose first call in a fresh process is slow; its
time is added to the summary's ``sum_s``, the time the samples took. Standard output, standard
error and the exit code are those of the program run.
"""

import atexit
import json
import runpy
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from speed import CHILD_PERIOD_S, KERNEL, Meter  # noqa: E402


def main() -> None:
    report, rest = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    KERNEL()
    warm_s = perf_counter() - t0
    meter = Meter(enabled=True, period=CHILD_PERIOD_S).__enter__()

    def write_report():
        meter.__exit__(None, None, None)
        summary = meter.summary()
        summary["sum_s"] += warm_s
        Path(report).write_text(json.dumps(summary))

    atexit.register(write_report)
    if rest[0] == "-m":
        sys.argv = [rest[1], *rest[2:]]
        runpy.run_module(rest[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = rest
        sys.path[0] = str(Path(rest[0]).resolve().parent)
        runpy.run_path(rest[0], run_name="__main__")


if __name__ == "__main__":
    main()
