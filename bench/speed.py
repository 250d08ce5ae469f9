"""The machine's speed, sampled while the benchmark runs, to rescale timings.

The benchmark runs on a VM that shares its host with other tenants. The same
deterministic call runs at anything from 1x to 2x its fastest time. The
speed changes within a second and drifts over minutes, so two runs of the
same code made minutes apart differ by a quarter or more in wall time.

While a ``Meter`` is active, a timer interrupts the benchmark process every
``PERIOD_S`` seconds and times ``KERNEL``, a fixed 1 ms of small numpy array
ops, interpreted function calls and module loading (the mix the solver, the
atlas and the CLI's start-up are made of, and nothing from inlslab). ``Meter.seconds(t0, t1)`` rescales a stretch of
wall time by ``REF_S`` over the kernel time in and around it (``typical``),
after taking the kernel time out: it reads as the seconds the stretch would have
taken with the machine at its reference speed. A slower program still reads
slower; a slower machine does not.

The speed of one core is not that of the other, so a child process the
benchmark times (a CLI command, a set-up interpreter) runs under
``metered.py``, which samples inside the child and reports its samples; the
child's wall time is rescaled by those.
"""

from __future__ import annotations

import bisect
import marshal
import math
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: interval of the sampling timer in the benchmark process, and in a child
#: process, which lives for well under a second and needs samples sooner
PERIOD_S = 0.03
CHILD_PERIOD_S = 0.015
#: a stretch shorter than this is rescaled by the samples within this window
WINDOW_S = 1.0
#: The kernel time that defines the reference speed: about the 10th
#: percentile of 3000 back-to-back calls on a 2-vCPU Intel Xeon VM (Python
#: 3.11.7, numpy 2.4.6, one BLAS thread). Interleaved with the benchmark, a
#: sample takes longer, so rescaled seconds read below wall seconds.
REF_S = 0.0010

_X = np.linspace(0.0, 1.0, 1025)


@dataclass(frozen=True)
class _Pair:
    eta: float
    r: float


def _pair(k: int) -> dict:
    p = _Pair(0.01 * (k % 240), 1.1 + 0.03 * (k % 197))
    lo = max(1.0, 1.0 + p.eta / 3.0)
    if p.r < lo or math.isclose(p.r, lo):
        return {"eta": p.eta, "r": p.r, "ok": False, "gap": 0.0}
    return {"eta": p.eta, "r": p.r, "ok": True, "gap": math.log(p.r / lo)}


_MODULE = marshal.dumps(compile("""
class Term:
    def __init__(self, c, eta, r):
        self.c, self.eta, self.r = c, eta, r
    def scaled(self, t):
        return Term(self.c * t, self.eta, self.r)
def table(n, step=0.5, *rest, **opts):
    return {k: (k * step, str(k), rest, opts) for k in range(n)}
TABLE = table(40)
""", "<kernel>", "exec"))


def KERNEL() -> float:
    """Fixed work of about 1 ms: array arithmetic, a cumulative sum and a
    reduction on 1025 points, as in one descent step; small interpreted
    function calls, as in classifying (eta, r) pairs; and loading and running
    a small compiled module, as in an import."""
    acc = 0.0
    for k in range(16):
        y = np.exp(-_X * (1.0 + (k & 3)))
        z = np.cumsum(y * _X)
        acc += float(z[-1]) + float(np.dot(y, z))
    for k in range(400):
        acc += _pair(k)["gap"]
    for _ in range(18):
        ns = {}
        exec(marshal.loads(_MODULE), ns)
        acc += len(ns["TABLE"])
    return acc


def typical(durations: list[float]) -> float:
    """Mean of the fastest 80 % of the samples. A sample the VM preempts
    takes many times its usual time; a mean over the few samples of a
    short child process would follow those few outliers."""
    fast = sorted(durations)[:max(1, len(durations) * 4 // 5)]
    return statistics.fmean(fast)


class Meter:
    """Samples the speed while active (``with meter:``). A disabled meter
    samples nothing and ``seconds`` returns plain wall time."""

    def __init__(self, enabled: bool = True, period: float = PERIOD_S):
        self.enabled = enabled
        self.period = period
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._previous = None

    def __enter__(self):
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> None:
        """Take one sample now."""
        if self.enabled:
            self._sample(None, None)

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a late tick while the previous sample still runs
            return
        self._busy = True
        t0 = perf_counter()
        KERNEL()
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    def summary(self) -> dict:
        """What a child process reports: its sample count, their total time
        and their ``typical`` time."""
        d = self.durations
        return {"n": len(d), "sum_s": sum(d), "typical_s": typical(d) if d else None}

    def seconds(self, t0: float, t1: float, child: dict | None = None,
                pad: float | None = None) -> float:
        """Rescaled seconds of [t0, t1], sample time left out.

        The samples in [t0 - pad, t1 + pad] rescale it; by default ``pad``
        widens a stretch shorter than ``WINDOW_S`` to that. ``child`` is the
        ``summary`` of a child process that ran over [t0, t1]: its own samples
        rescale it instead, if it took any.
        """
        if not self.enabled:
            return t1 - t0
        if child and child["n"]:
            return (t1 - t0 - child["sum_s"]) * REF_S / child["typical_s"]
        if not self.starts:
            return t1 - t0
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        if pad is None:
            pad = max(0.0, (WINDOW_S - (t1 - t0)) / 2)
        a, b = bisect.bisect_left(self.starts, t0 - pad), bisect.bisect_left(self.starts, t1 + pad)
        around = self.durations[a:b] or self.durations
        return (t1 - t0 - sum(self.durations[i:j])) * REF_S / typical(around)

    def speed(self) -> dict:
        """Summary of the samples, relative to ``REF_S``."""
        d = self.durations
        if not d:
            return {"samples": 0}
        q = statistics.quantiles(d, n=10) if len(d) > 1 else [d[0]] * 9
        return {"samples": len(d), "ref_s": REF_S, "typical_x": typical(d) / REF_S,
                "p10_x": q[0] / REF_S, "p90_x": q[-1] / REF_S}
