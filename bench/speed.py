"""Wall times scaled to a reference host speed.

The benchmark's host is shared with other tenants, and its speed is not
steady: the same work runs up to about 2x slower for seconds at a time, and
the share of slow time in a 30 s window ranges from none to all of it.  No
statistic within one run removes that.

So every timed call runs under a :class:`Speedometer`, which times fixed
reference work next to the call.  The call's wall time, minus any reference
work inside it, divided by the reference's time over a fixed value (its
time in a fast phase of the host), is the call's time at the reference
speed.

* A call in this process: a *tick*, a fixed loop of small numpy products
  and a Python loop (about 0.14 ms), runs ``EDGE_TICKS`` times before the
  call and as often after it, and every ``TICK_S`` seconds during it from a
  ``SIGALRM`` handler.  The mean of evenly spaced ticks weights each speed
  state by the time the call spent in it.
* A call that waits on a child process: a reference child process, an
  interpreter that starts and exits, runs once before the call and once
  after it.  Ticks do not serve here.  A tick that preempts the child finds
  the caches full of the child's data, and ticks around the child missed
  slow phases that doubled the time of process start-up.  Child processes
  take well under a second.

The reference work does not depend on the program, so a faster program
still reads faster.  The benchmark runs on one CPU together with its
children (``run.pin_one_cpu``), so the reference runs where the work runs.
"""

from __future__ import annotations

import signal
import subprocess
import sys
from time import perf_counter

import numpy as np

#: Seconds between ticks while a call in this process runs.
TICK_S = 0.01

#: Ticks just before and just after every timed call in this process.
EDGE_TICKS = 5

#: Times of one tick and of one reference process in a fast phase of a
#: 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4).  They fix the unit: scaled
#: times read roughly as seconds on that host at that speed.
TICK_REF_S = 1.4e-4
PROCESS_REF_S = 0.040

REFERENCE_PROCESS = (sys.executable, "-c", "pass")

_A = np.linspace(0.1, 1.0, 64).reshape(4, 16)


def reference_loop() -> float:
    """Fixed work shaped like the solver: small numpy products and a Python loop."""
    x = np.full(16, 1.0 / 16)
    s = 0.0
    for _ in range(12):
        g = _A.T @ (_A @ x) - 0.5
        x = np.clip(x - 0.01 * g, 1e-9, None)
        x /= x.sum()
        for v in x.tolist():
            s += v * v
    return s


def reference_process() -> None:
    subprocess.run(REFERENCE_PROCESS, check=True, capture_output=True, timeout=60)


class Speedometer:
    """Context manager: ``wall``, ``work`` (wall minus ticks), ``factor``
    (mean reference time over its fixed value) and ``scaled`` (work at
    reference speed).

    ``child=True`` is for a call that waits on a child process.
    """

    def __init__(self, child: bool = False):
        self.child = child
        self.ticks: list[float] = []
        self.in_call = 0.0
        self.wall = self.work = self.factor = self.scaled = 0.0

    def _tick(self, *_signal) -> None:
        t0 = perf_counter()
        if self.child:
            reference_process()
        else:
            reference_loop()
        spent = perf_counter() - t0
        self.ticks.append(spent)
        self.in_call += spent

    def _edge(self) -> None:
        for _ in range(1 if self.child else EDGE_TICKS):
            self._tick()

    def __enter__(self) -> "Speedometer":
        self.ticks = []
        self._edge()
        if not self.child:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.in_call = 0.0
        self._start = perf_counter()
        if not self.child:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *_exc) -> None:
        if not self.child:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall = perf_counter() - self._start
        if not self.child:
            signal.signal(signal.SIGALRM, self._previous)
        self.work = max(self.wall - self.in_call, 0.0)
        in_call = self.in_call
        self._edge()
        self.in_call = in_call
        ref_s = PROCESS_REF_S if self.child else TICK_REF_S
        self.factor = sum(self.ticks) / len(self.ticks) / ref_s
        self.scaled = self.work / self.factor
