"""How fast the core ran while a pass computed, from probes inside the pass.

The 2-vCPU hosts this benchmark was built on share cores with other
tenants: the same Python work takes up to 1.8x longer while a neighbour is
busy, in phases of seconds to minutes, and the hypervisor at times holds a
vCPU back (steal time) for a quarter of a pass, so raw pass times spread by
20-35% from run to run.

``SpeedProbe`` measures that slowdown where it happens: every 20 ms of the
process's CPU time (``ITIMER_PROF``) it times a fixed exact-arithmetic probe
(``Fraction`` products into a dict, like the program's own inner loops, and
independent of the program's code).  The pass's speed factor is the mean of
``P_REF_S / probe time`` over the samples; the pass's wall and CPU times,
multiplied by it, are the times it would have taken at the reference speed.
Probes are timed in thread CPU time and the wall time first loses the steal
time of the pass (``stolen_s``, from ``/proc/stat``, shared out over the
processes that compute), so time the hypervisor took counts in neither.

Pool workers forked by a parallel suite start their own probe through the
``run_case`` wrapper of ``follow_pool`` and send their samples back with each
case result.
"""

from __future__ import annotations

import functools
import os
import signal
import time
from fractions import Fraction

# probe time on an uncontended core of the Intel Xeon (2 vCPU, Python 3.11)
# the benchmark was defined on; it only sets the scale of normalized times
P_REF_S = 0.0004
INTERVAL_S = 0.02
CHILD_KEY = "_bench_speed"

_OPERANDS = [Fraction(i + 1, 2 * i + 3) for i in range(12)]


def probe() -> float:
    """CPU seconds of one probe; CPU time leaves out time the hypervisor stole."""
    t0 = time.thread_time()
    out = {}
    for i, x in enumerate(_OPERANDS):
        for j, y in enumerate(_OPERANDS):
            key = (i, j % 5)
            out[key] = out.get(key, 0) + x * y
    return time.thread_time() - t0


def stolen_s() -> float:
    """Seconds the hypervisor has held back this machine's CPUs, summed (0 if unknown)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()   # cpu user nice system idle iowait irq softirq steal
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def speed_factor(samples: list[float]) -> float:
    return P_REF_S * sum(1 / p for p in samples) / len(samples)


def probe_factor(n: int = 10) -> float:
    """Speed factor of this moment, from ``n`` probes in a row."""
    return speed_factor([probe() for _ in range(n)])


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self._pid = os.getpid()

    def _on_signal(self, signum, frame):
        self.samples.append(probe())

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor(self) -> float:
        return speed_factor(self.samples or [probe()])

    def follow_pool(self, suite) -> None:
        """Make pool workers forked by ``suite.run_suite`` probe themselves."""
        original = suite.run_case
        parent = os.getpid()

        @functools.wraps(original)
        def run_case(case, *rest, **kwargs):
            if os.getpid() == parent:
                return original(case, *rest, **kwargs)
            if self._pid != os.getpid():          # first case in a forked worker
                self._pid = os.getpid()
                self.samples = []
                signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
            result = dict(original(case, *rest, **kwargs))
            result[CHILD_KEY], self.samples = self.samples, []
            return result

        suite.run_case = run_case

    def absorb_children(self, case_results: list[dict]) -> None:
        for r in case_results:
            self.samples.extend(r.pop(CHILD_KEY, ()))
