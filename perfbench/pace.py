"""Machine-speed pacer: time measured against a fixed reference speed.

The benchmark's host gives each vCPU a hyperthread of a shared core, and the
speed of that core changes by up to 1.6x within a second or two, as other
work on the sibling thread comes and goes (a fixed pure-Python loop takes
24 to 38 ms over one minute, with CPU time equal to wall time, so the
process is not descheduled; it runs slower). Two vCPUs drift apart, so a
probe on the other CPU cannot stand in for this one. The pacer therefore
samples the speed of the benchmark's own thread while it works: a
``SIGALRM`` every ``INTERVAL`` seconds runs a short fixed kernel in the
main thread and records how long it took.

Between two samples the thread's speed is taken as the mean of their
speeds (kernel time on an unloaded core over kernel time measured). The
work done in a wall interval is the integral of that speed over it, the
samples' own time excluded; ``seconds(t0, t1)`` returns it, in seconds at
the reference speed. Ops timed on a loaded core and on an idle core of the
same machine then read within a few percent of each other (the quartile
spread of one op's wall times, 20-50% within a run, falls to 3-7%), and a
program that does less work reads less.
"""

from __future__ import annotations

import bisect
import signal
import time

#: seconds between samples; each sample costs about 2% of that
INTERVAL = 0.025


def _python_kernel(_tab=tuple(range(64))) -> float:
    """Bytecode-bound kernel, for the set-up probe (before numpy loads)."""
    acc = 0.0
    box = {}
    for i in range(1500):
        acc += _tab[i & 63] * 0.5 - acc * 1e-3
        box[i & 15] = acc
        acc += len(box)
    return acc


def _numpy_kernel() -> float:
    """Coordinate-descent-like kernel: numpy scalar reads and small column
    updates on a fixed 32-coefficient problem, as in the solver's sweeps
    (it tracks the program's slowdown on a loaded core better than bytecode
    alone or a large-array pass)."""
    import numpy as np

    g = np.sin(np.arange(1024.0)).reshape(32, 32) * 0.01
    b = np.zeros(32)
    rho = np.linspace(-1.0, 1.0, 32)
    for _ in range(4):
        for j in range(32):
            old = b[j]
            u = rho[j] + old
            new = u - 0.1 if u > 0.1 else (u + 0.1 if u < -0.1 else 0.0)
            if new != old:
                rho -= g[:, j] * (new - old)
                b[j] = new
    return float(b.sum())


#: kernel name -> (kernel, its seconds on an unloaded core: the 5th
#: percentile of 15 s of calls on an Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4)
KERNELS = {
    "python": (_python_kernel, 2.8e-4),
    "numpy": (_numpy_kernel, 2.1e-4),
}


class Pacer:
    """Samples this thread's speed while started; see the module docstring."""

    def __init__(self, kernel: str = "numpy"):
        self._kernel, self._ref = KERNELS[kernel]
        self._kernel()  # first call pays for lazy imports, untimed
        self.samples: list[tuple[float, float, float]] = []  # (start, end, speed)
        self._times = self._work = None
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, t1, self._ref / (t1 - t0)))

    def start(self) -> "Pacer":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self) -> None:
        """Stop sampling (one last sample closes the record) and restore
        the previous SIGALRM handler."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()
        self._integrate()

    def __enter__(self) -> "Pacer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _integrate(self) -> None:
        # cumulative work at every sample's start and end; a sample does
        # no work of the program, the gap before it runs at the mean speed
        # of the samples on either side
        times, work = [], []
        total = 0.0
        prev_end = prev_speed = None
        for start, end, speed in self.samples:
            if prev_end is not None:
                total += (start - prev_end) * 0.5 * (prev_speed + speed)
            times += [start, end]
            work += [total, total]
            prev_end, prev_speed = end, speed
        self._times, self._work = times, work

    def work_at(self, t: float) -> float:
        """Work done from the first sample to wall time ``t``, in seconds at
        the reference speed (call after ``stop``)."""
        times, work = self._times, self._work
        i = bisect.bisect_right(times, t)
        if i == 0 or i == len(times):
            raise ValueError(f"time {t} lies outside the paced interval")
        t_lo, t_hi = times[i - 1], times[i]
        if t_hi == t_lo:
            return work[i]
        return work[i - 1] + (work[i] - work[i - 1]) * (t - t_lo) / (t_hi - t_lo)

    def seconds(self, t0: float, t1: float) -> float:
        """Work done in the wall interval [t0, t1], in seconds at the
        reference speed (call after ``stop``)."""
        return self.work_at(t1) - self.work_at(t0)

    def slowdown(self) -> float:
        """Mean kernel time over its reference time, over all samples."""
        return sum(1.0 / s for _, _, s in self.samples) / len(self.samples)
