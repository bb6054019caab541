"""Speed-calibrated timing: seconds at a fixed reference speed.

The benchmark runs on a few cores of a shared host.  The speed those cores
give one process drifts by tens of percent over seconds to minutes, with the
load of other tenants, so raw wall time of the same code spreads too widely
between runs to resolve a regression.  A fixed reference kernel (pure Python,
independent of charprod) is therefore timed while the program runs: inside a
measured window, at a fixed interval of wall time, from a SIGALRM handler in
the main thread (between bytecodes of the program).

The program's own time in a window is the clock difference minus the time of
the kernel runs taken meanwhile.  Its calibrated time is that own time times
``REFERENCE_S`` over the mean kernel time in the window: the seconds the code
would take at the speed at which the kernel takes exactly ``REFERENCE_S``.
The mean, not the median, of the kernel samples is used, because a slow spell
costs the program time in proportion to its length.  Wall and CPU time are
calibrated separately, by the kernel's wall and CPU time.

Only samples interleaved with the program are used.  Kernel runs made back
to back, outside the program, do not track its speed: their mean swings
between about 0.45 and 1 ms from one burst to the next on a 2-core VM, while
the interleaved mean stays within a few percent of the program's speed.
"""

from __future__ import annotations

import gc
import importlib
import signal
import statistics
import time
from contextlib import contextmanager

REFERENCE_S = 1e-3  # kernel time that defines the reference speed
INTERVAL_S = 0.1  # wall seconds between samples inside a pass
SHORT_INTERVAL_S = 0.01  # inside a set-up or an import, 0.03 to 7 s long
MIN_SAMPLES = 5  # fewer samples than this do not calibrate a window alone


def kernel():
    """Fixed reference work, about 1 ms: composing small permutations given
    as lists, hashing tuples into a dict, and modular integer arithmetic."""
    acc = 0
    for _ in range(5):
        p = list(range(64))
        q = p[1:] + p[:1]
        seen = {}
        for i in range(40):
            p = [q[x] for x in p]
            seen[tuple(p)] = i
            acc = (acc * 31 + p[i % 64]) % 1000003
    return acc


class Scale:
    """Factors that turn a window's own seconds into calibrated seconds, and
    the number of kernel samples they rest on; set when the window closes.
    A window without samples keeps the factors 1 and has ``samples == 0``."""

    def __init__(self, wall=1.0, cpu=1.0, samples=0):
        self.wall, self.cpu, self.samples = wall, cpu, samples


class RawClock:
    """No calibration: own time is clock time, every factor is 1.  Used by
    traced runs, where kernel samples would land inside the spans."""

    def now(self):
        return time.perf_counter(), time.process_time()

    @contextmanager
    def window(self, interval=INTERVAL_S):
        yield Scale()

    def run_scale(self):
        return Scale()


class Sampler:
    """Samples the reference kernel inside measured windows."""

    def __init__(self):
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self.samples = []  # (wall, cpu) seconds of each kernel run

    def sample(self):
        was_enabled = gc.isenabled()
        gc.disable()  # the program's garbage is collected on its own time
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            kernel()
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append((wall, cpu))
        self.spent_wall += wall
        self.spent_cpu += cpu

    def now(self):
        """(wall, cpu) clock readings net of every kernel run so far; the
        difference of two readings is the program's own time between them."""
        return time.perf_counter() - self.spent_wall, time.process_time() - self.spent_cpu

    @contextmanager
    def window(self, interval=INTERVAL_S):
        first = len(self.samples)
        scale = Scale()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield scale
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        scale.samples = len(self.samples) - first
        if scale.samples:
            scale.wall, scale.cpu = self._factors(self.samples[first:])

    def run_scale(self):
        """Factors over every sample so far, for times measured outside the
        windows or in windows too short to hold a sample."""
        scale = Scale(samples=len(self.samples))
        if self.samples:
            scale.wall, scale.cpu = self._factors(self.samples)
        return scale

    @staticmethod
    def _factors(samples):
        walls, cpus = zip(*samples)
        return REFERENCE_S / statistics.mean(walls), REFERENCE_S / max(statistics.mean(cpus), 1e-9)


def trusted(scale, run_scale):
    """``scale``, or ``run_scale`` when ``scale`` rests on too few samples."""
    return scale if scale.samples >= MIN_SAMPLES else run_scale


def timed_import(names):
    """Own wall seconds to import the modules ``names``, in order, and the
    Scale sampled meanwhile."""
    clock = Sampler()
    with clock.window(SHORT_INTERVAL_S) as scale:
        start, _ = clock.now()
        for name in names:
            importlib.import_module(name)
        end, _ = clock.now()
    return end - start, scale
