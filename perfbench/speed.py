"""Machine speed, read from a fixed kernel between workload calls.

On a machine whose cores are shared, the same pass can take 40 % more or
less time from one second to the next, while a change to the program
moves its time by far less than that. So every interval the benchmark
gates is reported in reference seconds as well as in seconds: the time
the interval would have taken had the machine run the reference kernel in
``NOMINAL_S`` throughout. The kernel (small numpy vector arithmetic in a
Python loop, like a solver step) is timed at ticks: once in the parent
just before it starts a worker, then in the worker every ``TICK_S`` from
an interval timer (SIGALRM: a signal handler, not a thread, so it runs
between the workload's bytecodes in the one thread there is). The speed
between two ticks is interpolated linearly.

The kernel is this file's own code and never calls monosplit, so a change
to the program cannot move it: a slower program reads slower in reference
seconds too. The time spent in ticks is left out of every interval.
"""

import signal
import time

import numpy as np

# kernel time, in s, that counts as full speed: a typical kernel time on a
# 2-CPU x86-64 VM with Python 3.11 and numpy 2.4 (it ranged 1.7-3.4 ms)
NOMINAL_S = 0.0025
# the worker ticks this often; a tick takes about 5 % of it. Ticks must be
# dense: a single reading scatters by +-40 % (the speed changes within
# milliseconds), and at one tick per 0.25 s the scaled time of a 0.85 s
# solve scattered more than the plain one (IQR/median 0.20 against 0.15),
# at one per 0.05 s far less (0.04 against 0.24).
TICK_S = 0.05
# readings averaged at each end of a set-up (before the spawn, after the
# imports), where no timer runs: set-up is too short to average over ticks
SETUP_READINGS = 8

KERNEL_ITERS = 500
_BASE = np.linspace(0.1, 1.0, 8)


def kernel():
    x = _BASE.copy()
    s = 0.0
    for _ in range(KERNEL_ITERS):
        y = np.maximum(x - 0.01, 0.0) * 0.5 + _BASE
        s += float(y @ y)
        x = y / (1.0 + s * 1e-12)
    return s


def measure(n=1):
    """Speed now: the mean over n kernel runs of NOMINAL_S over the kernel's
    time (1.0 is full speed)."""
    total = 0.0
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        total += NOMINAL_S / (time.perf_counter() - t0)
    return total / n


class SpeedLog:
    """Ticks of one worker: (time.monotonic() at the tick's end, speed),
    starting with the parent's tick just before the spawn, and the spans
    [start, end] the worker's ticks took."""

    def __init__(self, t_start, speed_start):
        self.t = [t_start]
        self.speed = [speed_start]
        u = time.monotonic()
        kernel()        # warm-up: the first call runs slow
        self.paused = [(u, time.monotonic())]
        self._busy = False
        self.tick(SETUP_READINGS)

    def start(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def tick(self, n=1):
        if self._busy:      # the timer fired inside a tick
            return
        self._busy = True
        u = time.monotonic()
        s = measure(n)
        self.paused.append((u, time.monotonic()))
        self.t.append(self.paused[-1][1])
        self.speed.append(s)
        self._busy = False

    # read the log only after stop(): a tick may fire between two appends

    def at(self, t):
        return float(np.interp(t, self.t, self.speed))

    def scaled(self, a, b):
        """Reference seconds of [a, b], without the ticks inside it."""
        cuts = [a] + [t for t in self.t if a < t < b] + [b]
        total = sum((v - u) * 0.5 * (self.at(u) + self.at(v))
                    for u, v in zip(cuts, cuts[1:]))
        for u, v in self.paused:
            if a <= u and v <= b:
                total -= (v - u) * self.at(v)
        return total

    def raw(self, a, b):
        """Seconds of [a, b], without the ticks inside it."""
        return (b - a) - sum(v - u for u, v in self.paused if a <= u and v <= b)
