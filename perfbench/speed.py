"""Machine-speed reference: a fixed kernel sampled while a workload runs.

On a small shared virtual machine the speed of a vCPU drifts with what its
neighbours do: a fixed pure-Python loop takes 13-27 ms from one minute to
the next, and a workload's median pass time moves by as much between runs.
No statistic inside one run averages out a slow stretch that lasts minutes,
so the end-to-end times are normalised by the speed of the machine measured
during the same interval.

The reference is ``kernel()``: half interpreter work (an integer loop) and
half small-array numpy calls, the two kinds of work entroflow's passes are
made of.  It does not import entroflow, so no change to the program moves
it.  A ``Sampler`` runs it twice from a ``SIGALRM`` handler every
``PERIOD_S`` while a pass runs and times the second run, whose caches hold
the kernel's own code and data rather than the workload's; the handler's
time is subtracted from the pass.  The handler runs between bytecodes, so
the samples fall throughout the pass wherever the interpreter gets control.

A time ``t`` measured while the kernel took ``k`` on average is reported as
``t * REFERENCE_S / k``: the time the same work would have taken had the
machine run the kernel in ``REFERENCE_S``, the kernel's median on the
2-vCPU Xeon VM where the baseline was taken.  Over 60 s of passes of each
workload on that VM this cut the coefficient of variation of per-pass times
from 0.10-0.21 to 0.04-0.06.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1.3e-3
PERIOD_S = 0.1
SETUP_SAMPLES = 41   # kernel runs that normalise one set-up time

_SMALL = np.linspace(0.0, 1.0, 16).reshape(4, 4)


def kernel():
    """The fixed reference work; its duration measures the machine's speed."""
    s = 0
    for i in range(10000):
        s += i * i
    x = _SMALL
    for _ in range(250):
        x = np.tanh(x @ _SMALL) + 0.1
    return s, x


def timed_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(kernel_s):
    """Scale that converts a time measured at this kernel time to reference speed."""
    return REFERENCE_S / kernel_s


def setup_factor():
    """Speed factor from back-to-back kernel runs, for a set-up just finished."""
    return factor(statistics.median(timed_kernel() for _ in range(SETUP_SAMPLES)))


def _run_pending():
    pass


class Sampler:
    """Runs the kernel every ``PERIOD_S`` of wall time while resumed.

    Between ``start()`` and ``stop()`` the timer runs, but the handler runs
    only between ``resume()`` and ``pause()``; a signal that arrives while
    paused waits for the next ``resume()``.  Timing a pass as
    ``reset(); t0; resume(); pass; pause(); t1; take()`` therefore puts every
    handler run inside ``[t0, t1]``.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.kernel_s = 0.0
        self.samples = 0
        self.handler_wall_s = 0.0
        self.handler_cpu_s = 0.0

    def _handler(self, signum, frame):
        c0 = time.process_time()
        w0 = time.perf_counter()
        kernel()   # warms the caches, so the workload's data weighs less
        self.kernel_s += timed_kernel()
        self.samples += 1
        self.handler_wall_s += time.perf_counter() - w0
        self.handler_cpu_s += time.process_time() - c0

    def pause(self):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        # A signal caught just before the block has its Python handler run
        # at the next function entry: let that be here, not after the pass.
        _run_pending()

    def resume(self):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self):
        self.pause()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        # Restart interrupted system calls rather than fail them.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.resume()   # a pending signal still reaches this handler
        signal.signal(signal.SIGALRM, self._previous)

    def take(self):
        """(mean kernel s, handler wall s, handler CPU s) since ``reset()``."""
        if self.samples == 0:
            # An interval too short for the timer: sample once after it.
            return timed_kernel(), 0.0, 0.0
        return self.kernel_s / self.samples, self.handler_wall_s, self.handler_cpu_s
