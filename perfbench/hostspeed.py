"""The host's speed, sampled while the benchmark runs.

The benchmark shares a few cores of a host with other machines, and how fast
those cores run changes from minute to minute: the same paper_suite round
took 24 s of processor time in one hour and about 50 s in another.
Processor time leaves out time the host gives to other processes but not
this.  So while a round runs, ``HostSpeed`` times a fixed loop of small numpy
operations, of the kind the program's solvers run, every ``PERIOD_S``
seconds (a SIGALRM handler, so the loop runs in the main thread between the
program's own bytecodes), and ``rescale`` expresses the round's processor
time at the speed at which the loop takes ``REF_LOOP_S``.  The loop depends
on numpy only, never on the program, so a change to the program changes the
rescaled time by as much as it changes the raw one.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: seconds of wall time between two samples
PERIOD_S = 0.05
#: the loop time at which rescaled figures are expressed: a fixed constant,
#: near the loop's mean time inside a round in a slow hour of the host on
#: which the benchmark was set up (README.md)
REF_LOOP_S = 5e-4
#: samples taken in a row by ``sample_now``
BURST = 20

_X0 = np.linspace(-1.0, 1.0, 12)
_B = np.linspace(0.0, 0.2, 12)


def speed_loop() -> None:
    """40 steps of gradient descent on a 12-point log-sum-exp."""
    x = _X0.copy()
    for _ in range(40):
        e = np.exp(x - x.max())
        x -= 0.5 * (e / e.sum() + 0.1 * x - _B)


class HostSpeed:
    """A context manager that samples the host's speed while it is open;
    ``sample_now`` samples it outside any measured interval."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0              # sampling time inside the interval

    def _sample(self, *_):
        t0 = time.thread_time()
        speed_loop()
        self.samples.append(time.thread_time() - t0)

    def sample_now(self) -> "HostSpeed":
        for _ in range(BURST):
            self._sample()
        return self

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.inside_s = sum(self.samples)
        if not self.samples:             # an interval shorter than PERIOD_S
            self.sample_now()

    def scale(self, cpu_s: float) -> float:
        """``cpu_s`` at the reference speed."""
        return cpu_s * REF_LOOP_S / statistics.fmean(self.samples)

    def rescale(self, cpu_s: float) -> float:
        """``cpu_s``, measured while this was open, less the sampling inside
        it, at the reference speed."""
        return self.scale(cpu_s - self.inside_s)
