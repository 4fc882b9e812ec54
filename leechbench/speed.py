"""The machine's speed around each timing, read from a fixed probe kernel.

On a shared virtual machine the same code runs at a speed that changes by up
to a factor of two within seconds and by about a third between phases that
last minutes.  The process's CPU time changes with it, so the time is not
lost to descheduling that the process could leave out.  A run therefore
times a fixed kernel of its own right before and right after each timed
operation (and each set-up), and scales the operation's wall time by
reference_s / (mean probe time before and after it): the timing then reads
as at a fixed reference speed, that of a machine on which the probe takes
reference_s.  One probe differs from the next by about a fifth, so a longer
operation is followed by more probes (one per PER_PROBE probe times of it,
at most MAX_PROBES); they cost about a sixteenth of the timed phase.

Each workload uses the probe whose work is most like its own.  SMALL does
many small complex solves and 2-norms and a 160 x 160 LU solve, like circle
evaluation, norm estimates and Gram matrices at small n.  DENSE does one
512 x 512 LU solve, like the n^2 x n^2 Kronecker solves at n >= 16.
Neither calls anything of leechsolve's, so a change to the program cannot
change them.
"""

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

PER_PROBE = 16
MAX_PROBES = 16

_rng = np.random.default_rng(20240601)
_SMALL = [_rng.standard_normal((4, 4)) * 0.3 for _ in range(8)]
_MEDIUM = _rng.standard_normal((160, 160)) + 16.0 * np.eye(160)
_MEDIUM_RHS = _rng.standard_normal((160, 160))
_POINTS = np.exp(0.1j * np.arange(6))
_DENSE = _rng.standard_normal((512, 512)) + 51.2 * np.eye(512)
_DENSE_RHS = _rng.standard_normal((512, 8))


def _small_kernel():
    for z in _POINTS:
        for M in _SMALL:
            np.linalg.norm(np.linalg.solve(z * np.eye(4) - M, M), 2)
    np.linalg.solve(_MEDIUM, _MEDIUM_RHS)


def _dense_kernel():
    np.linalg.solve(_DENSE, _DENSE_RHS)


@dataclass(frozen=True)
class Probe:
    kernel: Callable[[], None]
    # the reference speed: the probe's time on a machine that runs at it;
    # about the probe's median on the machine of README.md's figures
    reference_s: float

    def time(self, times=1):
        """Mean wall time of `times` runs of the kernel, in seconds."""
        start = time.perf_counter()
        for _ in range(times):
            self.kernel()
        return (time.perf_counter() - start) / times

    def count_after(self, seconds):
        """The number of probes to run after an operation of `seconds`."""
        return max(1, min(MAX_PROBES, round(seconds / (PER_PROBE * self.reference_s))))

    def scale(self, before, after):
        """The factor that turns a wall time between two probes into one at
        the reference speed."""
        return 2.0 * self.reference_s / (before + after)


SMALL = Probe(_small_kernel, 0.0050)
DENSE = Probe(_dense_kernel, 0.0080)
