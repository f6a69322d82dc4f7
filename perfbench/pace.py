"""Contention-normalised timing of the benchmark's operations.

On a shared host the speed of one core changes from second to second
(another tenant on the sibling hyperthread, shared caches and memory
bandwidth): on a 2-core x86 VM a fixed 2 s march took 1.7 to 3.1 s
within three minutes, and ten-run spreads of a 30 s run reached 0.3 of
the median.  Wall time then measures the neighbours as much as the
program.

:class:`Pacer` measures the core's speed while the program runs.  An
interval timer (``SIGALRM``, every :data:`INTERVAL_S`) interrupts the
process and times a fixed kernel shaped like the program's inner loops
(ufunc calls on a small array, scalar indexing).  Forked children -- the
batch service's sandbox runs every stagnation request in one -- start
their own timer and append their samples to a file, because the core a
child computes on is the one whose speed matters (the parent's samples
tracked a child's request time with correlation 0.44, the child's own
with 0.95).  A window of wall time ``dt`` whose samples took ``k_i`` is
reported as

    (dt - time spent in the kernel) * mean(REF_KERNEL_S / k_i)

that is, the time the window's work would take on a core where the
kernel takes :data:`REF_KERNEL_S`.  Measured on a 2-core x86 VM, this
cut the spread of one repeated sandboxed stagnation request from 14 %
to 3 %, and ten 30 s runs of each workload spread by 3-5 % (quartile
distance over median) where raw wall time had spread by up to 31 %.

Limits: the kernel runs in the main thread of each process, so a
program that ran Python threads against the main one (GIL waits) or
loaded both cores itself would slow the kernel and have part of its own
cost normalised away.  The program under test is single-threaded and
runs its sandbox children one at a time.
"""

from __future__ import annotations

import os
import signal
import struct
import time

import numpy as np

#: Sampling period of the interval timer [s].
INTERVAL_S = 0.05
#: Kernel time that defines the normalised second [s]: a window is
#: reported as the time its work takes where the kernel takes this long
#: (its tenth-percentile time on a 2-core x86 VM; the median was 0.9 ms).
REF_KERNEL_S = 0.8e-3

_RECORD = struct.Struct("dd")   # (start, duration) of one sample
_X = np.linspace(0.1, 1.0, 64)


def _kernel() -> float:
    """About 1 ms of ufunc calls on a small array and scalar indexing,
    the shape of the program's inner loops.  Fitting log(case time)
    against log(kernel time) over repeated relaxation cases gave a
    slope of 1.04 for the ufunc part and 1.08 for the indexing part (the
    program slows as much as they do) but 1.76 for a pure-integer
    Python loop, which is why there is none here."""
    y = _X
    for _ in range(100):
        y = np.exp(-y) * 0.5 + np.sqrt(y)
    t = 0.0
    for i in range(1200):
        t += float(y[i % 64]) * 1.0001
    return t


class Pacer:
    """Samples core speed in this process and its forked children."""

    def __init__(self, sample_dir: str):
        self.sample_dir = sample_dir
        self.samples: list[tuple[float, float]] = []        # this process
        self.child_samples: list[tuple[float, float]] = []  # collected
        self._active = False
        self._fd: int | None = None   # sample file of a forked child
        self._previous = None
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    # ------------------------------------------------------ sampling

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        if self._fd is None:
            self.samples.append((t0, dt))
        else:
            os.write(self._fd, _RECORD.pack(t0, dt))

    def _after_fork_in_child(self):
        if not self._active:
            return
        self.samples = []
        path = os.path.join(self.sample_dir, f"pace-{os.getpid()}.bin")
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                           0o644)
        # interval timers are not inherited across fork
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if not self._active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._active = False
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def collect(self) -> None:
        """Move the samples finished children wrote into
        :attr:`child_samples`."""
        for name in os.listdir(self.sample_dir):
            if not (name.startswith("pace-") and name.endswith(".bin")):
                continue
            path = os.path.join(self.sample_dir, name)
            with open(path, "rb") as f:
                data = f.read()
            os.remove(path)
            usable = len(data) - len(data) % _RECORD.size
            self.child_samples.extend(_RECORD.iter_unpack(data[:usable]))

    # ----------------------------------------------------- normalise

    def normalise(self, t0: float, t1: float) -> float:
        """Normalised duration of the wall-time window ``[t0, t1]``.

        Uses the children's samples in the window when a child ran in
        it (the work ran there), else this process's samples; a window
        holding no sample is returned as measured.
        """
        window = [s for s in self.child_samples if t0 <= s[0] < t1]
        if not window:
            window = [s for s in self.samples if t0 <= s[0] < t1]
        if not window:
            return t1 - t0
        busy = sum(dt for _, dt in window)
        speed = sum(REF_KERNEL_S / dt for _, dt in window) / len(window)
        return max(t1 - t0 - busy, 0.0) * speed
