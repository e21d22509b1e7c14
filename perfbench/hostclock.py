"""Workload time normalized to a reference host speed.

Small shared machines change speed by a quarter or more, at times by half,
within a second as neighbours come and go.  While a workload runs, a timer
interrupts it every ``SAMPLE_EVERY_S`` of wall time and times one pass of a
short fixed reference loop of the same kind of work the library does (seeded
generators, small complex matrices through numpy and LAPACK, called from
Python).  The time spent in those passes is left out of the workload's time,
and the workload's time is scaled by the mean reference speed over the
samples.  Throughput and set-up figures are then reported at the speed the
reference loop has when one pass takes ``REFERENCE_S``; the raw figures are
printed alongside.
"""

from __future__ import annotations

import contextlib
import hashlib
import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.001  # nominal time of one reference pass; a fixed scale, never retuned
REFERENCE_REPS = 3  # reps of the reference loop in one pass
SAMPLE_EVERY_S = 0.025  # wall time between reference samples


def reference_pass() -> float:
    """Time one pass of the reference loop, in seconds.

    Each rep mirrors one small trial of the library without calling it:
    hash a tag, seed a generator, draw a random unitary and a normal matrix,
    take an eigendecomposition-based square root and check it with norms and
    an extreme eigenvalue, at n = 2, 4, 8.  A mix this close to the library's
    own slows down under contention much as the library does.
    """
    records = []
    t0 = perf_counter()
    for i in range(REFERENCE_REPS):
        tag = hashlib.sha256(f"reference:{i}".encode()).digest()
        words = [int.from_bytes(tag[k : k + 4], "little") for k in range(0, 16, 4)]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([i, *words])))
        for n in (2, 4, 8):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, r = np.linalg.qr(z)
            d = np.diagonal(r)
            u = q * (d / np.abs(d))
            a = (u * rng.uniform(0.1, 1.0, n)) @ u.conj().T
            g = a.conj().T @ a
            h = (g + g.conj().T) / 2
            w, v = np.linalg.eigh(h)
            root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
            residual = float(np.linalg.norm(root @ root - h))
            lam = float(np.linalg.eigvalsh((root + root.conj().T) / 2)[0])
            records.append({"n": n, "residual": residual, "lambda_min": lam})
    return perf_counter() - t0


class HostClock:
    """Raw and speed-normalized workload time.

    Inside :meth:`sampling`, time each piece of work with :meth:`now`, which
    leaves out the time spent in reference samples, and feed the elapsed
    time to :meth:`add`.
    """

    def __init__(self):
        self.raw = 0.0
        self._sampled = 0.0  # wall time spent in reference samples
        self._speeds: list[float] = []
        self._busy = False

    def now(self) -> float:
        return perf_counter() - self._sampled

    def add(self, elapsed: float):
        self.raw += elapsed

    @property
    def normalized(self) -> float:
        return self.raw * statistics.fmean(self._speeds)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the reference speed every ``SAMPLE_EVERY_S`` while inside."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _sample(self, *_):
        if self._busy:  # a signal that lands inside a sample is dropped
            return
        self._busy = True
        t0 = perf_counter()
        self._speeds.append(REFERENCE_S / reference_pass())
        self._sampled += perf_counter() - t0
        self._busy = False
