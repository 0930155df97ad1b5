"""Host clock of the benchmark, corrected for the machine's changing speed.

On a shared machine the same work can take 1.5x longer from one minute to
the next.  The clock therefore runs a fixed calibration kernel (numpy on
large and on small arrays, hashing, interpreter loops, like the program)
every :data:`INTERVAL_S` of timed work, at points between two calls of the
program, and converts each segment of timed work into *reference seconds*:
its duration times ``CAL_REF_S / c``, with ``c`` the mean calibration time
at the segment's two ends.  A reference second is a host second on a machine
where the kernel takes :data:`CAL_REF_S`.  Calibration time is excluded
from every measurement.
"""

from __future__ import annotations

import hashlib
import resource
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

import numpy as np

#: Calibration time (geometric mean of the kernel's parts) on the reference
#: machine, seconds.
CAL_REF_S = 0.004
#: Timed work between two calibrations, seconds.
INTERVAL_S = 0.2

_rng = np.random.default_rng(0)
_KEYS = _rng.integers(0, 1 << 40, 60_000)
_VALS = _rng.random(60_000)
_SMALL = [_rng.random(256) for _ in range(8)]
_GATHER = _rng.integers(0, 256, 256)
_SEGMENTS = np.arange(0, 256, 16)
_BLOB = _rng.bytes(1 << 18)


class _Slots:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 0
        self.b = 0


def _large_arrays() -> None:
    """Sort-and-reduce over arrays larger than the caches, like ESC."""
    order = np.argsort(_KEYS, kind="stable")
    keys = _KEYS[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    np.add.reduceat(_VALS[order], starts)
    acc = {}
    for i in range(8000):
        acc[i % 97] = acc.get(i % 97, 0) + i


def _small_arrays() -> None:
    """Many numpy calls on small arrays, like pricing one request."""
    for j in range(250):
        x = _SMALL[j % 8]
        np.cumsum(x)
        np.searchsorted(x, 0.5)
        np.add.reduceat(x, _SEGMENTS)
        x[_GATHER].sum()
    acc = {}
    for i in range(3000):
        acc[i % 97] = acc.get(i % 97, 0) + i


def _hash_and_objects() -> None:
    """Digests and attribute updates, like plan checksums and the event loops."""
    for _ in range(3):
        hashlib.blake2b(_BLOB, digest_size=16).hexdigest()
    o = _Slots()
    for i in range(6000):
        o.a += i
        o.b = o.a ^ i


def calibration_kernel() -> float:
    """How slow the machine is right now: the geometric mean of the times of
    three fixed pieces of work.  Each part alone tracked only some
    workloads (the large-array part followed the corpus sweep's host time
    with elasticity 0.96 but a serving replay's with 1.53; the small-array
    part 0.53 and 0.90); their mean follows both."""
    times = []
    for part in (_large_arrays, _small_arrays, _hash_and_objects):
        t0 = perf_counter()
        part()
        times.append(perf_counter() - t0)
    return float(np.exp(np.mean(np.log(times))))


def reference_seconds(fn: Callable[[], object]) -> float:
    """Run ``fn`` once; its duration in reference seconds, calibrated on
    both sides."""
    before = calibration_kernel()
    t0 = perf_counter()
    fn()
    dt = perf_counter() - t0
    return dt * CAL_REF_S * 2 / (before + calibration_kernel())


def _peak_rss_mb() -> float:
    """The process's resident-set peak since the last reset, MB."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reset_peak_rss() -> None:
    """Restart the peak at the current resident set (Linux ``clear_refs``).

    Where that is unavailable the peak stays the whole process's, so
    verification between timed blocks may then raise it.
    """
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


class Clock:
    """Accumulates the timed blocks' host time, raw and in reference seconds,
    and their peak resident memory.

    The tracer records spans only inside timed blocks, so work between
    blocks (verification) never shows as a span; spans of opaque layers
    pause the clock, and neither counts towards the memory peak.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        tracer.clock = self
        #: Raw host seconds of timed work (pauses and calibration excluded).
        self.wall_s = 0.0
        #: The same work in reference seconds.
        self.ref_s = 0.0
        #: Host seconds paused inside timed blocks (opaque layers).
        self.paused_s = 0.0
        #: Peak resident memory while timed work ran, MB.
        self.peak_rss_mb = 0.0
        self._cal: Optional[float] = None
        self._pending = 0.0
        self._skip = 0.0
        self._mark: Optional[float] = None
        self._last = 0.0

    def sample(self) -> None:
        """Calibrate now and convert the work since the last sample."""
        c = calibration_kernel()
        prev = c if self._cal is None else self._cal
        self.ref_s += self._pending * CAL_REF_S * 2 / (prev + c)
        self._pending = 0.0
        self._cal = c
        self._last = perf_counter()

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` of benchmark work in the running segment out."""
        self._skip += seconds

    def pause(self) -> None:
        if self._mark is not None:
            dt = perf_counter() - self._mark - self._skip
            self._skip = 0.0
            self._pending += dt
            self.wall_s += dt
            self._mark = None
            self.peak_rss_mb = max(self.peak_rss_mb, _peak_rss_mb())

    def resume(self) -> None:
        _reset_peak_rss()
        self._mark = perf_counter()

    def probe(self) -> None:
        """Called between two program calls: calibrate if it is due."""
        if self._mark is not None and perf_counter() - self._last >= INTERVAL_S:
            self.pause()
            self.sample()
            self.resume()

    @contextmanager
    def timed(self):
        if self._cal is None:
            self.sample()
        self.tracer.active = True
        self.resume()
        try:
            yield
        finally:
            self.pause()
            self.tracer.active = False
            self.sample()

    @property
    def raw_wall_s(self) -> float:
        """Host seconds inside timed blocks, paused spans included."""
        return self.wall_s + self.paused_s
