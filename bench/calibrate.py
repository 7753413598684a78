"""Wall time rescaled by how fast the machine runs at each moment.

The benchmark shares its cores with other tenants, and a core slows by up to
1.5x for seconds at a time when its sibling is busy.  Raw wall times of the
same work then spread by 20-30% from run to run.  ``Calibrator`` measures
that speed inside the timed process: every 20 ms a timer signal runs a fixed
kernel (about half a millisecond) and records how long it took.  A stretch of
work is then worth its wall time times ``REF_KERNEL_S / kernel time
nearby``: reference seconds, the time the work would take on a core that
runs the kernel in ``REF_KERNEL_S``.  The kernel's own time is left out.

The kernel is a frozen copy of the instruction mix of the program's three
hot loops: exact rational accumulation, modular inverses with cosines, and a
sine bisection.  It lives here, not in ``src/``, so a change to the program
cannot change it.  It uses only builtins and ``math``, so starting the
calibrator before ``import symlow`` does not import anything ``symlow``
needs and would otherwise pay for during its own set-up.
"""

import math
import signal
import time

INTERVAL_S = 0.02
# The unit: kernel time inside a working process on a quiet core of the
# reference machine (2-core Xeon, Python 3.11).  Any constant would do.
REF_KERNEL_S = 0.0003
_SMOOTH = 3  # neighbours on each side in the running median of kernel times


def kernel() -> tuple[int, float, float]:
    num, den = 0, 1
    for i in range(1, 40):
        n, d = 3 * i, (i + 1) * (2 * i + 1)
        num, den = num * d + n * den, den * d
        g = math.gcd(num, den)
        num, den = num // g, den // g
    c = 997
    total = 0.0
    for x in range(1, 400):
        total += math.cos(2.0 * math.pi / c * ((3 * x + pow(x, -1, c)) % c))
    lo, hi = 0.0, math.pi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * mid - math.sin(2.0 * mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return num, total, lo


class Calibrator:
    """Samples the kernel time every ``INTERVAL_S`` between start and stop."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._previous = None

    def start(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        began = time.perf_counter()
        kernel()
        self.samples.append((began, time.perf_counter() - began))

    def slowdown(self) -> float:
        """Median kernel time over the reference."""
        import statistics

        return statistics.median(d for _, d in self.samples) / REF_KERNEL_S

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the work done between ``start`` and ``end``."""
        import statistics

        if not self.samples:
            return end - start
        durations = [d for _, d in self.samples]
        smooth = [
            statistics.median(durations[max(0, k - _SMOOTH): k + _SMOOTH + 1])
            for k in range(len(durations))
        ]
        total = 0.0
        cursor = start
        for k, (at, took) in enumerate(self.samples):
            if at + took <= start:
                continue
            if at >= end:
                return total + (end - cursor) * REF_KERNEL_S / smooth[k]
            total += max(0.0, at - cursor) * REF_KERNEL_S / smooth[k]
            cursor = max(cursor, at + took)
        return total + max(0.0, end - cursor) * REF_KERNEL_S / smooth[-1]
