"""Host-speed reference: ticks of fixed pure-Python ``Fraction`` work.

The single-core speed of the host this benchmark was written on drifts by
up to 2x over seconds to minutes.  Other tenants share the physical cores,
each vCPU drifts on its own, and CPU time tracks wall time, so the drift
is in execution speed, not scheduling.  Medians over a 25-second run
cannot hide that.  So the benchmark runs ticks in the same process as the
timed work, between its pieces.  It scales each piece by
``TICK_CALM_S / tick time`` around it.  The metrics are then seconds at
the reference speed, and raw times are kept in the result file.

A tick uses only stdlib ``fractions``: the same big-integer rational
arithmetic the audit spends most of its time in, and no hyperseq code,
so no change to the package can move it.
"""

import bisect
import statistics
import time
from fractions import Fraction

#: About one tick's time on an idle core of the 2-vCPU Xeon VM the
#: benchmark was written on; it only fixes the scale of the metrics.
TICK_CALM_S = 0.004


def tick() -> float:
    """Seconds this process takes, right now, for one tick of work."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction(1, k)
    return time.perf_counter() - start


def speed(ticks: int = 5) -> tuple[float, float]:
    """(scale factor to the reference speed, seconds spent measuring it)."""
    start = time.perf_counter()
    factor = TICK_CALM_S / statistics.median(tick() for _ in range(ticks))
    return factor, time.perf_counter() - start


class SpeedTrack:
    """Ticks taken between pieces of timed work; ``scale`` converts a piece's
    time to the reference speed, using the ticks just before and after it."""

    def __init__(self):
        self.ends = []  # perf_counter() at the end of each tick
        self.ticks = []  # its duration
        self.spent = 0.0  # total time in ticks
        self.mark()

    def mark(self):
        d = tick()
        self.ends.append(time.perf_counter())
        self.ticks.append(d)
        self.spent += d

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` of work that began at ``start``, at the reference speed."""
        i = max(bisect.bisect_right(self.ends, start) - 1, 0)
        j = min(bisect.bisect_left(self.ends, start + seconds), len(self.ends) - 1)
        return seconds * TICK_CALM_S * 2 / (self.ticks[i] + self.ticks[j])
