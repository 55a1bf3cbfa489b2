"""Reference meter: measured times expressed at a fixed reference speed.

The benchmark runs on a shared host whose cores switch between a fast and a
roughly twice as slow state within milliseconds (another tenant on the same
physical core), and the share of slow time drifts over seconds to minutes.
Wall and CPU time swing with it by 25% and more between runs of the same
code, while a second core can stay fast; so the host's speed has to be
sampled in the measured process itself.

A timer signal every PERIOD_S runs a fixed pure-Python chunk (Fraction
arithmetic and dict updates, like the program) in the measured process.  The
time of an interval is its wall time minus the chunks run in it, scaled by
NOMINAL_S over the mean chunk time in the interval (over the last WINDOW
chunks when fewer ran in it).  A slow state stretches the chunk and the
program alike, so the scaled time stays put where wall time does not.  It
reads as seconds on a core where one chunk takes NOMINAL_S; raw wall times
stay in the benchmark's info line.

Run a module the way ``python -m`` does, with the meter on::

    python3 perfbench/meter.py STATS.json -m lieconformal classify ...

writes ``{"wall_s", "cpu_s", "raw_wall_s", "chunk_ms"}`` of the whole run
to STATS.json; the module's output and exit code pass through unchanged.
"""

from __future__ import annotations

import json
import signal
import time
from collections import namedtuple
from fractions import Fraction

PERIOD_S = 0.002
CHUNK_ITERATIONS = 20
# one chunk's time on a fast core of the host the benchmark was defined on
# (KVM guest on an Intel Xeon, family 6 model 143, Python 3.11)
NOMINAL_S = 0.000055
WINDOW = 8

Interval = namedtuple("Interval", "wall cpu raw_wall")


def reference_chunk() -> None:
    acc, table = Fraction(0), {}
    for i in range(1, CHUNK_ITERATIONS + 1):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[(i % 13, i % 5)] = acc.numerator & 255


class Meter:
    """Samples the host's speed with a timer signal; one per process."""

    def __init__(self):
        self.chunks: list = []  # wall time of each reference chunk
        self.spent = 0.0
        self._busy = False

    def start(self) -> None:
        self._tick()  # so an interval that ends before the first signal has a scale
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_chunk()
        took = time.perf_counter() - start
        self.chunks.append(took)
        self.spent += took
        self._busy = False

    def mark(self) -> tuple:
        return time.perf_counter(), time.process_time(), self.spent, len(self.chunks)

    def since(self, mark: tuple) -> Interval:
        """Wall and CPU seconds since ``mark`` at the reference speed, without the chunks."""
        wall0, cpu0, spent0, n0 = mark
        spent = self.spent - spent0
        raw_wall = time.perf_counter() - wall0 - spent
        cpu = time.process_time() - cpu0 - spent
        window = self.chunks[min(n0, max(0, len(self.chunks) - WINDOW)):]
        scale = NOMINAL_S * len(window) / sum(window)
        return Interval(raw_wall * scale, cpu * scale, raw_wall)

    def chunk_ms(self) -> float:
        return 1000 * sum(self.chunks) / len(self.chunks)


def main() -> None:
    import runpy
    import sys

    stats_path, flag, module, *args = sys.argv[1:]
    if flag != "-m":
        sys.exit("usage: meter.py STATS.json -m MODULE [ARG...]")
    meter = Meter()
    meter.start()
    mark = meter.mark()
    sys.argv = [module, *args]
    sys.path[0] = ""  # as under ``python -m``: the working directory, not this one
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        interval = meter.since(mark)
        meter.stop()
        with open(stats_path, "w", encoding="utf-8") as out:
            json.dump({
                "wall_s": interval.wall, "cpu_s": interval.cpu,
                "raw_wall_s": interval.raw_wall, "chunk_ms": meter.chunk_ms(),
            }, out)


if __name__ == "__main__":
    main()
