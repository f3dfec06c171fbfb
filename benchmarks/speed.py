"""Convert wall times on a shared machine to a fixed reference CPU speed.

On a shared VM other tenants change how fast the same code runs, by up to
2x over seconds to minutes, and user time moves with wall time, so neither
is steady across runs.  A `SpeedProbe` times two short probes, in turn, on
a background thread every `period` seconds while a timed region runs: one
builds and joins formatted strings in the interpreter, the other sorts an
array in numpy.  The speed factor of the region is REFERENCE_PROBE_S over
the geometric mean of the two median probe times; a wall time multiplied
by it is the wall time at the reference speed.

The program mixes interpreter work and numpy, and the two probes bracket
it: when the machine slows, the interpreter probe slows more than the
workloads and the numpy probe less.  Their geometric mean tracked an n=9
estimate within about 10% in log-log slope over a five-minute trace on the
2-vCPU Xeon VM the benchmark was written on, where either probe alone was
off by 25% or more.

The probes use nothing from paulibench, so a change to the program moves
the scaled time exactly as it moves the wall time.  The thread holds the
interpreter lock for well under 1 ms per probe, under 1% of the region at
the default period.
"""

from __future__ import annotations

import math
import threading
import time
from statistics import median

import numpy

# About the geometric-mean probe time on that VM, so scaled times read
# close to its wall times.
REFERENCE_PROBE_S = 3.0e-4


class SpeedProbe:
    """Probes the CPU speed on a thread while inside a `with` block."""

    def __init__(self, period: float = 0.05):
        self.period = period
        self._sort_input = numpy.random.default_rng(0).random(40_000)
        self._samples: tuple[list[float], list[float]] = ([], [])
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _probe(self, kind: int) -> float:
        """Seconds taken by one fixed unit of interpreter (0) or numpy (1)
        work."""
        start = time.perf_counter()
        if kind == 0:
            rows = [",".join((format(i, "020b"), repr(i * 0.5), "%d" % i))
                    for i in range(200)]
            "\n".join(rows)
        else:
            numpy.sort(self._sort_input)
        return time.perf_counter() - start

    def _run(self) -> None:
        kind = 0
        while not self._stop.wait(self.period):
            seconds = self._probe(kind)
            with self._lock:
                self._samples[kind].append(seconds)
            kind ^= 1

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def restart(self) -> None:
        """Forget the samples taken so far: a new timed region begins."""
        with self._lock:
            self._samples = ([], [])

    def factor(self) -> float:
        """Speed factor over the samples since `restart`.

        A region too short to hold a sample of each probe gets one probe
        taken now in its place."""
        with self._lock:
            samples, self._samples = self._samples, ([], [])
        medians = [median(s) if s else self._probe(kind)
                   for kind, s in enumerate(samples)]
        return REFERENCE_PROBE_S / math.sqrt(medians[0] * medians[1])
