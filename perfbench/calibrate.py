"""A clock that reads seconds at a fixed machine speed.

The machine the benchmark was tuned on (2 virtual CPUs of a shared host)
runs the same code at two speeds that alternate every 1-5 s, and drifts
by up to a third over minutes. A main call of 7-12 s spans several of
these states, so its wall time says as much about the machine as about
the program, and timing a kernel only before and after each call does not
capture the states in between.

`CalibratedClock` times small fixed kernels every INTERVAL_S while it is
active, from a SIGALRM handler that runs between the program's Python
steps. Between two samples, each of its readings advances by the wall
time scaled by (kernel reference time) / (latest kernel time), and the
kernels' own time is left out. A step timed on a reading takes the
seconds it would take on a machine where that kernel takes its reference
time. The slow state costs interpreted Python code more than numpy loops
(about 1.9x against 1.4x), so there is one kernel for each:

- "numeric" does what the main call's hot loops do: one squared distance,
  one lexsort and one row gather per query;
- "text" does what set-up does: parse CSV rows into floats.
"""

from __future__ import annotations

import csv
import io
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2


def _numeric_kernel():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((400, 65))
    index = np.arange(400)

    def kernel():
        for q in range(40):
            diff = points - points[q]
            d2 = np.einsum("ij,ij->i", diff, diff)
            points[np.lexsort((index, d2))[:50]].mean(axis=0)

    return kernel


def _text_kernel():
    rng = np.random.default_rng(1)
    text = "\n".join(
        ",".join(repr(float(v)) for v in row) for row in rng.standard_normal((32, 65))
    )

    def kernel():
        [[float(cell) for cell in row] for row in csv.reader(io.StringIO(text))]

    return kernel


# Kernel -> (factory, reference time in seconds). The reference is about the
# kernel's time in the tuning machine's fast state, so that there a reading
# advances about as fast as wall time.
KERNELS = {"numeric": (_numeric_kernel, 0.0035), "text": (_text_kernel, 0.0012)}


class CalibratedClock:
    """Use as a context manager; read it with `now(kernel)` while active."""

    def __init__(self) -> None:
        self._kernels = {name: make() for name, (make, _) in KERNELS.items()}
        self._reference = {name: ref for name, (_, ref) in KERNELS.items()}
        self.samples: dict[str, list[float]] = {name: [] for name in KERNELS}
        # (wall time of the last sample's end, {kernel: (reading, latest time)})
        self._state = (
            time.perf_counter(), {name: (0.0, ref) for name, ref in self._reference.items()}
        )
        self._previous = None

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        times = {}
        for name, kernel in self._kernels.items():
            begun = time.perf_counter()
            kernel()
            times[name] = time.perf_counter() - begun
        end = time.perf_counter()
        last, readings = self._state
        self._state = (end, {
            name: (reading + (start - last) * self._reference[name] / latest, times[name])
            for name, (reading, latest) in readings.items()
        })
        for name, seconds in times.items():
            self.samples[name].append(seconds)

    def __enter__(self) -> "CalibratedClock":
        for kernel in self._kernels.values():  # warm code paths and caches
            for _ in range(3):
                kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self, kernel: str) -> float:
        """Seconds since the clock was entered, calibrated by `kernel`."""
        while True:  # retry if a sample lands between the two reads
            state = self._state
            wall = time.perf_counter()
            if self._state is state:
                break
        last, readings = state
        reading, latest = readings[kernel]
        return reading + (wall - last) * self._reference[kernel] / latest

    def record(self) -> dict:
        """Kernel samples taken, for the run's record."""
        return {
            "interval_s": INTERVAL_S,
            "samples": len(self.samples["numeric"]),
            **{f"{name}_reference_s": ref for name, ref in self._reference.items()},
            **{f"{name}_median_s": statistics.median(times) if times else 0.0
               for name, times in self.samples.items()},
        }
