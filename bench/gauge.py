"""Host speed, sampled between a workload's steps.

The benchmark shares a few cores of a host with other tenants, and the
host's speed swings by up to 1.5x for tens of seconds at a time.  Wall
times alone then measure the host as much as the program.  A gauge runs
a fixed kernel of the benchmark's own code, of the same kind of work as
the workload's hot path, right before and right after each step.  Its
rate relative to a fixed reference rate is the host's speed during that
step, and a step's wall time times that speed is its time in reference
seconds: the time the step would have taken on the host at reference
speed.  The package's code never runs in a gauge, so a change to the
package moves reference times as it moves wall times.

Two kernels:

- ``scalar``: scalar draws and small-array numpy calls in a Python loop,
  like the scene sampler, the aux refinement and the localizer.
- ``array``: normal draws and elementwise work over 512x512 complex
  arrays, like the exhaustive beam sweep.

Each reference rate is about the kernel's rate on the 2-core VM the
baseline was measured on, so one reference second is about one wall
second there; it only sets the unit.
"""

from __future__ import annotations

import time

import numpy as np

ARRAY_SIDE = 512


def _scalar(rng: np.random.Generator, reps: int) -> float:
    acc = 0.0
    for _ in range(reps):
        p = np.array([rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(0.0, 3.0)])
        acc += float(np.sqrt(p @ p))
    return acc


def _array(rng: np.random.Generator, reps: int) -> float:
    acc = 0.0
    for _ in range(reps):
        z = rng.standard_normal((ARRAY_SIDE, ARRAY_SIDE)) + 1j * rng.standard_normal((ARRAY_SIDE, ARRAY_SIDE))
        acc += float(np.max(np.abs(z) ** 2))
    return acc


#: Kernel name -> (kernel, reps per batch, reference rate in reps per second).
KERNELS = {
    "scalar": (_scalar, 64, 125_000.0),
    "array": (_array, 1, 100.0),
}


class Gauge:
    """Samples the host's speed with one kernel: 1.0 is the reference speed."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self._run, self._batch, self._ref_rate = KERNELS[kernel]
        self._rng = np.random.default_rng(0)
        self.samples: list[float] = []

    def speed(self, seconds: float) -> float:
        """Run whole batches for at least ``seconds``; the rate over the reference rate."""
        clock = time.perf_counter
        reps, start = 0, clock()
        while True:
            self._run(self._rng, self._batch)
            reps += self._batch
            elapsed = clock() - start
            if elapsed >= seconds:
                break
        speed = reps / elapsed / self._ref_rate
        self.samples.append(speed)
        return speed
