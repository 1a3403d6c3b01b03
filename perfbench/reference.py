"""Reference kernels that put the benchmark's timings on a steady scale.

The machine the benchmark runs on is shared: its speed drifts by 20-40%
over seconds to minutes, and two runs of the same code can differ by
more than any useful bound. Each kernel here is fixed code that uses the
machine the way one workload does (the interpreter, BLAS, or numpy's
random draws) and never calls noisim. A `Clock` times the kernel around
every timed step and rescales the step's wall time by the kernel's
nominal time over its measured time: the result is the step's time in
seconds on a machine as fast as the reference machine was when the
nominal times were measured. A change to noisim moves a rescaled time as
much as it moves the wall time; drift of the machine moves both the step
and the kernel, and cancels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _interpreter() -> None:
    # the integer and dict work of Pauli mask arithmetic
    table: dict[tuple[int, int], int] = {}
    x, z = 0x5A5A, 0x3C3C
    for k in range(50_000):
        x = (x * 2654435761 + k) & 0xFFFF
        key = (x ^ z, (x & z).bit_count() & 3)
        table[key] = table.get(key, 0) + 1


_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((256, 256)) + 1j * _RNG.random((256, 256))
_CUMULATIVE = np.cumsum(np.full(64, 1 / 64))


def _blas() -> None:
    # dense complex products, as in channel application and Choi states
    for _ in range(20):
        _MATRIX @ _MATRIX


def _draws() -> None:
    # many small inverse-transform draws, as in the trial loop
    rng = np.random.default_rng(1)
    for _ in range(300):
        idx = np.searchsorted(_CUMULATIVE, rng.random(2_000), side="right")
        np.bincount(np.minimum(idx, 63), minlength=64)


@dataclass(frozen=True)
class Kernel:
    name: str
    run: Callable[[], None]
    nominal_s: float  # its median time between commands on the 2-vCPU reference VM

    def time(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


KERNELS = {
    k.name: k
    for k in [
        Kernel("interpreter", _interpreter, 0.036),
        Kernel("blas", _blas, 0.032),
        Kernel("draws", _draws, 0.043),
    ]
}


class Clock:
    """Times steps, each between two runs of a kernel."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.kernel_times: list[float] = []

    def time(self, step: Callable[[], object]) -> tuple[object, float, float]:
        """Runs `step`; returns its value, wall seconds and rescaled seconds."""
        before = self.kernel.time()
        t0 = time.perf_counter()
        value = step()
        wall = time.perf_counter() - t0
        after = self.kernel.time()
        self.kernel_times += [before, after]
        return value, wall, wall * self.kernel.nominal_s / ((before + after) / 2)
