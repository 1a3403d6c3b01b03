"""Monte Carlo sampling of Pauli channels with reproducible threading.

Every trial owns the generator np.random.default_rng([seed, trial]), so
results are a pure function of (seed, n_trials, steps_per_trial): the
thread count, scheduling order and rerun count cannot change a single
draw. Each worker sums the counts of one contiguous block of trials.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import PauliChannel

__all__ = ["SampleReport", "run_trials", "sample_indices"]

_CHUNK = 1 << 16  # draws per call, so memory does not grow with the step count


@dataclass(frozen=True)
class SampleReport:
    channel: PauliChannel
    seed: int
    n_trials: int
    steps_per_trial: int
    counts: tuple[int, ...]

    @property
    def n_samples(self) -> int:
        return self.n_trials * self.steps_per_trial

    @property
    def frequencies(self) -> tuple[float, ...]:
        total = self.n_samples
        return tuple(c / total for c in self.counts)

    @property
    def l1_gap(self) -> float:
        # total variation distance times two, against the exact weights
        return math.fsum(
            abs(f - w) for f, (w, _) in zip(self.frequencies, self.channel.terms)
        )


def _cumulative(channel: PauliChannel) -> np.ndarray:
    cum = np.cumsum([w for w, _ in channel.terms])
    cum[-1] = 1.0
    return cum


def _draw(cum: np.ndarray, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    # draws are < 1.0, the last cumulative weight, so no index reaches len(terms)
    return np.searchsorted(cum, rng.random(n_samples), side="right")


def sample_indices(
    channel: PauliChannel, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices into channel.terms, drawn by inverse transform sampling."""
    if n_samples < 0:
        raise ValueError(f"need n_samples >= 0, got {n_samples}")
    return _draw(_cumulative(channel), n_samples, rng)


def run_trials(
    channel: PauliChannel,
    *,
    seed: int,
    n_trials: int,
    steps_per_trial: int,
    threads: int = 1,
) -> SampleReport:
    """Sample steps_per_trial strings per trial and tally per-term counts."""
    if n_trials < 1 or steps_per_trial < 1:
        raise ValueError("need at least one trial with at least one step")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    n_terms = len(channel.terms)
    cum = _cumulative(channel)

    def block(trials: range) -> np.ndarray:
        counts = np.zeros(n_terms, dtype=np.int64)
        for trial in trials:
            rng = np.random.default_rng([seed, trial])
            for start in range(0, steps_per_trial, _CHUNK):
                idx = _draw(cum, min(_CHUNK, steps_per_trial - start), rng)
                counts += np.bincount(idx, minlength=n_terms)
        return counts

    # more workers than trials or cores adds threads and no speed
    workers = min(threads, n_trials, os.cpu_count() or 1)
    bounds = [n_trials * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        totals = sum(pool.map(block, map(range, bounds[:-1], bounds[1:])))
    return SampleReport(
        channel=channel,
        seed=seed,
        n_trials=n_trials,
        steps_per_trial=steps_per_trial,
        counts=tuple(int(c) for c in totals),
    )
