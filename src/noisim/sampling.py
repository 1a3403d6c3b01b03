"""Monte Carlo sampling of Pauli channels with reproducible threading.

Every trial owns the generator np.random.default_rng([seed, trial]), so
results are a pure function of (seed, n_trials, steps_per_trial): the
thread count, scheduling order and rerun count cannot change a single
draw. Each worker sums the counts of one contiguous block of trials.

A draw u in [0, 1) picks the term searchsorted(cum, u, side="right") of
the cumulative weights cum (cum[-1] forced to 1.0). It is found through a
guide table (Chen and Asau, 1974; Devroye, Non-Uniform Random Variate
Generation, III.2.4): with M a power of two, g[b] counts the cum[k] <= b/M,
so the answer for u lies in [g[b], g[b+1]] for b = floor(u * M). u * M and
b / M are exact, so g[b] is a lower bound with no rounding, and one
compare-and-add per boundary a bucket can hold lands on the same index as
searchsorted, bit for bit. A channel that packs more boundaries into one
bucket than _GUIDE_MAX_STEPS falls back to searchsorted.

Each worker fills one buffer of _CHUNK doubles from its trials' generators
in turn and classifies and counts it when it is full, so a short trial
costs one call into numpy, not a classify and a count of its own. A double
takes one 64-bit output of PCG64, so a trial's stream is the same whether
drawn whole or in slices, and the counts are those of drawing each trial
alone.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import PauliChannel

__all__ = ["SampleReport", "run_trials", "sample_indices"]

_CHUNK = 1 << 16  # draws per buffer, so memory does not grow with the step count
_GUIDE_SIZE = 1 << 12  # M, a power of two so that u * M and b / M are exact
_GUIDE_MAX_STEPS = 8  # boundaries per bucket beyond which searchsorted is faster


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


class _Classifier:
    """searchsorted(cum, u, side="right") for draws u in [0, 1), through a guide table."""

    __slots__ = ("cum", "guide", "steps")

    def __init__(self, channel: PauliChannel) -> None:
        cum = np.cumsum([w for w, _ in channel.terms])
        cum[-1] = 1.0
        # below 1.0 the test cum[k] <= u is true on a prefix of k, also when
        # rounding puts cum[-2] above the forced 1.0, so searchsorted is exact
        guide = np.searchsorted(cum, np.arange(_GUIDE_SIZE) / _GUIDE_SIZE, side="right")
        # a draw is below cum[-1], so no index passes len(cum) - 1
        steps = int(np.diff(guide, append=len(cum) - 1).max())
        self.cum = cum
        self.guide = guide if steps <= _GUIDE_MAX_STEPS else None
        self.steps = steps

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if self.guide is None:
            return np.searchsorted(self.cum, u, side="right")
        idx = self.guide[(u * _GUIDE_SIZE).astype(np.intp)]
        for _ in range(self.steps):
            idx += self.cum[idx] <= u
        return idx


def sample_indices(
    channel: PauliChannel, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices into channel.terms, drawn by inverse transform sampling."""
    if n_samples < 0:
        raise ValueError(f"need n_samples >= 0, got {n_samples}")
    return _Classifier(channel)(rng.random(n_samples))


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
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    n_terms = len(channel.terms)
    classify = _Classifier(channel)

    def block(trials: range) -> np.ndarray:
        counts = np.zeros(n_terms, dtype=np.int64)
        # one buffer for the draws of every trial in the block
        buf = np.empty(min(_CHUNK, len(trials) * steps_per_trial))
        pos = 0
        for trial in trials:
            rng = np.random.default_rng([seed, trial])
            left = steps_per_trial
            while left:
                take = min(left, len(buf) - pos)
                rng.random(out=buf[pos : pos + take])
                pos += take
                left -= take
                if pos == len(buf):
                    counts += np.bincount(classify(buf), minlength=n_terms)
                    pos = 0
        if pos:
            counts += np.bincount(classify(buf[:pos]), minlength=n_terms)
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
