"""Monte Carlo sampling of Pauli channels with reproducible threading.

Every trial draws exactly the stream of default_rng([seed, trial]), so
results are a pure function of (seed, n_trials, steps_per_trial): the
thread count, scheduling order and rerun count cannot change a single
draw. Each worker sums the counts of one contiguous block of trials.

Building that generator costs about twenty times as much as drawing a
100-step trial, so no trial builds one. Each worker keeps one PCG64 and
sets it, trial by trial, to the state default_rng([seed, trial]) starts
from. _trial_states derives those states in batches of at most _SEED_BATCH
trials: a vectorized copy of numpy's SeedSequence hashes the entropy words
[seed, trial] of the whole batch as uint32 arrays, and PCG64's seeding
(srandom_r) turns each 4 x 64-bit output into a (state, inc) pair with
Python ints. A test ties every step to numpy's own SeedSequence and PCG64.

A draw u in [0, 1) picks the term searchsorted(cum, u, side="right") of
the cumulative weights cum (cum[-1] forced to 1.0). u lies in bucket
b = floor(u * M) of a guide table g (Chen and Asau, 1974; Devroye,
Non-Uniform Random Variate Generation, III.2.4), where g[b] counts the
cum[k] <= b/M and M, a power of two, gives each term 64 buckets or more
up to _GUIDE_MAX. u * M and b / M are exact, so every draw in a bucket no
boundary splits (g[b + 1] == g[b]) picks term g[b]. Draws count in an int64
histogram: in their bucket's slot, or, in a split bucket, searched and in
slot M + their term. A block's end folds the histogram by term.

Each worker fills one buffer of _CHUNK doubles from its trials' PCG64
streams, in slices that change no draw, and counts it when full. Setting a
trial's state holds the GIL, so trials under _LONG_TRIAL steps run on one
worker: on 2 vCPUs a second one slowed 1,000-step trials by 10-20%.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import PauliChannel

__all__ = ["SampleReport", "run_trials", "sample_indices"]

_CHUNK = 1 << 16  # draws per buffer, so memory does not grow with the step count
_GUIDE_MAX = 1 << 18  # the most buckets M: a power of two, so that u * M and b / M are exact
_LONG_TRIAL = 4000  # steps per trial from which a second worker saves more than it costs
_SEED_BATCH = 512  # trials whose states are derived together, so memory does not grow with them

# numpy's SeedSequence: a pool of four uint32 words, hashed and mixed. Every
# operand of its arithmetic is a uint32 array or np.uint32, so the products
# wrap mod 2**32 under any numpy casting rule.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashes the entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashes the pool into the output
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier, for its seeding step srandom_r
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


class _GuideTable:
    """Histogram slots for draws: one per bucket of M, then one per term; slot s counts terms[s]."""

    def __init__(self, channel: PauliChannel) -> None:
        self.cum = cum = np.cumsum([w for w, _ in channel.terms])
        cum[-1] = 1.0
        self.size = size = min(64 << (len(cum) - 1).bit_length(), _GUIDE_MAX)
        # below 1.0 the test cum[k] <= u is true on a prefix of k, also when
        # rounding puts cum[-2] above the forced 1.0, so searchsorted is exact
        guide = np.searchsorted(cum, np.arange(size) / size, side="right")
        # a draw is below cum[-1], so no index passes len(cum) - 1
        self.split = np.diff(guide, append=len(cum) - 1) > 0
        self.terms = np.concatenate([guide, np.arange(len(cum))])

    def slots(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The slot of each draw of u, written to out."""
        np.multiply(u, self.size, out=out, casting="unsafe")  # exact, then truncated
        at = np.flatnonzero(self.split[out])
        out[at] = self.size + np.searchsorted(self.cum, u[at], side="right")
        return out

    def fold(self, hist: np.ndarray) -> np.ndarray:
        """The count of each term, from a histogram of slots, in exact int64."""
        counts = np.zeros(len(self.cum), dtype=np.int64)
        np.add.at(counts, self.terms, hist)
        return counts


def sample_indices(channel: PauliChannel, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Indices into channel.terms, drawn by inverse transform sampling."""
    if n_samples < 0:
        raise ValueError(f"need n_samples >= 0, got {n_samples}")
    table = _GuideTable(channel)
    return table.terms[table.slots(rng.random(n_samples), np.empty(n_samples, dtype=np.intp))]


def _uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence makes of a nonnegative int."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(h: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """SeedSequence's hash constant before and after each step; no data enters it."""
    while True:
        nxt = h * mult & _MASK32
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _hashmix(value: np.ndarray, constants: Iterator) -> np.ndarray:
    before, after = next(constants)
    value = (value ^ before) * after
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> _XSHIFT)


def _seed_batch(seed_words: list[int], lo: int, hi: int) -> Iterator[dict]:
    """PCG64(SeedSequence([seed, t])).state for lo <= t < hi, which share t >> 32."""
    size = hi - lo

    def column(word: int) -> np.ndarray:
        return np.full(size, word, dtype=np.uint32)

    # the entropy words [seed, t]: only the low word of t varies in the batch
    low, *high = _uint32_words(lo)
    entropy = [
        *map(column, seed_words),
        np.arange(low, low + size, dtype=np.uint32),
        *map(column, high),
    ]
    # SeedSequence.mix_entropy: hash the words into the pool, zeros past
    # the entropy, mix every pool word into every other, then mix in the
    # words past the pool
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else column(0), constants)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    # SeedSequence.generate_state(4, np.uint64): eight words cycling over
    # the pool, paired little-endian into 64-bit words
    constants = _hash_constants(_INIT_B, _MULT_B)
    out = [_hashmix(pool[i % _POOL_SIZE], constants).astype(np.uint64) for i in range(8)]
    shift = np.uint64(32)
    words = [(out[k] | out[k + 1] << shift).tolist() for k in range(0, 8, 2)]
    # states are built as trials use them: a list of a batch's state dicts
    # takes 0.36 MB per worker, its words 0.14 MB
    for s_hi, s_lo, i_hi, i_lo in zip(*words):
        # PCG64's srandom_r: inc = 2 * initseq + 1; two LCG steps from 0 with initstate added
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128
        yield {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


def _trial_states(seed: int, trials: range) -> Iterator[dict]:
    """The state default_rng([seed, t]) starts from, for each t in trials.

    A batch holds at most _SEED_BATCH trials and never crosses a multiple
    of 2**32, so its trials differ only in their low entropy word.
    """
    seed_words = _uint32_words(seed)
    lo, hi = trials.start, trials.stop
    while lo < hi:
        top = min(hi, lo + _SEED_BATCH, ((lo >> 32) + 1) << 32)
        yield from _seed_batch(seed_words, lo, top)
        lo = top


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
    if n_trials * steps_per_trial >= 2**63:  # the int64 counts would overflow
        raise ValueError(f"need trials * steps < 2**63, got {n_trials} * {steps_per_trial}")
    table = _GuideTable(channel)

    def block(trials: range) -> np.ndarray:
        hist = np.zeros(len(table.terms), dtype=np.int64)
        # one buffer for the draws of every trial in the block, and their slots
        buf = np.empty(min(_CHUNK, len(trials) * steps_per_trial))
        slots = np.empty(len(buf), dtype=np.intp)
        # one generator per worker, set to each trial's state before its draws
        bit_generator = np.random.PCG64()
        rng = np.random.Generator(bit_generator)
        pos = 0
        for state in _trial_states(seed, trials):
            bit_generator.state = state
            left = steps_per_trial
            while left:
                take = min(left, len(buf) - pos)
                rng.random(out=buf[pos : pos + take])
                pos += take
                left -= take
                if pos == len(buf):
                    hist += np.bincount(table.slots(buf, slots), minlength=len(hist))
                    pos = 0
        if pos:
            hist += np.bincount(table.slots(buf[:pos], slots[:pos]), minlength=len(hist))
        return table.fold(hist)

    # more workers than trials or cores adds threads and no speed, and so do short trials
    workers = min(threads, n_trials, os.cpu_count() or 1) if steps_per_trial >= _LONG_TRIAL else 1
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
