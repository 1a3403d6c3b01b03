"""Monte Carlo sampling of Pauli channels with reproducible threading.

Every trial draws exactly the stream of default_rng([seed, trial]), so
results are a pure function of (seed, n_trials, steps_per_trial): the
thread count, scheduling order and rerun count cannot change a single
draw. Each worker sums the counts of one contiguous block of trials.

Building that generator costs about twenty times as much as drawing a
100-step trial, so no trial builds one. _trial_states derives the state
default_rng([seed, trial]) starts from in batches of at most _SEED_BATCH
trials, as lanes: one uint64 array entry a trial for each of state_hi,
state_lo, inc_hi and inc_lo. A vectorized copy of numpy's SeedSequence
hashes the entropy words [seed, trial] of the whole batch as uint32
arrays, and PCG64's seeding (srandom_r) is one 128-bit add and one lane
step. PCG64 (O'Neill, HMC-CS-2014-0905) is the 128-bit LCG
state <- state * MULT + inc with the XSL-RR output rotr64(hi ^ lo, hi >> 58),
and _step and _doubles run it on the lanes: the 64 x 64 -> 128-bit product
from 32-bit limbs, the carry of the add by comparison, and each output
as (x >> 11) * 2**-53, the double Generator.random() returns. Tests tie
every lane, and every draw, to numpy's own SeedSequence and PCG64.

A draw u in [0, 1) picks the term searchsorted(cum, u, side="right") of
the cumulative weights cum (cum[-1] forced to 1.0). u lies in bucket
b = floor(u * M) of a guide table g (Chen and Asau, 1974; Devroye,
Non-Uniform Random Variate Generation, III.2.4), where g[b] counts the
cum[k] <= b/M and M, a power of two, gives each term 64 buckets or more
up to _GUIDE_MAX. u * M and b / M are exact, so every draw in a bucket no
boundary splits (g[b + 1] == g[b]) picks term g[b]. Draws count in an int64
histogram: in their bucket's slot, or, in a split bucket, searched and in
slot M + their term. A block's end folds the histogram by term.

A batch whose trials are short enough draws in lock-step: each step
advances every lane once and counts the lanes' doubles, so no buffer
grows with the steps. A lane's draw costs some d more than one of numpy's;
a lane step's fixed part costs about _LANE_SETUP * d, and setting numpy's
PCG64 to one trial's state about _LANE_TRIAL * d (fitted on 2 vCPUs). So a
batch of L trials of S steps runs as lanes when
S * (L + _LANE_SETUP) < _LANE_TRIAL * L: below about 225 steps at 4,096
lanes and 100 at 1,024. Any other batch sets one PCG64 to each lane's state
in turn and fills a buffer of _CHUNK doubles from the trials' streams, in
slices that change no draw, counting it when full. Both hold the GIL for
most of their time, so trials under _LONG_TRIAL steps run on one worker:
on 2 vCPUs a second one slowed 1,000-step trials by 10-20%, and 10,000
trials of 100 steps as two workers of 5,000 took 58 ms against 23 ms on
one. One worker runs in the calling thread, with no pool: a pool of one
raised the peak RSS of the sample command by about 0.25 MB.
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
_LANE_TRIAL = 400  # a generator set-up per trial, in a lane draw's extra cost
_LANE_SETUP = 3200  # a lane step's fixed cost, in a lane draw's extra cost
_LONG_TRIAL = 4000  # steps per trial from which a second worker saves more than it costs
_SEED_BATCH = 4096  # trials whose states are derived together, so memory does not grow with them

# numpy's SeedSequence: a pool of four uint32 words, hashed and mixed. Every
# operand of its arithmetic is a uint32 array or np.uint32, so the products
# wrap mod 2**32 under any numpy casting rule.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashes the entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashes the pool into the output
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier, in 64-bit halves, and the 32-bit limbs
# B1, B0 of its low half; every lane operand is a uint64 array or np.uint64
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & (1 << 64) - 1)
_B1, _B0 = np.uint64(_PCG64_MULT >> 32 & _MASK32), np.uint64(_PCG64_MULT & _MASK32)
_LOW32 = np.uint64(_MASK32)
_U1, _U11, _U32, _U58, _U63 = map(np.uint64, (1, 11, 32, 58, 63))


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


def _seed_sequence(seed_words: list[int], lo: int, hi: int) -> list[np.ndarray]:
    """SeedSequence([seed, t]).generate_state(4, np.uint64) for lo <= t < hi (same t >> 32)."""
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
    # the pool, paired little-endian: word 2k is output k's low half, and
    # word 2k + 1 its high half
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = (_hashmix(pool[i % _POOL_SIZE], constants).astype(np.uint64) for i in range(8))
    return [word | next(words) << _U32 for word in words]


def _seed_batch(seed_words: list[int], lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """The lanes of PCG64(SeedSequence([seed, t])) for lo <= t < hi, which share t >> 32."""
    # PCG64 seeds from the 64-bit words of initstate and initseq, high word first
    s_hi, s_lo, q_hi, q_lo = _seed_sequence(seed_words, lo, hi)
    # PCG64's srandom_r: inc = 2 * initseq + 1, then two steps from state 0
    # with initstate added between them; the first step leaves inc
    q_hi <<= _U1
    q_hi |= q_lo >> _U63
    q_lo <<= _U1
    q_lo |= _U1
    s_lo += q_lo
    s_hi += q_hi
    s_hi += s_lo < q_lo
    lanes = s_hi, s_lo, q_hi, q_lo
    _step(lanes)
    return lanes


def _step(lanes: tuple[np.ndarray, ...]) -> None:
    """One PCG64 step of every lane, in place: state <- state * MULT + inc mod 2**128."""
    s_hi, s_lo, i_hi, i_lo = lanes
    # the high word of s_lo * MULT_LO from 32-bit limbs a1, a0 of s_lo, with
    # no partial sum past 2**64; each product is taken in place of its limb
    a0, a1 = s_lo & _LOW32, s_lo >> _U32
    mid = a0 * _B0
    mid >>= _U32
    mid += a1 * _B0
    a0 *= _B1
    a0 += mid & _LOW32
    a0 >>= _U32
    mid >>= _U32
    a1 *= _B1
    a1 += mid
    a1 += a0
    s_hi *= _MULT_LO
    s_hi += s_lo * _MULT_HI
    s_hi += a1
    s_hi += i_hi
    s_lo *= _MULT_LO
    s_lo += i_lo
    s_hi += s_lo < i_lo


def _doubles(lanes: tuple[np.ndarray, ...]) -> np.ndarray:
    """Generator.random() of every lane's state: XSL-RR output x, then (x >> 11) * 2**-53."""
    s_hi, s_lo = lanes[:2]
    x = s_hi ^ s_lo
    # rotate right by the top six bits r: x >> r | (x << 1) << 63 - r
    r = ~s_hi
    r >>= _U58
    y = x << _U1
    y <<= r
    r ^= _U63
    x >>= r
    x |= y
    x >>= _U11
    return x * 2.0**-53


def _trial_states(seed: int, trials: range) -> Iterator[tuple[np.ndarray, ...]]:
    """The lanes default_rng([seed, t]) starts from, for t in trials, a batch at a time.

    A batch holds at most _SEED_BATCH trials and never crosses a multiple
    of 2**32, so its trials differ only in their low entropy word.
    """
    seed_words = _uint32_words(seed)
    lo, hi = trials.start, trials.stop
    while lo < hi:
        top = min(hi, lo + _SEED_BATCH, ((lo >> 32) + 1) << 32)
        yield _seed_batch(seed_words, lo, top)
        lo = top


def _count_lanes(table: _GuideTable, lanes: tuple, steps: int, hist: np.ndarray) -> None:
    """Add the slots of each lane's first steps draws to hist, a step of every lane at a time."""
    slots = np.empty(len(lanes[0]), dtype=np.intp)
    for _ in range(steps):
        _step(lanes)
        hist += np.bincount(table.slots(_doubles(lanes), slots), minlength=len(hist))


def _count_trials(table: _GuideTable, lanes: tuple, steps: int, hist: np.ndarray) -> None:
    """Add the slots of each lane's first steps draws to hist, a trial at a time.

    One PCG64 is set to each lane's state in turn, and one buffer takes the
    draws of every trial, in slices that change no draw.
    """
    buf = np.empty(min(_CHUNK, len(lanes[0]) * steps))
    slots = np.empty(len(buf), dtype=np.intp)
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    pos = 0
    for s_hi, s_lo, i_hi, i_lo in zip(*(w.tolist() for w in lanes)):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        left = steps
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
        for lanes in _trial_states(seed, trials):
            size = len(lanes[0])
            # lanes cost less than a generator set per trial (see the module docstring)
            if steps_per_trial * (size + _LANE_SETUP) < _LANE_TRIAL * size:
                _count_lanes(table, lanes, steps_per_trial, hist)
            else:
                _count_trials(table, lanes, steps_per_trial, hist)
        return table.fold(hist)

    # more workers than trials or cores adds threads and no speed, and so do short trials
    workers = min(threads, n_trials, os.cpu_count() or 1) if steps_per_trial >= _LONG_TRIAL else 1
    bounds = [n_trials * k // workers for k in range(workers + 1)]
    if workers == 1:
        totals = block(range(n_trials))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            totals = sum(pool.map(block, map(range, bounds[:-1], bounds[1:])))
    return SampleReport(
        channel=channel,
        seed=seed,
        n_trials=n_trials,
        steps_per_trial=steps_per_trial,
        counts=tuple(int(c) for c in totals),
    )
