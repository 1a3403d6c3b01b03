import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import all_texts
from noisim import sampling
from noisim.channels import PauliChannel
from noisim.sampling import run_trials, sample_indices

CHANNEL = PauliChannel([(0.5, "II"), (0.3, "XZ"), (0.2, "IY")])
# 5-qubit strings in text order, so term k of a channel built from them has weight k
TEXTS = all_texts(5)


def test_sampling_is_deterministic_per_seed():
    a = run_trials(CHANNEL, seed=7, n_trials=20, steps_per_trial=50)
    b = run_trials(CHANNEL, seed=7, n_trials=20, steps_per_trial=50)
    c = run_trials(CHANNEL, seed=8, n_trials=20, steps_per_trial=50)
    assert a.counts == b.counts
    assert a.counts != c.counts


def _oracle_counts(seed, n_trials, steps):
    # one full-length draw per trial, then inverse transform and a tally
    cum = np.cumsum([w for w, _ in CHANNEL.terms])
    cum[-1] = 1.0
    totals = np.zeros(len(CHANNEL.terms), dtype=np.int64)
    for t in range(n_trials):
        draws = np.random.default_rng([seed, t]).random(steps)
        totals += np.bincount(np.searchsorted(cum, draws, side="right"), minlength=len(cum))
    return tuple(int(c) for c in totals)


def test_thread_count_does_not_change_counts(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    # trials of every length are split among workers
    monkeypatch.setattr(sampling, "_LONG_TRIAL", 1)
    chunk = sampling._CHUNK
    for n_trials, steps in (
        # a trial longer than one chunk, split over blocks of unequal size
        (7, chunk + 3),
        # every trial ends one draw short of a full buffer, so later ones straddle a flush
        (3, chunk - 1),
        # full buffers end mid-trial (65536 = 65 * 1000 + 536), and a partial one is left
        (70, 1000),
        # a flush falls exactly on a trial boundary (2 * 32768 = 65536)
        (5, chunk // 2),
        # the last flush holds a single draw
        (1, chunk + 1),
    ):
        expected = _oracle_counts(3, n_trials, steps)
        for threads in (1, 2, 3, 8):
            report = run_trials(
                CHANNEL, seed=3, n_trials=n_trials, steps_per_trial=steps, threads=threads
            )
            assert report.counts == expected, (n_trials, steps, threads)


BATCH = sampling._SEED_BATCH


def _numpy_state(seed, trial):
    return np.random.PCG64(np.random.SeedSequence([seed, trial])).state


# seeds of one, two and three or more 32-bit words, with each word-count edge
seeds = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 5]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**160),
)


@st.composite
def trial_ranges(draw):
    # ranges from 0, across a batch boundary, and across 2**32 and 2**64,
    # where the trial's entropy gains a word
    start = draw(st.one_of(
        st.just(0),
        st.integers(0, 2**40),
        st.integers(2**32 - 8, 2**32),
        st.integers(2**64 - 8, 2**64),
    ))
    length = draw(st.one_of(st.integers(1, 12), st.integers(BATCH - 2, BATCH + 6)))
    return range(start, start + length)


@given(seeds, trial_ranges())
@example(0, range(0, 3))
@example(2**32 - 1, range(BATCH - 2, 2 * BATCH + 2))
@example(2**32, range(2**32 - 3, 2**32 + 3))
@example(2**96 + 5, range(2**64 - 2, 2**64 + 2))
@settings(max_examples=40, deadline=None)
def test_trial_states_match_numpy(seed, trials):
    # every batch is four uint64 lane arrays: state_hi, state_lo, inc_hi, inc_lo
    states = []
    for lanes in sampling._trial_states(seed, trials):
        assert [w.dtype for w in lanes] == [np.uint64] * 4
        s_hi, s_lo, i_hi, i_lo = (w.tolist() for w in lanes)
        states += [(sh << 64 | sl, ih << 64 | il) for sh, sl, ih, il in zip(s_hi, s_lo, i_hi, i_lo)]
    assert len(states) == len(trials)
    for trial, (state, inc) in zip(trials, states):
        expected = _numpy_state(seed, trial)["state"]
        assert (state, inc) == (expected["state"], expected["inc"]), (seed, trial)


@given(seeds, trial_ranges(), st.integers(1, 5))
@example(2**32, range(2**32 - 3, 2**32 + 3), 5)
@example(2**96 + 5, range(2**64 - 2, 2**64 + 2), 3)
@settings(max_examples=30, deadline=None)
def test_lane_draws_match_numpy(seed, trials, steps):
    # each lane step's doubles are, lane by lane, the next draw of default_rng([seed, t])
    batches = []
    for lanes in sampling._trial_states(seed, trials):
        draws = []
        for _ in range(steps):
            sampling._step(lanes)
            draws.append(sampling._doubles(lanes))
        batches.append(np.column_stack(draws))
    got = np.concatenate(batches)
    assert got.shape == (len(trials), steps)
    for trial, row in zip(trials, got):
        expected = np.random.default_rng([seed, trial]).random(steps)
        assert np.array_equal(row, expected), (seed, trial)


@pytest.mark.parametrize("lanes", ["always", "never"])
def test_lanes_on_and_off_give_the_oracle_counts(monkeypatch, lanes):
    # the lane rule forced either way; at 2 and 3 threads a block starts off the batch grid
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(sampling, "_LONG_TRIAL", 1)
    monkeypatch.setattr(sampling, "_LANE_TRIAL", 2**62 if lanes == "always" else 0)
    for n_trials, steps, threads in ((BATCH + 1, 3, 1), (2 * BATCH + 5, 2, 3), (BATCH - 1, 4, 2)):
        report = run_trials(
            CHANNEL, seed=6, n_trials=n_trials, steps_per_trial=steps, threads=threads
        )
        assert report.counts == _oracle_counts(6, n_trials, steps), (n_trials, steps, threads)


def test_blocks_that_start_mid_batch(monkeypatch):
    # at 2 and 3 threads a worker's block starts at a trial off the batch grid
    # (2049, 1366, 2732), and the second batch of threads=1 holds three trials,
    # which the lane rule sends to numpy's PCG64 while the first draws as lanes
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(sampling, "_LONG_TRIAL", 1)
    expected = _oracle_counts(4, BATCH + 3, 7)
    for threads in (1, 2, 3):
        report = run_trials(CHANNEL, seed=4, n_trials=BATCH + 3, steps_per_trial=7, threads=threads)
        assert report.counts == expected, threads


def test_trial_states_are_derived_in_bounded_batches(monkeypatch):
    spans = []
    seed_batch = sampling._seed_batch

    def recorded(seed_words, lo, hi):
        spans.append((lo, hi))
        return seed_batch(seed_words, lo, hi)

    monkeypatch.setattr(sampling, "_seed_batch", recorded)
    n_trials = 5 * BATCH + 7
    report = run_trials(CHANNEL, seed=2, n_trials=n_trials, steps_per_trial=1)
    assert sum(report.counts) == n_trials
    # contiguous batches covering every trial once, none longer than the cap
    assert [t for lo, hi in spans for t in range(lo, hi)] == list(range(n_trials))
    assert max(hi - lo for lo, hi in spans) == BATCH


class _FixedDraws:
    """Stands in for a Generator whose random(n) returns the given draws."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, n):
        assert n == len(self.draws)
        return self.draws.copy()


def _check_table(weights, extra_draws=(), texts=TEXTS):
    """Counts from the slot histogram, and sample_indices, equal searchsorted on every edge draw."""
    channel = PauliChannel(zip(weights, texts))
    cum = np.cumsum([w for w, _ in channel.terms])
    cum[-1] = 1.0
    table = sampling._GuideTable(channel)
    edges = np.concatenate([cum, np.arange(table.size) / table.size])
    draws = np.concatenate([
        edges,
        np.nextafter(edges, 0.0),
        np.nextafter(edges, 1.0),
        [0.0, np.nextafter(1.0, 0.0)],
        extra_draws,
    ])
    draws = draws[(draws >= 0.0) & (draws < 1.0)]
    expected = np.searchsorted(cum, draws, side="right")
    assert np.array_equal(table.cum, cum)
    slots = table.slots(draws, np.empty(len(draws), dtype=np.intp))
    counts = table.fold(np.bincount(slots, minlength=len(table.terms)))
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.bincount(expected, minlength=len(cum)))
    indices = sample_indices(channel, len(draws), _FixedDraws(draws))
    assert np.array_equal(indices, expected)
    return table


def test_classifier_corner_cases(monkeypatch):
    # one term: every draw is term 0, and no bucket is split
    assert not _check_table([1.0]).split.any()
    # a tiny weight vanishes in the sum, so two cumulative weights are equal
    vanished = _check_table([0.5, 1e-17, 0.25, 1e-300, 0.25])
    assert vanished.cum[0] == vanished.cum[1]
    # the weights sum to 1 + 1e-13, so cum[-2] lies above the forced cum[-1] = 1.0
    over = _check_table([0.5, 0.5 + 1e-13, 1e-20])
    assert over.cum[-2] > over.cum[-1] == 1.0
    _check_table([0.5, 0.5 - 1e-13, 1e-20])
    # the only boundary lies in the last bucket, below the forced 1.0
    last = _check_table([1 - 1e-13, 1e-13])
    assert np.flatnonzero(last.split).tolist() == [last.size - 1]
    # boundaries exactly on bucket edges
    _check_table([0.25, 0.25, 0.125, 0.375])
    # 5 and 600 boundaries in one bucket
    _check_table([0.5, *[1e-9] * 5, 0.5 - 5e-9])
    _check_table([0.5, *[1e-9] * 600, 0.5 - 6e-7])
    # 4096 terms get 64 buckets each, so few draws are searched
    weights = np.random.default_rng(0).random(4**6)
    weights /= weights.sum()
    many = _check_table(weights, texts=all_texts(6))
    assert many.size == 64 * 4**6 and many.split.mean() < 0.05
    # capped at one bucket per term, most buckets are split and most draws searched
    monkeypatch.setattr(sampling, "_GUIDE_MAX", 4**6)
    capped = _check_table(weights, texts=all_texts(6))
    assert capped.size == 4**6 and capped.split.mean() > 0.5


def test_fold_counts_stay_exact_above_2_53():
    table = sampling._GuideTable(CHANNEL)
    hist = np.arange(len(table.terms), dtype=np.int64)
    # the first two buckets count term 0, the last two slots terms 1 and 2
    hist[[0, 1, -2, -1]] += 2**53 + 1
    expected = [0] * len(CHANNEL.terms)
    for term, count in zip(table.terms.tolist(), hist.tolist()):
        expected[term] += count
    assert max(expected) > 2**54
    assert table.fold(hist).tolist() == expected
    # a float64 fold rounds the same histogram
    assert np.bincount(table.terms, weights=hist).astype(np.int64).tolist() != expected


@st.composite
def weight_lists(draw):
    weight = st.one_of(
        st.floats(1e-3, 1.0), st.sampled_from([1e-9, 1e-13, 1e-17, 1e-300])
    )
    raw = draw(st.lists(weight, min_size=1, max_size=60))
    # a cluster of tiny weights, from a few boundaries per bucket to forty
    cluster = draw(st.integers(0, 40))
    at = draw(st.integers(0, len(raw)))
    raw[at:at] = [1e-9] * cluster
    total = math.fsum(raw)
    weights = [w / total for w in raw]
    # the weights may sum to 1 +- 1e-13, within the channel's 1e-12
    shift = draw(st.sampled_from([0.0, 1e-13, -1e-13]))
    k = max(range(len(weights)), key=weights.__getitem__)
    weights[k] += shift
    return weights


@given(weight_lists(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
@settings(max_examples=150, deadline=None)
def test_classifier_matches_searchsorted(weights, draws):
    _check_table(weights, np.array(draws, dtype=float))


def test_worker_count_is_bounded_by_trials_and_cores(monkeypatch):
    # a recorder stands in for the pool and runs the blocks serially, so no
    # thread is started whatever the requested count
    requested, blocks = [], []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            blocks.append(items)
            return map(fn, items)

    monkeypatch.setattr(sampling, "ThreadPoolExecutor", SerialPool)
    long, short = sampling._LONG_TRIAL, sampling._LONG_TRIAL - 1
    # (cores, trials, steps per trial, workers); trials too short to pay
    # for a second worker run on one, in the calling thread with no pool
    for cores, n_trials, steps, workers in (
        (4, 40, long, 4), (4, 3, long, 3), (None, 40, long, 1), (4, 40, short, 1)
    ):
        requested.clear()
        blocks.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        report = run_trials(
            CHANNEL, seed=3, n_trials=n_trials, steps_per_trial=steps, threads=100_000
        )
        assert requested == ([workers] if workers > 1 else [])
        if workers > 1:
            # one nonempty contiguous range per worker, covering every trial once
            (ranges,) = blocks
            assert len(ranges) == workers and all(len(r) > 0 for r in ranges)
            assert [t for r in ranges for t in r] == list(range(n_trials))
        assert report.counts == _oracle_counts(3, n_trials, steps)


def test_counts_tally_and_frequencies():
    report = run_trials(CHANNEL, seed=1, n_trials=10, steps_per_trial=100)
    assert sum(report.counts) == report.n_samples == 1000
    assert sum(report.frequencies) == pytest.approx(1.0)
    assert report.l1_gap < 0.2


def test_l1_gap_shrinks_with_more_samples():
    small = run_trials(CHANNEL, seed=5, n_trials=10, steps_per_trial=20)
    large = run_trials(CHANNEL, seed=5, n_trials=10, steps_per_trial=20000)
    assert large.l1_gap < small.l1_gap


def test_degenerate_channel_always_draws_its_string():
    sure = PauliChannel([(1.0, "XX")])
    rng = np.random.default_rng(0)
    idx = sample_indices(sure, 50, rng)
    assert (idx == 0).all()


def test_argument_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_indices(CHANNEL, -1, rng)
    with pytest.raises(ValueError):
        run_trials(CHANNEL, seed=0, n_trials=0, steps_per_trial=5)
    with pytest.raises(ValueError):
        run_trials(CHANNEL, seed=0, n_trials=5, steps_per_trial=5, threads=0)
    with pytest.raises(ValueError, match="seed >= 0, got -1"):
        run_trials(CHANNEL, seed=-1, n_trials=5, steps_per_trial=5)
