import os

import numpy as np
import pytest

from noisim import sampling
from noisim.channels import PauliChannel
from noisim.sampling import run_trials, sample_indices

CHANNEL = PauliChannel([(0.5, "II"), (0.3, "XZ"), (0.2, "IY")])


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
    # a trial longer than one chunk, split over blocks of unequal size
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    steps = sampling._CHUNK + 3
    expected = _oracle_counts(3, 7, steps)
    for threads in (1, 2, 3, 8):
        report = run_trials(CHANNEL, seed=3, n_trials=7, steps_per_trial=steps, threads=threads)
        assert report.counts == expected


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
    # (cores, trials, pool sizes)
    for cores, n_trials, pools in ((4, 40, [4]), (4, 3, [3]), (None, 40, [1])):
        requested.clear()
        blocks.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        report = run_trials(CHANNEL, seed=3, n_trials=n_trials, steps_per_trial=25, threads=100_000)
        assert requested == pools
        # one nonempty contiguous range per worker, covering every trial once
        (ranges,) = blocks
        assert len(ranges) == pools[0] and all(len(r) > 0 for r in ranges)
        assert [t for r in ranges for t in r] == list(range(n_trials))
        assert report.counts == _oracle_counts(3, n_trials, 25)


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
