import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_channel_dense,
    dense_chain_parts,
    dense_trotter_factors,
    expm_dense,
    majorana_generator,
    majorana_rotation,
    majoranas_dense,
    random_channel_terms,
    sequential_occupations,
)
from noisim.channels import DensityMatrix, PauliChannel
from noisim.dynamics import (
    CHAIN_SITE_CAP,
    EXACT_ORTHOGONALITY_BOUND,
    BenchmarkConfig,
    _bilinear_eigenvalues,
    _generator,
    _initial_correlations,
    _step_rotation,
    default_noise_channel,
    default_target_channel,
    evolve_occupations,
    run_benchmark,
    scale_channel_weights,
    trotter_step_unitaries,
)
from noisim.pauli import parse


def test_hamiltonian_onsite_spectrum():
    # the onsite part's generator is the dense Heisenberg derivative, a
    # 2 x 2 block per site, and each site's excitation costs omega0
    onsite, _, _ = dense_chain_parts(2, 1.0, 0.0)
    a = _generator(2, 1.0, 0.0)
    assert np.abs(a - majorana_generator(onsite, 2)).max() < 1e-15
    assert a.tolist() == [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    assert np.abs(np.linalg.eigvalsh(1j * a) - [-1, -1, 1, 1]).max() < 1e-15


def test_hamiltonian_hopping_block():
    # one bond's generator pairs m_2 with m_3 and m_1 with m_4
    _, bond, _ = dense_chain_parts(2, 0.0, 1.0)
    a = _generator(2, 0.0, 1.0)
    assert np.abs(a - majorana_generator(bond, 2)).max() < 1e-15
    assert a.tolist() == [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]


finite = st.floats(min_value=-10, max_value=10)


@given(st.integers(min_value=1, max_value=6), finite, finite, st.floats(min_value=1e-3, max_value=1))
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_dense_exponentials(n, omega0, g, dt):
    parts = dense_chain_parts(n, omega0, g)
    dense = dense_trotter_factors(n, omega0, g, dt)
    factors = trotter_step_unitaries(n, omega0, g, dt, method="trotter")
    assert len(factors) == 3
    for o, u, h in zip(factors, dense, parts):
        assert np.abs(u - expm_dense(h, dt)).max() < 1e-12
        # each factor is the rotation its dense unitary applies to the Majoranas
        assert o.shape == (2 * n, 2 * n) and o.dtype == float
        assert np.abs(o - majorana_rotation(u, n)).max() < 1e-12
    (exact,) = trotter_step_unitaries(n, omega0, g, dt, method="exact_exponential")
    assert np.abs(exact - majorana_rotation(expm_dense(sum(parts), dt), n)).max() < 1e-12


def test_single_site_bond_factors_are_identity():
    _, odd, even = trotter_step_unitaries(1, 1.3, 0.7, 0.2)
    assert np.array_equal(odd, np.eye(2)) and np.array_equal(even, np.eye(2))


def test_split_is_exact_up_to_two_sites():
    # onsite energy counts excitations, which hopping conserves, so the parts commute
    for n in (1, 2):
        onsite, odd, _ = trotter_step_unitaries(n, 1.3, 0.7, 0.2)
        (exact,) = trotter_step_unitaries(n, 1.3, 0.7, 0.2, method="exact_exponential")
        assert np.abs(onsite @ odd - exact).max() < 1e-13


def test_single_excitation_rabi_oscillation():
    # the split factors are exact at two sites, so they meet cos^2(gt) as the exponential does
    g, dt, steps = 0.5, 0.05, 200
    t = np.arange(steps + 1) * dt
    for method in ("trotter", "exact_exponential"):
        factors = trotter_step_unitaries(2, 1.0, g, dt, method=method)
        occ = evolve_occupations("10", factors, None, steps)
        assert np.abs(occ[:, 0] - np.cos(g * t) ** 2).max() < 1e-12, method
        assert np.abs(occ[:, 1] - np.sin(g * t) ** 2).max() < 1e-12, method
        assert np.abs(occ.sum(axis=1) - 1.0).max() < 1e-12, method


def test_basis_labels_read_as_their_bits():
    assert evolve_occupations("10", (), None, 0).tolist() == [[1.0, 0.0]]
    assert evolve_occupations("011", (), None, 1).tolist() == [[0.0, 1.0, 1.0]] * 2
    # a label's Gamma holds -<Z_q> = 2b - 1 at (2q - 1, 2q), antisymmetric, zero elsewhere
    gamma = _initial_correlations("10", 0)
    assert gamma.tolist() == [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_channel_scales_each_bilinear_by_its_eigenvalue(seed, n):
    # E(i m_a m_b) = lam_ab i m_a m_b for every pair a != b
    rng = np.random.default_rng(seed)
    terms = random_channel_terms(rng, n, max_terms=12)
    lam = _bilinear_eigenvalues(PauliChannel(terms))
    m = majoranas_dense(n)
    for a in range(2 * n):
        for b in range(2 * n):
            if a != b:
                bilinear = 1j * m[a] @ m[b]
                assert np.abs(apply_channel_dense(terms, bilinear) - lam[a, b] * bilinear).max() < 1e-14


def test_channel_eigenvalues_sum_over_blocks_of_terms(monkeypatch):
    import noisim.dynamics

    channel = PauliChannel(random_channel_terms(np.random.default_rng(3), 4, max_terms=40))
    whole = _bilinear_eigenvalues(channel)
    monkeypatch.setattr(noisim.dynamics, "_TERM_BLOCK", 3)
    assert len(channel.terms) > 3
    assert np.abs(_bilinear_eigenvalues(channel) - whole).max() < 1e-15


def test_onsite_energies_match_popcount():
    # a basis state's energy <H> = sum_ab A_ab Gamma_ab / 4: each excited site
    # lowers omega0 * n / 2 by omega0, and hopping has no expectation there
    for n in range(1, 11):
        for omega0 in (1.0, -0.37, 2.5e3):
            a = _generator(n, omega0, 0.7)
            for i in range(2**n):
                gamma = _initial_correlations(format(i, f"0{n}b"), 0)
                energy = 0.5 * omega0 * (n - 2 * i.bit_count())
                assert (a * gamma).sum() / 4 == pytest.approx(energy, abs=1e-15 * abs(omega0) * n)


def test_step_unitaries_are_unitary():
    # each factor is real and orthogonal, so it is unitary too
    for method in ("trotter", "exact_exponential"):
        for n in (2, 3, 64):
            for o in trotter_step_unitaries(n, 1.0, 0.5, 0.1, method=method):
                assert o.dtype == float and o.shape == (2 * n, 2 * n)
                assert np.abs(o @ o.T - np.eye(2 * n)).max() < 1e-12


def test_trotter_error_is_first_order():
    # splitting error halves with the step for unitary-only evolution
    t_final = 2.0
    devs = []
    for dt in (0.05, 0.025):
        steps = round(t_final / dt)
        split = trotter_step_unitaries(3, 1.0, 0.5, dt, method="trotter")
        exact = (expm_dense(sum(dense_chain_parts(3, 1.0, 0.5)), dt),)
        occ_split = evolve_occupations("100", split, None, steps)
        rho = DensityMatrix.from_basis_label("100").matrix
        occ_exact = sequential_occupations(rho, exact, None, 3, steps)
        devs.append(np.abs(occ_split - occ_exact).max())
    assert 1.7 < devs[0] / devs[1] < 2.3


def test_trotter_deviation_halves_with_dt_at_64_sites():
    # first-order splitting, measured against the exact step where no dense oracle reaches
    n, t_final, initial = 64, 2.0, "1" + "0" * 63
    devs = []
    for dt in (0.05, 0.025):
        steps = round(t_final / dt)
        split = trotter_step_unitaries(n, 1.0, 0.5, dt)
        exact = trotter_step_unitaries(n, 1.0, 0.5, dt, method="exact_exponential")
        occ_split = evolve_occupations(initial, split, None, steps)
        occ_exact = evolve_occupations(initial, exact, None, steps)
        devs.append(np.abs(occ_split - occ_exact).max())
    assert 1.8 < devs[0] / devs[1] < 2.2


def test_exact_exponential_is_small_system_reference():
    with pytest.raises(ValueError):
        trotter_step_unitaries(2, 1.0, 0.5, 0.05, method="magic")
    with pytest.raises(ValueError):
        trotter_step_unitaries(2, 1.0, 0.5, -0.1)
    for dt in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt"):
            trotter_step_unitaries(2, 1.0, 0.5, dt)
    with pytest.raises(ValueError, match=f"refusing a {CHAIN_SITE_CAP + 1}-site chain"):
        trotter_step_unitaries(CHAIN_SITE_CAP + 1, 1.0, 0.5, 0.05)
    m = 2 * CHAIN_SITE_CAP
    assert trotter_step_unitaries(CHAIN_SITE_CAP, 1.0, 0.5, 0.05)[1].shape == (m, m)
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one site"):
            trotter_step_unitaries(n, 1.0, 0.5, 0.05)
    for bad in (math.nan, math.inf, -math.inf):
        for method in ("trotter", "exact_exponential"):
            with pytest.raises(ValueError, match="omega0"):
                trotter_step_unitaries(2, bad, 0.5, 0.05, method=method)
            with pytest.raises(ValueError, match="coupling"):
                trotter_step_unitaries(2, 1.0, bad, 0.05, method=method)


def test_phases_that_overflow_are_refused():
    # finite inputs whose product with dt, at this chain size, is not finite
    cases = (("trotter", 3), ("exact_exponential", 2), ("exact_exponential", 3),
             ("exact_exponential", 64))
    for method, n in cases:
        for omega0, g, dt in ((1e308, 0.5, 1e300), (1.0, 1e308, 1e300), (-1e308, 0.5, 1e300)):
            with pytest.raises(ValueError, match=f"overflows at {n} sites: omega0="):
                trotter_step_unitaries(n, omega0, g, dt, method=method)
        # finite phases pass the overflow check: the exact step's largest single-particle
        # energy, omega0 + 2 g cos(pi / (n + 1)), stays below the float range. Trotter
        # factors are built finite; the exact step's O is far from orthogonal there
        g = 1e308 if n <= 3 else 5e307
        if method == "trotter":
            for u in trotter_step_unitaries(n, 1e308 / n, g, 1.0, method=method):
                assert np.isfinite(u).all()
        else:
            with pytest.raises(ValueError, match="not orthogonal"):
                trotter_step_unitaries(n, 1e308 / n, g, 1.0, method=method)
    # n * omega0 / 2 overflows at 3 sites even though omega0 * dt does not
    with pytest.raises(ValueError, match="overflows at 3 sites"):
        trotter_step_unitaries(3, 1.2e308, 0.5, 1.0)
    # at 64 sites the exact step's single-particle energies overflow, though g * dt does not
    with pytest.raises(ValueError, match="overflows at 64 sites"):
        trotter_step_unitaries(64, 1e308 / 64, 1e308, 1.0, method="exact_exponential")
    assert len(trotter_step_unitaries(64, 1e308 / 64, 1e308, 1.0)) == 3


@pytest.mark.parametrize("rate", [1e13, 1e16])
def test_exact_step_far_from_orthogonal_is_refused(rate):
    # eigh's eigenphases carry errors near rate * 1e-16, so at 8 sites O O^T - I
    # reaches 2e-5 at 1e13 and 0.5 at 1e16; the message names the phase
    phase = rate + 2 * rate * math.cos(math.pi / 9)
    message = re.escape(f"exact step at phase {phase:.6g} ") + ".* not orthogonal"
    with pytest.raises(ValueError, match=message):
        trotter_step_unitaries(8, rate, rate, 1.0, method="exact_exponential")
    # the Trotter factors are cos/sin blocks, orthogonal to rounding at any phase
    o = _step_rotation(trotter_step_unitaries(8, rate, rate, 1.0))
    assert np.abs(o @ o.T - np.eye(16)).max() < 1e-12


def test_exact_step_at_ordinary_phases_is_orthogonal():
    for n in (1, 8, 64):
        (o,) = trotter_step_unitaries(n, 1.0, 0.5, 0.05, method="exact_exponential")
        assert np.abs(o @ o.T - np.eye(2 * n)).max() <= EXACT_ORTHOGONALITY_BOUND / 1000


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(["trotter", "exact_exponential", "none"]),
    st.booleans(),
    st.floats(min_value=1e-3, max_value=1.5),
)
@settings(max_examples=60, deadline=None)
def test_evolution_matches_sequential_dense_oracle(seed, n, factors, with_channel, dt):
    rng = np.random.default_rng(seed)
    omega0, g = rng.uniform(-2, 2, size=2)
    if factors == "none":
        rotations, dense = (), ()
    else:
        rotations = trotter_step_unitaries(n, omega0, g, dt, method=factors)
        dense = (
            dense_trotter_factors(n, omega0, g, dt) if factors == "trotter"
            else (expm_dense(sum(dense_chain_parts(n, omega0, g)), dt),)
        )
    terms = random_channel_terms(rng, n, max_terms=10) if with_channel else None
    channel = PauliChannel(terms) if with_channel else None
    initial = "".join(rng.choice(["0", "1"], size=n))
    rho = DensityMatrix.from_basis_label(initial).matrix
    n_steps = int(rng.integers(0, 5))
    occ = evolve_occupations(initial, rotations, channel, n_steps)
    expected = sequential_occupations(rho, dense, terms, n, n_steps)
    assert occ.shape == (n_steps + 1, n)
    assert np.abs(occ - expected).max() < 1e-12


def test_banded_steps_match_one_dense_rotation():
    # at 40 sites the step's O spans several row blocks, each reaching only its band
    rng = np.random.default_rng(7)
    n, n_steps = 40, 6
    factors = trotter_step_unitaries(n, 1.3, 0.7, 0.4)
    o = factors[2] @ factors[1] @ factors[0]
    channel = PauliChannel([(0.9, "I" * n), (0.06, "XY" + "Z" * (n - 2)), (0.04, "I" * (n - 1) + "X")])
    lam = _bilinear_eigenvalues(channel)
    label = "".join(rng.choice(["0", "1"], size=n))
    gamma = _initial_correlations(label, n_steps)
    rows = [gamma.diagonal(1)[::2]]
    for _ in range(n_steps):
        gamma = lam * (o @ gamma @ o.T)
        rows.append(gamma.diagonal(1)[::2])
    expected = (1 + np.array(rows)) / 2
    assert np.abs(evolve_occupations(label, factors, channel, n_steps) - expected).max() < 1e-13


def test_evolution_validation():
    (u,) = trotter_step_unitaries(2, 1.0, 0.5, 0.05, method="exact_exponential")
    with pytest.raises(ValueError):
        evolve_occupations("1", (u,), None, 10)
    with pytest.raises(ValueError):
        evolve_occupations("10", (u,), None, -1)
    with pytest.raises(ValueError):
        evolve_occupations("10", (u,), PauliChannel([(1.0, "I")]), 10)
    # a run starts from a basis label, and a dense state is not one
    with pytest.raises(ValueError, match=r"bitstring, got DensityMatrix\(dim=4\)"):
        evolve_occupations(DensityMatrix.from_basis_label("10"), (), None, 2)


def test_default_benchmark_recovers_target_evolution():
    result = run_benchmark(
        BenchmarkConfig(target=default_target_channel(), noise=default_noise_channel())
    )
    assert result.encoding.converged
    assert result.max_gap < 1e-9
    assert result.times.shape == (201,)
    assert result.target_occupations.shape == (201, 2)


def test_benchmark_fixed_encoder_and_errors():
    cfg = BenchmarkConfig(target=default_target_channel(), noise=default_noise_channel())
    fixed = BenchmarkConfig(
        target=cfg.target, noise=cfg.noise, encoder="fixed", node="XZ", tol=1e-6
    )
    result = run_benchmark(fixed)
    # fixed-node encoding converges geometrically, so the gap tracks tol
    assert result.encoding.converged
    assert result.max_gap < 1e-4
    with pytest.raises(ValueError):
        run_benchmark(BenchmarkConfig(target=cfg.target, noise=cfg.noise, encoder="fixed"))
    with pytest.raises(ValueError):
        run_benchmark(BenchmarkConfig(target=cfg.target, noise=cfg.noise, encoder="best"))
    with pytest.raises(ValueError):
        run_benchmark(BenchmarkConfig(target=cfg.target, noise=cfg.noise, initial="101"))


def test_benchmark_gap_stays_within_its_bound():
    # each row's gap is at most t * delta / 2; the fixed rule at node XZ comes
    # within a factor of 0.6 of it at every tol, so the bound is not vacuous
    target, noise = default_target_channel(), default_noise_channel()
    for tol in (1e-1, 1e-3, 1e-6):
        result = run_benchmark(BenchmarkConfig(
            target=target, noise=noise, encoder="fixed", node="XZ", tol=tol, n_steps=100
        ))
        realized = {s.text: w for w, s in result.effective.terms}
        wanted = {s.text: w for w, s in target.terms}
        delta = math.fsum(abs(wanted.get(k, 0.0) - realized.get(k, 0.0)) for k in wanted | realized)
        assert result.weight_distance == pytest.approx(delta, rel=1e-12, abs=1e-18)
        gaps = np.abs(result.target_occupations - result.encoded_occupations).max(axis=1)
        ratios = gaps[1:] / (np.arange(1, 101) * delta / 2)
        assert 0.5 < ratios.max() <= 1.0, tol


def test_benchmark_composes_one_step_for_both_runs(monkeypatch):
    import noisim.dynamics

    evolve, seen = noisim.dynamics.evolve_occupations, []

    def recorded(initial, unitaries, channel, n_steps):
        seen.append(unitaries)
        return evolve(initial, unitaries, channel, n_steps)

    monkeypatch.setattr(noisim.dynamics, "evolve_occupations", recorded)
    run_benchmark(BenchmarkConfig(
        target=default_target_channel(), noise=default_noise_channel(), n_steps=3
    ))
    # both runs get the one product of the three factors, the first factor rightmost
    onsite, odd, even = trotter_step_unitaries(2, 1.0, 0.5, 0.05)
    (step,), (again,) = seen
    assert again is step
    assert np.array_equal(step, even @ odd @ onsite)


def test_channel_map_is_built_once_per_call(monkeypatch):
    # a longer run must scale by the same eigenvalues, not build them again
    import noisim.dynamics

    eigenvalues, calls = noisim.dynamics._bilinear_eigenvalues, []

    def counted(channel):
        calls.append(1)
        return eigenvalues(channel)

    monkeypatch.setattr(noisim.dynamics, "_bilinear_eigenvalues", counted)
    unitaries = trotter_step_unitaries(2, 1.0, 0.5, 0.05)
    counts = []
    for n_steps in (5, 50):
        calls.clear()
        evolve_occupations("10", unitaries, default_target_channel(), n_steps)
        counts.append(len(calls))
    assert counts == [1, 1]


def test_scale_channel_weights():
    ch = default_target_channel()
    half = scale_channel_weights(ch, 0.5)
    assert half.weight(parse("XZ")) == pytest.approx(0.015)
    assert half.weight(parse("IY")) == pytest.approx(0.01)
    assert half.weight(parse("II")) == pytest.approx(0.975)
    gone = scale_channel_weights(ch, 0.0)
    assert gone.terms == ((1.0, parse("II")),)
    no_id = scale_channel_weights(PauliChannel([(0.5, "X"), (0.5, "Z")]), 0.4)
    assert no_id.weight(parse("I")) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        scale_channel_weights(ch, -0.5)
    with pytest.raises(ValueError, match="factor >= 0, got nan"):
        scale_channel_weights(ch, math.nan)
    # (0.5 I, 0.5 X) scaled by 3 would need weight 1.5 on X and -0.5 on I
    with pytest.raises(ValueError, match="drives identity weight to -0.5"):
        scale_channel_weights(PauliChannel([(0.5, "I"), (0.5, "X")]), 3.0)


def test_default_channels_are_ratio_matched():
    # the noise channel's XX share equals the target's XZ:IY split
    target = default_target_channel()
    noise = default_noise_channel()
    xz, iy = target.weight(parse("XZ")), target.weight(parse("IY"))
    assert iy / (xz + iy) == pytest.approx(noise.weight(parse("XX")))
