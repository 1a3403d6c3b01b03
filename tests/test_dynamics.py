import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_channel_dense,
    dense_chain_parts,
    dense_trotter_factors,
    expm_dense,
    majorana_rotation,
    majoranas_dense,
    random_channel_terms,
    random_density,
    sequential_occupations,
)
from noisim.channels import DensityMatrix, PauliChannel
from noisim.dynamics import (
    CHAIN_SITE_CAP,
    BenchmarkConfig,
    _bilinear_eigenvalues,
    _initial_correlations,
    chain_hamiltonian,
    default_noise_channel,
    default_target_channel,
    evolve_occupations,
    run_benchmark,
    scale_channel_weights,
    trotter_step_unitaries,
)
from noisim.pauli import parse


def test_hamiltonian_onsite_spectrum():
    h = chain_hamiltonian(2, 1.0, 0.0)
    assert np.abs(h - np.diag([1.0, 0.0, 0.0, -1.0])).max() < 1e-15


def test_hamiltonian_hopping_block():
    h = chain_hamiltonian(2, 0.0, 1.0)
    expected = np.zeros((4, 4))
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.abs(h - expected).max() < 1e-15


finite = st.floats(min_value=-10, max_value=10)


@given(st.integers(min_value=1, max_value=6), finite, finite, st.floats(min_value=1e-3, max_value=1))
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_dense_exponentials(n, omega0, g, dt):
    parts = dense_chain_parts(n, omega0, g)
    assert np.abs(chain_hamiltonian(n, omega0, g) - sum(parts)).max() < 1e-12
    dense = dense_trotter_factors(n, omega0, g, dt)
    factors = trotter_step_unitaries(n, omega0, g, dt, method="trotter")
    assert len(factors) == 3
    for o, u, h in zip(factors, dense, parts):
        assert np.abs(u - expm_dense(h, dt)).max() < 1e-12
        # each factor is the rotation its dense unitary applies to the Majoranas
        assert o.shape == (2 * n, 2 * n) and o.dtype == float
        assert np.abs(o - majorana_rotation(u, n)).max() < 1e-12
    if n <= 2:
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
    dense = DensityMatrix.from_basis_label("011")
    assert evolve_occupations(dense, (), None, 0).tolist() == [[0.0, 1.0, 1.0]]
    # a label's Gamma holds -<Z_q> = 2b - 1 at (2q - 1, 2q), antisymmetric, zero elsewhere
    gamma = _initial_correlations("10", 0)
    assert gamma.tolist() == [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


def _masked_occupations(diag, n):
    """One masked sum per site: site q is bit n - q of the basis index."""
    idx = np.arange(diag.size)
    return np.array([diag[(idx & (1 << (n - q))) != 0].sum() for q in range(1, n + 1)])


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10))
@settings(max_examples=100, deadline=None)
def test_dense_state_occupations_match_masked_sums(seed, n):
    rng = np.random.default_rng(seed)
    # powers of uniform draws spread the weights over several scales
    diag = rng.random(2**n) ** int(rng.integers(1, 6))
    diag /= diag.sum()
    # a diagonal state with a unit-trace, nonnegative diagonal, built without the
    # constructor's 1024 x 1024 eigensolve
    occ = evolve_occupations(DensityMatrix._known(np.diag(diag).astype(complex)), (), None, 0)[0]
    oracle = _masked_occupations(diag, n)
    # the two sums add the same terms in different orders
    assert np.abs(occ - oracle).max() <= 8 * np.finfo(float).eps * diag.sum()


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_dense_state_correlations_match_majorana_expectations(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 2**n, pure=bool(rng.integers(0, 2)))
    m = majoranas_dense(n)
    oracle = np.array([[0.0 if a is b else np.trace(rho @ (1j * a @ b)).real for b in m] for a in m])
    assert np.abs(_initial_correlations(DensityMatrix(rho), 0) - oracle).max() < 1e-14


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
    # the Hamiltonian's diagonal: each excited site lowers omega0 * n / 2 by omega0
    for n in range(1, 11):
        excited = np.array([i.bit_count() for i in range(2**n)])
        for omega0 in (1.0, -0.37, 2.5e3):
            onsite = np.diagonal(chain_hamiltonian(n, omega0, 0.0))
            assert np.array_equal(onsite, 0.5 * omega0 * (n - 2 * excited))


def test_step_unitaries_are_unitary():
    # each factor is real and orthogonal, so it is unitary too
    for method, n in (("trotter", 3), ("trotter", 64), ("exact_exponential", 2)):
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


def test_exact_exponential_is_small_system_reference():
    with pytest.raises(ValueError, match="trotter"):
        trotter_step_unitaries(4, 1.0, 0.5, 0.05, method="exact_exponential")
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
    for method, n in (("trotter", 3), ("exact_exponential", 2)):
        for omega0, g, dt in ((1e308, 0.5, 1e300), (1.0, 1e308, 1e300), (-1e308, 0.5, 1e300)):
            with pytest.raises(ValueError, match=f"overflows at {n} sites: omega0="):
                trotter_step_unitaries(n, omega0, g, dt, method=method)
        # finite phases are built, and every factor is finite
        for u in trotter_step_unitaries(n, 1e308 / n, 1e308, 1.0, method=method):
            assert np.isfinite(u).all()
    # n * omega0 / 2 overflows at 3 sites even though omega0 * dt does not
    with pytest.raises(ValueError, match="overflows at 3 sites"):
        trotter_step_unitaries(3, 1.2e308, 0.5, 1.0)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(["trotter", "exact_exponential", "none"]),
    st.booleans(),
    st.floats(min_value=1e-3, max_value=1.5),
)
@settings(max_examples=60, deadline=None)
def test_evolution_matches_sequential_dense_oracle(seed, n, factors, with_channel, dt):
    # random labels at every size, random dense states up to 5 qubits
    rng = np.random.default_rng(seed)
    if factors == "exact_exponential" and n > 2:
        factors = "trotter"
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
    if n <= 5 and rng.integers(0, 2):
        rho = random_density(rng, 2**n, pure=bool(rng.integers(0, 2)))
        initial = DensityMatrix(rho)
    else:
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
    # a one-dimensional state has no sites, so each row is empty
    assert evolve_occupations(DensityMatrix(np.eye(1)), (), None, 2).shape == (3, 0)


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
