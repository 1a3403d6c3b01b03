import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply_channel_dense, dense_string, random_channel_terms, random_density
from noisim.channels import DensityMatrix, PauliChannel
from noisim.dynamics import (
    BenchmarkConfig,
    _onsite_energies,
    chain_hamiltonian,
    default_noise_channel,
    default_target_channel,
    evolve_occupations,
    run_benchmark,
    scale_channel_weights,
    site_occupations,
    trotter_step_unitaries,
)
from noisim.pauli import MATRIX_QUBIT_CAP, parse


def test_hamiltonian_onsite_spectrum():
    h = chain_hamiltonian(2, 1.0, 0.0)
    assert np.abs(h - np.diag([1.0, 0.0, 0.0, -1.0])).max() < 1e-15


def test_hamiltonian_hopping_block():
    h = chain_hamiltonian(2, 0.0, 1.0)
    expected = np.zeros((4, 4))
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.abs(h - expected).max() < 1e-15


def _dense_chain_parts(n, omega0, g):
    """Onsite, odd-bond and even-bond Hamiltonians as sums of Pauli strings."""
    def at(letters, site):
        return dense_string("I" * site + letters + "I" * (n - site - len(letters)))

    onsite = sum(0.5 * omega0 * at("Z", q) for q in range(n))
    bonds = [
        sum((g / 2 * (at("XX", b) + at("YY", b)) for b in range(first, n - 1, 2)),
            np.zeros((2**n, 2**n), dtype=complex))
        for first in (0, 1)
    ]
    return onsite, *bonds


def _expm_dense(h, t):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


finite = st.floats(min_value=-10, max_value=10)


@given(st.integers(min_value=1, max_value=6), finite, finite, st.floats(min_value=1e-3, max_value=1))
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_dense_exponentials(n, omega0, g, dt):
    parts = _dense_chain_parts(n, omega0, g)
    assert np.abs(chain_hamiltonian(n, omega0, g) - sum(parts)).max() < 1e-12
    factors = trotter_step_unitaries(n, omega0, g, dt, method="trotter")
    assert len(factors) == 3
    for u, h in zip(factors, parts):
        assert np.abs(u - _expm_dense(h, dt)).max() < 1e-12


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


def test_site_occupations_on_basis_states():
    from noisim.channels import DensityMatrix

    assert site_occupations(DensityMatrix.from_basis_label("10"), 2).tolist() == [1.0, 0.0]
    assert site_occupations(DensityMatrix.from_basis_label("011"), 3).tolist() == [0.0, 1.0, 1.0]
    with pytest.raises(ValueError, match=r"state dim 4 != 2\*\*3"):
        site_occupations(DensityMatrix.from_basis_label("10"), 3)


def _masked_occupations(diag, n):
    """One masked sum per site: site q is bit n - q of the basis index."""
    idx = np.arange(diag.size)
    return np.array([diag[(idx & (1 << (n - q))) != 0].sum() for q in range(1, n + 1)])


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10))
@settings(max_examples=100, deadline=None)
def test_site_occupations_match_masked_sums(seed, n):
    rng = np.random.default_rng(seed)
    # powers of uniform draws spread the weights over several scales
    diag = rng.random(2**n) ** int(rng.integers(1, 6))
    diag /= diag.sum()
    occ = site_occupations(np.diag(diag), n)
    oracle = _masked_occupations(diag, n)
    # the two sums add the same terms in different orders
    assert np.abs(occ - oracle).max() <= 8 * np.finfo(float).eps * diag.sum()
    if n <= 2:  # each site sums at most two nonzero terms, so no order differs
        assert (occ == oracle).all()


def test_onsite_energies_match_popcount():
    for n in range(1, 11):
        excited = np.array([i.bit_count() for i in range(2**n)])
        for omega0 in (1.0, -0.37, 2.5e3):
            assert np.array_equal(_onsite_energies(n, omega0), 0.5 * omega0 * (n - 2 * excited))


def test_step_unitaries_are_unitary():
    for method, n in (("trotter", 3), ("exact_exponential", 2)):
        for u in trotter_step_unitaries(n, 1.0, 0.5, 0.1, method=method):
            assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-12


def test_trotter_error_is_first_order():
    # splitting error halves with the step for unitary-only evolution
    t_final = 2.0
    devs = []
    for dt in (0.05, 0.025):
        steps = round(t_final / dt)
        split = trotter_step_unitaries(3, 1.0, 0.5, dt, method="trotter")
        exact = (_expm_dense(chain_hamiltonian(3, 1.0, 0.5), dt),)
        occ_split = evolve_occupations("100", split, None, steps)
        occ_exact = evolve_occupations("100", exact, None, steps)
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
    with pytest.raises(ValueError, match="refusing a dense 11-qubit step unitary"):
        trotter_step_unitaries(MATRIX_QUBIT_CAP + 1, 1.0, 0.5, 0.05)
    assert trotter_step_unitaries(MATRIX_QUBIT_CAP, 1.0, 0.5, 0.05)[1].shape == (1024, 1024)
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


def _sequential_occupations(rho, factors, terms, n, n_steps):
    """Each factor conjugated in turn, then the dense channel, each step."""
    number = [(np.eye(2**n) - dense_string("I" * q + "Z" + "I" * (n - q - 1))) / 2
              for q in range(n)]
    rows = []
    for step in range(n_steps + 1):
        if step:
            for u in factors:
                rho = u @ rho @ u.conj().T
            if terms is not None:
                rho = apply_channel_dense(terms, rho)
        rows.append([np.trace(m @ rho).real for m in number])
    return np.array(rows)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["trotter", "exact_exponential", "none"]),
    st.booleans(),
    st.floats(min_value=1e-3, max_value=1.5),
)
@settings(max_examples=60, deadline=None)
def test_evolution_matches_sequential_dense_oracle(seed, n, factors, with_channel, dt):
    rng = np.random.default_rng(seed)
    if factors == "exact_exponential" and n > 2:
        factors = "trotter"
    omega0, g = rng.uniform(-2, 2, size=2)
    unitaries = () if factors == "none" else trotter_step_unitaries(
        n, omega0, g, dt, method=factors
    )
    terms = random_channel_terms(rng, n, max_terms=10) if with_channel else None
    channel = PauliChannel(terms) if with_channel else None
    rho = random_density(rng, 2**n, pure=bool(rng.integers(0, 2)))
    n_steps = int(rng.integers(0, 5))
    occ = evolve_occupations(DensityMatrix(rho), unitaries, channel, n_steps)
    expected = _sequential_occupations(rho, unitaries, terms, n, n_steps)
    assert occ.shape == (n_steps + 1, n)
    assert np.abs(occ - expected).max() < 1e-12


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


def test_channel_map_is_built_once_per_call(monkeypatch):
    # the Hadamard factors come from _parity_signs when a map is made; a
    # longer run must apply the same map, not build more of them
    import noisim.channels

    parity_signs, calls = noisim.channels._parity_signs, []

    def counted(a):
        calls.append(1)
        return parity_signs(a)

    monkeypatch.setattr(noisim.channels, "_parity_signs", counted)
    unitaries = trotter_step_unitaries(2, 1.0, 0.5, 0.05)
    counts = []
    for n_steps in (5, 50):
        calls.clear()
        evolve_occupations("10", unitaries, default_target_channel(), n_steps)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


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
