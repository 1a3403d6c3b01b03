import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisim.channels import (
    DensityMatrix,
    KrausChannel,
    LindbladSpec,
    PauliChannel,
    apply_kraus,
    apply_pauli_channel,
    compose,
    evolve_lindblad_rk4,
    lindblad_rhs,
    lindblad_to_kraus,
    mix,
    twirl,
)
from noisim.pauli import parse

from helpers import apply_channel_dense, random_channel_terms, random_density

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_channel_canonical_form():
    ch = PauliChannel([(0.25, "XZ"), (0.5, "II"), (0.25, "XZ"), (0.0, "YY")])
    assert [s.text for _, s in ch.terms] == ["II", "XZ"]
    assert ch.weight(parse("XZ")) == 0.5
    assert ch.weight(parse("YY")) == 0.0
    assert ch.support == (parse("II"), parse("XZ"))
    assert ch.n_qubits == 2


def test_channel_validation():
    with pytest.raises(ValueError):
        PauliChannel([])
    with pytest.raises(ValueError):
        PauliChannel([(0.5, "X")])
    with pytest.raises(ValueError):
        PauliChannel([(-0.1, "X"), (1.1, "I")])
    with pytest.raises(ValueError):
        PauliChannel([(0.5, "X"), (0.5, "XX")])
    with pytest.raises(ValueError):
        PauliChannel([(math.nan, "I"), (1.0, "X")])
    with pytest.raises(ValueError):
        PauliChannel([(math.inf, "I"), (1.0, "X")])


def test_apply_matches_dense_oracle():
    rng = np.random.default_rng(11)
    terms = random_channel_terms(rng, 2)
    rho = random_density(rng, 4)
    out = apply_pauli_channel(PauliChannel(terms), DensityMatrix(rho))
    expected = apply_channel_dense(terms, rho)
    assert np.abs(out.matrix - expected).max() < 1e-12


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_apply_preserves_state_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    ch = PauliChannel(random_channel_terms(rng, n))
    rho = DensityMatrix(random_density(rng, 2**n))
    out = apply_pauli_channel(ch, rho)
    # DensityMatrix construction re-validates trace, hermiticity, spectrum
    assert abs(np.trace(out.matrix) - 1.0) < 1e-12


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(5)
    t1 = random_channel_terms(rng, 2)
    t2 = random_channel_terms(rng, 2)
    rho = random_density(rng, 4)
    combined = compose(PauliChannel(t1), PauliChannel(t2))
    expected = apply_channel_dense(t2, apply_channel_dense(t1, rho))
    got = apply_channel_dense(
        [(w, s.text) for w, s in combined.terms], rho
    )
    assert np.abs(got - expected).max() < 1e-12


def test_mix_combines_weights():
    a = PauliChannel([(1.0, "X")])
    b = PauliChannel([(1.0, "Z")])
    m = mix([(0.3, a), (0.7, b)])
    assert m.weight(parse("X")) == pytest.approx(0.3)
    assert m.weight(parse("Z")) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        mix([(0.5, a)])


def test_as_kraus_is_complete():
    ch = PauliChannel([(0.2, "XX"), (0.8, "II")])
    kraus = ch.as_kraus()
    assert kraus.completeness_defect < 1e-14
    rng = np.random.default_rng(2)
    rho = DensityMatrix(random_density(rng, 4))
    via_kraus = apply_kraus(kraus, rho)
    direct = apply_pauli_channel(ch, rho)
    assert np.abs(via_kraus.matrix - direct.matrix).max() < 1e-12


def test_kraus_rejects_incomplete_sets():
    with pytest.raises(ValueError):
        KrausChannel([np.eye(2) * 0.5])


def test_twirl_is_identity_on_pauli_channels():
    ch = PauliChannel([(0.1, "XZ"), (0.3, "YY"), (0.6, "II")])
    tw = twirl(ch.as_kraus())
    assert tw.support == ch.support
    assert all(abs(tw.weight(s) - w) < 1e-12 for w, s in ch.terms)


def test_twirl_of_x_rotation():
    theta = 0.7
    k = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * np.array(
        [[0, 1], [1, 0]]
    )
    tw = twirl(KrausChannel([k]))
    assert tw.weight(parse("I")) == pytest.approx(np.cos(theta / 2) ** 2)
    assert tw.weight(parse("X")) == pytest.approx(np.sin(theta / 2) ** 2)
    assert tw.weight(parse("Y")) == pytest.approx(0.0, abs=1e-15)
    assert tw.weight(parse("Z")) == pytest.approx(0.0, abs=1e-15)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    mm = DensityMatrix.maximally_mixed(4)
    assert np.array_equal(mm.matrix, np.eye(4) / 4)
    assert mm.n_qubits == 2


def test_from_statevector_normalizes():
    rho = DensityMatrix.from_statevector(np.array([3.0, 4.0]))
    assert rho.matrix[0, 0] == pytest.approx(0.36)
    with pytest.raises(ValueError):
        DensityMatrix.from_statevector(np.zeros(2))


def test_from_basis_label():
    rho = DensityMatrix.from_basis_label("10")
    assert rho.matrix[2, 2] == 1.0
    with pytest.raises(ValueError):
        DensityMatrix.from_basis_label("12")


def test_lindblad_dephasing_closed_form():
    # H = omega/2 Z with jump sqrt(gamma) Z: rho01(t) = rho01(0) e^{-(2 gamma + i omega) t}
    omega, gamma, t_final, dt = 1.3, 0.3, 1.0, 0.01
    spec = LindbladSpec(
        hamiltonian=0.5 * omega * np.diag([1.0, -1.0]).astype(complex),
        jump_operators=(math.sqrt(gamma) * np.diag([1.0, -1.0]).astype(complex),),
    )
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    traj = evolve_lindblad_rk4(plus, spec, dt, round(t_final / dt))
    expected = 0.5 * np.exp(-(2 * gamma + 1j * omega) * t_final)
    assert abs(traj[-1].matrix[0, 1] - expected) < 1e-9
    assert len(traj) == round(t_final / dt) + 1
    for state in traj[:: 20]:
        assert abs(np.trace(state.matrix) - 1.0) < 1e-10


def test_lindblad_rhs_traceless():
    rng = np.random.default_rng(3)
    h = random_density(rng, 4)  # any Hermitian works
    spec = LindbladSpec(hamiltonian=h, jump_operators=(rng.normal(size=(4, 4)),))
    rhs = lindblad_rhs(random_density(rng, 4), spec)
    assert abs(np.trace(rhs)) < 1e-12
    assert np.abs(rhs - rhs.conj().T).max() < 1e-12


def test_lindblad_to_kraus_defect_scales_quadratically():
    spec = LindbladSpec(
        hamiltonian=np.diag([0.5, -0.5]).astype(complex),
        jump_operators=(0.4 * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),),
    )
    _, defect1 = lindblad_to_kraus(spec, 0.02)
    _, defect2 = lindblad_to_kraus(spec, 0.01)
    assert 3.5 < defect1 / defect2 < 4.5


def test_lindblad_to_kraus_matches_rk4_step():
    spec = LindbladSpec(
        hamiltonian=np.diag([0.5, -0.5]).astype(complex),
        jump_operators=(0.4 * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),),
    )
    dt = 0.001
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    kraus, _ = lindblad_to_kraus(spec, dt)
    one_step = apply_kraus(kraus, plus)
    rk4 = evolve_lindblad_rk4(plus, spec, dt, 1)[-1]
    assert np.abs(one_step.matrix - rk4.matrix).max() < 5 * dt**2


def test_lindblad_spec_validation():
    with pytest.raises(ValueError):
        LindbladSpec(hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        LindbladSpec(hamiltonian=np.eye(2), jump_operators=(np.eye(4),))
