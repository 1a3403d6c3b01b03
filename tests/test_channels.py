import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisim.channels import (
    EIGENVALUE_FLOOR,
    DensityMatrix,
    PauliChannel,
    _pauli_sum,
    apply_pauli_channel,
)
from noisim.pauli import MATRIX_QUBIT_CAP, identity, parse

from helpers import (
    all_texts,
    apply_channel_dense,
    channel_weight,
    dense_string,
    random_channel_terms,
    random_density,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_channel_canonical_form():
    ch = PauliChannel([(0.25, "XZ"), (0.5, "II"), (0.25, "XZ"), (0.0, "YY")])
    assert [s.text for _, s in ch.terms] == ["II", "XZ"]
    assert channel_weight(ch, "XZ") == 0.5
    assert channel_weight(ch, "YY") == 0.0
    assert ch.support == (parse("II"), parse("XZ"))
    assert ch.n_qubits == 2
    # reordered and duplicated terms give an equal channel with an equal hash
    same = PauliChannel([(0.5, "XZ"), (0.25, "II"), (0.25, "II")])
    assert same == ch and hash(same) == hash(ch)
    assert {ch: "first"}[same] == "first"
    assert (ch == 3) is False and ch != 3


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
    with pytest.raises(ValueError, match="state dim 4 incompatible with 1 qubits"):
        apply_pauli_channel(PauliChannel([(1.0, "I")]), DensityMatrix.maximally_mixed(4))


@given(seeds, st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_apply_matches_dense_oracle(seed, n):
    rng = np.random.default_rng(seed)
    terms = random_channel_terms(rng, n, max_terms=12)
    rho = random_density(rng, 2**n, pure=bool(rng.integers(0, 2)))
    out = apply_pauli_channel(PauliChannel(terms), DensityMatrix(rho))
    expected = apply_channel_dense(terms, rho)
    assert np.abs(out.matrix - expected).max() < 1e-12


def _full_support_terms(rng, n):
    """A weight on every one of the 4**n strings."""
    weights = rng.random(4**n) + 1e-3
    return list(zip((weights / weights.sum()).tolist(), all_texts(n)))


@given(seeds, st.integers(min_value=1, max_value=6), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_eigenvalue_apply_matches_dense_oracle_up_to_six_qubits(seed, n, full, pure):
    rng = np.random.default_rng(seed)
    terms = _full_support_terms(rng, n) if full else random_channel_terms(rng, n, max_terms=12)
    rho = random_density(rng, 2**n, pure=pure)
    out = apply_pauli_channel(PauliChannel(terms), DensityMatrix(rho))
    assert np.abs(out.matrix - apply_channel_dense(terms, rho)).max() < 1e-12


def test_map_reads_a_noncontiguous_input_like_its_copy():
    # the sum gathers from its input by index, so a view of another layout
    # must come out as its copy does
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        terms = random_channel_terms(rng, n, max_terms=8)
        channel_terms = PauliChannel(terms).terms
        rho = random_density(rng, 2**n).T
        assert not rho.flags.c_contiguous
        out = _pauli_sum(channel_terms, rho)
        assert np.array_equal(out, _pauli_sum(channel_terms, np.ascontiguousarray(rho))), n
        assert np.abs(out - apply_channel_dense(terms, rho)).max() < 1e-12, n


def test_identity_map_returns_an_integer_matrix_exactly():
    # weight 1 and unit phases scale integer entries exactly, and so does the
    # hermitization's 1/2, so the identity channel must return the same bits,
    # up to the largest dense state
    rng = np.random.default_rng(3)
    for n in range(1, MATRIX_QUBIT_CAP + 1):
        a = rng.integers(-9, 10, size=(2**n, 2**n)) + 1j * rng.integers(-9, 10, size=(2**n, 2**n))
        m = a + a.conj().T
        assert np.array_equal(_pauli_sum([(1.0, identity(n))], m), m), n


@given(seeds, st.integers(min_value=1, max_value=3), st.sampled_from(["random", "full", "signed"]))
@settings(max_examples=40, deadline=None)
def test_eigenvalue_table_is_the_pauli_spectrum(seed, n, weights):
    rng = np.random.default_rng(seed)
    if weights == "full":
        terms = _full_support_terms(rng, n)
    else:
        terms = random_channel_terms(rng, n, max_terms=8)
    if weights == "signed":  # a difference of two channels, as theorem1_check passes
        terms = [(w * sign, t) for (w, t), sign in zip(terms, rng.choice([-1.0, 1.0], len(terms)))]
    pauli_terms = [(w, parse(t)) for w, t in terms]
    for text in all_texts(n):
        q = dense_string(text)
        # every string is an eigenvector, with eigenvalue Tr(P E(P)) / d
        expected = np.trace(q @ apply_channel_dense(terms, q)).real / 2**n
        assert np.abs(_pauli_sum(pauli_terms, q) - expected * q).max() < 1e-12


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_apply_preserves_state_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    ch = PauliChannel(random_channel_terms(rng, n))
    rho = DensityMatrix(random_density(rng, 2**n))
    out = apply_pauli_channel(ch, rho)
    # the output skips DensityMatrix's checks, so check what they would
    assert abs(np.trace(out.matrix) - 1.0) < 1e-12
    assert np.array_equal(out.matrix, out.matrix.conj().T)
    assert np.linalg.eigvalsh(out.matrix).min() >= EIGENVALUE_FLOOR
    assert not out.matrix.flags.writeable


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.full((2, 2), math.nan))  # every comparison with NaN is False
    with pytest.raises(ValueError, match=r"shape \(0, 0\)"):
        DensityMatrix(np.zeros((0, 0)))  # no entries, so no maximum to check
    with pytest.raises(ValueError, match="dimension 3 is not a power of two"):
        DensityMatrix(np.eye(3) / 3).n_qubits
    with pytest.raises(ValueError, match="refusing a dense 11-qubit state"):
        DensityMatrix.maximally_mixed(2 ** MATRIX_QUBIT_CAP + 1)
    assert DensityMatrix.maximally_mixed(2**MATRIX_QUBIT_CAP).n_qubits == MATRIX_QUBIT_CAP
    for dim in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            DensityMatrix.maximally_mixed(dim)
    mm = DensityMatrix.maximally_mixed(4)
    assert np.array_equal(mm.matrix, np.eye(4) / 4)
    assert mm.n_qubits == 2
    assert not mm.matrix.flags.writeable


def test_from_basis_label():
    rho = DensityMatrix.from_basis_label("10")
    assert rho.matrix[2, 2] == 1.0
    # built without the constructor's checks, it equals the validated projector
    for label in ("0", "1", "011", "1010"):
        v = np.zeros(2 ** len(label))
        v[int(label, 2)] = 1.0
        expected = DensityMatrix(np.outer(v, v))
        rho = DensityMatrix.from_basis_label(label)
        assert np.array_equal(rho.matrix, expected.matrix)
        assert rho.matrix.dtype == expected.matrix.dtype
        assert not rho.matrix.flags.writeable
    with pytest.raises(ValueError):
        DensityMatrix.from_basis_label("12")
    with pytest.raises(ValueError, match="refusing a dense 11-qubit state"):
        DensityMatrix.from_basis_label("0" * (MATRIX_QUBIT_CAP + 1))
    assert DensityMatrix.from_basis_label("1" * MATRIX_QUBIT_CAP).matrix[-1, -1] == 1.0
