import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisim.channels import DensityMatrix, PauliChannel
from noisim.choi import (
    CHOI_QUBIT_CAP,
    apply_from_choi,
    choi_state,
    renyi_entropy,
    schatten_norm,
    theorem1_check,
)

from helpers import (
    all_texts,
    apply_channel_dense,
    dense_string,
    random_channel_terms,
    random_density,
)

IDENTITY_1Q = PauliChannel([(1.0, "I")])
DEPOLARIZING_1Q = PauliChannel(
    [(0.25, "I"), (0.25, "X"), (0.25, "Y"), (0.25, "Z")]
)


def test_choi_states_of_reference_channels():
    j_id = choi_state(IDENTITY_1Q)
    omega = np.zeros((4, 4), dtype=complex)
    omega[np.ix_([0, 3], [0, 3])] = 0.5
    assert np.abs(j_id - omega).max() < 1e-15
    j_dep = choi_state(DEPOLARIZING_1Q)
    assert np.abs(j_dep - np.eye(4) / 4).max() < 1e-15


@st.composite
def pauli_terms(draw):
    """(weight, text) pairs on 1-3 qubits; Y, whose entries carry the i phases,
    is drawn three times as often as each other letter."""
    n = draw(st.integers(min_value=1, max_value=3))
    text = st.text(alphabet=st.sampled_from("IXZYYY"), min_size=n, max_size=n)
    texts = draw(st.lists(text, min_size=1, max_size=8, unique=True))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(texts), max_size=len(texts)))
    total = math.fsum(raw)
    return [(r / total, t) for r, t in zip(raw, texts)]


@given(pauli_terms())
@settings(max_examples=100, deadline=None)
def test_choi_state_matches_dense_oracle(terms):
    # J = sum_P w vec(P) vec(P)^dag / d, vec stacking rows (system index first)
    d = dense_string(terms[0][1]).shape[0]
    expected = sum(
        w * np.outer(dense_string(t).reshape(-1), dense_string(t).reshape(-1).conj()) / d
        for w, t in terms
    )
    assert np.abs(choi_state(PauliChannel(terms)) - expected).max() < 1e-12


def test_schatten_norm_known_values():
    a = np.diag([3.0, -4.0])
    assert schatten_norm(a, 1) == pytest.approx(7.0)
    assert schatten_norm(a, 2) == pytest.approx(5.0)
    assert schatten_norm(a, math.inf) == pytest.approx(4.0)
    # each 0.02**250 underflows to 0; the norm does not
    small = np.diag([0.02, 0.02])
    assert schatten_norm(small, 250) == pytest.approx(0.02 * 2 ** (1 / 250), rel=1e-12)
    assert schatten_norm(np.zeros((2, 2)), 3) == 0.0
    with pytest.raises(ValueError):
        schatten_norm(a, 0.5)


def test_renyi_entropy_limits():
    pure = np.diag([1.0, 0.0])
    mixed = np.eye(4) / 4
    for p in (1, 1.5, 2, math.inf):
        assert renyi_entropy(pure, p) == pytest.approx(0.0, abs=1e-12)
        assert renyi_entropy(mixed, p) == pytest.approx(math.log(4))
    # Tr rho**250 = 32**-249 underflows to 0; the scaled sum does not
    assert renyi_entropy(DensityMatrix.maximally_mixed(32), 250) == pytest.approx(math.log(32))
    with pytest.raises(ValueError):
        renyi_entropy(np.diag([1.5, -0.5]), 2)
    with pytest.raises(ValueError):
        renyi_entropy(pure, 0)


def test_renyi_entropy_of_a_pure_state_is_positive_zero():
    # a negative factor p / (1 - p) times ln 1 would be -0.0, which JSON writes
    for label in ("0", "01", "110"):
        rho = DensityMatrix.from_basis_label(label)
        for p in (1, 2, 3, 600, math.inf):
            renyi = renyi_entropy(rho, p)
            assert renyi == 0.0 and math.copysign(1.0, renyi) == 1.0, (label, p)


def test_golden_certificate_fixture():
    # identity vs fully depolarizing on one qubit, rho = |0><0|, p = 2
    rho = DensityMatrix.from_basis_label("0")
    report = theorem1_check(IDENTITY_1Q, DEPOLARIZING_1Q, rho, 2.0)
    assert report.output_distance == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert report.choi_distance == pytest.approx(math.sqrt(0.75), abs=1e-15)
    assert report.weighted_choi_distance == pytest.approx(math.sqrt(0.375), abs=1e-15)
    assert report.renyi == pytest.approx(0.0, abs=1e-12)
    assert report.satisfied
    names = [c.name for c in report.checks]
    assert names == [
        "output_vs_choi",
        "weighted_vs_entropy",
        "entropy_vs_plain",
        "output_vs_weighted",
    ]


def test_certificate_at_p_infinity_reports_single_bound():
    rho = DensityMatrix.maximally_mixed(2)
    report = theorem1_check(IDENTITY_1Q, DEPOLARIZING_1Q, rho, math.inf)
    assert report.renyi is None
    assert [c.name for c in report.checks] == ["output_vs_choi"]
    assert report.satisfied


class _Stop(Exception):
    pass


def _stop(*args):
    raise _Stop


def test_certificate_validation(monkeypatch):
    rho = DensityMatrix.maximally_mixed(2)
    for p in (0.5, math.nan):
        with pytest.raises(ValueError):
            theorem1_check(IDENTITY_1Q, DEPOLARIZING_1Q, rho, p)
    two_qubit = PauliChannel([(1.0, "II")])
    with pytest.raises(ValueError):
        theorem1_check(IDENTITY_1Q, two_qubit, rho, 2)
    # refused before the 4**n x 4**n matrix is allocated
    n = CHOI_QUBIT_CAP + 1
    wide = PauliChannel([(1.0, "I" * n)])
    with pytest.raises(ValueError, match="refusing a dense 7-qubit Choi matrix"):
        choi_state(wide)
    with pytest.raises(ValueError, match="refusing a dense 7-qubit certificate column matrix"):
        theorem1_check(wide, wide, DensityMatrix.maximally_mixed(2**n), 2)
    # accepted at the cap: certify runs, and choi_state gets as far as its first term
    # (the 256 MiB state is only reserved, never filled)
    at_cap = PauliChannel([(1.0, "I" * CHOI_QUBIT_CAP)])
    mixed = DensityMatrix.maximally_mixed(2**CHOI_QUBIT_CAP)
    assert theorem1_check(at_cap, at_cap, mixed, 2).satisfied
    with monkeypatch.context() as m:
        m.setattr("noisim.choi.monomial", _stop)
        with pytest.raises(_Stop):
            choi_state(at_cap)
    # any finite p is accepted: no quantity overflows or underflows at large p
    noisy = PauliChannel([(0.9, "II"), (0.06, "XZ"), (0.04, "YI")])
    for p in (600, 1e308, sys.float_info.max):
        for rho in (DensityMatrix.maximally_mixed(4), DensityMatrix.from_basis_label("10")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = theorem1_check(two_qubit, noisy, rho, p)
            assert report.satisfied and len(report.checks) == 4
            values = [report.renyi] + [v for c in report.checks for v in (c.lhs, c.rhs)]
            assert all(math.isfinite(v) for v in values), (p, values)
            # 2 * p overflows here, but the exponent (2p - 1)/p is 2 to the last bit
            if p > 1e300:
                lhs = {c.name: c.lhs for c in report.checks}["output_vs_weighted"]
                assert lhs == report.output_distance / 16 > 0, (p, lhs)


def test_certificate_accepts_every_state_the_constructor_accepts():
    # eigenvalue -5e-10 lies above the DensityMatrix floor of -1e-9
    rho = DensityMatrix(np.diag([0.7 + 5e-10, 0.3, 0.0, -5e-10]))
    ideal = PauliChannel([(1.0, "II")])
    noisy = PauliChannel([(0.9, "II"), (0.06, "XZ"), (0.04, "YI")])
    for p in (1, 1.5, 2, 3, math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = theorem1_check(ideal, noisy, rho, p)
        assert report.satisfied, p
        values = [v for c in report.checks for v in (c.lhs, c.rhs)]
        assert all(math.isfinite(v) for v in values), (p, values)
        assert report.renyi is None or math.isfinite(report.renyi)


def test_duality_inverts_choi_state():
    rng = np.random.default_rng(17)
    for n in (1, 2):
        terms = random_channel_terms(rng, n)
        channel = PauliChannel(terms)
        rho = random_density(rng, 2**n)
        recovered = apply_from_choi(choi_state(channel), rho)
        direct = apply_channel_dense(terms, rho)
        assert np.abs(recovered - direct).max() < 1e-12


def test_duality_on_kraus_channel():
    theta = 0.9
    k = np.array(
        [[np.cos(theta / 2), -1j * np.sin(theta / 2)],
         [-1j * np.sin(theta / 2), np.cos(theta / 2)]]
    )
    # a unitary channel has the pure Choi state v v^dag, v = (K x I)|Omega>
    v = k.reshape(-1) / math.sqrt(2)
    rho = random_density(np.random.default_rng(3), 2)
    recovered = apply_from_choi(np.outer(v, v.conj()), rho)
    assert np.abs(recovered - k @ rho @ k.conj().T).max() < 1e-12


def test_apply_from_choi_rejects_bad_shape():
    with pytest.raises(ValueError):
        apply_from_choi(np.eye(3), np.eye(2))


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
@settings(max_examples=60, deadline=None)
def test_certificate_holds_on_random_pairs(seed, p):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    a = PauliChannel(random_channel_terms(rng, n))
    b = PauliChannel(random_channel_terms(rng, n))
    rho = DensityMatrix(random_density(rng, 2**n, pure=bool(rng.integers(0, 2))))
    report = theorem1_check(a, b, rho, p)
    assert report.satisfied, [
        (c.name, c.lhs, c.rhs) for c in report.checks if not c.satisfied
    ]


@st.composite
def overlapping_pairs(draw):
    """Channels a and b on 1-4 qubits over texts[:-1] and texts[1:]: both
    supports share the middle strings, and each has one string of its own."""
    n = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(seeds))
    k = draw(st.integers(min_value=3, max_value=min(7, 4**n)))
    texts = list(rng.choice(all_texts(n), size=k, replace=False))
    wa, wb = rng.random(k - 1) + 1e-3, rng.random(k - 1) + 1e-3
    a = PauliChannel(zip((wa / wa.sum()).tolist(), texts[:-1]))
    b = PauliChannel(zip((wb / wb.sum()).tolist(), texts[1:]))
    rho = DensityMatrix(random_density(rng, 2**n, pure=draw(st.booleans())))
    return a, b, rho


@given(overlapping_pairs(), st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
@settings(max_examples=100, deadline=None)
def test_closed_form_distances_match_dense_choi_states(pair, p):
    a, b, rho = pair
    delta = choi_state(a) - choi_state(b)
    weighting = np.kron(np.eye(rho.dim), rho.matrix.T)
    report = theorem1_check(a, b, rho, p)
    assert report.choi_distance == pytest.approx(schatten_norm(delta, p), rel=1e-12)
    assert report.weighted_choi_distance == pytest.approx(
        schatten_norm(weighting @ delta, p), rel=1e-12
    )
