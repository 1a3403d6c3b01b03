import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisim.channels import DensityMatrix, PauliChannel
from noisim.choi import (
    CERTIFY_QUBIT_CAP,
    CHOI_QUBIT_CAP,
    apply_from_choi,
    choi_state,
    renyi_entropy,
    schatten_norm,
    theorem1_check,
)
from noisim.serialize import certificate_to_dict

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


def test_renyi_entropy_refuses_non_finite_entries():
    # eigvalsh gives [0, -0] for the NaN matrix, which would read as a pure state
    for bad in (math.nan, math.inf, -math.inf):
        for p in (1.0, 2.0, math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                renyi_entropy(np.array([[bad, 0.0], [0.0, 1.0]]), p)


def test_renyi_entropy_checks_an_array_as_a_state():
    # eigvalsh reads the lower triangle of the first, the entropy of I/2;
    # the second has trace 4, and its entropy would be negative
    for bad, message in (([[0.5, 5.0], [0.0, 0.5]], "not Hermitian"), (2 * np.eye(2), "trace")):
        for p in (1.0, 2.0, math.inf):
            with pytest.raises(ValueError, match=message):
                renyi_entropy(np.array(bad), p)


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


def _two_level_state(n_qubits):
    """diag(0.75, 0.25, 0, ...): a dense state with no closed-form certificate."""
    diag = np.zeros(2**n_qubits)
    diag[:2] = 0.75, 0.25
    return DensityMatrix(np.diag(diag))


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
    # a state that is neither a basis state nor I/d takes the column matrix
    with pytest.raises(ValueError, match="refusing a dense 7-qubit certificate column matrix"):
        theorem1_check(wide, wide, _two_level_state(n), 2)
    # accepted at the cap: certify runs, and choi_state gets as far as its first term
    # (the 256 MiB state is only reserved, never filled)
    at_cap = PauliChannel([(1.0, "I" * CHOI_QUBIT_CAP)])
    assert theorem1_check(at_cap, at_cap, _two_level_state(CHOI_QUBIT_CAP), 2).satisfied
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
    # DE(rho) from the dense oracle; near 0 only rounding is left to compare
    delta_out = [apply_channel_dense([(w, s.text) for w, s in c.terms], rho.matrix) for c in (a, b)]
    assert report.output_distance == pytest.approx(
        schatten_norm(delta_out[0] - delta_out[1], p), rel=1e-12, abs=1e-14
    )


ORDERS = [1.0, 1.5, 2.0, 3.0, math.inf]


def _report_values(report):
    values = [report.output_distance, report.choi_distance, report.weighted_choi_distance]
    return values + [v for c in report.checks for v in (c.lhs, c.rhs)]


@given(seeds, st.integers(1, 6), st.booleans(), st.sampled_from([0.0, 4e-13]),
       st.sampled_from(ORDERS))
@settings(max_examples=150, deadline=None)
def test_closed_forms_match_the_column_matrix(seed, n, mixed, skew, p):
    rng = np.random.default_rng(seed)
    # a skew keeps each weight sum within 1e-12 of 1 but makes sum(Dw) about 8e-13,
    # so that mixed's output distance is more than rounding noise
    a = PauliChannel((w * (1 + skew), t) for w, t in random_channel_terms(rng, n, max_terms=12))
    b = PauliChannel((w * (1 - skew), t) for w, t in random_channel_terms(rng, n, max_terms=12))
    label = "".join(rng.choice(["0", "1"], size=n))
    rho = DensityMatrix.maximally_mixed(2**n) if mixed else DensityMatrix.from_basis_label(label)
    closed = theorem1_check(a, b, "mixed" if mixed else label, p)
    with pytest.MonkeyPatch.context() as m:
        # the same state, sent down the d**2 x T path
        m.setattr("noisim.choi._closed_form_state", lambda rho: rho)
        dense = theorem1_check(a, b, rho, p)
    assert closed.satisfied and dense.satisfied
    assert closed.dim == dense.dim and [c.name for c in closed.checks] == [
        c.name for c in dense.checks
    ]
    if dense.renyi is None:
        assert closed.renyi is None
    else:
        assert closed.renyi == pytest.approx(dense.renyi, rel=1e-12, abs=1e-15)
    assert closed.choi_distance == dense.choi_distance
    assert closed.weighted_choi_distance == pytest.approx(dense.weighted_choi_distance, rel=1e-12)
    # without a skew sum(Dw) is a difference of two sums that are each 1, so mixed's
    # output distance (and a basis state's, when one X mask holds every string) is
    # rounding noise near 1e-16 on both paths; hence its absolute floor
    near_zero = {"abs": 1e-15}
    assert closed.output_distance == pytest.approx(dense.output_distance, rel=1e-12, **near_zero)
    for got, want in zip(closed.checks, dense.checks):
        floor = near_zero if got.name.startswith("output") else {}
        assert got.lhs == pytest.approx(want.lhs, rel=1e-12, **floor), (got, want)
        assert got.rhs == pytest.approx(want.rhs, rel=1e-12), (got, want)


@given(seeds, st.integers(1, 6), st.sampled_from(ORDERS))
@settings(max_examples=60, deadline=None)
def test_labels_and_their_density_matrices_give_one_report(seed, n, p):
    rng = np.random.default_rng(seed)
    a = PauliChannel(random_channel_terms(rng, n, max_terms=12))
    b = PauliChannel(random_channel_terms(rng, n, max_terms=12))
    label = "".join(rng.choice(["0", "1"], size=n))
    pairs = [
        (label, DensityMatrix.from_basis_label(label)),
        ("mixed", DensityMatrix.maximally_mixed(2**n)),
    ]
    for named, dense in pairs:
        by_name, by_matrix = theorem1_check(a, b, named, p), theorem1_check(a, b, dense, p)
        assert repr(by_name) == repr(by_matrix), named
        assert certificate_to_dict(by_name) == certificate_to_dict(by_matrix)


def test_only_exact_basis_and_mixed_states_take_the_closed_forms(monkeypatch):
    calls = []
    monkeypatch.setattr("noisim.choi._dense_distances", lambda *args: calls.append(1) or (0.0, 0.0))
    a = PauliChannel([(0.9, "II"), (0.1, "XZ")])
    b = PauliChannel([(0.8, "II"), (0.2, "YI")])
    projector = np.zeros((4, 4))
    projector[2, 2] = 1.0
    closed = [DensityMatrix(projector), DensityMatrix(np.eye(4) / 4)]
    for rho in closed:
        theorem1_check(a, b, rho, 2)
    assert calls == []
    near_mixed = np.eye(4) / 4
    near_mixed[0, 1] = near_mixed[1, 0] = 1e-12
    near_basis = projector.copy()
    near_basis[2, 2], near_basis[0, 0] = 1.0 - 1e-12, 1e-12
    for matrix in (near_mixed, near_basis, _two_level_state(2).matrix):
        theorem1_check(a, b, DensityMatrix(matrix), 2)
    assert len(calls) == 3
    # the closed forms read no matrix, and the projector's label is its index
    assert repr(theorem1_check(a, b, closed[0], 3)) == repr(theorem1_check(a, b, "10", 3))


def test_mixed_state_entropy_is_n_ln_2():
    for n in (1, 5, 16, CERTIFY_QUBIT_CAP):
        channel = PauliChannel([(1.0, "I" * n)])
        assert theorem1_check(channel, channel, "mixed", 2).renyi == math.log(2**n)


def test_labels_must_fit_the_channels():
    channel = PauliChannel([(0.9, "III"), (0.1, "XYZ")])
    for label, message in (
        ("01", "basis label '01' has 2 qubits, but the channels act on 3"),
        ("0101", "has 4 qubits, but the channels act on 3"),
        ("", "must be a bitstring"),
        ("01a", "must be a bitstring"),
        ("Mixed", "must be a bitstring"),
    ):
        with pytest.raises(ValueError, match=message):
            theorem1_check(channel, channel, label, 2)


def test_certificates_above_the_float_cap_are_refused():
    # 4**512 is no finite float; one all-identity term builds nothing large
    wide = PauliChannel([(1.0, "I" * (CERTIFY_QUBIT_CAP + 1))])
    for state in ("mixed", "0" * (CERTIFY_QUBIT_CAP + 1)):
        with pytest.raises(ValueError, match="refusing a 512-qubit certificate"):
            theorem1_check(wide, wide, state, 2)
    at_cap = PauliChannel([(0.5, "I" * CERTIFY_QUBIT_CAP), (0.5, "X" * CERTIFY_QUBIT_CAP)])
    for p in ORDERS:
        for state in ("mixed", "1" * CERTIFY_QUBIT_CAP):
            report = theorem1_check(at_cap, PauliChannel([(1.0, "I" * CERTIFY_QUBIT_CAP)]),
                                    state, p)
            assert report.satisfied
            assert all(math.isfinite(v) for v in _report_values(report)), (p, state)
