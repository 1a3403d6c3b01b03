import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisim.pauli import (
    PauliParseError,
    PauliString,
    PhasedPauli,
    _parity_signs,
    identity,
    monomial,
    multiply,
    parse,
)

from helpers import all_texts, dense_string, text_oracle

texts = st.text(alphabet="IXYZ", min_size=1, max_size=4)


@given(texts)
def test_parse_text_round_trip(text):
    assert parse(text).text == text


@given(st.data())
@settings(max_examples=300)
def test_text_matches_per_qubit_oracle(data):
    # up to 40 qubits, so the four-qubit chunks run past the first and end part-filled
    n = data.draw(st.integers(min_value=1, max_value=40))
    x = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    z = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    text = PauliString(n, x, z).text
    assert text == text_oracle(n, x, z)
    assert parse(text) == PauliString(n, x, z)


def test_parse_rejects_bad_input():
    with pytest.raises(PauliParseError):
        parse("")
    with pytest.raises(PauliParseError, match="position 3"):
        parse("XZQY")
    with pytest.raises(PauliParseError):
        parse("xz")


def test_letter_weight_identity():
    s = parse("XIZY")
    assert s.text == "XIZY"
    assert not s.is_identity()
    assert identity(4).is_identity()
    assert identity(4).text == "IIII"


@pytest.mark.parametrize(
    "a, b, phase, product",
    [
        ("X", "Z", -1j, "Y"),
        ("Z", "X", 1j, "Y"),
        ("X", "Y", 1j, "Z"),
        ("Y", "X", -1j, "Z"),
        ("Y", "Z", 1j, "X"),
        ("Z", "Y", -1j, "X"),
        ("XZ", "XX", 1j, "IY"),
        ("YI", "ZZ", 1j, "XZ"),
        ("II", "XY", 1, "XY"),
    ],
)
def test_known_products(a, b, phase, product):
    result = multiply(parse(a), parse(b))
    assert result.string == parse(product)
    assert result.phase == phase


@given(texts, texts)
@settings(max_examples=200)
def test_multiply_matches_dense(a, b):
    if len(a) != len(b):
        a, b = a[: min(len(a), len(b))], b[: min(len(a), len(b))]
    pa, pb = parse(a), parse(b)
    result = multiply(pa, pb)
    dense = dense_string(a) @ dense_string(b)
    # entries are exact in {0, +-1, +-i}, so compare without tolerance
    assert np.array_equal(dense, result.phase * dense_string(result.string.text))


@given(texts)
def test_self_product_is_identity(text):
    result = multiply(parse(text), parse(text))
    assert result.string.is_identity()
    assert result.phase == 1


def test_multiply_rejects_size_mismatch():
    with pytest.raises(ValueError):
        multiply(parse("X"), parse("XX"))


def test_monomial_rebuilds_dense_string_exactly():
    rng = np.random.default_rng(5)
    texts = [t for n in (1, 2, 3) for t in all_texts(n)]
    texts += ["".join(rng.choice(list("IXYZ"), n)) for n in range(4, 9) for _ in range(6)]
    for text in texts:
        n = len(text)
        cols, phases = monomial(parse(text))
        dense = np.zeros((2**n, 2**n), dtype=complex)
        dense[np.arange(2**n), cols] = phases
        assert np.array_equal(dense, dense_string(text)), text


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=30))
def test_parity_signs_match_bit_count(values):
    values += [0, 1, 2**62, 2**63 - 1]
    expected = [(-1) ** v.bit_count() for v in values]
    a = np.array(values, dtype=np.int64)
    assert _parity_signs(a).tolist() == expected
    assert a.tolist() == values  # the input is left as it was
    # 32-bit input, as np.arange gives on Windows under numpy 1.x
    small = [v for v in values if v < 2**31]
    signs = _parity_signs(np.array(small, dtype=np.int32))
    assert signs.tolist() == [(-1) ** v.bit_count() for v in small]


def test_phased_pauli_validates_phase():
    with pytest.raises(ValueError):
        PhasedPauli(parse("X"), 2.0)
    assert PhasedPauli(parse("X"), -1j).phase == -1j


def test_string_mask_consistency():
    # qubit 1 is the leftmost letter and lives in bit 0
    s = parse("XI")
    assert s.x_mask == 1 and s.z_mask == 0
    s = parse("IZ")
    assert s.x_mask == 0 and s.z_mask == 2
    assert PauliString(2, 1, 0).text == "XI"


def test_pauli_string_validates_masks():
    with pytest.raises(ValueError):
        PauliString(0, 0, 0)
    with pytest.raises(ValueError):
        PauliString(1, 2, 0)
