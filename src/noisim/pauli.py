"""Pauli strings over bit masks, with exact phase tracking.

Conventions used throughout the package:

* Qubits are numbered 1..n. Qubit 1 is the leftmost character of the text
  form and the most significant Kronecker factor of the dense matrix.
* A string is stored as a pair of masks; bit q-1 addresses qubit q. A set
  x bit contributes an X factor, a set z bit a Z factor, both set mean Y.
  Its packed key x | z << n is one int per string; key 0 is the identity.
* Multiplication phases are one of {+1, +i, -1, -i} and are tracked exactly
  (no floating-point phase arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MATRIX_QUBIT_CAP",
    "PHASES",
    "PauliParseError",
    "PauliString",
    "PhasedPauli",
    "identity",
    "monomial",
    "multiply",
    "parse",
]

# i**k for k = 0..3; Python complex arithmetic on these values is exact.
PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

# Letter for (x, z) indexed as x + 2z.
_LETTERS = "IXZY"
# Text of four qubits indexed by (x nibble) | (z nibble) << 4, lowest bit first.
_NIBBLE_TEXT = tuple(
    "".join(_LETTERS[(i >> b & 1) + 2 * (i >> (b + 4) & 1)] for b in range(4))
    for i in range(256)
)
_LETTER_SET = frozenset(_LETTERS)
# each letter's x (z) bit as a binary digit
_X_DIGITS = str.maketrans(_LETTERS, "0101")
_Z_DIGITS = str.maketrans(_LETTERS, "0011")

# Dense states above this size are refused; memory grows as 4**n.
MATRIX_QUBIT_CAP = 10


def _check_dense_size(n_qubits: int, what: str, cap: int) -> None:
    """Refuse a dense n-qubit `what` above `cap` qubits, before anything is allocated."""
    if n_qubits > cap:
        raise ValueError(f"refusing a dense {n_qubits}-qubit {what} (cap {cap})")


def _index_bits(mask: int, n_qubits: int) -> int:
    """A mask in dense index order: qubit 1, bit 0 of the mask, becomes the top bit."""
    return int(format(mask, f"0{n_qubits}b")[::-1], 2)


def _parity_signs(a: np.ndarray) -> np.ndarray:
    """(-1)**popcount(a) per entry of an integer array; numpy 1.24 has no popcount ufunc."""
    a = np.array(a, dtype=np.int64)  # a copy to fold; np.arange is 32-bit on Windows, numpy 1.x
    for shift in (32, 16, 8, 4, 2, 1):  # XOR-fold every bit onto bit 0
        a ^= a >> shift
    return 1.0 - 2.0 * (a & 1)


class PauliParseError(ValueError):
    """Raised when a Pauli text form cannot be parsed."""


@dataclass(frozen=True, slots=True)
class PauliString:
    """An unphased n-qubit Pauli string; its text and key are set once, when it is built."""

    n_qubits: int
    x_mask: int
    z_mask: int
    text: str = field(init=False, repr=False, compare=False)
    key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.n_qubits}")
        top = 1 << self.n_qubits
        if not (0 <= self.x_mask < top and 0 <= self.z_mask < top):
            raise ValueError(
                f"masks ({self.x_mask}, {self.z_mask}) out of range for "
                f"{self.n_qubits} qubits"
            )
        # four qubits per lookup; the last chunk can overrun n_qubits and is cut
        x, z, left = self.x_mask, self.z_mask, self.n_qubits
        text = ""
        while left > 0:
            text += _NIBBLE_TEXT[(x & 15) | (z & 15) << 4]
            x >>= 4
            z >>= 4
            left -= 4
        object.__setattr__(self, "text", text[: self.n_qubits])
        object.__setattr__(self, "key", self.x_mask | self.z_mask << self.n_qubits)

    def __hash__(self) -> int:
        # the text is a function of (n_qubits, x_mask, z_mask), so equal strings hash equal
        return hash(self.text)

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"PauliString({self.text!r})"


@dataclass(frozen=True, slots=True)
class PhasedPauli:
    """A Pauli string together with an exact scalar phase."""

    string: PauliString
    phase: complex

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ValueError(f"phase {self.phase!r} not in {{+1, +i, -1, -i}}")


def identity(n_qubits: int) -> PauliString:
    return PauliString(n_qubits, 0, 0)


def parse(text: str) -> PauliString:
    """Parse a text form like "XZ" into a PauliString.

    Position 1 of the text is qubit 1. Anything outside I/X/Y/Z is rejected
    with the offending position named.
    """
    if not text:
        raise PauliParseError("empty Pauli string")
    if not _LETTER_SET.issuperset(text):
        pos, ch = next((pos, ch) for pos, ch in enumerate(text, start=1) if ch not in _LETTER_SET)
        raise PauliParseError(f"invalid letter {ch!r} at position {pos} of {text!r}")
    # qubit 1 is the lowest mask bit, so the mask's binary digits run last letter first
    digits = text[::-1]
    # the masks are in range by construction; the checked text is kept, not spelled again
    x, z = int(digits.translate(_X_DIGITS), 2), int(digits.translate(_Z_DIGITS), 2)
    s, set_ = object.__new__(PauliString), object.__setattr__
    set_(s, "n_qubits", len(text))
    set_(s, "x_mask", x)
    set_(s, "z_mask", z)
    set_(s, "text", text)
    set_(s, "key", x | z << len(text))
    return s


def multiply(a: PauliString, b: PauliString) -> PhasedPauli:
    """Product a * b with its exact phase.

    Writing each letter as i**(x z) X**x Z**z, per-qubit reordering picks up
    (-1)**(z_a x_b); the mask-level phase exponent is accumulated with
    popcounts so no per-qubit loop is needed.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"qubit count mismatch: {a.n_qubits} vs {b.n_qubits}"
        )
    x = a.x_mask ^ b.x_mask
    z = a.z_mask ^ b.z_mask
    exponent = (
        (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        - (x & z).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
    )
    return PhasedPauli(PauliString(a.n_qubits, x, z), PHASES[exponent % 4])


def monomial(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """The string's 2**n x 2**n matrix as one nonzero entry per row.

    Row i holds `phases[i]` at column `cols[i]`, so `P @ v` is
    `phases * v[cols]`. Qubit 1 is the most significant bit of a row index
    (the mask stores it in bit 0). In those index bits, cols = i ^ x and
    phases = i**|x & z| * (-1)**|cols & z|. O(2**n) time and memory.
    """
    n = p.n_qubits
    cols = np.arange(1 << n) ^ _index_bits(p.x_mask, n)
    signs = _parity_signs(cols & _index_bits(p.z_mask, n))
    return cols, PHASES[(p.x_mask & p.z_mask).bit_count() % 4] * signs
