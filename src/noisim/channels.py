"""Density matrices and Pauli channels.

A Pauli channel E(rho) = sum_P w_P P rho P is diagonal in the Pauli basis.
Writing P = X**x Z**z on index bits and k = i ^ j,

    E(rho)[i, i ^ k] = sum_x A[x, k] rho[i ^ x, i ^ x ^ k],
    A[x, k] = sum_z w(x, z) (-1)**(z . k),

an XOR convolution over i for each k. A Walsh-Hadamard transform over i
diagonalizes it, and the multipliers are the Pauli eigenvalues

    lam[s, k] = sum_P w_P (-1)**(x_P . s + z_P . k),

the 2-D transform of the d x d weight table (Flammia and Wallman,
arXiv:1907.12976). So a channel applies through two transforms of a
d x d array, whatever its number of terms. A map is built once per
channel: its eigenvalue table, Hadamard factors and flat XOR index serve
every state it is applied to.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .pauli import MATRIX_QUBIT_CAP, PauliString, _check_dense_size, _index_bits, _parity_signs, parse

__all__ = [
    "EIGENVALUE_FLOOR",
    "HERMITICITY_ATOL",
    "TRACE_ATOL",
    "WEIGHT_SUM_ATOL",
    "DensityMatrix",
    "PauliChannel",
    "apply_pauli_channel",
]

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-9
WEIGHT_SUM_ATOL = 1e-12


def _check_basis_label(label: str) -> None:
    """Refuse a basis label that is not a nonempty string of 0s and 1s."""
    if not isinstance(label, str) or not label or set(label) - {"0", "1"}:
        raise ValueError(f"basis label must be a bitstring, got {label!r}")


class DensityMatrix:
    """A validated quantum state.

    Construction checks hermiticity (entrywise, 1e-10), unit trace (1e-10)
    and spectrum above -1e-9; each check also fails on NaN. The dense
    constructors refuse more than MATRIX_QUBIT_CAP qubits before allocating.
    States by construction skip the checks: the projector of from_basis_label,
    the I/d of maximally_mixed and the output of apply_pauli_channel.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        arr = np.array(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise ValueError(f"density matrix must be square and nonempty, got shape {arr.shape}")
        herm = np.abs(arr - arr.conj().T).max()
        if not herm <= HERMITICITY_ATOL:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = arr.trace()
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise ValueError(f"trace {tr!r} differs from 1 beyond {TRACE_ATOL}")
        lo = float(np.linalg.eigvalsh(arr).min())
        if not lo >= EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue {lo:.3e} below {EIGENVALUE_FLOOR}")
        arr.setflags(write=False)
        self.matrix = arr

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        n = self.dim.bit_length() - 1
        if 1 << n != self.dim:
            raise ValueError(f"dimension {self.dim} is not a power of two")
        return n

    @classmethod
    def from_basis_label(cls, label: str) -> "DensityMatrix":
        """Computational basis state |label><label|, site 1 leftmost."""
        _check_basis_label(label)
        _check_dense_size(len(label), "state", MATRIX_QUBIT_CAP)
        dim = 2 ** len(label)
        arr = np.zeros((dim, dim), dtype=complex)
        k = int(label, 2)
        arr[k, k] = 1.0
        return cls._known(arr)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        if dim < 1:
            raise ValueError(f"need dimension at least 1, got {dim}")
        _check_dense_size((dim - 1).bit_length(), "state", MATRIX_QUBIT_CAP)  # qubits dim needs
        return cls._known(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def _known(cls, arr: np.ndarray) -> "DensityMatrix":
        """Wrap a complex square array that is a state by construction, unchecked."""
        arr.setflags(write=False)
        rho = cls.__new__(cls)
        rho.matrix = arr
        return rho

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class PauliChannel:
    """A probabilistic mixture of Pauli conjugations.

    Terms are stored canonically: deduplicated by text (weights fsum-ed),
    exact zeros dropped, sorted by text form. Weights must be nonnegative
    and sum to one within 1e-12.
    """

    __slots__ = ("n_qubits", "terms", "_weights")

    def __init__(self, terms: Iterable[tuple[float, PauliString]]) -> None:
        # keyed by text, which names one string and whose hash a str caches
        strings: dict[str, PauliString] = {}
        weights: dict[str, list[float]] = {}
        for w, s in terms:
            if isinstance(s, str):
                s = parse(s)
            w = float(w)
            if not w >= 0:
                raise ValueError(f"negative or NaN weight {w} on {s}")
            strings.setdefault(s.text, s)
            weights.setdefault(s.text, []).append(w)
        if not weights:
            raise ValueError("channel needs at least one term")
        ns = set(map(len, weights))
        if len(ns) != 1:
            raise ValueError(f"mixed qubit counts in channel: {sorted(ns)}")
        merged = [(math.fsum(weights[t]), strings[t]) for t in sorted(weights)]
        total = math.fsum(w for w, _ in merged)
        if not abs(total - 1.0) <= WEIGHT_SUM_ATOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        self.n_qubits = ns.pop()
        self.terms = tuple((w, s) for w, s in merged if w != 0.0)
        self._weights = {s.text: w for w, s in self.terms}

    @property
    def support(self) -> tuple[PauliString, ...]:
        return tuple(s for _, s in self.terms)

    def weight(self, string: PauliString) -> float:
        return self._weights.get(string.text, 0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliChannel):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.terms))

    def __repr__(self) -> str:
        inner = ", ".join(f"{w:.6g}*{s.text}" for w, s in self.terms)
        return f"PauliChannel({inner})"


def apply_pauli_channel(channel: PauliChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_i w_i P_i rho P_i; trace preserving and unital."""
    if rho.dim != 2**channel.n_qubits:
        raise ValueError(
            f"state dim {rho.dim} incompatible with {channel.n_qubits} qubits"
        )
    return DensityMatrix._known(_pauli_map(channel.n_qubits, channel.terms)(rho.matrix))


def _pauli_map(
    n_qubits: int, terms: Iterable[tuple[float, PauliString]]
) -> Callable[[np.ndarray], np.ndarray]:
    """rho -> sum_P w_P P rho P over (weight, string) pairs, on complex d x d
    arrays, hermitized; the weights may be signed.

    The Hadamard factors, the flat XOR index and the eigenvalue table are built
    once per map (index and table hold 8 MiB each at 10 qubits). The table's
    lam[s, k] is the eigenvalue of the string with z bits s and x bits k, both
    in index order (`pauli._index_bits`: qubit 1 the most significant bit).
    """
    d = 1 << n_qubits
    # the 2**n-point Walsh-Hadamard transform is H_hi x H_lo, so two batched products
    # with Hadamard matrices of about 2**(n/2) rows replace one d x d product
    hi, lo = (np.arange(1 << k) for k in (n_qubits // 2, n_qubits - n_qubits // 2))
    h_hi, h_lo = _parity_signs(hi[:, None] & hi), _parity_signs(lo[:, None] & lo)
    # np.take(m, xor_index)[i, k] = m[i, i ^ k], C-ordered whatever m's layout; self-inverse
    rows = np.arange(d)[:, None]
    xor_index = rows * d + (rows ^ np.arange(d))

    def wht(m: np.ndarray) -> None:
        """Unnormalized transform along axis 0 of a real 2-D array, in place; only
        arrays the map made reach it, and their reshapes are views, not copies."""
        half = h_hi @ m.reshape(len(hi), -1)
        np.matmul(h_lo, half.reshape(len(hi), len(lo), -1), out=m.reshape(len(hi), len(lo), -1))

    table = np.zeros((d, d))
    for w, s in terms:
        table[_index_bits(s.z_mask, n_qubits), _index_bits(s.x_mask, n_qubits)] += w
    # lam = H W H with W[x, z]: transform the transposed table, transpose, transform
    wht(table)
    table = np.ascontiguousarray(table.T)
    wht(table)

    def apply(rho: np.ndarray) -> np.ndarray:
        g = np.take(rho, xor_index)  # g[i, k] = rho[i, i ^ k]
        wht(g.view(float))
        g *= table
        wht(g.view(float))
        g = np.take(g, xor_index)
        g += g.conj().T
        # the inverse transform's 1/d, a power of two, folds exactly into the 1/2
        g *= 0.5 / d
        return g

    return apply
