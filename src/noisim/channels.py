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
d x d array, whatever its number of terms.
"""

from __future__ import annotations

import math
from typing import Iterable

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
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"density matrix must be square, got {arr.shape}")
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
        if not label or set(label) - {"0", "1"}:
            raise ValueError(f"basis label must be a bitstring, got {label!r}")
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

    Terms are stored canonically: deduplicated by string (weights fsum-ed),
    exact zeros dropped, sorted by text form. Weights must be nonnegative
    and sum to one within 1e-12.
    """

    __slots__ = ("n_qubits", "terms", "_weights")

    def __init__(self, terms: Iterable[tuple[float, PauliString]]) -> None:
        by_string: dict[PauliString, list[float]] = {}
        for w, s in terms:
            if isinstance(s, str):
                s = parse(s)
            w = float(w)
            if not w >= 0:
                raise ValueError(f"negative or NaN weight {w} on {s}")
            by_string.setdefault(s, []).append(w)
        if not by_string:
            raise ValueError("channel needs at least one term")
        ns = {s.n_qubits for s in by_string}
        if len(ns) != 1:
            raise ValueError(f"mixed qubit counts in channel: {sorted(ns)}")
        merged = [(math.fsum(ws), s) for s, ws in by_string.items()]
        total = math.fsum(w for w, _ in merged)
        if not abs(total - 1.0) <= WEIGHT_SUM_ATOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        merged = [(w, s) for w, s in merged if w != 0.0]
        merged.sort(key=lambda ws: ws[1].text)
        self.n_qubits = ns.pop()
        self.terms = tuple(merged)
        self._weights = {s: w for w, s in merged}

    @property
    def support(self) -> tuple[PauliString, ...]:
        return tuple(s for _, s in self.terms)

    def weight(self, string: PauliString) -> float:
        return self._weights.get(string, 0.0)

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
    table = _eigenvalues(channel.n_qubits, channel.terms)
    return DensityMatrix._known(_apply_eigenvalues(table, rho.matrix))


def _wht(a: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform along axis 0 of a C-contiguous
    real 2-D array, in place.

    The 2**n-point transform is H_hi x H_lo, so two batched products with
    Hadamard matrices of about 2**(n/2) rows replace one d x d product.
    """
    # a reshape of any other layout is a copy, and the result would be lost
    if not a.flags.c_contiguous:
        raise ValueError("_wht needs a C-contiguous array")
    d, m = a.shape
    n = d.bit_length() - 1
    # Hadamard matrices of 2**(n // 2) and 2**(n - n // 2) points: (-1)**popcount(i & j)
    hi, lo = (np.arange(1 << k) for k in (n // 2, n - n // 2))
    hi, lo = _parity_signs(hi[:, None] & hi), _parity_signs(lo[:, None] & lo)
    half = hi @ a.reshape(len(hi), -1)
    np.matmul(lo, half.reshape(len(hi), len(lo), m), out=a.reshape(len(hi), len(lo), m))


def _eigenvalues(n_qubits: int, terms: Iterable[tuple[float, PauliString]]) -> np.ndarray:
    """lam[s, k] = sum_P w_P (-1)**(x_P . s + z_P . k) over (weight, string) pairs.

    lam[s, k] is the eigenvalue of the string with z bits s and x bits k,
    both in index order (`pauli._index_bits`: qubit 1 the most significant bit).
    """
    d = 1 << n_qubits
    table = np.zeros((d, d))
    for w, s in terms:
        table[_index_bits(s.z_mask, n_qubits), _index_bits(s.x_mask, n_qubits)] += w
    # lam = H W H with W[x, z]: transform the transposed table, transpose, transform
    _wht(table)
    table = np.ascontiguousarray(table.T)
    _wht(table)
    return table


def _xor_gather(m: np.ndarray) -> np.ndarray:
    """out[i, k] = m[i, i ^ k]; the map is its own inverse.

    Rows and columns split into their high and low index bits, so the index
    arrays broadcast from about 2 * d entries, not a d x d table.
    """
    d = m.shape[0]
    n = d.bit_length() - 1
    hi, lo = np.arange(1 << (n // 2)), np.arange(1 << (n - n // 2))
    a, b = hi[:, None, None, None], lo[:, None, None]
    blocks = m.reshape(len(hi), len(lo), len(hi), len(lo))
    # numpy leaves the layout of an advanced-indexing result open
    return np.ascontiguousarray(blocks[a, b, a ^ hi[:, None], b ^ lo].reshape(d, d))


def _apply_eigenvalues(table: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The channel with eigenvalue table `table` on a complex matrix, hermitized."""
    g = _xor_gather(rho)  # g[i, k] = rho[i, i ^ k]
    _wht(g.view(float))
    g *= table
    _wht(g.view(float))
    g = _xor_gather(g)
    g += g.conj().T
    # the inverse transform's 1/d, a power of two, folds exactly into the 1/2
    g *= 0.5 / len(g)
    return g
