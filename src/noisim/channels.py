"""Density matrices and Pauli channels.

A Pauli channel E(rho) = sum_P w_P P rho P^dag is applied term by term
through `pauli.monomial`: P has one nonzero entry per row, phases[i] at
column cols[i], so (P rho P^dag)[i, j] = phases[i] rho[cols[i], cols[j]]
conj(phases[j]), one gather and two scalings of a d x d array per term.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .pauli import MATRIX_QUBIT_CAP, PauliString, _check_dense_size, monomial, parse

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

    Construction refuses a NaN or infinite entry, then checks hermiticity
    (entrywise, 1e-10), unit trace (1e-10) and spectrum above -1e-9. The dense
    constructors refuse more than MATRIX_QUBIT_CAP qubits before allocating.
    States by construction skip the checks: the projector of from_basis_label,
    the I/d of maximally_mixed and the output of apply_pauli_channel.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        arr = np.array(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise ValueError(f"density matrix must be square and nonempty, got shape {arr.shape}")
        # eigvalsh can return a finite spectrum for a matrix holding NaN or inf
        if not np.isfinite(arr).all():
            raise ValueError("density matrix has a non-finite entry")
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
    return DensityMatrix._known(_pauli_sum(channel.terms, rho.matrix))


def _pauli_sum(terms: Iterable[tuple[float, PauliString]], matrix: np.ndarray) -> np.ndarray:
    """sum_P w_P P m P^dag over (weight, string) pairs on a d x d array, hermitized;
    the weights may be signed."""
    out = np.zeros(matrix.shape, dtype=complex)
    for w, s in terms:
        cols, phases = monomial(s)
        out += (w * phases)[:, None] * matrix[np.ix_(cols, cols)] * phases.conj()
    out += out.conj().T
    out *= 0.5
    return out
