"""Noise-orbit clusters and decoherence-free structure.

A node string together with a set of noise strings generates a cluster: the
closure of the node under left multiplication by noise generators. Phases
are dropped because channels conjugate, so the orbit is the coset
node + span_GF(2)(generators) in the (x, z) picture, of 2**rank strings.

The coset is enumerated in text order without a sort. A letter's rank in
the order I < X < Y < Z has the bits (z, x XOR z), a GF(2)-linear function
of its (x, z), so a string's rank key, the base-4 number whose digits are
its letters' ranks with qubit 1 most significant, is linear in the string
and orders strings as their texts do. The generators' rank keys are brought
to reduced row echelon form: each basis vector has its own leading bit,
clear in every other basis vector and in the reduced node. Member k is the
node XOR the basis vectors picked by the bits of k, taken in ascending
order, so its pivot bits spell k and the members increase with k. XOR
doubling over the basis in that order writes them as rows of rank digits,
already sorted; a lookup turns the rows into letters.

`branching_dimension` counts distinct non-identity neighbours reachable in
one product from the node; `cluster_dimension` is the orbit size. A cluster
is all-to-all when one step already reaches the whole orbit, in which case
the subspace leakage entropy ln(cluster / (branching + 1)) vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log
from typing import Iterable

import numpy as np

from .pauli import PauliString, parse

__all__ = ["Cluster", "ORBIT_RANK_CAP", "analyze_cluster", "orbit"]

# Orbits of higher generator rank are refused; they hold 2**rank strings.
ORBIT_RANK_CAP = 20

# each letter's rank in text order as a base-4 digit
_RANK_DIGITS = str.maketrans("IXYZ", "0123")


@dataclass(frozen=True, slots=True)
class Cluster:
    """An orbit with its dimensions. `letters` holds the members' texts in
    text order, n_qubits ASCII letters each, back to back."""

    node: PauliString
    letters: bytes = field(repr=False)
    branching_dimension: int
    cluster_dimension: int
    all_to_all: bool
    leakage_entropy: float
    _member_texts: tuple[str, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _members: frozenset[PauliString] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def member_texts(self) -> tuple[str, ...]:
        """The members' texts in sorted order, cut from `letters` when first read."""
        if self._member_texts is None:
            n = self.node.n_qubits
            texts = np.frombuffer(self.letters, dtype=f"S{n}").astype(f"U{n}").tolist()
            object.__setattr__(self, "_member_texts", tuple(texts))
        return self._member_texts

    @property
    def members(self) -> frozenset[PauliString]:
        """The orbit's strings, built from their texts when first read."""
        if self._members is None:
            object.__setattr__(self, "_members", frozenset(map(parse, self.member_texts)))
        return self._members


def orbit(
    node: PauliString | str, generators: Iterable[PauliString | str]
) -> frozenset[PauliString]:
    """Closure of node under left multiplication by the generators."""
    return analyze_cluster(node, generators).members


def _rank_key(s: PauliString) -> int:
    """The base-4 number of the letters' ranks I < X < Y < Z, qubit 1 first."""
    return int(s.text.translate(_RANK_DIGITS), 4)


def _rank_digits(key: int, n: int) -> np.ndarray:
    """The n base-4 digits of a rank key, qubit 1 first."""
    bits = np.frombuffer(format(key, f"0{2 * n}b").encode(), dtype=np.uint8) & 1
    return bits[0::2] << 1 | bits[1::2]


def _coset_letters(start: int, basis: list[int], n: int) -> bytes:
    """Letters of start XOR span(basis) in text order, for a reduced row
    echelon basis in ascending order and a start reduced against it.

    Row k of rank digits is start XOR the basis vectors picked by the bits
    of k, so doubling over the basis fills the rows in ascending order.
    """
    rows = np.empty((1 << len(basis), n), dtype=np.uint8)
    rows[0] = _rank_digits(start, n)
    for k, b in enumerate(basis):
        np.bitwise_xor(rows[: 1 << k], _rank_digits(b, n), out=rows[1 << k : 2 << k])
    back = np.equal(rows, 0).view(np.uint8)
    back *= ord("W") - ord("I")
    rows += ord("W")
    rows -= back
    del back
    return rows.tobytes()


def analyze_cluster(
    node: PauliString | str, generators: Iterable[PauliString | str]
) -> Cluster:
    """Orbit plus its branching/cluster dimensions and leakage entropy."""
    node = parse(node) if isinstance(node, str) else node
    n = node.n_qubits
    start = _rank_key(node)
    vectors = []
    for g in generators:
        g = parse(g) if isinstance(g, str) else g
        if g.n_qubits != n:
            raise ValueError(f"generator {g.text} acts on {g.n_qubits} qubits, node on {n}")
        vectors.append(_rank_key(g))
    # reduced row echelon form: min(v, v ^ b) clears b's leading bit in v, if set
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = [min(b, b ^ v) for b in basis]
            basis.append(v)
    if len(basis) > ORBIT_RANK_CAP:
        raise ValueError(
            f"refusing an orbit of 2**{len(basis)} strings: generator rank {len(basis)} "
            f"exceeds ORBIT_RANK_CAP = {ORBIT_RANK_CAP}"
        )
    # one-step neighbours, the node and the identity excluded
    d_b = len({start ^ v for v in vectors} - {start, 0})
    d_c = 1 << len(basis)
    basis.sort()  # distinct leading bits, so ascending values are ascending pivots
    for b in basis:
        start = min(start, start ^ b)
    return Cluster(
        node=node,
        letters=_coset_letters(start, basis, n),
        branching_dimension=d_b,
        cluster_dimension=d_c,
        all_to_all=d_c == d_b + 1,
        leakage_entropy=log(d_c / (d_b + 1)),
    )
