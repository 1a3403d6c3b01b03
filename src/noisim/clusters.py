"""Noise-orbit clusters and decoherence-free structure.

A node string together with a set of noise strings generates a cluster: the
closure of the node under left multiplication by noise generators. Phases
are dropped because channels conjugate, so the orbit is the coset
node + span_GF(2)(generator masks x | z << n), of 2**rank strings.

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

# byte of each letter code x + 2z, and code 4 for the line end
_LETTER_BYTES = np.frombuffer(b"IXZY\n", dtype=np.uint8)


@dataclass(frozen=True, slots=True)
class Cluster:
    """An orbit with its dimensions; `member_texts` spells its members in sorted order."""

    node: PauliString
    member_texts: tuple[str, ...]
    branching_dimension: int
    cluster_dimension: int
    all_to_all: bool
    leakage_entropy: float
    _members: frozenset[PauliString] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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


def _code_row(packed: int, n: int, end: int) -> np.ndarray:
    """Letter codes x + 2z per qubit of the packed string x | z << n, then `end`."""
    codes = [(packed >> q & 1) | (packed >> (n + q) & 1) << 1 for q in range(n)]
    return np.array(codes + [end], dtype=np.uint8)


def _coset_texts(start: int, basis: list[int], n: int) -> tuple[str, ...]:
    """Sorted texts of start XOR span(basis), spelled and sorted as bytes.

    Each member is a row of letter codes x + 2z, so a product is an XOR of
    rows and doubling over the basis gives all 2**rank rows. A last column
    of code 4 spells a newline, so the rows read as one block of lines.
    """
    rows = np.empty((1 << len(basis), n + 1), dtype=np.uint8)
    rows[0] = _code_row(start, n, 4)
    for k, b in enumerate(basis):
        np.bitwise_xor(rows[: 1 << k], _code_row(b, n, 0), out=rows[1 << k : 2 << k])
    letters = _LETTER_BYTES[rows]
    del rows
    lines = letters.view(f"S{n + 1}").ravel()
    lines.sort()  # 'I' < 'X' < 'Y' < 'Z' as bytes, as in str order
    return tuple(lines.tobytes().decode("ascii").splitlines())


def analyze_cluster(
    node: PauliString | str, generators: Iterable[PauliString | str]
) -> Cluster:
    """Orbit plus its branching/cluster dimensions and leakage entropy."""
    node = parse(node) if isinstance(node, str) else node
    n = node.n_qubits
    start = node.key
    vectors = []
    for g in generators:
        g = parse(g) if isinstance(g, str) else g
        if g.n_qubits != n:
            raise ValueError(f"generator {g.text} acts on {g.n_qubits} qubits, node on {n}")
        vectors.append(g.key)
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)  # clears b's leading bit in v, if set
        if v:
            basis.append(v)
    if len(basis) > ORBIT_RANK_CAP:
        raise ValueError(
            f"refusing an orbit of 2**{len(basis)} strings: generator rank {len(basis)} "
            f"exceeds ORBIT_RANK_CAP = {ORBIT_RANK_CAP}"
        )
    # one-step neighbours, the node and the identity excluded
    d_b = len({start ^ v for v in vectors} - {start, 0})
    d_c = 1 << len(basis)
    return Cluster(
        node=node,
        member_texts=_coset_texts(start, basis, n),
        branching_dimension=d_b,
        cluster_dimension=d_c,
        all_to_all=d_c == d_b + 1,
        leakage_entropy=log(d_c / (d_b + 1)),
    )
