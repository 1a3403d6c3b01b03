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

from dataclasses import dataclass
from math import log
from typing import Iterable

from .pauli import PauliString, parse

__all__ = ["Cluster", "ORBIT_RANK_CAP", "analyze_cluster", "orbit"]

# Orbits of higher generator rank are refused; they hold 2**rank strings.
ORBIT_RANK_CAP = 20


@dataclass(frozen=True, slots=True)
class Cluster:
    node: PauliString
    members: frozenset[PauliString]
    branching_dimension: int
    cluster_dimension: int
    all_to_all: bool
    leakage_entropy: float


def orbit(
    node: PauliString | str, generators: Iterable[PauliString | str]
) -> frozenset[PauliString]:
    """Closure of node under left multiplication by the generators."""
    return analyze_cluster(node, generators).members


def analyze_cluster(
    node: PauliString | str, generators: Iterable[PauliString | str]
) -> Cluster:
    """Orbit plus its branching/cluster dimensions and leakage entropy."""
    node = parse(node) if isinstance(node, str) else node
    n = node.n_qubits
    start = node.x_mask | node.z_mask << n
    vectors = []
    for g in generators:
        g = parse(g) if isinstance(g, str) else g
        if g.n_qubits != n:
            raise ValueError(f"generator {g.text} acts on {g.n_qubits} qubits, node on {n}")
        vectors.append(g.x_mask | g.z_mask << n)
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
    members = [start]
    for b in basis:
        members += [m ^ b for m in members]
    low = (1 << n) - 1
    # one-step neighbours, the node and the identity excluded
    d_b = len({start ^ v for v in vectors} - {start, 0})
    d_c = len(members)
    return Cluster(
        node=node,
        members=frozenset(PauliString(n, m & low, m >> n) for m in members),
        branching_dimension=d_b,
        cluster_dimension=d_c,
        all_to_all=d_c == d_b + 1,
        leakage_entropy=log(d_c / (d_b + 1)),
    )
