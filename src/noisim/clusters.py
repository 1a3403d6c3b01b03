"""Noise-orbit clusters and decoherence-free structure.

A node string together with a set of noise strings generates a cluster: the
closure of the node under left multiplication by noise generators. Phases
are dropped because channels conjugate, so only the string part matters.

`branching_dimension` counts distinct non-identity neighbours reachable in
one product from the node; `cluster_dimension` is the orbit size. A cluster
is all-to-all when one step already reaches the whole orbit, in which case
the subspace leakage entropy ln(cluster / (branching + 1)) vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import Iterable

from .pauli import PauliString, multiply, parse

__all__ = ["Cluster", "analyze_cluster", "orbit"]


def _as_string(s: PauliString | str) -> PauliString:
    return parse(s) if isinstance(s, str) else s


def orbit(
    node: PauliString | str, generators: Iterable[PauliString | str]
) -> frozenset[PauliString]:
    """Closure of node under left multiplication by the generators."""
    node = _as_string(node)
    gens = [_as_string(g) for g in generators]
    for g in gens:
        if g.n_qubits != node.n_qubits:
            raise ValueError(f"generator {g.text} acts on {g.n_qubits} qubits, node on {node.n_qubits}")
    seen = {node}
    frontier = [node]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = multiply(g, s).string
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return frozenset(seen)


@dataclass(frozen=True, slots=True)
class Cluster:
    node: PauliString
    members: frozenset[PauliString]
    branching_dimension: int
    cluster_dimension: int
    all_to_all: bool
    leakage_entropy: float


def analyze_cluster(
    node: PauliString | str, generators: Iterable[PauliString | str]
) -> Cluster:
    """Orbit plus its branching/cluster dimensions and leakage entropy."""
    node = _as_string(node)
    gens = [_as_string(g) for g in generators]
    members = orbit(node, gens)
    # one-step neighbours, identity excluded
    step = {multiply(g, node).string for g in gens}
    step.discard(node)
    step = {s for s in step if not s.is_identity()}
    d_b = len(step)
    d_c = len(members)
    all_to_all = d_c == d_b + 1
    entropy = log(d_c / (d_b + 1))
    return Cluster(
        node=node,
        members=members,
        branching_dimension=d_b,
        cluster_dimension=d_c,
        all_to_all=all_to_all,
        leakage_entropy=entropy,
    )
