"""Dense-matrix oracles and random generators shared across the tests.

Everything here is built from first principles (explicit 2x2 matrices and
Kronecker products) so the tests cross-check the package against an
independent implementation rather than against itself. The one exception,
`orbit_bfs`, walks products from `multiply`, which criterion 1 checks
against dense matrices. `shift_residue` corrupts an encoding result so the
tests can reach the invariant audits' failure paths. `scanning_encode` is
the encoder loop written plainly, the oracle for `encoder.encode`.
"""

import math
from itertools import product

import numpy as np

from noisim.encoder import (
    STOP_ALL_WITHIN_TOL,
    STOP_MAX_ITERS,
    STOP_STALLED,
    EncodingResult,
    EncodingStep,
)
from noisim.pauli import identity, multiply

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_string(text: str) -> np.ndarray:
    """Kronecker product of the letters, first letter most significant."""
    out = PAULIS[text[0]]
    for letter in text[1:]:
        out = np.kron(out, PAULIS[letter])
    return out


def hadamard(n: int) -> np.ndarray:
    """The 2**n-point Hadamard matrix as n Kronecker factors, entries +-1."""
    out = np.ones((1, 1))
    for _ in range(n):
        out = np.kron(out, [[1.0, 1.0], [1.0, -1.0]])
    return out


def text_oracle(n: int, x_mask: int, z_mask: int) -> str:
    """Text of a string one qubit at a time; qubit q is bit q-1 of each mask."""
    letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    return "".join(letters[x_mask >> q & 1, z_mask >> q & 1] for q in range(n))


def all_texts(n: int) -> list[str]:
    return ["".join(p) for p in product("IXYZ", repeat=n)]


def apply_channel_dense(terms, rho: np.ndarray) -> np.ndarray:
    """sum_i w_i P_i rho P_i from (weight, text) pairs."""
    out = np.zeros_like(rho, dtype=complex)
    for w, text in terms:
        m = dense_string(text)
        out += w * (m @ rho @ m)
    return out


def random_channel_terms(rng, n: int, *, max_terms: int = 6, identity_weight=None):
    """Random normalized (weight, text) list over distinct strings.

    identity_weight, if given, pins the identity term's weight and splits
    the rest over random non-identity strings.
    """
    pool = all_texts(n)
    if identity_weight is None:
        k = int(rng.integers(1, min(max_terms, len(pool)) + 1))
        texts = list(rng.choice(pool, size=k, replace=False))
        weights = rng.random(k) + 1e-3
        weights = weights / weights.sum()
        return list(zip(weights.tolist(), texts))
    k = int(rng.integers(1, min(max_terms, len(pool) - 1) + 1))
    nonid = [t for t in pool if set(t) != {"I"}]
    texts = list(rng.choice(nonid, size=k, replace=False))
    weights = rng.random(k) + 1e-3
    weights = weights / weights.sum() * (1.0 - identity_weight)
    return [(identity_weight, "I" * n)] + list(zip(weights.tolist(), texts))


def random_density(rng, dim: int, *, pure: bool = False) -> np.ndarray:
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v = v / np.linalg.norm(v)
        return np.outer(v, v.conj())
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def shift_residue(result, shift: float, *, onto_identity: bool = False) -> EncodingResult:
    """A copy of `result` with its first non-identity residue moved by `shift`;
    with `onto_identity` the identity takes -shift, so conservation still holds."""
    residues = dict(result.residues)
    s = next(s for s in residues if not s.is_identity())
    residues[s] += shift
    if onto_identity:
        residues[identity(s.n_qubits)] = residues.get(identity(s.n_qubits), 0.0) - shift
    return EncodingResult(result.mode, result.target, result.noise, result.steps, residues,
                          result.encoded_mass, result.stop_reason)


def orbit_bfs(node, generators) -> frozenset:
    """Breadth-first closure of node under left products with the generators,
    phases dropped; the oracle for the coset enumeration in `clusters`."""
    seen = {node}
    frontier = [node]
    while frontier:
        nxt = []
        for s in frontier:
            for g in generators:
                t = multiply(g, s).string
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return frozenset(seen)


def scanning_encode(target, noise, mode, node, *, tol, max_iters) -> EncodingResult:
    """The encoder loop with every step written out: a full within-tol scan of
    the ledger, then (adaptive) the list of pending residues, their maximum and
    the text tie-break, and the images of the node recomputed at every step."""
    ident = identity(target.n_qubits)
    w_star, q_star = min(noise.terms, key=lambda wq: (-wq[0], wq[1].text))
    ledger = {s: w for w, s in target.terms}
    masses, steps = [], []
    while True:
        if all(r <= tol for s, r in ledger.items() if s != ident):
            reason = STOP_ALL_WITHIN_TOL
            break
        if len(steps) >= max_iters:
            reason = STOP_MAX_ITERS
            break
        if mode == "fixed":
            chosen = node
            images = {multiply(q, node).string for _, q in noise.terms} - {ident}
            mass = max((ledger.get(s, 0.0) for s in images), default=0.0)
        else:
            pending = [(r, s) for s, r in ledger.items() if r > 0.0 and s != ident]
            if not pending:
                reason = STOP_STALLED
                break
            r_star = max(r for r, _ in pending)
            s_star = min((s for r, s in pending if r == r_star), key=lambda s: s.text)
            budget = 1.0 - math.fsum(masses) - max(ledger.get(ident, 0.0), 0.0)
            chosen, mass = multiply(q_star, s_star).string, min(r_star / w_star, budget)
        if mass <= 0.0:
            reason = STOP_STALLED
            break
        masses.append(mass)
        for w, q in noise.terms:
            image = multiply(q, chosen).string
            ledger[image] = ledger.get(image, 0.0) - mass * w
        steps.append(EncodingStep(len(steps), chosen, mass, tuple(ledger.items())))
    return EncodingResult(mode, target, noise, tuple(steps), ledger, math.fsum(masses), reason)
