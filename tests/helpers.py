"""Dense-matrix oracles and random generators shared across the tests.

Everything here is built from first principles (explicit 2x2 matrices and
Kronecker products) so the tests cross-check the package against an
independent implementation rather than against itself. The one exception,
`orbit_bfs`, walks products from `multiply`, which criterion 1 checks
against dense matrices. `shift_residue` corrupts an encoding result so the
tests can reach the invariant audits' failure paths. `scanning_encode` is
the encoder loop written plainly, the oracle for `encoder.encode`, and
`tie_heavy_encodings` draws the inputs both are run on. `effective_oracle`
and `decomposition_oracle` redo the realized channel and the decomposition
audit over PauliString keys and `multiply` products, the oracles for the
packed-key sums in `encoder` and `validation`. The exciton chain's dense
Trotter factors, Hamiltonian parts and `sequential_occupations`, which
conjugates a dense state by each factor and applies the channel term by
term, are the oracles for the Majorana correlation-matrix evolution in
`dynamics`; `majorana_rotation` reads a dense gate's 2n x 2n rotation and
`majorana_generator` a dense Hamiltonian's 2n x 2n generator.
`channel_weight` reads one string's weight off a channel's terms.
"""

import math
from functools import reduce
from itertools import product

import numpy as np
from hypothesis import strategies as st

from noisim.channels import WEIGHT_SUM_ATOL, PauliChannel
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


def majoranas_dense(n: int) -> list[np.ndarray]:
    """m_{2q-1} = Z...Z X_q and m_{2q} = Z...Z Y_q, with a Z on every site before q."""
    return [dense_string("Z" * q + letter + "I" * (n - q - 1)) for q in range(n) for letter in "XY"]


def majorana_rotation(u: np.ndarray, n: int) -> np.ndarray:
    """O with u^dag m_a u = sum_c O_ac m_c, as Tr(u^dag m_a u m_c) / 2**n."""
    m = majoranas_dense(n)
    return np.array([[np.trace(u.conj().T @ a @ u @ c).real for c in m] for a in m]) / 2**n


def majorana_generator(h: np.ndarray, n: int) -> np.ndarray:
    """A with i [h, m_a] = sum_c A_ac m_c, as Tr(i [h, m_a] m_c) / 2**n: the
    Heisenberg derivative of the Majoranas under the Hamiltonian h."""
    m = majoranas_dense(n)
    return np.array([[np.trace(1j * (h @ a - a @ h) @ c).real for c in m] for a in m]) / 2**n


def dense_chain_parts(n: int, omega0: float, g: float):
    """Onsite, odd-bond and even-bond Hamiltonians as sums of Pauli strings."""
    def at(letters, site):
        return dense_string("I" * site + letters + "I" * (n - site - len(letters)))

    onsite = sum(0.5 * omega0 * at("Z", q) for q in range(n))
    bonds = [
        sum((g / 2 * (at("XX", b) + at("YY", b)) for b in range(first, n - 1, 2)),
            np.zeros((2**n, 2**n), dtype=complex))
        for first in (0, 1)
    ]
    return onsite, *bonds


def expm_dense(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _bond_layer(n: int, first: int, gate: np.ndarray) -> np.ndarray:
    # the gate on sites (first + 1, first + 2), (first + 3, first + 4), ...
    eye, pad = np.eye(2, dtype=complex), n - first
    return reduce(np.kron, [eye] * first + [gate] * (pad // 2) + [eye] * (pad % 2))


def dense_trotter_factors(n: int, omega0: float, g: float, dt: float) -> tuple[np.ndarray, ...]:
    """The onsite phase and the odd- and even-bond layers of the hopping gate,
    as 2**n x 2**n unitaries: the closed forms of the three Trotter factors."""
    excited = np.array([i.bit_count() for i in range(2**n)])
    onsite = np.diag(np.exp(-1j * dt * 0.5 * omega0 * (n - 2 * excited)))
    c, s = math.cos(g * dt), math.sin(g * dt)
    # exp(-i g dt (sp sm + sm sp)) on |00>, |01>, |10>, |11> rotates the |01>, |10> block
    gate = np.eye(4, dtype=complex)
    gate[1:3, 1:3] = [[c, -1j * s], [-1j * s, c]]
    return onsite, _bond_layer(n, 0, gate), _bond_layer(n, 1, gate)


def sequential_occupations(rho, factors, terms, n: int, n_steps: int) -> np.ndarray:
    """Occupations of a dense state: each step conjugates it by each dense
    factor in turn, then applies the (weight, text) channel term by term."""
    number = [(np.eye(2**n) - dense_string("I" * q + "Z" + "I" * (n - q - 1))) / 2
              for q in range(n)]
    rows = []
    for step in range(n_steps + 1):
        if step:
            for u in factors:
                rho = u @ rho @ u.conj().T
            if terms is not None:
                rho = apply_channel_dense(terms, rho)
        rows.append([np.trace(m @ rho).real for m in number])
    return np.array(rows)


def text_oracle(n: int, x_mask: int, z_mask: int) -> str:
    """Text of a string one qubit at a time; qubit q is bit q-1 of each mask."""
    letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    return "".join(letters[x_mask >> q & 1, z_mask >> q & 1] for q in range(n))


def all_texts(n: int) -> list[str]:
    return ["".join(p) for p in product("IXYZ", repeat=n)]


def channel_weight(channel: PauliChannel, text: str) -> float:
    """The weight `channel` puts on the string spelled `text`; 0.0 off its support."""
    return next((w for w, s in channel.terms if s.text == text), 0.0)


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


def effective_oracle(result):
    """The realized channel's terms as (weight, string) sorted by text, or None when
    the schedule is over-encoded: per string, the fsum of mass * w(Q) over the
    schedule, with the unscheduled remainder added to the identity."""
    parts = {}
    for step in result.steps:
        for w, q in result.noise.terms:
            parts.setdefault(multiply(q, step.node).string, []).append(step.mass * w)
    weights = {s: math.fsum(p) for s, p in parts.items()}
    total = math.fsum(weights.values())
    if total > 1.0 + WEIGHT_SUM_ATOL:
        return None
    ident = identity(result.target.n_qubits)
    remainder = max(1.0 - total, 0.0)
    weights[ident] = math.fsum([weights[ident], remainder]) if ident in weights else remainder
    return sorted(((w, s) for s, w in weights.items() if w != 0.0), key=lambda ws: ws[1].text)


def decomposition_oracle(result, effective) -> float:
    """max |target(s) - residue(s) - effective(s)| over the non-identity strings
    of the three, each a dict keyed by PauliString."""
    target = {s: w for w, s in result.target.terms}
    realized = {s: w for w, s in effective.terms}
    defect = 0.0
    for s in target.keys() | result.residues.keys() | realized.keys():
        if not s.is_identity():
            gap = target.get(s, 0.0) - result.residues.get(s, 0.0) - realized.get(s, 0.0)
            defect = max(defect, abs(gap))
    return defect


@st.composite
def tie_heavy_channels(draw, n):
    """Channels whose weights are small integers over their sum, so residues tie exactly."""
    texts = draw(st.lists(st.sampled_from(all_texts(n)), min_size=1, max_size=5, unique=True))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(texts), max_size=len(texts)))
    return PauliChannel([(k / sum(counts), t) for k, t in zip(counts, texts)])


# (target, noise, fixed node) on 1 to 3 qubits
tie_heavy_encodings = st.integers(1, 3).flatmap(lambda n: st.tuples(
    tie_heavy_channels(n), tie_heavy_channels(n), st.sampled_from(all_texts(n)[1:])))
