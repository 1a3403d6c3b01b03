"""Exciton chain evolution with interleaved Pauli decoherence.

The chain Hamiltonian on n sites with open boundaries is

    H = omega0/2 * sum_q sigma_z(q) + g * sum_q (sp(q) sm(q+1) + sm(q) sp(q+1)),

with sp = [[0, 0], [1, 0]], so basis label bit 1 marks an excited site and
the occupation of site q is the expectation of (I - Z_q)/2. Site 1 is the
leftmost label character and the most significant Kronecker factor.

A simulation step applies the step unitaries in order, then one round of
the decoherence channel. Channel weights therefore play the role of
per-step probabilities; halving dt while keeping a fixed physical
decoherence rate means halving the non-identity weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .channels import DensityMatrix, PauliChannel, _pauli_map
from .encoder import EncodingResult, effective_channel, encode
from .pauli import MATRIX_QUBIT_CAP, _check_dense_size, identity

__all__ = [
    "BenchmarkConfig",
    "BenchmarkResult",
    "EXACT_SITE_CAP",
    "chain_hamiltonian",
    "default_noise_channel",
    "default_target_channel",
    "evolve_occupations",
    "run_benchmark",
    "scale_channel_weights",
    "site_occupations",
    "trotter_step_unitaries",
]

EXACT_SITE_CAP = 2


def _excitations(n_sites: int) -> np.ndarray:
    """0/1 table whose [i, q - 1] is site q's bit of basis index i: bit n_sites - q."""
    return (np.arange(2**n_sites)[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1


def _onsite_energies(n_sites: int, omega0: float) -> np.ndarray:
    """Diagonal of omega0/2 * sum_q sigma_z(q): each excited site lowers it by omega0."""
    if n_sites < 1:
        raise ValueError(f"need at least one site, got {n_sites}")
    return 0.5 * omega0 * (n_sites - 2 * _excitations(n_sites).sum(axis=1))


def chain_hamiltonian(n_sites: int, omega0: float, g: float) -> np.ndarray:
    h = np.diag(_onsite_energies(n_sites, omega0)).astype(complex)
    idx = np.arange(2**n_sites)
    for shift in range(n_sites - 1):
        # hopping across a bond flips its two site bits wherever they differ
        pair = 3 << shift
        hop = idx[np.isin(idx & pair, (1 << shift, 2 << shift))]
        h[hop, hop ^ pair] = g
    return h


def _expm_herm(h: np.ndarray, t: float) -> np.ndarray:
    # exp(-i h t) for Hermitian h via eigendecomposition
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _bond_layer(n_sites: int, first: int, gate: np.ndarray) -> np.ndarray:
    # the gate on sites (first + 1, first + 2), (first + 3, first + 4), ...
    eye, pad = np.eye(2, dtype=complex), n_sites - first
    return reduce(np.kron, [eye] * first + [gate] * (pad // 2) + [eye] * (pad % 2))


def trotter_step_unitaries(
    n_sites: int,
    omega0: float,
    g: float,
    dt: float,
    *,
    method: str = "trotter",
) -> tuple[np.ndarray, ...]:
    """Unitary factors of one time step, applied left to right.

    "trotter" (the default) splits into an onsite phase and odd- and
    even-bond layers of the 4x4 hopping gate; the bond terms of a layer
    commute, so each factor is exact, and up to two sites the product is the
    exact step. "exact_exponential" returns the single full-step unitary and
    is an opt-in small-system reference, refused above EXACT_SITE_CAP sites.
    Chains above MATRIX_QUBIT_CAP sites, and phases omega0 * dt or g * dt
    that overflow a float at this chain size, are refused before any matrix
    is built.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"need finite dt > 0, got {dt}")
    if not (math.isfinite(omega0) and math.isfinite(g)):
        raise ValueError(f"need finite omega0 and coupling g, got {omega0} and {g}")
    _check_dense_size(n_sites, "step unitary", MATRIX_QUBIT_CAP)
    if method == "exact_exponential" and n_sites > EXACT_SITE_CAP:
        raise ValueError(
            f"exact_exponential is a reference for up to {EXACT_SITE_CAP} "
            f"sites, got {n_sites}; use method='trotter'"
        )
    if method not in ("trotter", "exact_exponential"):
        raise ValueError(f"unknown step method {method!r}")
    # the phases over dt of the largest onsite energy, n_sites * omega0 / 2, and of a hop
    if not (math.isfinite(0.5 * abs(omega0) * n_sites * dt) and math.isfinite(g * dt)):
        raise ValueError(
            f"omega0 * dt or coupling * dt overflows at {n_sites} sites: "
            f"omega0={omega0!r}, coupling={g!r}, dt={dt!r}"
        )
    if method == "exact_exponential":
        return (_expm_herm(chain_hamiltonian(n_sites, omega0, g), dt),)
    c, s = math.cos(g * dt), math.sin(g * dt)
    # exp(-i g dt (sp sm + sm sp)) on |00>, |01>, |10>, |11> rotates the |01>, |10> block
    gate = np.eye(4, dtype=complex)
    gate[1:3, 1:3] = [[c, -1j * s], [-1j * s, c]]
    return (
        np.diag(np.exp(-1j * dt * _onsite_energies(n_sites, omega0))),
        _bond_layer(n_sites, 0, gate),
        _bond_layer(n_sites, 1, gate),
    )


def site_occupations(rho: DensityMatrix | np.ndarray, n_sites: int) -> np.ndarray:
    """Expectation of (I - Z_q)/2 for each site, in site order."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    diag = np.real(np.diagonal(mat))
    if diag.size != 2**n_sites:
        raise ValueError(f"state dim {diag.size} != 2**{n_sites}")
    return diag @ _excitations(n_sites)


def _step_unitary(unitaries: Sequence[np.ndarray]) -> np.ndarray:
    """The factors as one step unitary: the first acts first, so it is the rightmost."""
    return reduce(np.matmul, unitaries[::-1])


def _initial_state(initial: DensityMatrix | str, n_steps: int) -> DensityMatrix:
    """The state a run starts from; a bad label, then a negative step count, is refused."""
    if isinstance(initial, str):
        initial = DensityMatrix.from_basis_label(initial)
    if n_steps < 0:
        raise ValueError(f"need n_steps >= 0, got {n_steps}")
    return initial


def evolve_occupations(
    initial: DensityMatrix | str,
    unitaries: Sequence[np.ndarray],
    channel: PauliChannel | None,
    n_steps: int,
) -> np.ndarray:
    """Site occupations over time, shape (n_steps + 1, n_sites).

    Row 0 is the initial state; each later row follows one application of
    all unitaries (in the given order) and one channel round. Once per call,
    the factors are multiplied into one step unitary and the channel's map
    (eigenvalue table, Hadamard factors, flat XOR index) is built.
    """
    initial = _initial_state(initial, n_steps)
    n_sites = initial.n_qubits
    for u in unitaries:
        if u.shape != (initial.dim, initial.dim):
            raise ValueError(f"unitary shape {u.shape} != state dim {initial.dim}")
    if channel is not None and channel.n_qubits != n_sites:
        raise ValueError(f"channel acts on {channel.n_qubits} qubits, state on {n_sites}")
    step = _step_unitary(unitaries) if unitaries else np.eye(initial.dim)
    channel_map = None if channel is None else _pauli_map(channel.n_qubits, channel.terms)
    rho = initial.matrix
    del initial  # a state built here is freed once rho moves on
    out = np.empty((n_steps + 1, n_sites))
    out[0] = site_occupations(rho, n_sites)
    for row in range(1, n_steps + 1):
        # U rho U^dag as (U (U rho)^dag)^dag, so no conjugate of U is kept
        rho = (step @ (step @ rho).conj().T).conj().T
        if channel_map is not None:
            rho = channel_map(rho)
        out[row] = site_occupations(rho, n_sites)
    return out


def default_target_channel() -> PauliChannel:
    return PauliChannel([(0.95, "II"), (0.03, "XZ"), (0.02, "IY")])


def default_noise_channel() -> PauliChannel:
    return PauliChannel([(0.6, "II"), (0.4, "XX")])


@dataclass(frozen=True)
class BenchmarkConfig:
    target: PauliChannel
    noise: PauliChannel
    n_sites: int = 2
    omega0: float = 1.0
    coupling: float = 0.5
    dt: float = 0.05
    n_steps: int = 200
    initial: str = "10"
    encoder: str = "adaptive"
    node: str | None = None
    tol: float = 1e-6
    max_iters: int = 1000
    step_method: str = "trotter"


@dataclass(frozen=True)
class BenchmarkResult:
    config: BenchmarkConfig
    encoding: EncodingResult
    effective: PauliChannel
    times: np.ndarray
    target_occupations: np.ndarray
    encoded_occupations: np.ndarray
    max_gap: float


def run_benchmark(config: BenchmarkConfig) -> BenchmarkResult:
    """Evolve under the target channel and under its encoding, compare.

    Both runs share one step unitary, composed once, so `max_gap` isolates the
    decoherence mismatch left by the encoder. It is the product of the Trotter
    factors unless `step_method` opts in to the exact-exponential reference.
    """
    cfg = config
    if len(cfg.initial) != cfg.n_sites:
        raise ValueError(
            f"initial label {cfg.initial!r} has {len(cfg.initial)} sites, expected {cfg.n_sites}"
        )
    # checked before the encoder runs, so a bad chain, label or step count costs no encoding
    steps = (_step_unitary(trotter_step_unitaries(
        cfg.n_sites, cfg.omega0, cfg.coupling, cfg.dt, method=cfg.step_method
    )),)
    _initial_state(cfg.initial, cfg.n_steps)  # the state is dropped, not kept through both runs
    encoding = encode(
        cfg.target, cfg.noise,
        mode=cfg.encoder, node=cfg.node, tol=cfg.tol, max_iters=cfg.max_iters,
    )
    effective = effective_channel(encoding)
    reference = evolve_occupations(cfg.initial, steps, cfg.target, cfg.n_steps)
    encoded = evolve_occupations(cfg.initial, steps, effective, cfg.n_steps)
    return BenchmarkResult(
        config=cfg, encoding=encoding, effective=effective,
        times=np.arange(cfg.n_steps + 1) * cfg.dt,
        target_occupations=reference, encoded_occupations=encoded,
        max_gap=float(np.abs(reference - encoded).max()),
    )


def scale_channel_weights(channel: PauliChannel, factor: float) -> PauliChannel:
    """Scale non-identity weights by factor, absorbing the change into identity.

    Used when refining dt at fixed physical decoherence rate: the per-step
    error probabilities shrink proportionally to the step.
    """
    if not factor >= 0:
        raise ValueError(f"need factor >= 0, got {factor}")
    terms = []
    id_weight = 0.0
    for w, s in channel.terms:
        if s.is_identity():
            id_weight = w
        else:
            terms.append((w * factor, s))
            id_weight += w * (1.0 - factor)
    if id_weight < 0:
        raise ValueError(f"scaling by {factor} drives identity weight to {id_weight}")
    terms.append((id_weight, identity(channel.n_qubits)))
    return PauliChannel(terms)
