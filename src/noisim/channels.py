"""Density matrices, Pauli/Kraus channels and Lindblad generators.

The Lindblad right-hand side follows the sign convention

    d rho / dt = i [rho, H] + sum_k ( L_k rho L_k^dag
                                      - 1/2 L_k^dag L_k rho
                                      - 1/2 rho L_k^dag L_k ),

and the first-order Kraus truncation of a Lindblad step is

    K_0 = I - (i H + 1/2 sum_k L_k^dag L_k) dt,    K_k = sqrt(dt) L_k,

whose completeness defect ||sum K^dag K - I|| shrinks quadratically in dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .pauli import PauliString, identity, multiply, parse, to_matrix

__all__ = [
    "COMPLETENESS_ATOL",
    "EIGENVALUE_FLOOR",
    "HERMITICITY_ATOL",
    "TRACE_ATOL",
    "WEIGHT_SUM_ATOL",
    "DensityMatrix",
    "KrausChannel",
    "LindbladSpec",
    "PauliChannel",
    "apply_kraus",
    "apply_pauli_channel",
    "compose",
    "evolve_lindblad_rk4",
    "lindblad_rhs",
    "lindblad_to_kraus",
    "mix",
    "twirl",
]

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-9
WEIGHT_SUM_ATOL = 1e-12
COMPLETENESS_ATOL = 1e-10


class DensityMatrix:
    """A validated quantum state.

    Construction checks hermiticity (entrywise, 1e-10), unit trace (1e-10)
    and spectrum above -1e-9. The tolerances can be widened by callers that
    propagate states through deliberately truncated channels.
    """

    __slots__ = ("matrix",)

    def __init__(
        self,
        matrix: np.ndarray,
        *,
        herm_atol: float = HERMITICITY_ATOL,
        trace_atol: float = TRACE_ATOL,
        eig_floor: float = EIGENVALUE_FLOOR,
    ) -> None:
        arr = np.array(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"density matrix must be square, got {arr.shape}")
        herm = np.abs(arr - arr.conj().T).max()
        if herm > herm_atol:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = arr.trace()
        if abs(tr - 1.0) > trace_atol:
            raise ValueError(f"trace {tr!r} differs from 1 beyond {trace_atol}")
        lo = float(np.linalg.eigvalsh(arr).min())
        if lo < eig_floor:
            raise ValueError(f"negative eigenvalue {lo:.3e} below {eig_floor}")
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
    def from_statevector(cls, vec: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero state vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def from_basis_label(cls, label: str) -> "DensityMatrix":
        """Computational basis state |label><label|, site 1 leftmost."""
        if not label or set(label) - {"0", "1"}:
            raise ValueError(f"basis label must be a bitstring, got {label!r}")
        dim = 2 ** len(label)
        vec = np.zeros(dim, dtype=complex)
        vec[int(label, 2)] = 1.0
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class PauliChannel:
    """A probabilistic mixture of Pauli conjugations.

    Terms are stored canonically: deduplicated by string (weights fsum-ed),
    exact zeros dropped, sorted by text form. Weights must be nonnegative
    and sum to one within 1e-12.
    """

    __slots__ = ("n_qubits", "terms")

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

    @property
    def support(self) -> tuple[PauliString, ...]:
        return tuple(s for _, s in self.terms)

    def weight(self, string: PauliString) -> float:
        for w, s in self.terms:
            if s == string:
                return w
        return 0.0

    def as_kraus(self) -> "KrausChannel":
        ops = [math.sqrt(w) * to_matrix(s) for w, s in self.terms]
        return KrausChannel(ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliChannel):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.terms))

    def __repr__(self) -> str:
        inner = ", ".join(f"{w:.6g}*{s.text}" for w, s in self.terms)
        return f"PauliChannel({inner})"


class KrausChannel:
    """A channel given by Kraus operators.

    The completeness defect ||sum K^dag K - I||_F is computed on
    construction and must stay below `completeness_atol`; first-order
    Lindblad truncations pass a wider tolerance of order dt**2.
    """

    __slots__ = ("operators", "dim", "completeness_defect")

    def __init__(
        self,
        operators: Sequence[np.ndarray],
        *,
        completeness_atol: float = COMPLETENESS_ATOL,
    ) -> None:
        ops = tuple(np.array(op, dtype=complex) for op in operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for op in ops:
            if op.ndim != 2 or op.shape != (dim, dim):
                raise ValueError(f"operator shape {op.shape} != ({dim}, {dim})")
        acc = sum(op.conj().T @ op for op in ops)
        defect = float(np.linalg.norm(acc - np.eye(dim)))
        if defect > completeness_atol:
            raise ValueError(
                f"completeness defect {defect:.3e} exceeds {completeness_atol:.3e}"
            )
        for op in ops:
            op.setflags(write=False)
        self.operators = ops
        self.dim = dim
        self.completeness_defect = defect

    def __repr__(self) -> str:
        return f"KrausChannel({len(self.operators)} ops, dim={self.dim})"


@dataclass(eq=False)
class LindbladSpec:
    """Hamiltonian plus jump operators defining a Lindblad generator."""

    hamiltonian: np.ndarray
    jump_operators: tuple[np.ndarray, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        h = np.array(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"Hamiltonian must be square, got {h.shape}")
        herm = np.abs(h - h.conj().T).max()
        if herm > HERMITICITY_ATOL:
            raise ValueError(f"Hamiltonian not Hermitian: defect {herm:.3e}")
        jumps = tuple(np.array(j, dtype=complex) for j in self.jump_operators)
        for j in jumps:
            if j.shape != h.shape:
                raise ValueError(f"jump shape {j.shape} != {h.shape}")
        h.setflags(write=False)
        for j in jumps:
            j.setflags(write=False)
        self.hamiltonian = h
        self.jump_operators = jumps

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def apply_pauli_channel(channel: PauliChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_i w_i P_i rho P_i; trace preserving and unital."""
    if rho.dim != 2**channel.n_qubits:
        raise ValueError(
            f"state dim {rho.dim} incompatible with {channel.n_qubits} qubits"
        )
    return DensityMatrix(_apply_channel_raw(channel, rho.matrix))


def _apply_channel_raw(channel: PauliChannel | KrausChannel, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag on a bare matrix, hermitized; no validation."""
    out = np.zeros_like(rho)
    if isinstance(channel, PauliChannel):
        for w, s in channel.terms:
            m = to_matrix(s)
            out += w * (m @ rho @ m)
    else:
        for op in channel.operators:
            out += op @ rho @ op.conj().T
    return (out + out.conj().T) / 2


def apply_kraus(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_k K_k rho K_k^dag; trace preserved within the completeness defect."""
    if rho.dim != channel.dim:
        raise ValueError(f"state dim {rho.dim} != channel dim {channel.dim}")
    slack = 2 * channel.completeness_defect
    return DensityMatrix(
        _apply_channel_raw(channel, rho.matrix),
        trace_atol=TRACE_ATOL + slack,
        eig_floor=EIGENVALUE_FLOOR - slack,
    )


def compose(first: PauliChannel, second: PauliChannel) -> PauliChannel:
    """Channel composition second after first.

    Pauli channels commute, so the order only matters for reading. Phases
    cancel in conjugation, leaving a convolution of the weight distributions
    over string products.
    """
    if first.n_qubits != second.n_qubits:
        raise ValueError("qubit count mismatch in composition")
    terms = []
    for w2, s2 in second.terms:
        for w1, s1 in first.terms:
            terms.append((w2 * w1, multiply(s2, s1).string))
    return PauliChannel(terms)


def mix(pairs: Sequence[tuple[float, PauliChannel]]) -> PauliChannel:
    """Convex mixture of Pauli channels; probabilities must sum to one."""
    if not pairs:
        raise ValueError("nothing to mix")
    total = math.fsum(p for p, _ in pairs)
    if abs(total - 1.0) > WEIGHT_SUM_ATOL:
        raise ValueError(f"mixture probabilities sum to {total!r}, not 1")
    terms = []
    for p, ch in pairs:
        if p < 0:
            raise ValueError(f"negative mixture probability {p}")
        for w, s in ch.terms:
            terms.append((p * w, s))
    return PauliChannel(terms)


def twirl(channel: KrausChannel) -> PauliChannel:
    """Pauli twirl: w_P = 4**-n sum_k |Tr(P K_k)|**2.

    The weights of a channel that is already a Pauli mixture are recovered
    unchanged (the twirl is a projection onto Pauli channels).
    """
    n = channel.dim.bit_length() - 1
    if 1 << n != channel.dim:
        raise ValueError(f"dimension {channel.dim} is not a power of two")
    terms = []
    norm = 4.0**n
    for x in range(1 << n):
        for z in range(1 << n):
            s = PauliString(n, x, z)
            m = to_matrix(s)
            w = sum(abs(np.trace(m @ op)) ** 2 for op in channel.operators) / norm
            terms.append((w, s))
    return PauliChannel(terms)


def lindblad_rhs(rho: DensityMatrix | np.ndarray, spec: LindbladSpec) -> np.ndarray:
    """Right-hand side of the master equation; traceless and Hermitian."""
    r = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    h = spec.hamiltonian
    out = 1j * (r @ h - h @ r)
    for L in spec.jump_operators:
        LdL = L.conj().T @ L
        out += L @ r @ L.conj().T - 0.5 * (LdL @ r + r @ LdL)
    return out


def evolve_lindblad_rk4(
    rho0: DensityMatrix, spec: LindbladSpec, dt: float, steps: int
) -> list[DensityMatrix]:
    """Fixed-step RK4 integration of the master equation.

    Each step re-hermitizes via rho <- (rho + rho^dag)/2. Accuracy is the
    caller's responsibility through dt; this is the reference integrator,
    not an adaptive solver.
    """
    if dt <= 0 or steps < 0:
        raise ValueError("need dt > 0 and steps >= 0")
    if rho0.dim != spec.dim:
        raise ValueError(f"state dim {rho0.dim} != spec dim {spec.dim}")
    traj = [rho0]
    r = np.array(rho0.matrix)
    for _ in range(steps):
        k1 = lindblad_rhs(r, spec)
        k2 = lindblad_rhs(r + 0.5 * dt * k1, spec)
        k3 = lindblad_rhs(r + 0.5 * dt * k2, spec)
        k4 = lindblad_rhs(r + dt * k3, spec)
        r = r + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        r = (r + r.conj().T) / 2
        traj.append(DensityMatrix(r, trace_atol=1e-8, eig_floor=-1e-8))
    return traj


def lindblad_to_kraus(spec: LindbladSpec, dt: float) -> tuple[KrausChannel, float]:
    """First-order Kraus truncation of one Lindblad step of length dt.

    Returns the channel together with its completeness defect
    ||sum K^dag K - I||_F, which scales as dt**2.
    """
    if dt <= 0:
        raise ValueError(f"need dt > 0, got {dt}")
    h = spec.hamiltonian
    dim = spec.dim
    anti = sum(
        (L.conj().T @ L for L in spec.jump_operators),
        np.zeros((dim, dim), dtype=complex),
    )
    k0 = np.eye(dim, dtype=complex) - (1j * h + 0.5 * anti) * dt
    ops = [k0] + [math.sqrt(dt) * L for L in spec.jump_operators]
    acc = sum(op.conj().T @ op for op in ops)
    defect = float(np.linalg.norm(acc - np.eye(dim)))
    channel = KrausChannel(ops, completeness_atol=max(COMPLETENESS_ATOL, 2 * defect))
    return channel, defect
