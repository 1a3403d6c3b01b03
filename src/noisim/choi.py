"""Choi states, Schatten distances and output-error certificates.

The Choi state of a channel E on dimension d is

    J(E) = (E x I)(|Omega><Omega|),   |Omega> = d**-0.5 sum_i |ii>,

normalized to unit trace. Channel action is recovered through the duality

    E(rho) = d * Tr_anc[ (I x rho^T) J(E) ],

and for finite p >= 1 the output error of two channels obeys the chain

    d**(1-2p) ||DE(rho)||_p^p  <=  ||(I x rho^T) DJ||_p^p
                               <=  d * exp((1-p) S_p(rho)) * ||DJ||_p^p
                               <=  d * ||DJ||_p^p,

with DE = E_a - E_b, DJ = J_a - J_b and S_p the Renyi entropy of rho.
At p = inf only the direct bound ||DE(rho)||_inf <= d**2 ||DJ||_inf is
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import DensityMatrix, PauliChannel, _apply_channel_raw
from .pauli import monomial

__all__ = [
    "CHOI_QUBIT_CAP",
    "CertificateCheck",
    "CertificateReport",
    "EIG_CLIP",
    "apply_from_choi",
    "choi_state",
    "renyi_entropy",
    "schatten_norm",
    "theorem1_check",
]

EIG_CLIP = -1e-12

# Choi states of larger channels are refused; each is a dense 4**n x 4**n matrix.
CHOI_QUBIT_CAP = 6

# multiplicative plus absolute slack applied to every certified bound
_REL_SLACK = 1e-9
_ABS_SLACK = 1e-12


def choi_state(channel: PauliChannel) -> np.ndarray:
    """Unit-trace Choi state of the channel, system factor first."""
    if channel.n_qubits > CHOI_QUBIT_CAP:
        raise ValueError(
            f"refusing a dense {channel.n_qubits}-qubit Choi state (cap {CHOI_QUBIT_CAP})"
        )
    dim = 2**channel.n_qubits
    rows = np.arange(dim)
    amplitude = 1 / math.sqrt(dim)  # of each |ii> in |Omega>
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for w, s in channel.terms:
        # (K x I)|Omega> has entries K[i, j] * amplitude at index (i, j), K = sqrt(w) P
        cols, phases = monomial(s)
        v = np.zeros(dim * dim, dtype=complex)
        v[rows * dim + cols] = math.sqrt(w) * phases * amplitude
        out += np.outer(v, v.conj())
    return (out + out.conj().T) / 2


def apply_from_choi(choi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """E(rho) = d * Tr_anc[(I x rho^T) J]; inverts `choi_state`."""
    d2 = choi.shape[0]
    d = math.isqrt(d2)
    if d * d != d2:
        raise ValueError(f"Choi dimension {d2} is not a perfect square")
    weighted = np.kron(np.eye(d), np.asarray(rho, dtype=complex).T) @ choi
    return d * np.einsum("iaja->ij", weighted.reshape(d, d, d, d))


def schatten_norm(matrix: np.ndarray, p: float) -> float:
    """(sum_k s_k**p)**(1/p) over singular values; p = inf gives max s_k."""
    if not p >= 1:
        raise ValueError(f"Schatten order must satisfy p >= 1, got {p}")
    sv = np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False)
    top = float(sv.max(initial=0.0))
    if math.isinf(p) or top == 0.0:
        return top
    # scaled by the largest value so that sv**p cannot underflow at large p
    return float(top * np.sum((sv / top) ** p) ** (1.0 / p))


def renyi_entropy(rho: np.ndarray | DensityMatrix, p: float) -> float:
    """S_p = ln(Tr rho**p) / (1 - p); limits p=1 (von Neumann), p=inf (min)."""
    if not p > 0:
        raise ValueError(f"Renyi order must be positive, got {p}")
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    eig = np.linalg.eigvalsh(mat)
    if eig.min() < EIG_CLIP:
        raise ValueError(f"state has eigenvalue {eig.min():.3e} below {EIG_CLIP}")
    eig = np.clip(eig, 0.0, None)
    if math.isinf(p):
        return float(-math.log(eig.max()))
    if p == 1:
        pos = eig[eig > 0]
        return float(-np.sum(pos * np.log(pos)))
    return float(math.log(float(np.sum(eig**p))) / (1.0 - p))


@dataclass(frozen=True, slots=True)
class CertificateCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + _REL_SLACK) + _ABS_SLACK


@dataclass(frozen=True, slots=True)
class CertificateReport:
    p: float
    dim: int
    output_distance: float
    choi_distance: float
    weighted_choi_distance: float
    renyi: float | None
    checks: tuple[CertificateCheck, ...]

    @property
    def satisfied(self) -> bool:
        return all(c.satisfied for c in self.checks)


def theorem1_check(
    channel_a: PauliChannel,
    channel_b: PauliChannel,
    rho: DensityMatrix,
    p: float,
) -> CertificateReport:
    """Evaluate the certificate chain for a pair of channels on a state.

    Every reported check must hold mathematically; `satisfied` only fails
    on a genuine violation beyond rounding slack.
    """
    if not p >= 1:
        raise ValueError(f"Schatten order must satisfy p >= 1, got {p}")
    da, db = 2**channel_a.n_qubits, 2**channel_b.n_qubits
    if da != db or da != rho.dim:
        raise ValueError(f"dimension mismatch: channels {da}/{db}, state {rho.dim}")
    d = da
    if not math.isinf(p) and (2.0 * p - 1.0) * channel_a.n_qubits >= 1024:
        raise ValueError(f"Schatten order p = {p} overflows d**(2p - 1) at d = {d}; use --p inf")

    delta_out = (
        _apply_channel_raw(channel_a, rho.matrix) - _apply_channel_raw(channel_b, rho.matrix)
    )
    delta_choi = choi_state(channel_a) - choi_state(channel_b)
    weighting = np.kron(np.eye(d), rho.matrix.T)

    out_dist = schatten_norm(delta_out, p)
    choi_dist = schatten_norm(delta_choi, p)
    weighted_dist = schatten_norm(weighting @ delta_choi, p)

    checks = [
        CertificateCheck("output_vs_choi", out_dist, d * d * choi_dist)
    ]
    if math.isinf(p):
        renyi: float | None = None
    else:
        renyi = renyi_entropy(rho, p)
        checks.append(
            CertificateCheck(
                "weighted_vs_entropy",
                weighted_dist**p,
                d * math.exp((1.0 - p) * renyi) * choi_dist**p,
            )
        )
        checks.append(
            CertificateCheck(
                "entropy_vs_plain",
                d * math.exp((1.0 - p) * renyi) * choi_dist**p,
                d * choi_dist**p,
            )
        )
        checks.append(
            CertificateCheck(
                "output_vs_weighted",
                out_dist**p / d ** (2.0 * p - 1.0),
                weighted_dist**p,
            )
        )
    return CertificateReport(
        p=p,
        dim=d,
        output_distance=out_dist,
        choi_distance=choi_dist,
        weighted_choi_distance=weighted_dist,
        renyi=renyi,
        checks=tuple(checks),
    )
