"""Choi states, Schatten distances and output-error certificates.

The Choi state of a channel E on dimension d is

    J(E) = (E x I)(|Omega><Omega|),   |Omega> = d**-0.5 sum_i |ii>,

normalized to unit trace. Channel action is recovered through the duality

    E(rho) = d * Tr_anc[ (I x rho^T) J(E) ],

and for finite p >= 1 the output error of two channels obeys the chain

    d**((1-2p)/p) ||DE(rho)||_p  <=  ||(I x rho^T) DJ||_p
                                 <=  d**(1/p) * exp((1-p) S_p(rho) / p) * ||DJ||_p
                                 <=  d**(1/p) * ||DJ||_p,

with DE = E_a - E_b, DJ = J_a - J_b and S_p the Renyi entropy of rho.
At p = inf only the direct bound ||DE(rho)||_inf <= d**2 ||DJ||_inf is
reported. Each check compares these p-th roots, never p-th powers, which
would underflow at large p.

For Pauli channels the certificate needs no Choi state. With vec stacking
rows, J = sum_P w_P v_P v_P^dag over the orthonormal v_P = vec(P) / sqrt(d)
(diagonal in the Bell basis), so ||DJ||_p = ||Dw||_p over the union of the
two supports. Since (I x rho^T) vec(P) = vec(P rho), the weighted operator
is B V^dag, where V has the columns v_P and B the columns
Dw_P vec(P rho) / sqrt(d). V is an isometry, so B V^dag and the d**2 x T
matrix B have the same singular values.

The two states the CLI can name need neither B nor any array of size d:

* A basis state |b><b|. P |b><b| P = |b ^ x_P><b ^ x_P|, so DE(rho) is
  diagonal, with the sum of Dw_P over the strings of X mask x at b ^ x.
  The columns of B with one X mask share the support vec(|b ^ x><b|), so
  B has one singular value per X mask, ||Dw over x_P = x||_2 / sqrt(d).
  S_p is 0.
* The maximally mixed state I/d. DE(I/d) = (sum Dw) I/d, so its p-norm is
  |sum Dw| / d * d**(1/p). The columns Dw_P vec(P) / d**1.5 of B are
  orthogonal with norms |Dw_P| / d, so the weighted distance is
  ||Dw||_p / d. S_p is n ln 2.

Both forms read only Dw, so they hold at any size whose d**2 = 4**n is a
finite float: up to CERTIFY_QUBIT_CAP = 511 qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import EIGENVALUE_FLOOR, DensityMatrix, PauliChannel, _check_basis_label, _pauli_sum
from .pauli import PauliString, _check_dense_size, monomial

__all__ = [
    "CERTIFY_QUBIT_CAP",
    "CHOI_QUBIT_CAP",
    "CertificateCheck",
    "CertificateReport",
    "apply_from_choi",
    "choi_state",
    "renyi_entropy",
    "schatten_norm",
    "theorem1_check",
]

# Larger channels are refused: a Choi state is a dense 4**n x 4**n matrix, and
# the certificate's column matrix B of a general dense state is 4**n x T.
CHOI_QUBIT_CAP = 6
# Larger channels are refused by every certificate: d**2 = 4**n overflows a float.
CERTIFY_QUBIT_CAP = 511

# multiplicative plus absolute slack applied to every certified bound
_REL_SLACK = 1e-9
_ABS_SLACK = 1e-12


def choi_state(channel: PauliChannel) -> np.ndarray:
    """Unit-trace Choi state of the channel, system factor first."""
    _check_dense_size(channel.n_qubits, "Choi matrix", CHOI_QUBIT_CAP)
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
    # J indexed (system i, ancilla c; system j, ancilla a), contracted with rho[c, a]
    return d * np.einsum("icja,ca->ij", choi.reshape(d, d, d, d), rho)


def schatten_norm(matrix: np.ndarray, p: float) -> float:
    """(sum_k s_k**p)**(1/p) over singular values; p = inf gives max s_k."""
    if not p >= 1:
        raise ValueError(f"Schatten order must satisfy p >= 1, got {p}")
    return _p_norm(np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False), p)


def _p_norm(values: np.ndarray, p: float) -> float:
    """(sum_k |v_k|**p)**(1/p); p = inf gives max |v_k|."""
    mag = np.abs(values)
    top = float(mag.max(initial=0.0))
    if math.isinf(p) or top == 0.0:
        return top
    # scaled by the largest value so that mag**p cannot underflow at large p
    return float(top * np.sum((mag / top) ** p) ** (1.0 / p))


def renyi_entropy(rho: np.ndarray | DensityMatrix, p: float) -> float:
    """S_p = ln(Tr rho**p) / (1 - p); limits p=1 (von Neumann), p=inf (min)."""
    if not p > 0:
        raise ValueError(f"Renyi order must be positive, got {p}")
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    # eigvalsh can return a finite spectrum for a matrix holding NaN or inf
    if not np.isfinite(mat).all():
        raise ValueError("state has a non-finite entry")
    eig = np.linalg.eigvalsh(mat)
    lo = eig.min()
    if not lo >= EIGENVALUE_FLOOR:
        raise ValueError(f"state has eigenvalue {lo:.3e} below {EIGENVALUE_FLOOR}")
    eig = np.clip(eig, 0.0, None)
    if math.isinf(p):
        entropy = -math.log(eig.max())
    elif p == 1:
        pos = eig[eig > 0]
        entropy = -np.sum(pos * np.log(pos))
    else:
        # ln Tr rho**p = p * ln ||eig||_p, whose power sum _p_norm scales by its largest term
        entropy = p / (1.0 - p) * math.log(_p_norm(eig, p))
    # a pure state's entropy is a negative factor times ln 1 = 0.0, that is -0.0;
    # adding 0.0 makes it 0.0 and leaves every other value as it is
    return float(entropy) + 0.0


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
    state: DensityMatrix | str,
    p: float,
) -> CertificateReport:
    """Evaluate the certificate chain for a pair of channels on a state.

    `state` is a basis label such as "0110", "mixed" for I/d, or a
    DensityMatrix. A label, "mixed", and a DensityMatrix that is exactly a
    basis projector or exactly I/d take the closed forms of the module
    docstring; any other DensityMatrix takes the d**2 x T column matrix B,
    refused above CHOI_QUBIT_CAP qubits.

    Every reported check must hold mathematically; `satisfied` only fails
    on a genuine violation beyond rounding slack.
    """
    if not p >= 1:
        raise ValueError(f"Schatten order must satisfy p >= 1, got {p}")
    n = channel_a.n_qubits
    if channel_b.n_qubits != n:
        raise ValueError(f"channels act on {n} and {channel_b.n_qubits} qubits")
    if n > CERTIFY_QUBIT_CAP:
        raise ValueError(
            f"refusing a {n}-qubit certificate: d**2 = 4**{n} overflows a float "
            f"(cap {CERTIFY_QUBIT_CAP})"
        )
    d = 2**n
    if isinstance(state, DensityMatrix):
        if state.dim != d:
            raise ValueError(f"dimension mismatch: channels {d}, state {state.dim}")
        state = _closed_form_state(state)
    elif state != "mixed":
        _check_basis_label(state)
        if len(state) != n:
            raise ValueError(
                f"basis label {state!r} has {len(state)} qubits, but the channels act on {n}"
            )

    delta_w = _weight_differences(channel_a, channel_b)
    choi_dist = _p_norm(np.fromiter(delta_w.values(), dtype=float, count=len(delta_w)), p)
    # the closed forms of the module docstring; the dense path only for other states
    if state == "mixed":
        out_dist = abs(math.fsum(delta_w.values())) / d * d ** (1.0 / p)
        weighted_dist = choi_dist / d
    elif isinstance(state, str):
        # b itself drops out: only which strings share an X mask matters
        by_x: dict[int, list[float]] = {}
        for s, dw in delta_w.items():
            by_x.setdefault(s.x_mask, []).append(dw)
        out_dist = _p_norm(np.array([math.fsum(g) for g in by_x.values()]), p)
        weighted_dist = _p_norm(np.array([math.hypot(*g) for g in by_x.values()]), p) / math.sqrt(d)
    else:
        out_dist, weighted_dist = _dense_distances(n, delta_w, state, p)

    checks = [
        CertificateCheck("output_vs_choi", out_dist, d * d * choi_dist)
    ]
    if math.isinf(p):
        renyi: float | None = None
    else:
        if isinstance(state, DensityMatrix):
            renyi = renyi_entropy(state, p)
        else:
            renyi = math.log(d) if state == "mixed" else 0.0
        # (1/p - 1) * S rather than (1 - p) * S / p, which overflows at large p
        entropy_bound = d ** (1.0 / p) * math.exp((1.0 / p - 1.0) * renyi) * choi_dist
        checks.append(CertificateCheck("weighted_vs_entropy", weighted_dist, entropy_bound))
        checks.append(
            CertificateCheck("entropy_vs_plain", entropy_bound, d ** (1.0 / p) * choi_dist)
        )
        checks.append(
            CertificateCheck(
                "output_vs_weighted", out_dist / d ** (2.0 - 1.0 / p), weighted_dist
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


def _weight_differences(
    channel_a: PauliChannel, channel_b: PauliChannel
) -> dict[PauliString, float]:
    """Dw = w_a - w_b over the union of the two supports: a's strings first, in
    its order, then the strings only b holds."""
    weights_b = {s: w for w, s in channel_b.terms}
    delta_w = {s: w - weights_b.pop(s, 0.0) for w, s in channel_a.terms}
    delta_w.update((s, -w) for s, w in weights_b.items())
    return delta_w


def _closed_form_state(rho: DensityMatrix) -> DensityMatrix | str:
    """"mixed" if rho is exactly I/d, the label of an exact basis projector, else
    rho itself; one pass over the d**2 entries."""
    m, d = rho.matrix, rho.dim
    diag = m.diagonal()
    nonzero = np.count_nonzero(m)
    if nonzero == d and (diag == 1.0 / d).all():
        return "mixed"
    k = int(diag.real.argmax())
    if nonzero == 1 and diag[k] == 1.0:
        return format(k, f"0{rho.n_qubits}b")
    return rho


def _dense_distances(
    n_qubits: int, delta_w: dict[PauliString, float], rho: DensityMatrix, p: float
) -> tuple[float, float]:
    """||DE(rho)||_p and the Schatten norm of the d**2 x T column matrix B."""
    _check_dense_size(n_qubits, "certificate column matrix", CHOI_QUBIT_CAP)
    d = rho.dim
    # E_a - E_b is the Pauli sum with weights Dw, applied once
    delta_out = _pauli_sum(((dw, s) for s, dw in delta_w.items()), rho.matrix)
    # column P of B is Dw_P vec(P rho) / sqrt(d), vec stacking rows
    columns = np.empty((d * d, len(delta_w)), dtype=complex)
    for k, (s, dw) in enumerate(delta_w.items()):
        cols, phases = monomial(s)
        columns[:, k] = (dw / math.sqrt(d)) * (phases[:, None] * rho.matrix[cols]).reshape(-1)
    return schatten_norm(delta_out, p), schatten_norm(columns, p)
