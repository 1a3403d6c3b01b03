"""Exciton chain evolution with interleaved Pauli decoherence.

The chain Hamiltonian on n sites with open boundaries is

    H = omega0/2 * sum_q sigma_z(q) + g * sum_q (sp(q) sm(q+1) + sm(q) sp(q+1)),

with sp = [[0, 0], [1, 0]], so basis label bit 1 marks an excited site and
the occupation of site q is the expectation of (I - Z_q)/2. Site 1 is the
leftmost label character.

A simulation step applies the step factors in order, then one round of
the decoherence channel. Channel weights therefore play the role of
per-step probabilities; halving dt while keeping a fixed physical
decoherence rate means halving the non-identity weights.

Under Jordan-Wigner the chain is free fermions. With the Majoranas

    m_{2q-1} = Z_1 ... Z_{q-1} X_q,    m_{2q} = Z_1 ... Z_{q-1} Y_q,

H = (i/4) sum_ab A_ab m_a m_b for one real antisymmetric 2n x 2n generator
A: a 2 x 2 block per site, A_{2q-1,2q} = -omega0, and a 4 x 4 block per
bond (q, q + 1), A_{2q,2q+1} = -g and A_{2q-1,2q+2} = g, each entry with
its negative across the diagonal. So U = exp(-i H t) only rotates the
Majoranas, U^dag m_a U = sum_c O_ac m_c with O = exp(t A) real
orthogonal, and so does each Trotter factor, the exponential of A's site
blocks or of one of its two layers of bond blocks. A Pauli channel maps
each bilinear i m_a m_b, itself a Pauli string, to its eigenvalue times
itself: lam_ab = sum_P w_P s_Pa s_Pb, where s_Pa is -1 if P anticommutes
with m_a and +1 otherwise. So the correlation matrix
Gamma_ab = Tr(rho i m_a m_b) evolves on its own, as

    Gamma <- lam o (O Gamma O^T)

(o the entrywise product; Terhal and DiVincenzo, PRA 65, 032325 (2002);
Bravyi and Koenig, QIC 12, 925 (2012)), and site q's occupation is
(1 + Gamma_{2q-1,2q}) / 2. `trotter_step_unitaries` returns each factor as
its O, `evolve_occupations` evolves Gamma from a basis label. A Trotter
step's O is banded, so a step costs O(n**2); the exact step's O is dense,
so a step costs O(n**3), one product from each side of Gamma. Chains above
CHAIN_SITE_CAP sites are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .channels import PauliChannel, _check_basis_label
from .choi import _weight_differences
from .encoder import EncodingResult, effective_channel, encode
from .pauli import identity
from .validation import InvariantViolation

__all__ = [
    "BenchmarkConfig",
    "BenchmarkResult",
    "CHAIN_SITE_CAP",
    "EXACT_ORTHOGONALITY_BOUND",
    "EXACT_SITE_CAP",
    "GAP_SLACK_PER_STEP",
    "default_noise_channel",
    "default_target_channel",
    "evolve_occupations",
    "run_benchmark",
    "scale_channel_weights",
    "trotter_step_unitaries",
]

# Gamma, a step's O and a channel's lam are 2n x 2n floats: 8 MiB each at the cap
CHAIN_SITE_CAP = 512
# kept because the benchmark harness's perfbench/tracing.py imports it to pick a step
# method by chain size; the exact step runs at every size
EXACT_SITE_CAP = CHAIN_SITE_CAP
# rounding allowance per step in the benchmark's gap bound
GAP_SLACK_PER_STEP = 1e-12
# the largest entry of |O O^T - I| accepted from the exact step. Rounding
# leaves under 1e-14 at ordinary phases, up to 512 sites; eigh's eigenphases
# err by about phase * 1e-16, so at 8 sites the defect is 4e-9 at phase 3e11,
# 2e-5 at 3e13 and 0.5 at 3e16
EXACT_ORTHOGONALITY_BOUND = 1e-9
# A's unit blocks: a site's (m_{2q-1}, m_{2q}) and a bond's (m_{2q-1}, ..., m_{2q+2})
_SITE = np.array([[0, -1], [1, 0]], dtype=float)
_BOND = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)
# rows of O per product in a banded step
_BAND_ROWS = 16
# channel terms per block of the sign table S: 1024 x 2n
_TERM_BLOCK = 1024


def _check_sites(n_sites: int) -> None:
    if n_sites < 1:
        raise ValueError(f"need at least one site, got {n_sites}")
    if n_sites > CHAIN_SITE_CAP:
        raise ValueError(f"refusing a {n_sites}-site chain (cap {CHAIN_SITE_CAP})")


def _generator_parts(omega0: float, g: float) -> tuple[tuple[float, np.ndarray, int], ...]:
    """A's three parts as (rate, unit block, first site): the site blocks, then
    the bond blocks from site 1 and from site 2 (module docstring). Each unit
    block J squares to -I, so exp(t rate J) = cos(t rate) I + sin(t rate) J."""
    return (omega0, _SITE, 0), (g, _BOND, 0), (g, _BOND, 1)


def _layer(n_sites: int, block: np.ndarray, first: int, fill: float = 1.0) -> np.ndarray:
    """The 2n x 2n matrix with `block` on sites first + 1, ..., every
    len(block) / 2 sites from there, and fill times the identity where no
    block fits."""
    o, k = np.diag(np.full(2 * n_sites, fill)), len(block)
    for start in range(2 * first, 2 * n_sites - k + 1, k):
        o[start:start + k, start:start + k] = block
    return o


def _generator(n_sites: int, omega0: float, g: float) -> np.ndarray:
    """A, the sum of its parts."""
    return sum(rate * _layer(n_sites, unit, first, 0.0)
               for rate, unit, first in _generator_parts(omega0, g))


def trotter_step_unitaries(
    n_sites: int,
    omega0: float,
    g: float,
    dt: float,
    *,
    method: str = "trotter",
) -> tuple[np.ndarray, ...]:
    """The factors of one time step, applied left to right, each as the real
    orthogonal 2n x 2n matrix O = exp(dt A_part) that rotates the Majoranas
    (module docstring).

    "trotter" (the default) splits the generator A into its site blocks and
    its odd- and even-bond layers. The blocks of a part act on disjoint
    Majoranas, so each factor is exact: its blocks are exp(dt block) and it
    is the identity elsewhere. Up to two sites the product is the exact
    step. "exact_exponential" returns the single full-step factor
    exp(dt A). Chains above CHAIN_SITE_CAP sites, and phases that overflow
    a float at this chain size, are refused before any matrix is built:
    dt times the largest onsite energy n_sites * omega0 / 2, times omega0
    and g, and for the exact step times the largest single-particle energy.
    An exact step whose O is off orthogonal by more than
    EXACT_ORTHOGONALITY_BOUND in any entry of O O^T - I, as happens at
    phases from about 1e11 on, is refused.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"need finite dt > 0, got {dt}")
    if not (math.isfinite(omega0) and math.isfinite(g)):
        raise ValueError(f"need finite omega0 and coupling g, got {omega0} and {g}")
    _check_sites(n_sites)
    if method not in ("trotter", "exact_exponential"):
        raise ValueError(f"unknown step method {method!r}")
    # the largest phases: of the onsite energy n_sites * omega0 / 2, of a block's entries,
    # and of the exact step's single-particle energies, |omega0| + 2 |g| cos(pi / (n + 1))
    band = 2 * math.cos(math.pi / (n_sites + 1)) if method == "exact_exponential" else 0.0
    phases = (0.5 * abs(omega0) * n_sites * dt, abs(omega0) * dt + abs(g) * dt * band, g * dt)
    if not all(map(math.isfinite, phases)):
        raise ValueError(
            f"omega0 * dt or coupling * dt overflows at {n_sites} sites: "
            f"omega0={omega0!r}, coupling={g!r}, dt={dt!r}"
        )
    if method == "exact_exponential":
        # dt A = -i v diag(w) v^dag, from one eigh of the Hermitian i dt A
        w, v = np.linalg.eigh(1j * dt * _generator(n_sites, omega0, g))
        o = ((v * np.exp(-1j * w)) @ v.conj().T).real
        defect = float(np.abs(o @ o.T - np.eye(len(o))).max())
        if not defect <= EXACT_ORTHOGONALITY_BOUND:
            raise ValueError(
                f"exact step at phase {phases[1]:.6g} (dt times the largest single-particle "
                f"energy) is not orthogonal: |O O^T - I| = {defect:.3g} > "
                f"EXACT_ORTHOGONALITY_BOUND = {EXACT_ORTHOGONALITY_BOUND:g}"
            )
        return (o,)
    return tuple(
        _layer(n_sites, math.cos(rate * dt) * np.eye(len(unit)) + math.sin(rate * dt) * unit, first)
        for rate, unit, first in _generator_parts(omega0, g)
    )


def _initial_correlations(initial: str, n_steps: int) -> np.ndarray:
    """Gamma of the basis state a run starts from, read off its bits; a bad
    label, then a negative step count, is refused."""
    _check_basis_label(initial)
    _check_sites(len(initial))
    if n_steps < 0:
        raise ValueError(f"need n_steps >= 0, got {n_steps}")
    # i m_{2q-1} m_{2q} = -Z_q, which reads 2b - 1 on bit b
    bits = np.frombuffer(initial.encode(), dtype=np.uint8) - ord("0")
    gamma = np.zeros((2 * len(initial),) * 2)
    pairs = np.arange(0, len(gamma), 2)
    gamma[pairs, pairs + 1] = 2.0 * bits - 1.0
    return gamma - gamma.T


def _bilinear_eigenvalues(channel: PauliChannel) -> np.ndarray:
    """lam = S^T diag(w) S: S[P, a] is -1 where string P anticommutes with m_a.

    Read off the packed keys x | z << n: P anticommutes with the Z on each
    site before q where it has an X or a Y, with X_q where it has a Z or a Y
    on q, and with Y_q where it has an X or a Z there. S is built for
    _TERM_BLOCK terms at a time, so it stays small whatever the channel's size.
    """
    n = channel.n_qubits
    size = (2 * n + 7) // 8
    lam = np.zeros((2 * n, 2 * n))
    for first in range(0, len(channel.terms), _TERM_BLOCK):
        terms = channel.terms[first:first + _TERM_BLOCK]
        keys = b"".join(s.key.to_bytes(size, "little") for _, s in terms)
        bits = np.unpackbits(
            np.frombuffer(keys, dtype=np.uint8).reshape(len(terms), size),
            axis=1, count=2 * n, bitorder="little",
        )
        x, z = bits[:, :n], bits[:, n:]
        before = np.cumsum(x, axis=1, dtype=np.uint8) - x  # wraps, but only its parity is read
        flips = np.empty((len(terms), 2 * n), dtype=np.uint8)
        flips[:, 0::2] = before + z
        flips[:, 1::2] = before + x + z
        signs = 1.0 - 2.0 * (flips & 1)
        lam += (signs.T * np.array([w for w, _ in terms])) @ signs
    return lam


def _step_rotation(factors: Sequence[np.ndarray]) -> np.ndarray:
    """The factors as one step's O: the first acts first, so it is the rightmost."""
    return reduce(np.matmul, factors[::-1])


def _conjugation(o: np.ndarray) -> Callable[[np.ndarray], None]:
    """gamma -> O gamma O^T, in place. Where O is zero off a band |a - c| <= w,
    each block of _BAND_ROWS rows (columns) of O multiplies only the rows
    (columns) of gamma that its band reaches. When every block's band reaches
    every row, as for the exact step's dense O, each side is one product."""
    m = len(o)
    a, c = np.nonzero(o)
    w = int(np.abs(a - c).max(initial=0))
    if w >= (m - 1) // _BAND_ROWS * _BAND_ROWS:  # the last block's band reaches row 0
        bands = [(slice(0, m), slice(0, m))]
    else:
        bands = [(slice(r, r + _BAND_ROWS), slice(max(r - w, 0), r + _BAND_ROWS + w))
                 for r in range(0, m, _BAND_ROWS)]
    left = [(rows, cols, o[rows, cols].copy()) for rows, cols in bands]
    right = [(rows, cols, o[rows, cols].T.copy()) for rows, cols in bands]
    half = np.empty((m, m))

    def conjugate(gamma: np.ndarray) -> None:
        for rows, cols, block in left:
            np.matmul(block, gamma[cols], out=half[rows])
        for rows, cols, block in right:
            np.matmul(half[:, cols], block, out=gamma[:, rows])

    return conjugate


def evolve_occupations(
    initial: str,
    unitaries: Sequence[np.ndarray],
    channel: PauliChannel | None,
    n_steps: int,
) -> np.ndarray:
    """Site occupations over time, shape (n_steps + 1, n_sites).

    `initial` is a basis label, `unitaries` are step factors as
    `trotter_step_unitaries` returns them. Row 0 is the initial
    state; each later row follows one application of all factors (in the
    given order) and one channel round. Once per call, the factors are
    multiplied into one O and the channel's lam is built; a step is then
    Gamma <- lam o (O Gamma O^T).
    """
    gamma = _initial_correlations(initial, n_steps)
    m = len(gamma)
    for o in unitaries:
        if o.shape != (m, m):
            raise ValueError(f"step factor shape {o.shape} != ({m}, {m}) for {m // 2} sites")
    if channel is not None and 2 * channel.n_qubits != m:
        raise ValueError(f"channel acts on {channel.n_qubits} qubits, state on {m // 2}")
    step = _conjugation(_step_rotation(unitaries)) if unitaries else None
    scale = None if channel is None else _bilinear_eigenvalues(channel)
    pairs = (np.arange(0, m, 2), np.arange(1, m, 2))
    out = np.empty((n_steps + 1, m // 2))
    out[0] = gamma[pairs]
    for row in range(1, n_steps + 1):
        if step is not None:
            step(gamma)
        if scale is not None:
            gamma *= scale
        out[row] = gamma[pairs]
    out += 1.0
    out *= 0.5
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
    # ||w_target - w_effective||_1 over both supports; row t's gap is at most t times half of it
    weight_distance: float | None = None


def run_benchmark(config: BenchmarkConfig) -> BenchmarkResult:
    """Evolve under the target channel and under its encoding, compare.

    Both runs share one step rotation, composed once, so `max_gap` isolates
    the decoherence mismatch left by the encoder. It is the product of the
    Trotter factors unless `step_method` opts in to the exact-exponential
    reference.

    Every row is checked against its bound: both runs apply the same
    unitary, a channel never increases trace distance, and two Pauli
    channels whose weights differ by delta in l1 are delta apart in diamond
    norm, so after t steps the states are at most t * delta apart in trace
    norm, and an occupation at most t * delta / 2. A row above that, plus
    GAP_SLACK_PER_STEP per step for rounding, raises InvariantViolation.
    """
    cfg = config
    if len(cfg.initial) != cfg.n_sites:
        raise ValueError(
            f"initial label {cfg.initial!r} has {len(cfg.initial)} sites, expected {cfg.n_sites}"
        )
    # checked before the encoder runs, so a bad chain, label, step count or time costs no encoding
    steps = (_step_rotation(trotter_step_unitaries(
        cfg.n_sites, cfg.omega0, cfg.coupling, cfg.dt, method=cfg.step_method
    )),)
    _initial_correlations(cfg.initial, cfg.n_steps)
    try:  # the last row's time; a step count too large for a float overflows too
        last = cfg.n_steps * cfg.dt
    except OverflowError:
        last = math.inf
    if not math.isfinite(last):
        raise ValueError(f"n_steps * dt overflows: n_steps={cfg.n_steps}, dt={cfg.dt!r}")
    encoding = encode(
        cfg.target, cfg.noise,
        mode=cfg.encoder, node=cfg.node, tol=cfg.tol, max_iters=cfg.max_iters,
    )
    effective = effective_channel(encoding)
    reference = evolve_occupations(cfg.initial, steps, cfg.target, cfg.n_steps)
    encoded = evolve_occupations(cfg.initial, steps, effective, cfg.n_steps)
    gaps = np.abs(reference - encoded).max(axis=1)
    delta = math.fsum(map(abs, _weight_differences(cfg.target, effective).values()))
    bounds = np.arange(cfg.n_steps + 1) * (0.5 * delta + GAP_SLACK_PER_STEP)
    if not (gaps <= bounds).all():  # a NaN gap fails too
        t = int(np.argmin(gaps <= bounds))
        raise InvariantViolation(
            f"occupation gap {gaps[t]:.6g} at step {t} exceeds its bound {bounds[t]:.6g} "
            f"(target and realized weights differ by {delta:.6g} in l1)"
        )
    return BenchmarkResult(
        config=cfg, encoding=encoding, effective=effective,
        times=np.arange(cfg.n_steps + 1) * cfg.dt,
        target_occupations=reference, encoded_occupations=encoded,
        max_gap=float(gaps.max()), weight_distance=delta,
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
