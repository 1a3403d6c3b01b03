"""Iterative encoding of a target Pauli channel onto intrinsic noise.

One loop, two node rules. The loop keeps a residue ledger: the mass of
each target string still unaccounted for. Each iteration scans the ledger
once for the worst (largest) non-identity residue and stops when it is at
most tol. Otherwise it picks a node string and a mass m, schedules the
node (conjugation with probability m), and lets the hardware noise dress
it, which moves mass m * w(Q) onto (Q * node) for every noise term Q. So

    fsum(residues) + encoded_mass == 1

holds throughout (weights of both channels sum to one). A node's image
table, the pairs (w(Q), Q * node), is built once per node: once per run
for the fixed rule, once per distinct node for the realized channel.

The identity string is exempt from targeting and from the convergence
test: identity mass is realized for free by doing nothing, so its ledger
entry only participates in conservation and in the adaptive mass budget.

The fixed rule reuses a single node and takes the largest non-identity
residue among the node's images as the scheduled mass. When the noise
weights do not match the target ratios this deliberately overshoots and
residues go negative; the adaptive rule avoids that by re-deriving the
node each iteration from the worst residue and clamping the mass to the
remaining budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .channels import WEIGHT_SUM_ATOL, PauliChannel
from .pauli import PauliString, identity, multiply, parse

__all__ = [
    "STOP_ALL_WITHIN_TOL",
    "STOP_MAX_ITERS",
    "STOP_STALLED",
    "EncodingResult",
    "EncodingStep",
    "OverEncodedError",
    "effective_channel",
    "encode",
    "encode_adaptive",
    "encode_fixed",
]

STOP_ALL_WITHIN_TOL = "all_within_tol"
STOP_MAX_ITERS = "max_iters"
STOP_STALLED = "stalled"


class OverEncodedError(ValueError):
    """Scheduled mass exceeds unity; the schedule is not a channel."""

    def __init__(self, encoded_mass: float) -> None:
        self.encoded_mass = encoded_mass
        self.over_mass = encoded_mass - 1.0
        super().__init__(
            f"scheduled mass {encoded_mass!r} exceeds 1 by {self.over_mass:.3e}; "
            "the fixed encoder can overshoot, rerun with a looser tol, fewer "
            "iterations, or the adaptive encoder"
        )


@dataclass(frozen=True, slots=True)
class EncodingStep:
    """One scheduled node, with the residue ledger after applying it."""

    iteration: int
    node: PauliString
    mass: float
    residues: tuple[tuple[PauliString, float], ...]


@dataclass(frozen=True, slots=True)
class EncodingResult:
    """Outcome of an encoding run.

    `residues` maps every touched string (identity included) to its final
    ledger value; `steps` is the schedule in execution order.
    """

    mode: str
    target: PauliChannel
    noise: PauliChannel
    steps: tuple[EncodingStep, ...]
    residues: Mapping[PauliString, float]
    encoded_mass: float
    stop_reason: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "residues", MappingProxyType(dict(self.residues)))

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def converged(self) -> bool:
        return self.stop_reason == STOP_ALL_WITHIN_TOL

    @property
    def max_residue(self) -> float:
        return _worst(self.residues)

    @property
    def min_residue(self) -> float:
        return min((r for s, r in self.residues.items() if not s.is_identity()), default=0.0)

    def __repr__(self) -> str:
        return (
            f"EncodingResult(mode={self.mode!r}, iterations={self.iterations}, "
            f"encoded_mass={self.encoded_mass:.6g}, stop_reason={self.stop_reason!r})"
        )


def _check_inputs(target: PauliChannel, noise: PauliChannel, tol: float, max_iters: int) -> None:
    if target.n_qubits != noise.n_qubits:
        raise ValueError(
            f"target acts on {target.n_qubits} qubits, noise on {noise.n_qubits}"
        )
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")


def _worst(ledger: Mapping[PauliString, float]) -> float:
    # identity exempt; an empty ledger has nothing pending
    return max((r for s, r in ledger.items() if not s.is_identity()), default=0.0)


def _tie_break(ledger: Mapping[PauliString, float], worst: float) -> PauliString:
    # the non-identity string whose residue is `worst`, ties to the smallest text
    return min((s for s, r in ledger.items() if r == worst and not s.is_identity()),
               key=lambda s: s.text)


def _images(noise: PauliChannel, node: PauliString) -> list[tuple[float, PauliString]]:
    """(w(Q), Q * node) for every noise term Q, in the noise's term order."""
    return [(w, multiply(q, node).string) for w, q in noise.terms]


def encode(
    target: PauliChannel,
    noise: PauliChannel,
    *,
    mode: str = "adaptive",
    node: PauliString | str | None = None,
    tol: float = 1e-6,
    max_iters: int = 1000,
) -> EncodingResult:
    """Schedule nodes until every non-identity residue is at most tol.

    `mode` picks the node rule: "fixed" reuses `node` every iteration,
    "adaptive" re-derives it from the worst residue and ignores `node`.
    The run stops with STOP_ALL_WITHIN_TOL, STOP_MAX_ITERS, or
    STOP_STALLED when the rule finds no positive mass to schedule.
    """
    _check_inputs(target, noise, tol, max_iters)
    if mode == "fixed":
        if node is None:
            raise ValueError("fixed encoding needs a node string")
        node = parse(node) if isinstance(node, str) else node
        if node.n_qubits != target.n_qubits:
            raise ValueError(f"node acts on {node.n_qubits} qubits, target on {target.n_qubits}")
        if node.is_identity():
            raise ValueError("node must not be the identity string")
        table = _images(noise, node)
        images = [s for _, s in table if not s.is_identity()]
    elif mode == "adaptive":
        # Q* is fixed by the noise; terms are sorted by text and max keeps the first tie
        w_star, q_star = max(noise.terms, key=lambda wq: wq[0])
        id_string = identity(target.n_qubits)
    else:
        raise ValueError(f"unknown encoder mode {mode!r}")

    ledger = {s: w for w, s in target.terms}
    masses: list[float] = []
    steps: list[EncodingStep] = []
    while True:
        worst = _worst(ledger)
        if worst <= tol:
            reason = STOP_ALL_WITHIN_TOL
            break
        if len(steps) >= max_iters:
            reason = STOP_MAX_ITERS
            break
        if mode == "fixed":
            mass = max((ledger.get(s, 0.0) for s in images), default=0.0)
        else:
            # worst > tol >= 0, so some residue is pending and Q* maps the node onto it
            node = multiply(q_star, _tie_break(ledger, worst)).string
            table = _images(noise, node)
            budget = 1.0 - math.fsum(masses) - max(ledger.get(id_string, 0.0), 0.0)
            mass = min(worst / w_star, budget)
        if mass <= 0.0:
            reason = STOP_STALLED
            break
        masses.append(mass)
        for w, image in table:
            ledger[image] = ledger.get(image, 0.0) - mass * w
        steps.append(EncodingStep(len(steps), node, mass, tuple(ledger.items())))

    return EncodingResult(
        mode=mode,
        target=target,
        noise=noise,
        steps=tuple(steps),
        residues=ledger,
        encoded_mass=math.fsum(masses),
        stop_reason=reason,
    )


def encode_fixed(
    target: PauliChannel,
    noise: PauliChannel,
    node: PauliString | str,
    *,
    tol: float = 1e-6,
    max_iters: int = 1000,
) -> EncodingResult:
    """Repeatedly schedule one node until residues drop below tol.

    Per iteration the mass is the largest positive residue among the
    non-identity images {Q * node} of the node under the noise support.
    No budget clamp is applied; with mismatched weights the total can pass
    unity, which `effective_channel` rejects.
    """
    return encode(target, noise, mode="fixed", node=node, tol=tol, max_iters=max_iters)


def encode_adaptive(
    target: PauliChannel,
    noise: PauliChannel,
    *,
    tol: float = 1e-6,
    max_iters: int = 1000,
) -> EncodingResult:
    """Re-derive the node each iteration from the largest residue.

    Picks the pending string s* with the largest residue (ties broken by
    text order), the noise term Q* with the largest weight (same
    tie-break), and schedules node = Q* * s* so that Q* maps the node back
    onto s*. The mass min(residue(s*) / w(Q*), remaining budget) settles
    s* exactly whenever the budget allows and can never push the total
    past unity.
    """
    return encode(target, noise, mode="adaptive", tol=tol, max_iters=max_iters)


def effective_channel(result: EncodingResult) -> PauliChannel:
    """Channel actually realized by a schedule under the given noise.

    Each scheduled step contributes mass * w(Q) to (Q * node) per noise
    term; unscheduled mass 1 - encoded_mass idles as identity. Per-string
    contributions are fsum-ed in schedule order, so equal schedules give
    bitwise-equal channels.
    """
    tables: dict[PauliString, list[tuple[float, PauliString]]] = {}
    contribs: dict[PauliString, list[float]] = {}
    for step in result.steps:
        if step.node not in tables:
            tables[step.node] = _images(result.noise, step.node)
        for w, image in tables[step.node]:
            contribs.setdefault(image, []).append(step.mass * w)
    terms = [(math.fsum(parts), s) for s, parts in contribs.items()]
    total = math.fsum(w for w, _ in terms)
    # the same tolerance PauliChannel applies to its weight sum
    if total > 1.0 + WEIGHT_SUM_ATOL:
        raise OverEncodedError(total)
    terms.append((max(1.0 - total, 0.0), identity(result.target.n_qubits)))
    return PauliChannel(terms)
