"""Iterative encoding of a target Pauli channel onto intrinsic noise.

One loop, two node rules. The loop keeps a residue ledger: the mass of
each target string still unaccounted for. Each iteration reads the worst
(largest) non-identity residue off the top of a lazy max-heap and stops
when it is at most tol. Otherwise it picks a node string and a mass m,
schedules the node (conjugation with probability m), and lets the hardware
noise dress it, which moves mass m * w(Q) onto (Q * node) for every noise
term Q. So

    fsum(residues) + encoded_mass == 1

holds throughout (weights of both channels sum to one).

Inside the loop a string is its packed key (`PauliString.key`), key 0 the identity.
Phases dropped, a product is one XOR (Aaronson and Gottesman, PRA 70,
052328 (2004)); the fixed rule's image table (w(Q), Q ^ node) is built once
per run. A key -> PauliString memo, seeded with the target's strings, builds
every other string once, when its key is first reached.

The identity string is exempt from targeting and from the convergence
test: identity mass is realized for free by doing nothing, so its ledger
entry only participates in conservation and in the adaptive mass budget.

Residues only go down (masses are positive, noise weights nonnegative), so
the heap holds one entry (-residue, text, key) per value a non-identity
string has taken; an entry whose residue the ledger no longer holds is
stale and dropped when it reaches the top. The top is then the worst
residue, ties going to the smallest text. A step pushes one entry per
image it changes and records only those ledger entries, so an iteration
costs O(images * log ledger), not O(ledger).

The fixed rule reuses a single node and takes the largest non-identity
residue among the node's images as the scheduled mass. When the noise
weights do not match the target ratios this deliberately overshoots and
residues go negative; the adaptive rule avoids that by re-deriving the
node each iteration from the worst residue and clamping the mass to the
remaining budget.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .channels import WEIGHT_SUM_ATOL, PauliChannel
from .pauli import PauliString, parse

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


@dataclass(frozen=True, slots=True, eq=False)
class EncodingStep:
    """One scheduled node, with the residue ledger after applying it.

    A step stores only the ledger entries it changed, `changes`, and links
    to the step before it, `previous`. `residues` replays the chain into the
    whole ledger, in the ledger's insertion order. A step without a
    predecessor holds its whole ledger, so `EncodingStep(i, node, mass,
    residues)` builds a step whose `residues` is that snapshot. Steps are
    equal when their iteration, node, mass and residues are.
    """

    iteration: int
    node: PauliString
    mass: float
    changes: tuple[tuple[PauliString, float], ...]
    previous: EncodingStep | None = field(default=None, repr=False)

    @property
    def residues(self) -> tuple[tuple[PauliString, float], ...]:
        if self.previous is None:
            return self.changes
        chain = []
        step: EncodingStep | None = self
        while step is not None:
            chain.append(step.changes)
            step = step.previous
        ledger: dict[PauliString, float] = {}
        for changes in reversed(chain):
            ledger.update(changes)
        return tuple(ledger.items())

    def _key(self) -> tuple:
        return self.iteration, self.node, self.mass, self.residues

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncodingStep):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        # copied or pickled as a standalone step: following `previous` would
        # recurse once per earlier step
        return EncodingStep, (self.iteration, self.node, self.mass, self.residues)


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


def _add_exactly(partials: list[float], x: float) -> None:
    """Add x to a running sum kept as Shewchuk's nonoverlapping partials.

    The partials sum exactly to every x added so far, so their fsum equals
    the fsum of those values bit for bit, in O(len(partials)) per call; the
    partials never number more than about 40 (one per 53 bits of exponent range).
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _images(noise: list[tuple[float, int]], node: int) -> list[tuple[float, int]]:
    """(w(Q), Q * node) for every packed noise term Q, in the noise's term order."""
    return [(w, q ^ node) for w, q in noise]


def _string(strings: dict[int, PauliString], n: int, key: int) -> PauliString:
    """The string of packed key `key` from the memo `strings`, built there on first use."""
    if key not in strings:
        strings[key] = PauliString(n, key & ((1 << n) - 1), key >> n)
    return strings[key]


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
    n = target.n_qubits
    strings = {s.key: s for _, s in target.terms}
    ledger = {k: w for k, (w, _) in zip(strings, target.terms)}
    noise_keys = [(w, q.key) for w, q in noise.terms]
    if mode == "fixed":
        if node is None:
            raise ValueError("fixed encoding needs a node string")
        node = parse(node) if isinstance(node, str) else node
        if node.n_qubits != n:
            raise ValueError(f"node acts on {node.n_qubits} qubits, target on {n}")
        if node.is_identity():
            raise ValueError("node must not be the identity string")
        node_key = node.key
        strings.setdefault(node_key, node)
        table = _images(noise_keys, node_key)
        images = [k for _, k in table if k]
    elif mode == "adaptive":
        # Q* is fixed by the noise; terms are sorted by text and max keeps the first tie
        w_star, q_star = max(noise_keys, key=lambda wq: wq[0])
    else:
        raise ValueError(f"unknown encoder mode {mode!r}")

    heap = [(-r, strings[k].text, k) for k, r in ledger.items() if k]
    heapq.heapify(heap)
    mass_partials: list[float] = []  # fsum(mass_partials) == fsum of the masses so far
    steps: list[EncodingStep] = []
    step = None
    while True:
        while heap and ledger[heap[0][2]] != -heap[0][0]:
            heapq.heappop(heap)  # stale: the string's residue has gone down since
        worst = -heap[0][0] if heap else 0.0
        if worst <= tol:
            reason = STOP_ALL_WITHIN_TOL
            break
        if len(steps) >= max_iters:
            reason = STOP_MAX_ITERS
            break
        if mode == "fixed":
            mass = max((ledger.get(k, 0.0) for k in images), default=0.0)
        else:
            # worst > tol >= 0, so some residue is pending and Q* maps the node onto it
            node_key = q_star ^ heap[0][2]
            table = _images(noise_keys, node_key)
            budget = 1.0 - math.fsum(mass_partials) - max(ledger.get(0, 0.0), 0.0)
            mass = min(worst / w_star, budget)
        if mass <= 0.0:
            reason = STOP_STALLED
            break
        _add_exactly(mass_partials, mass)
        changes = []
        for w, image in table:
            old = ledger.get(image)
            r = ledger[image] = (0.0 if old is None else old) - mass * w
            s = _string(strings, n, image)
            changes.append((s, r))
            # an unchanged residue keeps its entry; a second equal one would compare keys
            if r != old and image:
                heapq.heappush(heap, (-r, s.text, image))
        if step is None:
            changes = [(strings[k], r) for k, r in ledger.items()]
        step = EncodingStep(len(steps), _string(strings, n, node_key), mass, tuple(changes), step)
        steps.append(step)

    return EncodingResult(
        mode=mode,
        target=target,
        noise=noise,
        steps=tuple(steps),
        residues={strings[k]: r for k, r in ledger.items()},
        encoded_mass=math.fsum(mass_partials),
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
    n = result.target.n_qubits
    # the ledger holds every image, so their strings are taken from it
    strings = {s.key: s for s in result.residues}
    noise = [(w, q.key) for w, q in result.noise.terms]
    contribs: dict[int, list[float]] = {}
    for step in result.steps:
        for w, image in _images(noise, step.node.key):
            contribs.setdefault(image, []).append(step.mass * w)
    terms = [(math.fsum(parts), _string(strings, n, k)) for k, parts in contribs.items()]
    total = math.fsum(w for w, _ in terms)
    # the same tolerance PauliChannel applies to its weight sum; a NaN fails it
    if not total <= 1.0 + WEIGHT_SUM_ATOL:
        raise OverEncodedError(total)
    terms.append((max(1.0 - total, 0.0), _string(strings, n, 0)))
    return PauliChannel(terms)
