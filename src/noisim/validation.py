"""Invariant audits for encoding runs.

Two exact identities must survive floating-point execution:

  conservation     fsum(residues) + encoded_mass == 1
                   fsum(step masses) == encoded_mass
  decomposition    target(s) == residue(s) + effective(s)   for s != identity

The audits measure the defect of each and raise InvariantViolation when it
exceeds the tolerance or is NaN, which the command line maps to its own
exit code. Each compares as `not defect <= tolerance`, so a NaN fails it.
"""

from __future__ import annotations

import math

from .channels import PauliChannel
from .encoder import EncodingResult, effective_channel

__all__ = [
    "CONSERVATION_ATOL",
    "InvariantViolation",
    "audit_encoding",
    "check_conservation",
    "check_decomposition",
]

CONSERVATION_ATOL = 1e-10


class InvariantViolation(Exception):
    """An exact bookkeeping identity failed beyond rounding tolerance."""


def check_conservation(result: EncodingResult) -> float:
    """Return |fsum(residues) + encoded_mass - 1|, raising above CONSERVATION_ATOL or on NaN.

    It also raises when the step masses do not sum to encoded_mass (encode
    makes the two equal bit for bit), so a corrupt step fails here, before
    any realized channel is built from it.
    """
    try:
        drift = abs(math.fsum(step.mass for step in result.steps) - result.encoded_mass)
        defect = abs(math.fsum([*result.residues.values(), result.encoded_mass]) - 1.0)
    except (OverflowError, ValueError):  # a sum overflows, or holds both +inf and -inf
        drift = defect = math.nan
    for gap, what in ((drift, "step masses differ from the encoded mass"),
                      (defect, "residues plus encoded mass differ from 1")):
        if not gap <= CONSERVATION_ATOL:
            raise InvariantViolation(f"{what} by {gap:.3e} (atol {CONSERVATION_ATOL:.1e})")
    return defect


def check_decomposition(result: EncodingResult, effective: PauliChannel | None = None) -> float:
    """Return max_s |target(s) - residue(s) - effective(s)| over s != identity,
    or NaN if any of them is NaN.

    `effective` is the realized channel, built when not given. The identity
    string is excluded: it absorbs the unscheduled remainder, which is
    deliberate, not a bookkeeping error.
    """
    if effective is None:
        effective = effective_channel(result)
    # per packed key; key 0 is the identity
    target = {s.key: w for w, s in result.target.terms}
    residues = {s.key: r for s, r in result.residues.items()}
    realized = {s.key: w for w, s in effective.terms}
    defect = 0.0
    for k in (target.keys() | residues.keys() | realized.keys()) - {0}:
        gap = abs(target.get(k, 0.0) - residues.get(k, 0.0) - realized.get(k, 0.0))
        if not gap <= defect:  # larger, or NaN
            defect = gap
            if math.isnan(gap):
                break  # no later gap may replace it
    if not defect <= CONSERVATION_ATOL:
        raise InvariantViolation(
            f"target/residue/effective decomposition off by {defect:.3e} "
            f"(atol {CONSERVATION_ATOL:.1e})"
        )
    return defect


def audit_encoding(result: EncodingResult, effective: PauliChannel | None = None) -> dict[str, float]:
    """Run every audit; raises InvariantViolation on the first failure."""
    return {
        "conservation_defect": check_conservation(result),
        "decomposition_defect": check_decomposition(result, effective),
    }
