"""Invariant audits for encoding runs.

Two exact identities must survive floating-point execution:

  conservation     fsum(residues) + encoded_mass == 1
  decomposition    target(s) == residue(s) + effective(s)   for s != identity

The audits measure the defect of each and raise InvariantViolation when it
exceeds the tolerance, which the command line maps to its own exit code.
"""

from __future__ import annotations

import math

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
    """Return |fsum(residues) + encoded_mass - 1|, raising above CONSERVATION_ATOL."""
    defect = abs(
        math.fsum(list(result.residues.values()) + [result.encoded_mass]) - 1.0
    )
    if defect > CONSERVATION_ATOL:
        raise InvariantViolation(
            f"residues plus encoded mass differ from 1 by {defect:.3e} "
            f"(atol {CONSERVATION_ATOL:.1e})"
        )
    return defect


def check_decomposition(result: EncodingResult) -> float:
    """Return max_s |target(s) - residue(s) - effective(s)| over s != identity.

    The identity string is excluded: it absorbs the unscheduled remainder,
    which is deliberate, not a bookkeeping error.
    """
    effective = effective_channel(result)
    strings = set(result.target.support) | set(result.residues) | set(effective.support)
    defect = 0.0
    for s in strings:
        if s.is_identity():
            continue
        gap = abs(
            result.target.weight(s) - result.residues.get(s, 0.0) - effective.weight(s)
        )
        defect = max(defect, gap)
    if defect > CONSERVATION_ATOL:
        raise InvariantViolation(
            f"target/residue/effective decomposition off by {defect:.3e} "
            f"(atol {CONSERVATION_ATOL:.1e})"
        )
    return defect


def audit_encoding(result: EncodingResult) -> dict[str, float]:
    """Run every audit; raises InvariantViolation on the first failure."""
    return {
        "conservation_defect": check_conservation(result),
        "decomposition_defect": check_decomposition(result),
    }
