import pytest

from noisim.channels import PauliChannel
from noisim.encoder import encode_adaptive
from noisim.validation import (
    InvariantViolation,
    audit_encoding,
    check_conservation,
    check_decomposition,
)

from helpers import shift_residue

FOUR_WAY = [(0.25, "YI"), (0.25, "ZX"), (0.25, "XZ"), (0.25, "IY")]
SYM_NOISE = [(0.2, "XX"), (0.2, "YY"), (0.2, "ZZ"), (0.4, "II")]


def _run():
    return encode_adaptive(PauliChannel(FOUR_WAY), PauliChannel(SYM_NOISE), tol=0.1)


def test_audits_pass_on_a_real_run():
    defects = audit_encoding(_run())
    assert defects["conservation_defect"] <= 1e-10
    assert defects["decomposition_defect"] <= 1e-10


def test_conservation_violation_raises():
    # residues plus mass no longer sum to 1
    with pytest.raises(InvariantViolation, match="differ from 1"):
        check_conservation(shift_residue(_run(), 1e-6))


def test_decomposition_violation_raises_while_conservation_holds():
    broken = shift_residue(_run(), -1e-6, onto_identity=True)
    assert check_conservation(broken) <= 1e-10
    with pytest.raises(InvariantViolation, match="decomposition off by 1.000e-06"):
        check_decomposition(broken)
