import dataclasses
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noisim import validation
from noisim.channels import PauliChannel
from noisim.cli import EXIT_INVARIANT, main
from noisim.encoder import OverEncodedError, effective_channel, encode, encode_adaptive
from noisim.serialize import save_channel
from noisim.validation import (
    InvariantViolation,
    audit_encoding,
    check_conservation,
    check_decomposition,
)

from helpers import decomposition_oracle, effective_oracle, shift_residue, tie_heavy_encodings

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


@given(tie_heavy_encodings, st.sampled_from(["fixed", "adaptive"]), st.sampled_from([0.0, 1e-3]))
@settings(max_examples=150, deadline=None)
def test_decomposition_matches_string_keyed_oracle(channels, mode, shift):
    target, noise, node = channels
    result = encode(target, noise, mode=mode, node=node, tol=0.0, max_iters=40)
    if effective_oracle(result) is None:
        return  # over-encoded: there is no realized channel to audit against
    effective = effective_channel(result)
    if shift and any(not s.is_identity() for s in result.residues):
        result = shift_residue(result, shift, onto_identity=True)
    want = decomposition_oracle(result, effective)
    with pytest.MonkeyPatch.context() as patch:
        # no tolerance, so a defect is returned rather than raised
        patch.setattr(validation, "CONSERVATION_ATOL", math.inf)
        assert check_decomposition(result, effective).hex() == want.hex()


# a non-finite value, or a finite shift of either sign at least ten times the tolerance
corruptions = st.sampled_from([math.nan, math.inf, -math.inf]) | st.builds(
    math.copysign, st.floats(1e-9, 1e300), st.sampled_from([1.0, -1.0]))


@given(tie_heavy_encodings, st.sampled_from(["fixed", "adaptive"]),
       st.sampled_from(["residue", "mass", "step-mass", "inf-pair"]), st.integers(0, 63),
       corruptions)
@settings(max_examples=150, deadline=None)
def test_every_corruption_fails_the_audits_and_exits_three(channels, mode, where, pick, shift):
    target, noise, node = channels
    result = encode(target, noise, mode=mode, node=node, tol=0.0, max_iters=40)
    residues = dict(result.residues)
    strings = list(residues)
    corrupted = strings[pick % len(strings)]
    mass, steps = result.encoded_mass, list(result.steps)
    if where == "residue":
        residues[corrupted] += shift
    elif where == "mass":
        mass += shift
    elif where == "step-mass":
        assume(steps)
        i = pick % len(steps)
        steps[i] = dataclasses.replace(steps[i], mass=steps[i].mass + shift)
    else:  # fsum refuses a sum that holds both
        assume(len(strings) > 1)
        residues[strings[0]], residues[strings[-1]] = math.inf, -math.inf
    broken = dataclasses.replace(result, residues=residues, encoded_mass=mass, steps=tuple(steps))
    with pytest.raises(InvariantViolation):
        audit_encoding(broken)
    try:
        effective = effective_channel(result)
    except OverEncodedError:  # no realized channel to audit against
        effective = None
    if where == "residue" and not corrupted.is_identity() and effective is not None:
        with pytest.raises(InvariantViolation, match="decomposition"):
            check_decomposition(broken, effective)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        paths = [str(Path(tmp) / name) for name in ("target.json", "noise.json", "enc.json")]
        save_channel(target, paths[0])
        save_channel(noise, paths[1])
        patch.setattr("noisim.cli.encode", lambda *args, **kwargs: broken)
        assert main(["encode", "--target", paths[0], "--noise", paths[1], "--out", paths[2]]) == (
            EXIT_INVARIANT)
