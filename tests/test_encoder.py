import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from noisim.channels import WEIGHT_SUM_ATOL, PauliChannel
from noisim.encoder import (
    STOP_ALL_WITHIN_TOL,
    STOP_MAX_ITERS,
    STOP_STALLED,
    EncodingResult,
    EncodingStep,
    OverEncodedError,
    effective_channel,
    encode,
    encode_adaptive,
    encode_fixed,
)
from noisim import encoder
from noisim.pauli import PauliString, identity, multiply, parse
from noisim.serialize import encoding_to_dict

from helpers import effective_oracle, random_channel_terms, scanning_encode, tie_heavy_encodings

# four-way symmetric target over the XZ noise orbit, with identity-heavy noise
FOUR_WAY = [(0.25, "YI"), (0.25, "ZX"), (0.25, "XZ"), (0.25, "IY")]
SYM_NOISE = [(0.2, "XX"), (0.2, "YY"), (0.2, "ZZ"), (0.4, "II")]

# expected fixed-node trajectories, derived once with exact rational arithmetic
FIXED_XZ = [Fraction(3, 20), Fraction(7, 100), Fraction(3, 500),
            Fraction(-113, 2500), Fraction(-1077, 12500)]
FIXED_PARTNER = [Fraction(1, 5), Fraction(4, 25), Fraction(16, 125),
                 Fraction(64, 625), Fraction(256, 3125)]
FIXED_MASSES = [Fraction(1, 4), Fraction(1, 5), Fraction(4, 25),
                Fraction(16, 125), Fraction(64, 625)]


def _residue(step, text):
    return dict((s.text, r) for s, r in step.residues)[text]


def test_fixed_trajectory_matches_rational_oracle():
    result = encode_fixed(
        PauliChannel(FOUR_WAY), PauliChannel(SYM_NOISE), parse("XZ"), tol=0.1
    )
    assert result.iterations == 5
    assert result.stop_reason == STOP_ALL_WITHIN_TOL
    assert abs(result.encoded_mass - Fraction(2101, 2500)) < 1e-12
    for step, mass in zip(result.steps, FIXED_MASSES):
        assert step.node == parse("XZ")
        assert abs(step.mass - mass) < 1e-12
    for step, xz, partner in zip(result.steps, FIXED_XZ, FIXED_PARTNER):
        assert abs(_residue(step, "XZ") - xz) < 1e-12
        for text in ("IY", "ZX", "YI"):
            assert abs(_residue(step, text) - partner) < 1e-12
    # the node over-encodes: its final residue is negative
    assert result.min_residue == pytest.approx(float(Fraction(-1077, 12500)))
    assert result.residues[parse("XZ")] == result.min_residue


def test_adaptive_trajectory_matches_rational_oracle():
    result = encode_adaptive(PauliChannel(FOUR_WAY), PauliChannel(SYM_NOISE), tol=0.1)
    assert result.iterations == 2
    assert result.stop_reason == STOP_ALL_WITHIN_TOL
    assert [(s.iteration, s.node.text) for s in result.steps] == [(0, "IY"), (1, "XZ")]
    assert abs(result.steps[0].mass - Fraction(5, 8)) < 1e-12
    assert abs(result.steps[1].mass - Fraction(5, 16)) < 1e-12
    assert abs(result.encoded_mass - Fraction(15, 16)) < 1e-12
    expected = {"IY": Fraction(-1, 16), "XZ": 0, "YI": Fraction(1, 16), "ZX": Fraction(1, 16)}
    for text, value in expected.items():
        assert abs(result.residues[parse(text)] - value) < 1e-12


def test_adaptive_breaks_exact_ties_by_text():
    # ZX, XZ and IY tie exactly at 0.2; Q* is XX, so the node is XX * IY
    target = PauliChannel([(0.4, "II"), (0.2, "ZX"), (0.2, "XZ"), (0.2, "IY")])
    noise = PauliChannel([(0.3, "II"), (0.7, "XX")])
    q_star_iy = multiply(parse("XX"), parse("IY")).string
    result = encode_adaptive(target, noise, tol=1e-6)
    assert result.steps[0].node == q_star_iy
    assert result.steps[0].mass == 0.2 / 0.7
    # the tie-break never picks the identity, even when its residue ties and sorts first
    target = PauliChannel([(0.2, "II"), (0.2, "ZX"), (0.2, "XZ"), (0.2, "IY"),
                           (0.1, "XI"), (0.1, "YY")])
    assert encode_adaptive(target, noise, tol=1e-6).steps[0].node == q_star_iy


def test_adaptive_beats_fixed_on_worst_residue():
    fixed = encode_fixed(
        PauliChannel(FOUR_WAY), PauliChannel(SYM_NOISE), parse("XZ"), tol=0.1
    )
    adaptive = encode_adaptive(PauliChannel(FOUR_WAY), PauliChannel(SYM_NOISE), tol=0.1)
    assert adaptive.min_residue > fixed.min_residue


def test_fixed_can_pass_unity_and_effective_refuses():
    result = encode_fixed(
        PauliChannel(FOUR_WAY), PauliChannel(SYM_NOISE), parse("XZ"),
        tol=0.0, max_iters=60,
    )
    assert result.stop_reason == STOP_MAX_ITERS
    assert result.encoded_mass > 1.2
    with pytest.raises(OverEncodedError) as err:
        effective_channel(result)
    assert err.value.over_mass == pytest.approx(result.encoded_mass - 1.0)


def test_effective_refuses_mass_just_past_unity():
    # 1 + 5e-10 is past the channel weight-sum tolerance, so the realized
    # channel is over-encoded, not merely a malformed channel
    target = PauliChannel(FOUR_WAY)
    noise = PauliChannel(SYM_NOISE)
    masses = (0.5, 0.5 + 5e-10)
    steps = tuple(EncodingStep(i, parse("XZ"), m, ()) for i, m in enumerate(masses))
    result = EncodingResult(
        "fixed", target, noise, steps, {}, math.fsum(masses), STOP_MAX_ITERS
    )
    with pytest.raises(OverEncodedError) as err:
        effective_channel(result)
    assert err.value.over_mass == pytest.approx(5e-10, rel=1e-3)


def test_effective_refuses_a_nan_step_mass():
    # a NaN mass makes the realized total NaN, which no weight sum may be
    steps = (EncodingStep(0, parse("XZ"), math.nan, ()),)
    result = EncodingResult(
        "fixed", PauliChannel(FOUR_WAY), PauliChannel(SYM_NOISE), steps, {}, math.nan,
        STOP_MAX_ITERS,
    )
    with pytest.raises(OverEncodedError) as err:
        effective_channel(result)
    assert math.isnan(err.value.encoded_mass)


def test_effective_channel_of_adaptive_run():
    result = encode_adaptive(PauliChannel(FOUR_WAY), PauliChannel(SYM_NOISE), tol=0.1)
    eff = effective_channel(result)
    expected = {"II": 0.0625, "IY": 0.3125, "XZ": 0.25, "YI": 0.1875, "ZX": 0.1875}
    assert {s.text for s in eff.support} == set(expected)
    for text, w in expected.items():
        assert eff.weight(parse(text)) == pytest.approx(w, abs=1e-12)


def test_one_shot_when_noise_ratio_matches():
    target = PauliChannel([(0.95, "II"), (0.03, "XZ"), (0.02, "IY")])
    noise = PauliChannel([(0.6, "II"), (0.4, "XX")])
    result = encode_adaptive(target, noise, tol=1e-6)
    assert result.iterations == 1
    assert result.steps[0].node == parse("XZ")
    assert result.steps[0].mass == pytest.approx(0.05)
    eff = effective_channel(result)
    for w, s in target.terms:
        assert eff.weight(s) == pytest.approx(w, abs=1e-12)


def test_zero_iterations_when_already_within_tol():
    target = PauliChannel([(0.95, "II"), (0.03, "XZ"), (0.02, "IY")])
    noise = PauliChannel([(0.6, "II"), (0.4, "XX")])
    for result in (
        encode_adaptive(target, noise, tol=0.1),
        encode_fixed(target, noise, parse("XZ"), tol=0.1),
    ):
        assert result.iterations == 0
        assert result.stop_reason == STOP_ALL_WITHIN_TOL
        assert result.encoded_mass == 0.0
        assert effective_channel(result).terms == ((1.0, parse("II")),)


def test_identity_residue_is_exempt():
    # nothing to do for the 0.9 identity weight; it must not block convergence
    target = PauliChannel([(0.9, "II"), (0.05, "XZ"), (0.05, "IY")])
    noise = PauliChannel([(0.5, "II"), (0.5, "XX")])
    result = encode_adaptive(target, noise, tol=1e-9)
    assert result.converged
    assert result.iterations == 1
    assert result.residues[parse("II")] == 0.9


def test_fixed_stalls_without_positive_image_residue():
    target = PauliChannel([(0.5, "YY"), (0.5, "II")])
    noise = PauliChannel([(0.5, "XX"), (0.5, "II")])
    result = encode_fixed(target, noise, parse("XZ"), tol=1e-6)
    assert result.stop_reason == STOP_STALLED
    assert result.iterations == 0


def test_adaptive_stalls_when_budget_exhausted():
    # noise sends most mass to IY but the target wants it all on XZ
    target = PauliChannel([(0.95, "II"), (0.05, "XZ")])
    noise = PauliChannel([(0.6, "XX"), (0.4, "II")])
    result = encode_adaptive(target, noise, tol=1e-6)
    assert result.stop_reason == STOP_STALLED
    assert result.encoded_mass == pytest.approx(0.05)
    assert result.residues[parse("XZ")] == pytest.approx(0.02)
    assert result.residues[parse("IY")] == pytest.approx(-0.02)
    eff = effective_channel(result)
    assert eff.weight(parse("XZ")) == pytest.approx(0.03)
    assert eff.weight(parse("IY")) == pytest.approx(0.02)


def test_input_validation():
    target = PauliChannel(FOUR_WAY)
    noise = PauliChannel(SYM_NOISE)
    with pytest.raises(ValueError):
        encode_fixed(target, noise, parse("II"))
    with pytest.raises(ValueError):
        encode_fixed(target, noise, parse("X"))
    with pytest.raises(ValueError):
        encode_fixed(target, noise, parse("XZ"), tol=-1.0)
    with pytest.raises(ValueError):
        encode_adaptive(target, noise, max_iters=-1)
    with pytest.raises(ValueError):
        encode_adaptive(target, PauliChannel([(1.0, "X")]))
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            encode_adaptive(target, noise, tol=tol)
    with pytest.raises(ValueError):
        encode(target, noise, mode="best")
    with pytest.raises(ValueError):
        encode(target, noise, mode="fixed")


def test_last_snapshot_equals_final_residues():
    for mode in ("fixed", "adaptive"):
        result = encode(
            PauliChannel(FOUR_WAY), PauliChannel(SYM_NOISE), mode=mode, node="XZ", tol=0.1
        )
        assert result.mode == mode
        assert result.iterations > 0
        assert dict(result.steps[-1].residues) == dict(result.residues)


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds, st.sampled_from(["fixed", "adaptive"]))
@settings(max_examples=80, deadline=None)
def test_random_runs_conserve_mass_and_decompose(seed, mode):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    target = PauliChannel(random_channel_terms(rng, n))
    noise = PauliChannel(random_channel_terms(rng, n))
    if mode == "fixed":
        nonid = [t for t in [p.text for p in target.support] if set(t) != {"I"}]
        node_pool = nonid or ["X" * n]
        result = encode_fixed(
            target, noise, parse(node_pool[0]), tol=1e-3, max_iters=30
        )
    else:
        result = encode_adaptive(target, noise, tol=1e-3, max_iters=30)
    total = math.fsum(list(result.residues.values()) + [result.encoded_mass])
    assert abs(total - 1.0) < 1e-10
    assert result.encoded_mass >= 0.0
    if result.encoded_mass <= 1.0 + WEIGHT_SUM_ATOL:
        eff = effective_channel(result)
        assert all(w >= 0.0 for w, _ in eff.terms)
        for s in set(target.support) | set(eff.support):
            if s.is_identity():
                continue
            gap = target.weight(s) - result.residues.get(s, 0.0) - eff.weight(s)
            assert abs(gap) < 1e-10


def test_fixed_run_builds_its_image_table_once(monkeypatch):
    calls = []
    images = encoder._images

    def counting_images(noise, node):
        calls.append(node)
        return images(noise, node)

    monkeypatch.setattr(encoder, "_images", counting_images)
    result = encode_fixed(PauliChannel(FOUR_WAY), PauliChannel(SYM_NOISE), parse("XZ"), tol=0.1)
    assert result.iterations == 5
    # one table of packed images for the whole run, not one per step
    xz = parse("XZ")
    assert calls == [xz.x_mask | xz.z_mask << 2]


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
def test_encode_builds_each_string_once(monkeypatch, mode):
    target = PauliChannel([(0.4, "II"), (0.3, "XZ"), (0.2, "XY"), (0.1, "ZI")])
    noise = PauliChannel([(0.5, "II"), (0.2, "XI"), (0.2, "IZ"), (0.1, "YY")])
    built = []
    post_init = PauliString.__post_init__

    def counting_post_init(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(PauliString, "__post_init__", counting_post_init)
    result = encode(target, noise, mode=mode, node="XZ", tol=1e-3, max_iters=6)
    effective_channel(result)
    monkeypatch.undo()
    # one string per ledger entry the target does not hold, built when first reached;
    # the node and the identity are target strings here
    new = set(result.residues) - set(target.support)
    assert len(new) == 3
    assert sorted(s.text for s in built) == sorted(s.text for s in new)


def _bits(result):
    """Every float of a run as its exact hex text, so -0.0 and 0.0 differ."""
    return (
        result.stop_reason,
        result.encoded_mass.hex(),
        [(s.node, s.mass.hex(), [(t, r.hex()) for t, r in s.residues]) for s in result.steps],
        [(t, r.hex()) for t, r in result.residues.items()],
    )


@given(tie_heavy_encodings, st.sampled_from(["fixed", "adaptive"]))
@settings(max_examples=150, deadline=None)
def test_encode_matches_scanning_oracle_bit_for_bit(channels, mode):
    target, noise, node = channels
    got = encode(target, noise, mode=mode, node=node, tol=0.0, max_iters=40)
    want = scanning_encode(target, noise, mode, parse(node), tol=0.0, max_iters=40)
    assert _bits(got) == _bits(want)


def _check_effective(result):
    """effective_channel equals the PauliString-keyed oracle bit for bit, or both refuse."""
    want = effective_oracle(result)
    if want is None:
        with pytest.raises(OverEncodedError):
            effective_channel(result)
    else:
        got = effective_channel(result).terms
        assert [(w.hex(), s, s.text) for w, s in got] == [(w.hex(), s, s.text) for w, s in want]


@given(tie_heavy_encodings, st.sampled_from(["fixed", "adaptive"]))
@settings(max_examples=150, deadline=None)
def test_effective_channel_matches_string_keyed_oracle(channels, mode):
    target, noise, node = channels
    _check_effective(encode(target, noise, mode=mode, node=node, tol=0.0, max_iters=40))


def test_a_40_qubit_encode_matches_the_scanning_oracle():
    # packed keys x | z << 40 are 80 bits wide; the target lies on the noise orbit
    # of the node, so the images of one step land on the strings of another
    rng = np.random.default_rng(40)
    node, a, b, c = (parse("".join(rng.choice(list("IXYZ"), 40))) for _ in range(4))
    orbit = [node] + [multiply(q, node).string for q in (a, b, c, multiply(a, b).string)]
    weights = (0.6, *(k / 25 for k in (2, 2, 3, 2, 1)))
    target = PauliChannel(zip(weights, [identity(40), *orbit]))
    noise = PauliChannel([(k / 8, s) for k, s in zip((3, 2, 2, 1), (identity(40), a, b, c))])
    for mode in ("fixed", "adaptive"):
        got = encode(target, noise, mode=mode, node=node, tol=0.0, max_iters=40)
        want = scanning_encode(target, noise, mode, node, tol=0.0, max_iters=40)
        assert got.iterations >= 3 and _bits(got) == _bits(want)
        _check_effective(got)


@given(tie_heavy_encodings, st.sampled_from(["fixed", "adaptive"]))
@settings(max_examples=150, deadline=None)
def test_steps_store_only_their_changes(channels, mode):
    target, noise, node = channels
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        # the loop reads the worst residue off its heap, never from a ledger scan
        patch.setattr(encoder, "_worst", lambda ledger: calls.append(ledger) or 0.0)
        result = encode(target, noise, mode=mode, node=node, tol=0.0, max_iters=40)
    assert calls == []
    assert all(len(step.changes) <= len(noise.terms) for step in result.steps[1:])
    written = encoding_to_dict(result)["steps"]
    for step, data in zip(result.steps, written, strict=True):
        assert list(data["residues"].items()) == [(p.text, r) for p, r in step.residues]
        # a chained step equals the step built from its whole snapshot
        whole = EncodingStep(step.iteration, step.node, step.mass, step.residues)
        assert step == whole and hash(step) == hash(whole)


def test_a_late_step_copies_and_pickles_as_its_snapshot():
    node, s = parse("XZ"), parse("IY")
    step = EncodingStep(0, node, 0.1, ((s, 0.0),))
    for i in range(1, 3000):
        step = EncodingStep(i, node, 0.1, ((s, -0.1 * i),), step)
    for twin in (pickle.loads(pickle.dumps(step)), copy.deepcopy(step), copy.copy(step)):
        assert twin == step and twin.previous is None


# masses of very different sizes: m * 2**e down to the subnormals, and plain floats
mixed_magnitudes = st.one_of(
    st.builds(lambda m, e: m * 2.0**e, st.floats(0.5, 1.0), st.integers(-1074, 0)),
    st.floats(-1e300, 1e300, allow_nan=False),
)


@given(st.lists(mixed_magnitudes, max_size=60))
@settings(max_examples=300, deadline=None)
def test_running_partials_sum_as_fsum_bit_for_bit(values):
    partials = []
    for k, x in enumerate(values, start=1):
        encoder._add_exactly(partials, x)
        total = math.fsum(partials)
        assert total == math.fsum(values[:k]), (k, values[:k], partials)
        assert math.copysign(1.0, total) == math.copysign(1.0, math.fsum(values[:k]))
