"""Golden output bytes of the deterministic CLI commands.

Each case runs one command in-process and pins the sha256 of every file it
writes. The inputs are the criterion-9 fixture, one 16-qubit cluster whose
orbit has 2**12 members, and 10-qubit encodes, whose strings fill two
four-qubit text chunks and half of a third. `certify` and `benchmark` are
left out: they go through LAPACK, whose last bits can differ between builds.
"""

import hashlib
import json

import pytest

from noisim.cli import EXIT_OK, main

TARGET = {"terms": [
    {"string": "II", "weight": 0.95}, {"string": "XZ", "weight": 0.03},
    {"string": "IY", "weight": 0.02}]}
NOISE = {"terms": [{"string": "II", "weight": 0.6}, {"string": "XX", "weight": 0.4}]}

# 10 qubits; every non-identity noise string has a letter past qubit 8
NOISE10 = {"terms": [
    {"string": "IIIIIIIIII", "weight": 0.55}, {"string": "XIIIZIIIIY", "weight": 0.2},
    {"string": "IZIIIIXIYI", "weight": 0.15}, {"string": "IIIYIIIIZX", "weight": 0.1}]}
# realized by scheduling XYZIIIIZYX, IIIIIXXIIZ and ZIIIIIIIIY with masses
# 0.1, 0.04 and 0.02 under NOISE10
TARGET10 = {"terms": [{"string": s, "weight": w} for s, w in [
    ("IIIIIIIIII", 0.84), ("XYZIIIIZYX", 0.055), ("IIIIIXXIIZ", 0.022),
    ("IYZIZIIZYZ", 0.02), ("XXZIIIXZIX", 0.015), ("ZIIIIIIIIY", 0.011),
    ("XYZYIIIZXI", 0.01), ("XIIIZXXIIX", 0.008), ("IZIIIXIIYZ", 0.006),
    ("IIIYIXXIZY", 0.004), ("YIIIZIIIII", 0.004), ("ZZIIIIXIYY", 0.003),
    ("ZIIYIIIIZZ", 0.002)]]}
# the images of node XYZIIIIZYX under NOISE10, weighted off its ratios so
# the fixed encoder overshoots some of them
FIXED10 = {"terms": [
    {"string": "IIIIIIIIII", "weight": 0.9}, {"string": "XYZIIIIZYX", "weight": 0.05},
    {"string": "IYZIZIIZYZ", "weight": 0.025}, {"string": "XXZIIIXZIX", "weight": 0.015},
    {"string": "XYZYIIIZXI", "weight": 0.01}]}

# twelve independent 16-qubit generators, two of their products and the
# identity, so the orbit has 2**12 members
NODE16 = "IXIXYZZIXXZZZZYZ"
GENERATORS16 = [
    "ZIYXIIIZYXXIXYIY", "ZZIIZZXZIYXIXYXY", "IIXIIZIXYIZZZIXI", "ZYXXZIIZZIIZXXIY",
    "YIIZIZIIIIXZZZXX", "YZYXIYIIYZYIYIIZ", "YYYIZYYXYIIXYYII", "IZIXZXIXZYXZXYYZ",
    "YXZYYYIYYXYXXIZY", "ZXXYYIXZIZYIIIZZ", "IXXYZIIIXZIYZYIY", "IIXXIIZXIIIIIYYI",
    "IZYXZZXIYZIIIIXI", "IXIZZIZXXZIYZIYY", "I" * 16,
]

CASES = {
    "encode-adaptive": (
        ["encode", "--target", "{target}", "--noise", "{noise}", "--tol", "1e-6",
         "--out", "{out}", "--effective-out", "{extra}"],
        {
            "out": "e426ca05aa534ffc71c440c82b2749f3418ff08decfc4c56f5cf16de7c49b3cb",
            "extra": "fa88714e2398ecd94baa99f111730a08de5ce12d578735e5713261bb2d73ff9a",
        },
    ),
    "encode-fixed": (
        ["encode", "--target", "{target}", "--noise", "{noise}", "--mode", "fixed",
         "--node", "XZ", "--out", "{out}", "--effective-out", "{extra}"],
        {
            "out": "1964bc0b3e7f57225158c0386b467b8366be93dbba7e18a97f32997083c8b4be",
            "extra": "e29e32dd75301f305434f967b7d5d33ffc3fa671a2cd9087ce6e1b32b3cf5f28",
        },
    ),
    "encode-adaptive-10q": (
        ["encode", "--target", "{target10}", "--noise", "{noise10}", "--tol", "1e-6",
         "--out", "{out}", "--effective-out", "{extra}"],
        {
            "out": "38a83cd1444636015a639c475031e3bea9afef362b9eb6bc2570997b22a1a7bf",
            "extra": "593e9cc55aec1a9a9628103cbb4f7741150c7f241d5ca029829ff94f8d898f2c",
        },
    ),
    "encode-fixed-10q": (
        ["encode", "--target", "{fixed10}", "--noise", "{noise10}", "--mode", "fixed",
         "--node", "XYZIIIIZYX", "--out", "{out}", "--effective-out", "{extra}"],
        {
            "out": "fe5470f85084e80768a684e55b926e715e628e9cf0df630261a3d41f5cba068f",
            "extra": "28050b0c54f37e8dbd9628af806389f4eb16b5b912b2de36daf2e73208084549",
        },
    ),
    "cluster": (
        ["cluster", "--node", "XZ", "--noise", "{noise}", "--out", "{out}"],
        {"out": "1d2a57d418242d1e6af61da4552e72f86ef2464af9111b05d8c2ed9fc85a260c"},
    ),
    "sample": (
        ["sample", "--channel", "{target}", "--seed", "11", "--trials", "40",
         "--steps", "30", "--threads", "1", "--out", "{out}"],
        {"out": "bf4af130ed51a37aed14521f5b2e2acaeb603e3fb474fe1835ae37e414a8f7e1"},
    ),
    # two workers, blocks of 3 and 4 trials, each trial three full chunks and a rest
    "sample-blocks": (
        ["sample", "--channel", "{target}", "--seed", "11", "--trials", "7",
         "--steps", "200003", "--threads", "2", "--out", "{out}"],
        {"out": "ab5b66a88e06d2bf913be16ffc58b1220b44e046401dc6f2e9c93480e97bd691"},
    ),
    # of 4,500 trials of 100 steps, a batch of 4,096 draws as lanes and the
    # other 404 through numpy's PCG64; the digest predates the lanes
    "sample-lanes": (
        ["sample", "--channel", "{target}", "--seed", "11", "--trials", "4500",
         "--steps", "100", "--threads", "2", "--out", "{out}"],
        {"out": "05bad7c3cd1dc0d4b0ca2ae0d285172fdfced3cfb8d4ef7bc2bba7e14ebbce93"},
    ),
    "cluster-16q": (
        ["cluster", "--node", NODE16, "--generators", *GENERATORS16, "--out", "{out}"],
        {"out": "033468ad3a9d9482991c220720bc727f796f5ef924c4bef3be246a48f79e7778"},
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_pinned(tmp_path, name):
    inputs = {"target": TARGET, "noise": NOISE, "target10": TARGET10, "noise10": NOISE10,
              "fixed10": FIXED10}
    paths = {key: tmp_path / f"{key}.json" for key in inputs}
    for key, doc in inputs.items():
        paths[key].write_text(json.dumps(doc))
    paths["out"] = tmp_path / "out"
    paths["extra"] = tmp_path / "extra"
    template, expected = CASES[name]
    argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in template]
    assert main(argv) == EXIT_OK
    digests = {k: hashlib.sha256(paths[k].read_bytes()).hexdigest() for k in expected}
    assert digests == expected
