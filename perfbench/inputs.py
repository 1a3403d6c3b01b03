"""Seeded input generator for the benchmark.

Everything here is independent of noisim: Pauli strings are (x, z) mask
pairs, products drop phases (channels conjugate), and channels are written
as the JSON files the CLI reads. The same seed always gives the same bytes.

Encodable targets are the realized channel of a random schedule under a
lifted nearest-neighbour noise, so the expected outcome is known before
the program runs: the adaptive encoder converges with realized weights
equal to the target, and the chain benchmark shows no occupation gap.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

LETTERS = "IXZY"


def text(n: int, x: int, z: int) -> str:
    """Text form; qubit 1 (bit 0) is the leftmost letter."""
    return "".join(LETTERS[((x >> b) & 1) + 2 * ((z >> b) & 1)] for b in range(n))


def channel_dict(n: int, weights: dict[tuple[int, int], float]) -> dict:
    """Channel JSON object; the identity takes whatever mass is left."""
    terms = {text(n, x, z): w for (x, z), w in weights.items() if (x, z) != (0, 0)}
    identity = 1.0 - math.fsum(terms.values())
    if identity < 0:
        raise ValueError("non-identity weights exceed one")
    terms[text(n, 0, 0)] = identity
    return {
        "n_qubits": n,
        "terms": [{"string": s, "weight": w} for s, w in sorted(terms.items())],
    }


def write_json(data: object, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def lifted_noise(rng: random.Random, n: int, per_pair: int, w_identity: float) -> dict:
    """Noise of random two-site strings tiled on disjoint pairs (1-2, 3-4, ...).

    Only the strings depend on the seed. The weights follow a fixed ramp
    over a 2:1 range, handed out in seeded order, so every seed gives the
    encoders the same arithmetic and the same amount of work. Insertion
    order is the hand-out order.
    """
    strings: list[tuple[int, int]] = []
    for start in range(0, n - 1, 2):
        picks: list[tuple[int, int]] = []
        while len(picks) < per_pair:
            x, z = rng.randrange(4), rng.randrange(4)
            if (x, z) != (0, 0) and (x, z) not in picks:
                picks.append((x, z))
        strings += [(x << start, z << start) for x, z in picks]
    rng.shuffle(strings)
    k = len(strings)
    raw = [1.0 + i / max(k - 1, 1) for i in range(k)]
    scale = (1.0 - w_identity) / math.fsum(raw)
    return {s: r * scale for s, r in zip(strings, raw)}


def random_schedule(
    rng: random.Random, n: int, noise: dict, n_nodes: int, total_mass: float
) -> list[tuple[tuple[int, int], float]]:
    """Nodes whose noise images are all distinct and never the identity."""
    support = [(0, 0), *noise]
    taken: set[tuple[int, int]] = set()
    nodes = []
    while len(nodes) < n_nodes:
        node = (rng.getrandbits(n), rng.getrandbits(n))
        images = {(node[0] ^ q[0], node[1] ^ q[1]) for q in support}
        if len(images) != len(support) or (0, 0) in images or images & taken:
            continue
        taken |= images
        nodes.append(node)
    raw = [rng.uniform(0.2, 1.0) for _ in nodes]
    scale = total_mass / math.fsum(raw)
    return [(node, m * scale) for node, m in zip(nodes, raw)]


def realized(noise: dict, schedule: list, w_identity: float) -> dict:
    """Weights the schedule puts on each string under the noise."""
    parts: dict[tuple[int, int], list[float]] = {}
    for node, mass in schedule:
        for q, w in with_identity(noise, w_identity).items():
            parts.setdefault((node[0] ^ q[0], node[1] ^ q[1]), []).append(mass * w)
    return {s: math.fsum(ws) for s, ws in parts.items()}


def with_identity(noise: dict, w_identity: float) -> dict:
    return {(0, 0): w_identity, **noise}


def masks(s: str) -> tuple[int, int]:
    """Inverse of `text`."""
    x = z = 0
    for b, ch in enumerate(s):
        k = LETTERS.index(ch)
        x |= (k & 1) << b
        z |= (k >> 1) << b
    return x, z


def gf2_rank(vectors: list[int]) -> int:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


# --- per-workload inputs -------------------------------------------------
# Each maker writes its files into `out` and returns what the checks need.


def encode_adaptive_inputs(seed: int, out: Path, size: dict) -> dict:
    rng = random.Random(f"encode-adaptive/{seed}")
    n, w0 = size["qubits"], 0.4
    noise = lifted_noise(rng, n, 1, w0)
    schedule = random_schedule(rng, n, noise, size["nodes"], 0.5)
    target = realized(noise, schedule, w0)
    write_json(channel_dict(n, target), out / "target.json")
    write_json(channel_dict(n, noise), out / "noise.json")
    return {"target": {text(n, *s): w for s, w in target.items()}, "iterations": len(schedule)}


def encode_fixed_inputs(seed: int, out: Path, size: dict) -> dict:
    """Off-ratio weights on one node's images plus a tail below tol.

    Every image carries the noise ratio scaled by a factor in [0.75, 1.25],
    so the fixed encoder overshoots some images and converges geometrically
    on the one whose factor is largest. The tail strings sit below tol and
    are never scheduled, but stay in the ledger for the whole run.
    """
    rng = random.Random(f"encode-fixed/{seed}")
    n, w0, tol = size["qubits"], size["w_identity"], size["tol"]
    noise = lifted_noise(rng, n, size["per_pair"], w0)
    node = (rng.getrandbits(n), rng.getrandbits(n))
    terms = list(with_identity(noise, w0).items())
    target: dict[tuple[int, int], float] = {}
    for j, (q, w) in enumerate(terms):
        factor = 0.75 + 0.5 * j / (len(terms) - 1)
        target[(node[0] ^ q[0], node[1] ^ q[1])] = size["orbit_mass"] * w * factor
    while len(target) < len(terms) + size["tail"]:
        s = (rng.getrandbits(n), rng.getrandbits(n))
        if s != (0, 0) and s not in target:
            target[s] = tol * rng.uniform(0.05, 0.95)
    write_json(channel_dict(n, target), out / "target.json")
    write_json(channel_dict(n, noise), out / "noise.json")
    return {"node": text(n, *node), "tol": tol, "noise": {text(n, *q): w for q, w in terms}}


def cluster_inputs(seed: int, out: Path, size: dict) -> dict:
    """Generators of GF(2) rank `rank`, plus products of them that add none."""
    rng = random.Random(f"cluster/{seed}")
    n, rank = size["qubits"], size["rank"]
    gens: list[tuple[int, int]] = []
    while len(gens) < rank:
        g = (rng.getrandbits(n), rng.getrandbits(n))
        if gf2_rank([x | z << n for x, z in [*gens, g]]) == len(gens) + 1:
            gens.append(g)
    for _ in range(size["redundant"]):
        a, b = rng.sample(gens, 2)
        gens.append((a[0] ^ b[0], a[1] ^ b[1]))
    node = (rng.getrandbits(n), rng.getrandbits(n))
    return {
        "node": text(n, *node),
        "generators": [text(n, *g) for g in gens],
        "orbit_size": 2 ** gf2_rank([x | z << n for x, z in gens]),
    }


def chain_inputs(seed: int, out: Path, size: dict) -> dict:
    rng = random.Random(f"chain/{seed}")
    n, w0 = size["sites"], 0.4
    noise = lifted_noise(rng, n, 2, w0)
    schedule = random_schedule(rng, n, noise, size["nodes"], 0.05)
    target = realized(noise, schedule, w0)
    initial = "".join(rng.choice("01") for _ in range(n))
    config = {
        "n_sites": n,
        "n_steps": size["steps"],
        "dt": 0.05,
        "omega0": 1.0,
        "coupling": 0.5,
        "initial": initial,
        "encoder": "adaptive",
        "tol": size["tol"],
        "step_method": "trotter",
        "target": channel_dict(n, target),
        "noise": channel_dict(n, noise),
    }
    write_json(config, out / "config.json")
    return {"n_sites": n, "n_steps": size["steps"], "tol": size["tol"], "n_terms": len(target) + 1,
            "initial": initial}


def certify_inputs(seed: int, out: Path, size: dict) -> dict:
    """A target and the channel realized by an inexact encoding of it.

    The inexact encoding schedules the same nodes with masses off by up to
    a few percent, so the two channels differ on every non-identity term.
    """
    rng = random.Random(f"certify/{seed}")
    n, w0 = size["qubits"], 0.4
    noise = lifted_noise(rng, n - n % 2, 2, w0)
    schedule = random_schedule(rng, n, noise, size["nodes"], 0.3)
    inexact = [(node, m * rng.uniform(0.95, 1.05)) for node, m in schedule]
    a = channel_dict(n, realized(noise, schedule, w0))
    b = channel_dict(n, realized(noise, inexact, w0))
    write_json(a, out / "target.json")
    write_json(b, out / "realized.json")
    basis = "".join(rng.choice("01") for _ in range(n))
    weights_a = {t["string"]: t["weight"] for t in a["terms"]}
    weights_b = {t["string"]: t["weight"] for t in b["terms"]}
    delta = [weights_a.get(s, 0.0) - weights_b.get(s, 0.0) for s in sorted({*weights_a, *weights_b})]
    return {"basis": basis, "delta": delta, "dim": 2**n}


def sample_inputs(seed: int, out: Path, size: dict) -> dict:
    rng = random.Random(f"sample/{seed}")
    n, w0 = size["qubits"], 0.4
    noise = lifted_noise(rng, n, 2, w0)
    schedule = random_schedule(rng, n, noise, size["nodes"], 0.5)
    channel = channel_dict(n, realized(noise, schedule, w0))
    write_json(channel, out / "channel.json")
    return {"weights": [(t["string"], t["weight"]) for t in channel["terms"]]}
