"""The benchmark's workloads: inputs, CLI commands and output checks.

A pass is the list of commands a workload runs once; its time, rescaled
by the workload's reference kernel (`reference.py`), is `pass_s`, the
end-to-end metric every workload reports. Each command's own rescaled
median goes to the report line under its ROADMAP name, so a change that
helps one command of a workload and hurts another still shows there.

Checks compare outputs against oracles computed here, never against the
program's own arithmetic: the seed's schedule for encodable targets, GF(2)
rank for orbit sizes, the Bell-basis spectrum for Choi distances, and
trial counts for sampling.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs


@dataclass(frozen=True)
class Command:
    key: str  # names the command within a pass; equal keys must give equal bytes
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # file names in the output directory


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, Path, dict], dict]
    size: dict
    smoke: dict
    commands: Callable[[Path, Path, dict, int], list[Command]]
    check: Callable[[Path, dict, Command], list[str]]
    # (info, median seconds per command key, median pass seconds) -> {name: (value, unit)}
    named: Callable[[dict, dict[str, float], float], dict[str, tuple[float, str]]]
    reference: str  # the kernel in reference.KERNELS whose use of the machine matches
    min_passes: int = 3


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _weights(channel: dict) -> dict[str, float]:
    return {t["string"]: t["weight"] for t in channel["terms"]}


def _identity(s: str) -> bool:
    return set(s) == {"I"}


# --- encode-16q: adaptive encode, fixed encode and cluster, 16 qubits ------


def _encode16_make(seed: int, src: Path, size: dict) -> dict:
    info = {}
    for part, make in (
        ("adaptive", inputs.encode_adaptive_inputs),
        ("fixed", inputs.encode_fixed_inputs),
        ("cluster", inputs.cluster_inputs),
    ):
        (src / part).mkdir()
        info[part] = make(seed, src / part, size[part])
    return info


def _encode16_commands(src: Path, out: Path, info: dict, i: int) -> list[Command]:
    commands = []
    for mode in ("adaptive", "fixed"):
        names = (f"{mode}-encoding.json", f"{mode}-effective.json")
        argv = ["encode", "--target", str(src / mode / "target.json"),
                "--noise", str(src / mode / "noise.json")]
        if mode == "fixed":
            argv += ["--mode", "fixed", "--node", info["fixed"]["node"]]
        argv += ["--out", str(out / names[0]), "--effective-out", str(out / names[1])]
        commands.append(Command(mode, tuple(argv), names))
    cluster = info["cluster"]
    argv = ["cluster", "--node", cluster["node"], "--generators", *cluster["generators"],
            "--out", str(out / "cluster.json")]
    commands.append(Command("cluster", tuple(argv), ("cluster.json",)))
    return commands


def _check_encode_adaptive(out: Path, info: dict, cmd: Command) -> list[str]:
    """The target is the realized channel of a known schedule: the encoder
    must find it in one iteration per scheduled node and realize every
    weight to within tol."""
    enc = _load(out / cmd.outputs[0])
    realized = _weights(_load(out / cmd.outputs[1]))
    tol = 1e-6  # the CLI default, which the command uses
    errors = []
    if not enc["converged"] or enc["iterations"] != info["iterations"]:
        errors.append(f"expected convergence in {info['iterations']} iterations, got {enc['iterations']}")
    strings = {s for s in realized if not _identity(s)}
    if strings != set(info["target"]):
        errors.append("realized support differs from the target support")
    worst = max((abs(realized.get(s, 0.0) - w) for s, w in info["target"].items()), default=0.0)
    if worst > tol:
        errors.append(f"realized weight off the target by {worst:.3e} > tol {tol}")
    return errors


def _check_encode_fixed(out: Path, info: dict, cmd: Command) -> list[str]:
    """Rebuild the realized channel from the written schedule and the noise."""
    enc = _load(out / cmd.outputs[0])
    realized = _weights(_load(out / cmd.outputs[1]))
    errors = []
    if not enc["converged"] or enc["stop_reason"] != "all_within_tol":
        errors.append(f"fixed encoding did not converge: {enc['stop_reason']}")
    pending = [r for s, r in enc["residues"].items() if not _identity(s) and r > info["tol"]]
    if pending:
        errors.append(f"{len(pending)} residues above tol")
    parts: dict[tuple[int, int], list[float]] = {}
    noise = [(inputs.masks(q), w) for q, w in info["noise"].items()]
    for step in enc["steps"]:
        nx, nz = inputs.masks(step["node"])
        for (qx, qz), w in noise:
            parts.setdefault((nx ^ qx, nz ^ qz), []).append(step["mass"] * w)
    oracle = {inputs.text(len(info["node"]), *s): math.fsum(ws) for s, ws in parts.items()}
    worst = max(
        (abs(realized.get(s, 0.0) - w) for s, w in oracle.items() if not _identity(s)),
        default=math.inf,
    )
    if not worst <= 1e-12:
        errors.append(f"realized channel differs from the written schedule by {worst:.3e}")
    return errors


def _check_cluster(out: Path, info: dict, cmd: Command) -> list[str]:
    report = _load(out / cmd.outputs[0])
    members = report["members"]
    errors = []
    if report["cluster_dimension"] != info["orbit_size"] or len(set(members)) != info["orbit_size"]:
        errors.append(
            f"orbit size {report['cluster_dimension']} ({len(set(members))} members), "
            f"expected 2**rank = {info['orbit_size']}"
        )
    if info["node"] not in members:
        errors.append("node missing from its own orbit")
    return errors


_ENCODE16_CHECKS = {"adaptive": _check_encode_adaptive, "fixed": _check_encode_fixed, "cluster": _check_cluster}


def _check_encode16(out: Path, info: dict, cmd: Command) -> list[str]:
    return _ENCODE16_CHECKS[cmd.key](out, info[cmd.key], cmd)


# --- chain benchmark -----------------------------------------------------


def _chain_commands(src: Path, out: Path, info: dict, i: int) -> list[Command]:
    argv = ["benchmark", "--config", str(src / "config.json"), "--out", str(out / "occupations.csv")]
    return [Command("benchmark", tuple(argv), ("occupations.csv",))]


def _check_chain(out: Path, info: dict, cmd: Command) -> list[str]:
    """Row 0 is the initial basis state. Each step's channel differs from
    the target's by at most the summed residues (at most 2 * terms * tol in
    l1), and an occupation is an expectation value, so the gap after k
    steps is below k * 2 * terms * tol."""
    rows = _csv(out / "occupations.csv")
    n = info["n_sites"]
    bound = info["n_steps"] * 2 * info["n_terms"] * info["tol"]
    errors = []
    if len(rows) != info["n_steps"] + 1:
        errors.append(f"{len(rows)} rows, expected {info['n_steps'] + 1}")
    initial = [float(rows[0][f"site{q}_{kind}"]) for kind in ("target", "encoded") for q in range(1, n + 1)]
    if initial != [float(b) for b in info["initial"]] * 2:
        errors.append(f"initial occupations {initial} do not match the basis state {info['initial']}")
    for row in rows:
        gap = max(abs(float(row[f"site{q}_target"]) - float(row[f"site{q}_encoded"])) for q in range(1, n + 1))
        if gap != float(row["gap"]) or not gap <= bound:
            errors.append(f"gap {row['gap']} at time {row['time']} (recomputed {gap!r}, bound {bound:.3e})")
            break
    return errors


# --- certify -------------------------------------------------------------

# every call pairs the target with its inexact encoding; the six variants
# cycle over passes, and each costs the same dense Choi work
CERTIFY_VARIANTS = [(p, state) for p in ("1", "2", "inf") for state in ("mixed", "basis")]


def _certify_commands(src: Path, out: Path, info: dict, i: int) -> list[Command]:
    p, state = CERTIFY_VARIANTS[i % len(CERTIFY_VARIANTS)]
    name = f"certificate-p{p}-{state}.json"
    argv = ["certify", "--channel-a", str(src / "target.json"), "--channel-b",
            str(src / "realized.json"), "--p", p, "--state",
            info["basis"] if state == "basis" else "mixed", "--out", str(out / name)]
    return [Command(f"p{p}-{state}", tuple(argv), (name,))]


def _check_certify(out: Path, info: dict, cmd: Command) -> list[str]:
    """The Choi state of a Pauli channel is diagonal in the Bell basis with
    the weights as eigenvalues, so the Choi distance is ||w_a - w_b||_p."""
    report = _load(out / cmd.outputs[0])
    p = math.inf if report["p"] == "inf" else float(report["p"])
    delta = [abs(d) for d in info["delta"]]
    oracle = max(delta) if math.isinf(p) else math.fsum(d**p for d in delta) ** (1 / p)
    errors = []
    if not report["satisfied"]:
        errors.append("certificate reported as violated")
    if report["dim"] != info["dim"]:
        errors.append(f"dim {report['dim']} != {info['dim']}")
    if not abs(report["choi_distance"] - oracle) <= 1e-9 * oracle:
        errors.append(f"Choi distance {report['choi_distance']!r} != ||dw||_p = {oracle!r}")
    return errors


# --- sample-trials ---------------------------------------------------------

SAMPLE_THREADS = (1, 2)  # never more than the 2 cores of the reference machine


def _sample_make(seed: int, src: Path, size: dict) -> dict:
    info = inputs.sample_inputs(seed, src, size)
    return {**info, "seed": seed, "shapes": {k: size[k] for k in ("short", "long")}}


def _sample_commands(src: Path, out: Path, info: dict, i: int) -> list[Command]:
    commands = []
    for shape, (trials, steps) in info["shapes"].items():
        for threads in SAMPLE_THREADS:
            name = f"counts-{shape}-t{threads}.csv"
            argv = ["sample", "--channel", str(src / "channel.json"), "--seed", str(info["seed"]),
                    "--trials", str(trials), "--steps", str(steps),
                    "--threads", str(threads), "--out", str(out / name)]
            commands.append(Command(f"{shape}-t{threads}", tuple(argv), (name,)))
    return commands


def _check_sample(out: Path, info: dict, cmd: Command) -> list[str]:
    """Counts add up to trials * steps, follow the channel's weights within
    six binomial standard deviations, and do not depend on the thread
    count: every trial owns its random stream."""
    shape = cmd.key.split("-t")[0]
    trials, steps = info["shapes"][shape]
    draws = trials * steps
    rows = _csv(out / cmd.outputs[0])
    errors = []
    total = sum(int(r["count"]) for r in rows)
    if total != draws:
        errors.append(f"counts sum to {total}, expected {draws}")
    if [r["string"] for r in rows] != [s for s, _ in info["weights"]]:
        errors.append("sampled strings differ from the channel's support")
    else:
        for r, (s, w) in zip(rows, info["weights"]):
            if abs(int(r["count"]) - draws * w) > 6 * math.sqrt(draws * w * (1 - w)) + 1:
                errors.append(f"{s}: count {r['count']} far from {draws} * {w}")
                break
    first = f"counts-{shape}-t{SAMPLE_THREADS[0]}.csv"
    if (out / first).read_bytes() != (out / cmd.outputs[0]).read_bytes():
        errors.append(f"counts at {cmd.key} differ from {first}")
    return errors


# --- named metrics ---------------------------------------------------------
# Each command's headline number under the name ROADMAP.md uses for it;
# printed on the report line, derived from the untraced rescaled medians.


def _named_encode16(info: dict, med: dict[str, float], pass_s: float) -> dict:
    return {
        "encode_adaptive_s": (med["adaptive"], "s"),
        "encode_fixed_s": (med["fixed"], "s"),
        "cluster_s": (med["cluster"], "s"),
    }


def _named_chain(info: dict, med: dict[str, float], pass_s: float) -> dict:
    return {"chain_steps_per_s": (info["n_steps"] / pass_s, "1/s")}


def _named_certify(info: dict, med: dict[str, float], pass_s: float) -> dict:
    return {"certify_s": (pass_s, "s")}


def _named_sample(info: dict, med: dict[str, float], pass_s: float) -> dict:
    return {
        f"sample_{shape}_t{t}_draws_per_s": (trials * steps / med[f"{shape}-t{t}"], "1/s")
        for shape, (trials, steps) in info["shapes"].items()
        for t in SAMPLE_THREADS
    }


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "encode-16q",
            "16 qubits, no dense matrix: adaptive encode (541 terms, 60 iterations), fixed encode "
            "(~190 iterations over a 518-string ledger), cluster (orbit 2**14)",
            _encode16_make,
            {
                "adaptive": {"qubits": 16, "nodes": 60},
                "fixed": {"qubits": 16, "tol": 1e-6, "orbit_mass": 0.6, "tail": 500,
                          "w_identity": 0.4, "per_pair": 2},
                "cluster": {"qubits": 16, "rank": 14, "redundant": 2},
            },
            {
                "adaptive": {"qubits": 6, "nodes": 4},
                "fixed": {"qubits": 6, "tol": 1e-6, "orbit_mass": 0.6, "tail": 10,
                          "w_identity": 0.4, "per_pair": 2},
                "cluster": {"qubits": 6, "rank": 4, "redundant": 2},
            },
            _encode16_commands,
            _check_encode16,
            _named_encode16,
            "interpreter",
        ),
        Workload(
            "chain-8site",
            "Trotter chain, 8 sites (d=256), 5 steps, 37-term target: dense channel "
            "application dominates, the encoder does 4 iterations",
            inputs.chain_inputs,
            {"sites": 8, "nodes": 4, "steps": 5, "tol": 1e-6},
            {"sites": 4, "nodes": 2, "steps": 3, "tol": 1e-6},
            _chain_commands,
            _check_chain,
            _named_chain,
            "blas",
        ),
        Workload(
            "certify-5q",
            "certificate at n=5 (Choi dim 1024), p in {1,2,inf}, mixed and basis states: "
            "dense Choi construction and SVD dominate",
            inputs.certify_inputs,
            {"qubits": 5, "nodes": 5},
            {"qubits": 2, "nodes": 2},
            _certify_commands,
            _check_certify,
            _named_certify,
            "blas",
            min_passes=len(CERTIFY_VARIANTS) + 1,
        ),
        Workload(
            "sample-trials",
            "10k trials x 100 steps (per-trial and pool overhead) and 20 trials x 1M steps "
            "(draw kernel), each at threads 1 and 2",
            _sample_make,
            {"qubits": 8, "nodes": 4, "short": (10_000, 100), "long": (20, 1_000_000)},
            {"qubits": 4, "nodes": 2, "short": (50, 10), "long": (4, 1000)},
            _sample_commands,
            _check_sample,
            _named_sample,
            "draws",
        ),
    ]
}
