"""Traced replay of the CLI commands and the per-layer metrics derived from it.

Each replay makes the same sequence of public layer calls as the matching
`noisim.cli._cmd_*` and wraps every call in a span, so the per-layer numbers
describe the work the untraced run times; the fidelity test holds the
replay to byte-identical output files. Spans stay in memory until the run
ends. Probes after the replay time single layers on the same inputs where
a command reaches the layer only inside another call (channel application
inside the chain evolution, Choi states inside the certificate, draws
inside the trial loop).
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from noisim import cli
from noisim.channels import DensityMatrix, PauliChannel, apply_pauli_channel
from noisim.choi import choi_state, schatten_norm, theorem1_check
from noisim.clusters import analyze_cluster
from noisim.dynamics import (
    EXACT_SITE_CAP,
    BenchmarkConfig,
    BenchmarkResult,
    evolve_occupations,
    trotter_step_unitaries,
)
from noisim.encoder import effective_channel, encode_adaptive, encode_fixed
from noisim.pauli import multiply, parse
from noisim.sampling import run_trials, sample_indices
from noisim.serialize import (
    benchmark_rows,
    certificate_to_dict,
    channel_from_dict,
    cluster_to_dict,
    encoding_to_dict,
    load_channel,
    load_json,
    sample_rows,
    save_channel,
    write_csv,
    write_json,
)
from noisim.validation import check_conservation, check_decomposition

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER: dict[str, tuple[str, str]] = {
    "pauli.multiply_per_s": ("1/s", "higher"),
    "pauli.text_per_s": ("1/s", "higher"),
    "channels.build_s": ("s", "lower"),
    "channels.apply_s": ("s", "lower"),
    "channels.apply_terms": ("count", "higher"),
    "channels.apply_dim": ("count", "higher"),
    **{
        f"encoder.{mode}.{name}": spec
        for mode in ("adaptive", "fixed")
        for name, spec in {
            "busy_s": ("s", "lower"),
            "iterations": ("count", "lower"),
            "s_per_iter": ("s", "lower"),
            "ledger_size": ("count", "lower"),
            "snapshot_entries": ("count", "lower"),
        }.items()
    },
    "encoder.effective_s": ("s", "lower"),
    "validation.audit_s": ("s", "lower"),
    "validation.conservation_defect": ("1", "lower"),
    "validation.decomposition_defect": ("1", "lower"),
    "serialize.load_channel_s": ("s", "lower"),
    "serialize.encoding_to_dict_s": ("s", "lower"),
    "serialize.to_dict_s": ("s", "lower"),
    "serialize.write_json_s": ("s", "lower"),
    "serialize.json_bytes": ("bytes", "lower"),
    "serialize.write_csv_s": ("s", "lower"),
    "clusters.analyze_s": ("s", "lower"),
    "clusters.orbit_size": ("count", "higher"),
    "clusters.members_per_s": ("1/s", "higher"),
    "dynamics.unitaries_s": ("s", "lower"),
    "dynamics.unitary_step_s": ("s", "lower"),
    "dynamics.step_s": ("s", "lower"),
    "dynamics.state_dim": ("count", "higher"),
    "choi.choi_state_s": ("s", "lower"),
    "choi.schatten_norm_s": ("s", "lower"),
    "choi.theorem1_s": ("s", "lower"),
    "choi.dim": ("count", "higher"),
    "sampling.run_trials_s": ("s", "lower"),
    "sampling.indices_draws_per_s": ("1/s", "higher"),
    "sampling.per_trial_overhead_us": ("us", "lower"),
    "sampling.pool_slowdown": ("ratio", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# spans whose self time, summed over a pass, is a per-layer metric
_SPAN_METRIC = {
    "cli": "cli.self_s",
    "serialize.load_channel": "serialize.load_channel_s",
    "serialize.encoding_to_dict": "serialize.encoding_to_dict_s",
    "serialize.to_dict": "serialize.to_dict_s",
    "serialize.write_json": "serialize.write_json_s",
    "serialize.write_csv": "serialize.write_csv_s",
    "encoder.adaptive": "encoder.adaptive.busy_s",
    "encoder.fixed": "encoder.fixed.busy_s",
    "encoder.effective": "encoder.effective_s",
    "validation.audit": "validation.audit_s",
    "clusters.analyze": "clusters.analyze_s",
    "dynamics.unitaries": "dynamics.unitaries_s",
    "choi.theorem1": "choi.theorem1_s",
    "sampling.run_trials": "sampling.run_trials_s",
}


class Tracer:
    """In-memory spans: name, start, end, parent index, pass id, command key."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_id = 0
        self.key = ""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "pass": self.pass_id, "key": self.key}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[tuple[dict, float]]:
        """(span, duration minus the time its child spans cover)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [(s, s["end"] - s["start"] - c) for s, c in zip(self.spans, child)]


# --- replays ---------------------------------------------------------------
# Each returns the objects the counters and probes read.


def _replay_encode(args, tr: Tracer) -> dict:
    with tr.span("serialize.load_channel"):
        target = load_channel(args.target)
    with tr.span("serialize.load_channel"):
        noise = load_channel(args.noise)
    if args.mode == "fixed":
        with tr.span("encoder.fixed"):
            result = encode_fixed(target, noise, parse(args.node), tol=args.tol, max_iters=args.max_iters)
    else:
        with tr.span("encoder.adaptive"):
            result = encode_adaptive(target, noise, tol=args.tol, max_iters=args.max_iters)
    with tr.span("serialize.encoding_to_dict"):
        data = encoding_to_dict(result)
    with tr.span("serialize.write_json"):
        write_json(data, args.out)
    with tr.span("validation.audit"):
        defects = (check_conservation(result), check_decomposition(result))
    channels = [target, noise]
    if args.effective_out:
        with tr.span("encoder.effective"):
            effective = effective_channel(result)
        with tr.span("serialize.write_json"):
            save_channel(effective, args.effective_out)
        channels.append(effective)
    return {"encoding": result, "defects": defects, "channels": channels}


def _replay_cluster(args, tr: Tracer) -> dict:
    channels = []
    if args.noise:
        with tr.span("serialize.load_channel"):
            noise = load_channel(args.noise)
        generators = [s for s in noise.support if not s.is_identity()]
        channels.append(noise)
    else:
        generators = [parse(g) for g in args.generators]
    with tr.span("clusters.analyze"):
        cluster = analyze_cluster(parse(args.node), generators)
    with tr.span("serialize.to_dict"):
        data = cluster_to_dict(cluster)
    with tr.span("serialize.write_json"):
        write_json(data, args.out)
    return {"cluster": cluster, "generators": generators, "channels": channels}


def _replay_benchmark(args, tr: Tracer) -> dict:
    # the generated configs give every setting in its final type, so the
    # CLI's coercion and command-line overrides have nothing to do
    with tr.span("serialize.load_channel"):
        data = load_json(args.config)
        target = channel_from_dict(data["target"])
        noise = channel_from_dict(data["noise"])
    settings = {k: v for k, v in data.items() if k not in ("target", "noise")}
    cfg = BenchmarkConfig(target=target, noise=noise, **settings)
    if cfg.encoder == "fixed":
        with tr.span("encoder.fixed"):
            encoding = encode_fixed(cfg.target, cfg.noise, parse(cfg.node), tol=cfg.tol, max_iters=cfg.max_iters)
    else:
        with tr.span("encoder.adaptive"):
            encoding = encode_adaptive(cfg.target, cfg.noise, tol=cfg.tol, max_iters=cfg.max_iters)
    with tr.span("encoder.effective"):
        effective = effective_channel(encoding)
    method = cfg.step_method
    if method == "auto":
        method = "exact_exponential" if cfg.n_sites <= EXACT_SITE_CAP else "trotter"
    with tr.span("dynamics.unitaries"):
        unitaries = trotter_step_unitaries(cfg.n_sites, cfg.omega0, cfg.coupling, cfg.dt, method=method)
    with tr.span("dynamics.evolve"):
        reference = evolve_occupations(cfg.initial, unitaries, cfg.target, cfg.n_steps)
    with tr.span("dynamics.evolve"):
        encoded = evolve_occupations(cfg.initial, unitaries, effective, cfg.n_steps)
    result = BenchmarkResult(
        config=cfg,
        encoding=encoding,
        effective=effective,
        times=np.arange(cfg.n_steps + 1) * cfg.dt,
        target_occupations=reference,
        encoded_occupations=encoded,
        max_gap=float(np.abs(reference - encoded).max()),
    )
    with tr.span("serialize.to_dict"):
        rows = benchmark_rows(result)
    with tr.span("serialize.write_csv"):
        write_csv(rows, args.out)
    with tr.span("validation.audit"):
        defects = (check_conservation(encoding), check_decomposition(encoding))
    return {
        "encoding": encoding,
        "defects": defects,
        "channels": [target, noise, effective],
        "config": cfg,
        "unitaries": unitaries,
        "apply": (effective, DensityMatrix.from_basis_label(cfg.initial)),
    }


def _replay_certify(args, tr: Tracer) -> dict:
    with tr.span("serialize.load_channel"):
        channel_a = load_channel(args.channel_a)
    with tr.span("serialize.load_channel"):
        channel_b = load_channel(args.channel_b)
    if args.state == "mixed":
        rho = DensityMatrix.maximally_mixed(2**channel_a.n_qubits)
    else:
        rho = DensityMatrix.from_basis_label(args.state)
    with tr.span("choi.theorem1"):
        report = theorem1_check(channel_a, channel_b, rho, args.p)
    with tr.span("serialize.to_dict"):
        data = certificate_to_dict(report)
    with tr.span("serialize.write_json"):
        write_json(data, args.out)
    return {"channels": [channel_a, channel_b], "apply": (channel_b, rho), "p": args.p, "report": report}


def _replay_sample(args, tr: Tracer) -> dict:
    with tr.span("serialize.load_channel"):
        channel = load_channel(args.channel)
    with tr.span("sampling.run_trials"):
        report = run_trials(channel, seed=args.seed, n_trials=args.trials,
                            steps_per_trial=args.steps, threads=args.threads)
    with tr.span("serialize.to_dict"):
        rows = sample_rows(report)
    with tr.span("serialize.write_csv"):
        write_csv(rows, args.out)
    return {"channels": [channel], "sample": report, "seed": args.seed}


_REPLAYS: dict[str, Callable] = {
    "encode": _replay_encode,
    "cluster": _replay_cluster,
    "benchmark": _replay_benchmark,
    "certify": _replay_certify,
    "sample": _replay_sample,
}


def replay(argv: list[str], tr: Tracer) -> dict:
    """Run one CLI command as its traced sequence of layer calls."""
    args = cli.build_parser().parse_args(argv)
    with tr.span("cli"):
        return _REPLAYS[args.command](args, tr)


# --- probes and derivation ---------------------------------------------------


def _median_time(fn: Callable[[], object], reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _timed_items(run: Callable[[], int], min_s: float) -> tuple[int, float]:
    """(items, seconds) of repeating `run`, which returns its item count,
    until at least `min_s` has passed."""
    items, t0 = 0, time.perf_counter()
    while True:
        items += run()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return items, elapsed


def _products(left: list, right: list) -> Callable[[], int]:
    def run() -> int:
        for q in left:
            for s in right:
                multiply(q, s)
        return len(left) * len(right)

    return run


def _texts(strings: list) -> Callable[[], int]:
    def run() -> int:
        for s in strings:
            s.text
        return len(strings)

    return run


def _first(objs_list: list[dict], key: str) -> dict | None:
    return next((objs for objs in objs_list if key in objs), None)


def probe(objs_list: list[dict], smoke: bool) -> dict[str, float]:
    """Per-layer numbers timed outside the replay, on the inputs and outputs
    of one pass's commands (`objs_list`, one entry per command)."""
    out: dict[str, float] = {}
    min_s = 0.01 if smoke else 0.2
    reps = 1 if smoke else 3

    # Pauli products over the real (noise x ledger) and (generator x member)
    # pairs, text over the ledger strings and orbit members
    products, texts = [0, 0.0], [0, 0.0]
    for objs in objs_list:
        if "encoding" in objs:
            left, right = list(objs["encoding"].noise.support), list(objs["encoding"].residues)
        elif "cluster" in objs:
            # capped to keep the probe short
            left, right = objs["generators"], list(objs["cluster"].members)[:4096]
        else:
            continue
        for acc, run in ((products, _products(left, right)), (texts, _texts(right))):
            items, seconds = _timed_items(run, min_s)
            acc[0] += items
            acc[1] += seconds
    if products[0]:
        out["pauli.multiply_per_s"] = products[0] / products[1]
        out["pauli.text_per_s"] = texts[0] / texts[1]

    channels = [c for objs in objs_list for c in objs["channels"]]
    out["channels.build_s"] = _median_time(lambda: [PauliChannel(list(c.terms)) for c in channels], reps)
    if objs := _first(objs_list, "apply"):
        channel, rho = objs["apply"]
        out["channels.apply_s"] = _median_time(lambda: apply_pauli_channel(channel, rho), reps)
        out["channels.apply_terms"] = len(channel.terms)
        out["channels.apply_dim"] = rho.dim
    if objs := _first(objs_list, "unitaries"):
        cfg = objs["config"]
        out["dynamics.unitary_step_s"] = _median_time(
            lambda: evolve_occupations(cfg.initial, objs["unitaries"], None, cfg.n_steps), reps
        ) / cfg.n_steps
    if objs := _first(objs_list, "report"):
        a, b = objs["channels"]
        out["choi.choi_state_s"] = _median_time(lambda: choi_state(a), reps)
        delta = choi_state(a) - choi_state(b)
        out["choi.schatten_norm_s"] = _median_time(lambda: schatten_norm(delta, objs["p"]), reps)
        out["choi.dim"] = delta.shape[0]
    if objs := _first(objs_list, "sample"):
        channel = objs["channels"][0]
        draws = 10_000 if smoke else 2_000_000
        rng = np.random.default_rng(objs["seed"])
        out["sampling.indices_draws_per_s"] = draws / _median_time(
            lambda: sample_indices(channel, draws, rng), reps
        )
        trials = 20 if smoke else 2000
        out["sampling.per_trial_overhead_us"] = 1e6 / trials * _median_time(
            lambda: run_trials(channel, seed=objs["seed"], n_trials=trials, steps_per_trial=1), reps
        )
    return out


def derive(
    tr: Tracer,
    objs_list: list[dict],
    probes: dict[str, float],
    json_bytes: int,
    untraced_pass_s: float,
) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes of summed self times,
    counts read off the last pass's returned objects, and the probes.
    Layers the workload never reaches read 0."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    passes = sorted({s["pass"] for s in tr.spans})
    per_pass: dict[str, list[float]] = {}
    totals = {p: 0.0 for p in passes}
    evolve = {p: [0.0, 0] for p in passes}
    run_trials_by_key: dict[str, list[float]] = {}
    for span, self_s in tr.self_times():
        p = span["pass"]
        if span["parent"] is None:
            totals[p] += span["end"] - span["start"]
        if span["name"] == "dynamics.evolve":
            evolve[p][0] += self_s
            evolve[p][1] += 1
        if span["name"] == "sampling.run_trials":
            run_trials_by_key.setdefault(span["key"], []).append(self_s)
        name = _SPAN_METRIC.get(span["name"])
        if name:
            per_pass.setdefault(name, [0.0] * len(passes))[passes.index(p)] += self_s
    for name, values in per_pass.items():
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(totals.values()) - untraced_pass_s
    metrics["serialize.json_bytes"] = json_bytes

    for objs in objs_list:
        if "encoding" in objs:
            encoding = objs["encoding"]
            prefix = f"encoder.{encoding.mode}"
            metrics[f"{prefix}.iterations"] = encoding.iterations
            metrics[f"{prefix}.ledger_size"] = len(encoding.residues)
            metrics[f"{prefix}.snapshot_entries"] = sum(len(s.residues) for s in encoding.steps)
            if encoding.iterations:
                metrics[f"{prefix}.s_per_iter"] = metrics[f"{prefix}.busy_s"] / encoding.iterations
            for name, defect in zip(("conservation", "decomposition"), objs["defects"]):
                key = f"validation.{name}_defect"
                metrics[key] = max(metrics[key], defect)
        if "cluster" in objs:
            size = objs["cluster"].cluster_dimension
            metrics["clusters.orbit_size"] = size
            metrics["clusters.members_per_s"] = size / metrics["clusters.analyze_s"]
        if "config" in objs:
            cfg = objs["config"]
            metrics["dynamics.state_dim"] = 2**cfg.n_sites
            metrics["dynamics.step_s"] = statistics.median(
                total / (count * cfg.n_steps) for total, count in evolve.values()
            )
    # the short trials are where the thread pool costs most
    by_key = {k: statistics.median(v) for k, v in run_trials_by_key.items()}
    if {"short-t1", "short-t2"} <= by_key.keys():
        metrics["sampling.pool_slowdown"] = by_key["short-t2"] / by_key["short-t1"]
    metrics.update(probes)
    return metrics


def spans_json(tr: Tracer) -> list[dict]:
    """Spans with times relative to the first span, for the report."""
    t0 = tr.spans[0]["start"] if tr.spans else 0.0
    return [{**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in tr.spans]


def output_bytes(out: Path, names: tuple[str, ...]) -> int:
    return sum((out / n).stat().st_size for n in names if n.endswith(".json"))
