"""Command line front end.

Exit codes: 0 success, 1 usage or configuration error, 2 encoding did not
converge (or over-encoded), 3 invariant or certificate violation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Mapping, NoReturn, Sequence

from .channels import DensityMatrix
from .choi import theorem1_check
from .clusters import analyze_cluster
from .dynamics import BenchmarkConfig, default_noise_channel, default_target_channel, run_benchmark
from .encoder import EncodingResult, OverEncodedError, effective_channel, encode
from .pauli import parse
from .sampling import run_trials
from .serialize import (
    benchmark_rows,
    certificate_to_dict,
    channel_from_dict,
    cluster_to_dict,
    encoding_to_dict,
    json_value,
    load_channel,
    load_json,
    sample_rows,
    save_channel,
    write_csv,
    write_json,
)
from .validation import InvariantViolation, audit_encoding, check_conservation, check_decomposition

__all__ = ["EXIT_INVARIANT", "EXIT_NO_CONVERGENCE", "EXIT_OK", "EXIT_USAGE", "entry", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INVARIANT = 3


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for non-convergence
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_p(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid Schatten order {text!r}")


# every BenchmarkConfig setting but the channels: its type, for its flag and
# its --config key, and the other options of its flag
_BENCH_SETTINGS: dict[str, tuple[type, dict[str, Any]]] = {
    "n_sites": (int, {}), "omega0": (float, {}), "coupling": (float, {}), "dt": (float, {}),
    "n_steps": (int, {}), "initial": (str, {}),
    "encoder": (str, {"choices": ["fixed", "adaptive"]}),
    "node": (str, {}), "tol": (float, {}), "max_iters": (int, {}),
    "step_method": (str, {
        "choices": ["auto", "trotter", "exact_exponential"],
        "help": "auto (the default): exact_exponential up to two sites, else trotter",
    }),
}


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="noisim",
        description="Encode Pauli decoherence channels onto intrinsic hardware noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    enc = sub.add_parser("encode", help="run the fixed or adaptive encoder")
    enc.add_argument("--target", required=True, help="target channel JSON file")
    enc.add_argument("--noise", required=True, help="noise channel JSON file")
    enc.add_argument("--mode", choices=["fixed", "adaptive"], default="adaptive")
    enc.add_argument("--node", help="node string, required for --mode fixed")
    enc.add_argument("--tol", type=float, default=1e-6)
    enc.add_argument("--max-iters", type=int, default=1000)
    enc.add_argument("--out", required=True, help="encoding result JSON path")
    enc.add_argument("--effective-out", help="also write the realized channel JSON")
    enc.set_defaults(func=_cmd_encode)

    clu = sub.add_parser("cluster", help="analyze the noise orbit of a node string")
    clu.add_argument("--node", required=True)
    group = clu.add_mutually_exclusive_group(required=True)
    group.add_argument("--noise", help="noise channel JSON file; its support generates")
    group.add_argument("--generators", nargs="+", help="explicit generator strings")
    clu.add_argument("--out", required=True, help="cluster report JSON path")
    clu.set_defaults(func=_cmd_cluster)

    cer = sub.add_parser("certify", help="evaluate the output-error certificate")
    cer.add_argument("--channel-a", required=True)
    cer.add_argument("--channel-b", required=True)
    cer.add_argument("--p", type=_parse_p, default=2.0, help="Schatten order, or 'inf'")
    cer.add_argument(
        "--state",
        default="mixed",
        help="input state: a basis bitstring, or 'mixed' for maximally mixed",
    )
    cer.add_argument("--out", required=True, help="certificate report JSON path")
    cer.set_defaults(func=_cmd_certify)

    ben = sub.add_parser("benchmark", help="exciton chain benchmark of an encoding")
    ben.add_argument("--config", help="benchmark config JSON file")
    ben.add_argument("--target", help="target channel JSON file (overrides config)")
    ben.add_argument("--noise", help="noise channel JSON file (overrides config)")
    for key, (kind, options) in _BENCH_SETTINGS.items():
        ben.add_argument("--" + key.replace("_", "-"), type=kind, **options)
    ben.add_argument("--out", required=True, help="occupations CSV path")
    ben.add_argument("--encoding-out", help="also write the encoding result JSON")
    ben.set_defaults(func=_cmd_benchmark)

    sam = sub.add_parser("sample", help="Monte Carlo sample a channel")
    sam.add_argument("--channel", required=True, help="channel JSON file")
    sam.add_argument("--seed", type=int, required=True)
    sam.add_argument("--trials", type=int, default=100)
    sam.add_argument("--steps", type=int, default=100)
    sam.add_argument("--threads", type=int, default=1)
    sam.add_argument("--out", required=True, help="per-string counts CSV path")
    sam.set_defaults(func=_cmd_sample)

    return parser


def _convergence_exit(result: EncodingResult, message: str) -> int:
    if result.converged:
        return EXIT_OK
    print(f"{message} ({result.stop_reason})", file=sys.stderr)
    return EXIT_NO_CONVERGENCE


def _cmd_encode(args: argparse.Namespace) -> int:
    target = load_channel(args.target)
    noise = load_channel(args.noise)
    result = encode(
        target, noise, mode=args.mode, node=args.node, tol=args.tol, max_iters=args.max_iters
    )
    write_json(encoding_to_dict(result), args.out)
    check_conservation(result)  # exit 3 here outranks the over-encoding exit 2 below
    effective = effective_channel(result)
    check_decomposition(result, effective)
    if args.effective_out:
        save_channel(effective, args.effective_out)
    print(
        f"{result.mode} encoding: {result.iterations} iterations, "
        f"encoded mass {result.encoded_mass:.6g}, stop reason {result.stop_reason}"
    )
    return _convergence_exit(result, "noisim encode: stopped without convergence")


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.noise:
        noise = load_channel(args.noise)
        generators = [s for s in noise.support if not s.is_identity()]
        if not generators:
            raise ValueError("noise channel has no non-identity strings")
    else:
        generators = [parse(g) for g in args.generators]
    cluster = analyze_cluster(parse(args.node), generators)
    write_json(cluster_to_dict(cluster), args.out)
    print(
        f"cluster of {cluster.node.text}: branching {cluster.branching_dimension}, "
        f"size {cluster.cluster_dimension}, all-to-all {cluster.all_to_all}, "
        f"leakage entropy {cluster.leakage_entropy:.6g}"
    )
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    channel_a = load_channel(args.channel_a)
    channel_b = load_channel(args.channel_b)
    if args.state == "mixed":
        rho = DensityMatrix.maximally_mixed(2**channel_a.n_qubits)
    else:
        rho = DensityMatrix.from_basis_label(args.state)
    report = theorem1_check(channel_a, channel_b, rho, args.p)
    write_json(certificate_to_dict(report), args.out)
    print(
        f"certificate at p={args.p}: output distance {report.output_distance:.6g}, "
        f"Choi distance {report.choi_distance:.6g}, satisfied {report.satisfied}"
    )
    if not report.satisfied:
        print("noisim certify: certificate violated beyond tolerance", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _benchmark_config(args: argparse.Namespace) -> BenchmarkConfig:
    settings: dict[str, Any] = {}
    target = noise = None
    if args.config:
        data = load_json(args.config)
        if not isinstance(data, Mapping):
            raise ValueError(f"{args.config}: expected a config object")
        unknown = set(data) - set(_BENCH_SETTINGS) - {"target", "noise"}
        if unknown:
            raise ValueError(f"{args.config}: unknown keys {sorted(unknown)}")
        if "target" in data:
            target = channel_from_dict(data["target"])
        if "noise" in data:
            noise = channel_from_dict(data["noise"])
        settings.update(
            {k: json_value(data[k], kind, f"{args.config}: {k}")
             for k, (kind, _) in _BENCH_SETTINGS.items() if k in data}
        )
    for key in _BENCH_SETTINGS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if args.target:
        target = load_channel(args.target)
    if args.noise:
        noise = load_channel(args.noise)
    if target is None or noise is None:
        if settings.get("n_sites", 2) != 2:
            raise ValueError("n_sites != 2 requires explicit target and noise channels")
        target = target or default_target_channel()
        noise = noise or default_noise_channel()
    return BenchmarkConfig(target=target, noise=noise, **settings)


def _cmd_benchmark(args: argparse.Namespace) -> int:
    config = _benchmark_config(args)
    result = run_benchmark(config)
    write_csv(benchmark_rows(result), args.out)
    if args.encoding_out:
        write_json(encoding_to_dict(result.encoding), args.encoding_out)
    audit_encoding(result.encoding, result.effective)
    print(
        f"benchmark: {config.n_sites} sites, {config.n_steps} steps, "
        f"max occupation gap {result.max_gap:.6g}"
    )
    return _convergence_exit(
        result.encoding, "noisim benchmark: encoding stopped without convergence"
    )


def _cmd_sample(args: argparse.Namespace) -> int:
    channel = load_channel(args.channel)
    report = run_trials(
        channel,
        seed=args.seed,
        n_trials=args.trials,
        steps_per_trial=args.steps,
        threads=args.threads,
    )
    write_csv(sample_rows(report), args.out)
    print(
        f"sampled {report.n_samples} draws over {report.n_trials} trials, "
        f"l1 gap to exact weights {report.l1_gap:.6g}"
    )
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"noisim: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OverEncodedError as exc:
        print(f"noisim {args.command}: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError, MemoryError) as exc:
        print(f"noisim: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
