"""Benchmark of the noisim CLI: end-to-end timings and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke            # every workload, tiny sizes

One process, one caller, a closed loop: each CLI command runs in-process
through `noisim.cli.main(argv)` on inputs generated from the seed, and the
next starts when it returns. With `--trace 0` the run times passes of the
workload's commands with tracing off; with `--trace 1` it times untraced
passes for half the time, then replays the same commands as traced layer
calls for the other half. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a report with the run context, the workload's
named metrics and any failed check. The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# an absolute path, so that no result depends on the working directory
SRC = ROOT / "src"

SETUP_REPS = 7
TRACED_MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
}


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _digest(directory: Path, names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0" + (directory / name).read_bytes())
    return h.hexdigest()


def _import_in_fresh_interpreter() -> None:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import noisim.cli"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def _run_cli(argv) -> tuple[int, float, str]:
    from noisim import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, time.perf_counter() - t0, buf.getvalue()


class Checker:
    """Output checks; an operation fails when any of its checks fails."""

    def __init__(self, wl, info: dict) -> None:
        self.wl, self.info = wl, info
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, out: Path, cmd, rc: int, log: str, label: str) -> None:
        self.attempted += 1
        errors = [] if rc == 0 else [f"exit code {rc}: {log.strip()[-300:]}"]
        if not errors:
            try:
                digest = _digest(out, cmd.outputs)
                if self.digests.setdefault(cmd.key, digest) != digest:
                    errors.append("output bytes differ from the first run of this command")
                errors += self.wl.check(out, self.info, cmd)
            except Exception as exc:  # a malformed output is a failed check, not a crash
                errors.append(f"check raised {exc!r}")
        if errors:
            self.failures.append(f"{label} {cmd.key}: {'; '.join(errors)}")


def _passes(seconds: float, min_passes: int, one_pass) -> list[dict[str, float]]:
    """Run passes while the next one should end within `seconds`, and at
    least `min_passes`; each returns its per-command wall times."""
    passes: list[dict[str, float]] = []
    t0 = time.perf_counter()
    last = 0.0
    while len(passes) < min_passes or time.perf_counter() - t0 + last <= seconds:
        p0 = time.perf_counter()
        passes.append(one_pass(len(passes)))
        last = time.perf_counter() - p0
    return passes


def _setup(wl, seed: int, size: dict, tmp: Path, reps: int) -> tuple[Path, dict, list[float], bool]:
    """Repeat the set-up a user pays: a fresh interpreter importing noisim,
    input generation and a smoke-size warm-up. Returns the inputs, their
    info, the set-up times and whether every repetition wrote equal bytes."""
    times, digests = [], set()
    for rep in range(reps):
        t0 = time.perf_counter()
        _import_in_fresh_interpreter()
        src = tmp / f"inputs-{rep}"
        src.mkdir()
        info = wl.make(seed, src, size)
        warm = tmp / f"warm-{rep}"
        warm.mkdir()
        for cmd in wl.commands(warm, warm, wl.make(seed, warm, wl.smoke), 0):
            _run_cli(cmd.argv)
        times.append(time.perf_counter() - t0)
        digests.add(_digest(src, [str(p.relative_to(src)) for p in src.rglob("*") if p.is_file()]))
    return src, info, times, len(digests) == 1


def _traced(wl, src: Path, info: dict, out: Path, checker: Checker, seconds: float, smoke: bool,
            untraced_pass_s: float) -> tuple[dict[str, float], list[dict]]:
    import tracing

    tr = tracing.Tracer()
    last: dict = {}

    def traced_pass(i: int) -> dict[str, float]:
        tr.pass_id = i
        commands = wl.commands(src, out, info, i)
        last["objs"] = []
        for cmd in commands:
            tr.key = cmd.key
            rc, log = 0, ""
            try:
                last["objs"].append(tracing.replay(list(cmd.argv), tr))
            except Exception as exc:  # a failing replay is a failed operation
                rc, log = 1, repr(exc)
            checker.check(out, cmd, rc, log, "traced")
        last["bytes"] = tracing.output_bytes(out, [n for c in commands for n in c.outputs])
        return {}

    _passes(seconds, TRACED_MIN_PASSES, traced_pass)
    probes = tracing.probe(last["objs"], smoke)
    return tracing.derive(tr, last["objs"], probes, last["bytes"], untraced_pass_s), tracing.spans_json(tr)


def run_workload(wl, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run: set-up, untraced passes and, with `trace`, traced passes.

    Returns the report and the result line as dicts. With `trace` the
    untraced and traced passes share `seconds` evenly."""
    import numpy as np

    import reference
    import tracing

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".run-") as tmp:
        tmp = Path(tmp)
        src, info, setup_times, deterministic = _setup(
            wl, seed, wl.smoke if smoke else wl.size, tmp, 1 if smoke else SETUP_REPS
        )
        checker = Checker(wl, info)
        checker.attempted += 1
        if not deterministic:
            checker.failures.append("input generation gave different files for one seed")
        out = tmp / "out"
        out.mkdir()

        clock = reference.Clock(reference.KERNELS[wl.reference])
        scaled_passes: list[dict[str, float]] = []

        def untraced_pass(i: int) -> dict[str, float]:
            times, scaled = {}, {}
            for cmd in wl.commands(src, out, info, i):
                (rc, _, log), times[cmd.key], scaled[cmd.key] = clock.time(lambda: _run_cli(cmd.argv))
                checker.check(out, cmd, rc, log, "untraced")
            scaled_passes.append(scaled)
            return times

        budget = 0 if smoke else seconds / 2 if trace else seconds
        passes = _passes(budget, wl.min_passes, untraced_pass)
        wall_pass_s = statistics.median(sum(p.values()) for p in passes)
        end_to_end = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_s": statistics.median(sum(p.values()) for p in scaled_passes),
        }
        if trace:
            traced = tmp / "traced"
            traced.mkdir()
            per_layer, spans = _traced(wl, src, info, traced, checker, budget, smoke, wall_pass_s)

    keys = {k for p in scaled_passes for k in p}
    med = {k: statistics.median(p[k] for p in scaled_passes if k in p) for k in keys}
    failed = len(checker.failures)
    named = {
        **wl.named(info, med, end_to_end["pass_s"]),
        **{k: (v, END_TO_END[k]) for k, v in end_to_end.items()},
        "failed_ratio": (failed / checker.attempted, "ratio"),
        "ops_attempted": (checker.attempted, "count"),
    }
    report = {
        "workload": wl.name,
        "context": {
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "smoke": smoke,
            "passes": len(passes),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": _commit(),
        },
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "reference": {
            "kernel": wl.reference,
            "nominal_s": clock.kernel.nominal_s,
            "median_s": statistics.median(clock.kernel_times),
            "wall_pass_s": wall_pass_s,
        },
        "pass_times_s": passes,
        "failures": checker.failures,
    }
    if trace:
        report["spans"] = spans
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    result = {"correct": failed == 0, "attempted": checker.attempted, "failed": failed, "metrics": metrics}
    return {"report": report, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, minimum passes")
    args = parser.parse_args(argv)

    if not (SRC / "noisim" / "__init__.py").is_file():
        print(f"perfbench: noisim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)}")
    correct = True
    for name in names:
        trace = bool(args.trace) or args.smoke
        run = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, trace, args.smoke)
        for failure in run["report"]["failures"]:
            print(f"perfbench: {name}: {failure}", file=sys.stderr)
        print(json.dumps(run["report"]))
        print(json.dumps(run["result"]))
        correct = correct and run["result"]["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
