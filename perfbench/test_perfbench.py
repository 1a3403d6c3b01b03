"""Tests of the benchmark itself, at smoke sizes:

    python3 -m pytest perfbench -q

- the traced replay of each command writes the same bytes as `cli.main`
  with the same argv, so the per-layer spans describe the timed work;
- every check fails on another seed's outputs, so no check passes vacuously;
- a smoke run of each workload is correct and reports every metric that
  BENCHMARK.json names;
- the reference clock rescales a step by the kernel runs around it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def _run_passes(wl, seed: int, root: Path) -> tuple[Path, dict, list]:
    """Inputs for `seed` and the CLI's outputs for every command variant."""
    src, out = root / "inputs", root / "out"
    src.mkdir(parents=True)
    out.mkdir()
    info = wl.make(seed, src, wl.smoke)
    commands = []
    for i in range(wl.min_passes):
        for cmd in wl.commands(src, out, info, i):
            rc, _, log = run._run_cli(cmd.argv)
            assert rc == 0, log
            commands.append(cmd)
    return out, info, commands


@pytest.mark.parametrize("name", NAMES)
def test_traced_replay_writes_the_bytes_the_cli_writes(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    out, info, commands = _run_passes(wl, 3, tmp_path / "cli")
    replayed = tmp_path / "replay"
    replayed.mkdir()
    for i in range(wl.min_passes):
        for cmd in wl.commands(tmp_path / "cli" / "inputs", replayed, info, i):
            tracing.replay(list(cmd.argv), tracing.Tracer())
            for f in cmd.outputs:
                assert (replayed / f).read_bytes() == (out / f).read_bytes(), f


@pytest.mark.parametrize("name", NAMES)
def test_checks_pass_on_own_outputs_and_fail_on_another_seeds(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    out, info, commands = _run_passes(wl, 3, tmp_path / "a")
    other, _, _ = _run_passes(wl, 4, tmp_path / "b")
    for cmd in commands:
        assert wl.check(out, info, cmd) == []
        assert wl.check(other, info, cmd) != []


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_is_correct_and_reports_every_metric(name):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(workloads.WORKLOADS[name], 5, 0, trace, True)
        assert result["result"]["correct"], result["report"]["failures"]
        metrics = result["result"]["metrics"]
        assert {m["name"]: m["unit"] for m in spec[section]} == {
            k: v["unit"] for k, v in metrics.items()
        }


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }


def test_clock_rescales_by_the_kernel_runs_around_the_step():
    kernel = reference.Kernel("sleep", lambda: time.sleep(0.002), 0.004)
    clock = reference.Clock(kernel)
    value, wall, scaled = clock.time(lambda: time.sleep(0.01) or "done")
    assert value == "done" and wall >= 0.01
    before, after = clock.kernel_times
    assert scaled == wall * 0.004 / ((before + after) / 2)
