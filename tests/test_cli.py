import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from noisim import cli
from noisim.choi import CERTIFY_QUBIT_CAP, CHOI_QUBIT_CAP, CertificateCheck, CertificateReport
from noisim.cli import (
    _BENCH_SETTINGS,
    EXIT_INVARIANT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from noisim.clusters import ORBIT_RANK_CAP, Cluster
from noisim.dynamics import CHAIN_SITE_CAP, BenchmarkConfig
from noisim.encoder import effective_channel, encode_adaptive, encode_fixed
from noisim.pauli import MATRIX_QUBIT_CAP, parse
from noisim.serialize import channel_from_dict

from helpers import shift_residue

FOUR_WAY = {"terms": [{"string": t, "weight": 0.25} for t in ("YI", "ZX", "XZ", "IY")]}
SYM_NOISE = {"terms": [
    {"string": "XX", "weight": 0.2}, {"string": "YY", "weight": 0.2},
    {"string": "ZZ", "weight": 0.2}, {"string": "II", "weight": 0.4}]}
BENCH_TARGET = {"terms": [
    {"string": "II", "weight": 0.95}, {"string": "XZ", "weight": 0.03},
    {"string": "IY", "weight": 0.02}]}
BENCH_NOISE = {"terms": [{"string": "II", "weight": 0.6}, {"string": "XX", "weight": 0.4}]}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "target": _write(tmp_path, "target.json", FOUR_WAY),
        "noise": _write(tmp_path, "noise.json", SYM_NOISE),
        "bench_target": _write(tmp_path, "bt.json", BENCH_TARGET),
        "bench_noise": _write(tmp_path, "bn.json", BENCH_NOISE),
        "dir": tmp_path,
    }


def test_encode_adaptive_success(files):
    out = files["dir"] / "enc.json"
    eff = files["dir"] / "eff.json"
    code = main([
        "encode", "--target", files["target"], "--noise", files["noise"],
        "--mode", "adaptive", "--tol", "0.1",
        "--out", str(out), "--effective-out", str(eff),
    ])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["converged"] is True
    assert data["iterations"] == 2
    eff_data = json.loads(eff.read_text())
    assert sum(t["weight"] for t in eff_data["terms"]) == pytest.approx(1.0)


def test_main_calls_share_a_parser_but_no_state(files):
    # a fixed encode with its own mode, node and tol, then a default encode:
    # each must write the bytes it writes when it is the process's only command
    enc = ["encode", "--target", files["target"], "--noise", files["noise"]]
    fixed = enc + ["--mode", "fixed", "--node", "XZ", "--tol", "0.1"]
    out = files["dir"]
    main(fixed + ["--out", str(out / "fixed-shared.json")])
    main(enc + ["--out", str(out / "default-shared.json")])
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()
    for name, argv in (("fixed", fixed), ("default", enc)):
        cli._parser.cache_clear()  # a fresh parser, as in a new process
        main(argv + ["--out", str(out / f"{name}-alone.json")])
        assert (out / f"{name}-shared.json").read_bytes() == (out / f"{name}-alone.json").read_bytes()
    assert (out / "fixed-alone.json").read_bytes() != (out / "default-alone.json").read_bytes()


def test_encode_fixed_requires_node(files):
    code = main([
        "encode", "--target", files["target"], "--noise", files["noise"],
        "--mode", "fixed", "--out", str(files["dir"] / "x.json"),
    ])
    assert code == EXIT_USAGE


def test_encode_over_unity_exits_two(files, capsys):
    out = files["dir"] / "enc.json"
    code = main([
        "encode", "--target", files["target"], "--noise", files["noise"],
        "--mode", "fixed", "--node", "XZ", "--tol", "0", "--max-iters", "60",
        "--out", str(out),
    ])
    assert code == EXIT_NO_CONVERGENCE
    assert "exceeds 1" in capsys.readouterr().err
    # the result file is still written for inspection
    assert json.loads(out.read_text())["stop_reason"] == "max_iters"


def test_benchmark_over_unity_exits_two(files, capsys):
    out = files["dir"] / "occ.csv"
    code = main([
        "benchmark", "--target", files["target"], "--noise", files["noise"],
        "--encoder", "fixed", "--node", "XZ", "--tol", "0", "--max-iters", "60",
        "--out", str(out),
    ])
    assert code == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("noisim benchmark:") and "exceeds 1" in err
    assert not out.exists()


def test_encode_invariant_violation_exits_three(files, capsys, monkeypatch):
    real = encode_adaptive(channel_from_dict(FOUR_WAY), channel_from_dict(SYM_NOISE), tol=0.1)
    broken = shift_residue(real, -1e-6, onto_identity=True)  # conservation still holds
    monkeypatch.setattr("noisim.cli.encode", lambda *args, **kwargs: broken)
    code = main([
        "encode", "--target", files["target"], "--noise", files["noise"],
        "--out", str(files["dir"] / "enc.json"),
    ])
    assert code == EXIT_INVARIANT
    assert "invariant violation" in capsys.readouterr().err


def test_encode_reports_conservation_before_over_encoding(files, capsys, monkeypatch):
    # a schedule past unity whose ledger also breaks conservation: exit 3, not 2
    over = encode_fixed(channel_from_dict(FOUR_WAY), channel_from_dict(SYM_NOISE), "XZ",
                        tol=0, max_iters=60)
    broken = shift_residue(over, 1e-6)
    monkeypatch.setattr("noisim.cli.encode", lambda *args, **kwargs: broken)
    code = main([
        "encode", "--target", files["target"], "--noise", files["noise"],
        "--out", str(files["dir"] / "enc.json"),
    ])
    assert code == EXIT_INVARIANT
    assert "residues plus encoded mass" in capsys.readouterr().err


def test_each_command_builds_the_realized_channel_once(files, monkeypatch):
    calls = []

    def counted(result):
        calls.append(result)
        return effective_channel(result)

    for module in ("noisim.cli", "noisim.dynamics", "noisim.validation"):
        monkeypatch.setattr(f"{module}.effective_channel", counted)
    code = main([
        "encode", "--target", files["target"], "--noise", files["noise"], "--tol", "0.1",
        "--out", str(files["dir"] / "enc.json"),
        "--effective-out", str(files["dir"] / "eff.json"),
    ])
    assert (code, len(calls)) == (EXIT_OK, 1)
    calls.clear()
    code = main([
        "benchmark", "--target", files["bench_target"], "--noise", files["bench_noise"],
        "--n-steps", "5", "--out", str(files["dir"] / "occ.csv"),
    ])
    assert (code, len(calls)) == (EXIT_OK, 1)


def test_certify_violation_exits_three(files, capsys, monkeypatch):
    report = CertificateReport(
        p=2.0, dim=4, output_distance=1.0, choi_distance=0.0, weighted_choi_distance=0.0,
        renyi=0.0, checks=(CertificateCheck("output_vs_choi", 1.0, 0.0),),
    )
    monkeypatch.setattr("noisim.cli.theorem1_check", lambda *args: report)
    code = main([
        "certify", "--channel-a", files["target"], "--channel-b", files["noise"],
        "--out", str(files["dir"] / "cert.json"),
    ])
    assert code == EXIT_INVARIANT
    assert "certificate violated" in capsys.readouterr().err


def test_encode_stalled_exits_two(files, tmp_path):
    target = _write(tmp_path, "t2.json", {"terms": [
        {"string": "II", "weight": 0.95}, {"string": "XZ", "weight": 0.05}]})
    noise = _write(tmp_path, "n2.json", {"terms": [
        {"string": "XX", "weight": 0.6}, {"string": "II", "weight": 0.4}]})
    out = tmp_path / "enc.json"
    code = main(["encode", "--target", target, "--noise", noise, "--out", str(out)])
    assert code == EXIT_NO_CONVERGENCE
    assert json.loads(out.read_text())["stop_reason"] == "stalled"


def test_cluster_command(files, capsys):
    out = files["dir"] / "c.json"
    code = main(["cluster", "--node", "YI", "--generators", "XX", "ZZ", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["branching_dimension"] == 2
    assert data["cluster_dimension"] == 4
    assert "all-to-all False" in capsys.readouterr().out


def test_cluster_command_spells_no_member_text(tmp_path, monkeypatch):
    # the report is written from the letter rows; a str per member is never built
    def refuse(self):
        raise AssertionError("member_texts read")

    monkeypatch.setattr(Cluster, "member_texts", property(refuse))
    out = tmp_path / "c.json"
    code = main(["cluster", "--node", "YI", "--generators", "XX", "ZZ", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["members"] == ["IY", "XZ", "YI", "ZX"]


def test_cluster_above_rank_cap_exits_one(tmp_path, capsys):
    # X and Z on each qubit are independent: rank cap + 1, refused before enumeration
    rank = ORBIT_RANK_CAP + 1
    n = (rank + 1) // 2
    letters = [(q, c) for q in range(n) for c in "XZ"][:rank]
    generators = ["I" * q + c + "I" * (n - q - 1) for q, c in letters]
    out = tmp_path / "c.json"
    code = main(["cluster", "--node", "I" * n, "--generators", *generators, "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"rank {rank}" in err and f"ORBIT_RANK_CAP = {ORBIT_RANK_CAP}" in err
    assert not out.exists()


def test_cluster_from_noise_support(files):
    out = files["dir"] / "c.json"
    code = main(["cluster", "--node", "YI", "--noise", files["noise"], "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["all_to_all"] is True


def test_cluster_of_identity_only_noise_is_the_trivial_orbit(tmp_path, capsys):
    # the identity adds nothing to the span, from --noise as from --generators
    noise = _write(tmp_path, "id.json", {"terms": [{"string": "II", "weight": 1.0}]})
    by_noise, by_generators = tmp_path / "by-noise.json", tmp_path / "by-generators.json"
    assert main(["cluster", "--node", "XZ", "--noise", noise, "--out", str(by_noise)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert main(["cluster", "--node", "XZ", "--generators", "II", "--out", str(by_generators)]) == EXIT_OK
    assert capsys.readouterr().out == printed
    assert by_noise.read_bytes() == by_generators.read_bytes()
    data = json.loads(by_noise.read_text())
    assert data["members"] == ["XZ"] and data["cluster_dimension"] == 1
    assert data["branching_dimension"] == 0 and data["all_to_all"] is True
    assert data["leakage_entropy"] == 0.0


def test_certify_command(tmp_path):
    a = _write(tmp_path, "a.json", {"terms": [{"string": "I", "weight": 1.0}]})
    b = _write(tmp_path, "b.json", {"terms": [
        {"string": p, "weight": 0.25} for p in "IXYZ"]})
    out = tmp_path / "cert.json"
    code = main([
        "certify", "--channel-a", a, "--channel-b", b,
        "--p", "2", "--state", "0", "--out", str(out),
    ])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["satisfied"] is True
    assert len(data["checks"]) == 4


def test_certify_at_large_p_reports_nonzero_distances(tmp_path):
    # the channels differ by 0.02 on II and XZ; 0.02**250 underflows to 0
    a = _write(tmp_path, "a.json", BENCH_TARGET)
    b = _write(tmp_path, "b.json", {"terms": [
        {"string": "II", "weight": 0.97}, {"string": "XZ", "weight": 0.01},
        {"string": "IY", "weight": 0.02}]})
    out = tmp_path / "cert.json"
    code = main([
        "certify", "--channel-a", a, "--channel-b", b,
        "--p", "250", "--state", "10", "--out", str(out),
    ])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    expected = 0.02 * 2 ** (1 / 250)
    assert data["choi_distance"] == pytest.approx(expected, rel=1e-12)
    assert data["output_distance"] == pytest.approx(expected, rel=1e-12)
    # the checks compare p-th roots; p-th powers would read 0 <= 0
    assert len(data["checks"]) == 4
    for check in data["checks"]:
        assert check["lhs"] > 0 and check["satisfied"], check


def test_certify_builds_no_choi_state(tmp_path, monkeypatch):
    def refuse(channel):
        raise AssertionError("certify built a dense Choi state")

    monkeypatch.setattr("noisim.choi.choi_state", refuse)
    n = CHOI_QUBIT_CAP
    weights_a = {"I" * n: 0.9, "X" * n: 0.06, "Z" + "I" * (n - 1): 0.04}
    weights_b = {"I" * n: 0.8, "X" * n: 0.15, "Y" * n: 0.05}
    a = _write(tmp_path, "a.json", {"terms": [
        {"string": t, "weight": w} for t, w in weights_a.items()]})
    b = _write(tmp_path, "b.json", {"terms": [
        {"string": t, "weight": w} for t, w in weights_b.items()]})
    out = tmp_path / "cert.json"
    code = main([
        "certify", "--channel-a", a, "--channel-b", b,
        "--p", "2", "--state", ("01" * n)[:n], "--out", str(out),
    ])
    assert code == EXIT_OK
    delta = [weights_a.get(t, 0.0) - weights_b.get(t, 0.0) for t in {**weights_a, **weights_b}]
    assert json.loads(out.read_text())["choi_distance"] == pytest.approx(
        math.hypot(*delta), rel=1e-12
    )


def test_certify_at_the_encoders_sixteen_qubits(tmp_path):
    # a target over ~540 strings and its noise, as the adaptive encoder sees them
    rng = np.random.default_rng(16)
    n = 16

    def random_weights(k, identity):
        texts = {"".join(rng.choice(list("IXYZ"), size=n)) for _ in range(k)} - {"I" * n}
        raw = rng.random(len(texts)) + 1e-3
        return {"I" * n: identity, **dict(zip(texts, (raw / raw.sum() * (1 - identity)).tolist()))}

    weights = {"target": random_weights(540, 0.5), "noise": random_weights(16, 0.4)}
    paths = {k: _write(tmp_path, f"{k}.json", {"terms": [
        {"string": t, "weight": w} for t, w in ws.items()]}) for k, ws in weights.items()}
    delta = [weights["target"].get(t, 0.0) - weights["noise"].get(t, 0.0)
             for t in {**weights["target"], **weights["noise"]}]
    for p in ("1", "2", "inf"):
        for state in ("mixed", "0110" * 4):
            out = tmp_path / f"cert-{p}-{state}.json"
            code = main(["certify", "--channel-a", paths["target"], "--channel-b",
                         paths["noise"], "--p", p, "--state", state, "--out", str(out)])
            assert code == EXIT_OK, (p, state)
            data = json.loads(out.read_text())
            assert data["dim"] == 2**n and data["satisfied"] is True
            order = float(p)
            norm = (max(map(abs, delta)) if math.isinf(order)
                    else math.fsum(abs(v) ** order for v in delta) ** (1 / order))
            assert data["choi_distance"] == pytest.approx(norm, rel=1e-12), (p, state)
            if not math.isinf(order):
                entropy = n * math.log(2) if state == "mixed" else 0.0
                assert data["renyi_entropy"] == pytest.approx(entropy, rel=1e-15)


def test_certify_accepts_inf(tmp_path):
    a = _write(tmp_path, "a.json", {"terms": [{"string": "I", "weight": 1.0}]})
    out = tmp_path / "cert.json"
    code = main([
        "certify", "--channel-a", a, "--channel-b", a, "--p", "inf", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["p"] == "inf"


def test_every_json_output_equals_json_dumps(files, tmp_path):
    # certify's flat maps mix str, int, float, bool and None; the golden hashes leave them out
    out = tmp_path / "out"
    out.mkdir()
    runs = [
        ["encode", "--target", files["target"], "--noise", files["noise"], "--tol", "0.1",
         "--out", str(out / "enc.json"), "--effective-out", str(out / "eff.json")],
        ["encode", "--target", files["bench_target"], "--noise", files["bench_noise"],
         "--mode", "fixed", "--node", "XZ", "--tol", "1e-8", "--out", str(out / "fixed.json")],
        ["cluster", "--node", "YI", "--noise", files["noise"], "--out", str(out / "cluster.json")],
        ["benchmark", "--target", files["bench_target"], "--noise", files["bench_noise"],
         "--n-steps", "20", "--out", str(tmp_path / "occ.csv"),
         "--encoding-out", str(out / "bench-enc.json")],
    ]
    runs += [
        ["certify", "--channel-a", files["bench_target"], "--channel-b", files["target"],
         "--p", p, "--state", state, "--out", str(out / f"cert-{p}-{state}.json")]
        for p in ("1", "2", "3.5", "inf")
        for state in ("mixed", "01")
    ]
    for argv in runs:
        assert main(argv) == EXIT_OK, argv
    written = sorted(out.glob("*.json"))
    assert len(written) == 13
    for path in written:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


def test_benchmark_with_config_file(files, tmp_path):
    config = _write(tmp_path, "bench.json", {
        "n_steps": 50,
        "tol": 1e-6,
        "target": BENCH_TARGET,
        "noise": BENCH_NOISE,
    })
    out = tmp_path / "occ.csv"
    code = main(["benchmark", "--config", config, "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "gap,site1_encoded,site1_target,site2_encoded,site2_target,time"
    assert len(lines) == 52


def test_benchmark_rejects_unknown_config_keys(tmp_path, capsys):
    for doc, message in (({"n_step": 50}, "unknown keys"),
                         ([{"n_steps": 50}], "expected a config object")):
        config = _write(tmp_path, "bench.json", doc)
        code = main(["benchmark", "--config", config, "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE, doc
        assert message in capsys.readouterr().err, doc


@pytest.mark.parametrize("text", [
    '{"n_steps": [1]}', '{"n_steps": 1e400}', '{"max_iters": 1e400}', '{"n_steps": 2.7}',
    '{"n_steps": true}', '{"dt": false}', '{"dt": "0.05"}', '{"node": null}', '{"initial": 10}',
    '{"tol": 1e400}',
])
def test_benchmark_rejects_mistyped_config_values(tmp_path, capsys, text):
    # every value must have its field's JSON type; nothing is coerced
    config = tmp_path / "bench.json"
    config.write_text(text)
    code = main(["benchmark", "--config", str(config), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert next(iter(json.loads(text))) in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_benchmark_rejects_deeply_nested_config(tmp_path, capsys):
    config = tmp_path / "bench.json"
    config.write_text('{"n_steps": ' + "[" * 100_000)
    code = main(["benchmark", "--config", str(config), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert "bench.json: JSON nested too deeply" in capsys.readouterr().err


def test_every_benchmark_setting_has_one_flag_and_one_config_type():
    # a new BenchmarkConfig field must be added to the table, or it has neither
    fields = [f.name for f in dataclasses.fields(BenchmarkConfig)]
    assert fields[:2] == ["target", "noise"]
    assert list(_BENCH_SETTINGS) == fields[2:]
    ben = build_parser()._subparsers._group_actions[0].choices["benchmark"]
    for key, (kind, _) in _BENCH_SETTINGS.items():
        flags = [a for a in ben._actions if a.dest == key]
        assert [a.option_strings for a in flags] == [["--" + key.replace("_", "-")]], key
        assert flags[0].type is kind and kind in (int, float, str), key


def test_refused_allocation_exits_one(tmp_path, capsys):
    # numpy refuses a 14 PiB occupation table before allocating any of it
    out = tmp_path / "o.csv"
    code = main(["benchmark", "--n-steps", "1000000000000000", "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("noisim: ") and err.count("\n") == 1
    assert not out.exists()


def test_benchmark_default_steps_are_the_trotter_factors(tmp_path):
    # one step rule at every size: the default writes what --step-method trotter writes
    default, trotter = tmp_path / "default.csv", tmp_path / "trotter.csv"
    assert main(["benchmark", "--n-steps", "60", "--out", str(default)]) == EXIT_OK
    assert main(["benchmark", "--n-steps", "60", "--step-method", "trotter",
                 "--out", str(trotter)]) == EXIT_OK
    assert default.read_bytes() == trotter.read_bytes()


def test_bad_chain_is_refused_before_encoding(tmp_path, capsys, monkeypatch):
    import noisim.dynamics

    encode, calls = noisim.dynamics.encode, []

    def counted(*args, **kwargs):
        calls.append(1)
        return encode(*args, **kwargs)

    monkeypatch.setattr(noisim.dynamics, "encode", counted)
    n = CHAIN_SITE_CAP + 1
    three = _write(tmp_path, "three.json", {"terms": [
        {"string": "III", "weight": 0.9}, {"string": "XII", "weight": 0.1}]})
    wide = _write(tmp_path, "wide.json", {"terms": [{"string": "I" * n, "weight": 1.0}]})
    auto = _write(tmp_path, "auto.json", {"step_method": "auto"})
    out = tmp_path / "o.csv"
    for argv in (
        ["--dt", "0"],
        ["--coupling", "1e308", "--dt", "10"],
        # coupling * dt is finite, the exact step's largest single-particle energy is not
        ["--target", three, "--noise", three, "--n-sites", "3", "--initial", "100",
         "--step-method", "exact_exponential", "--coupling", "1e308", "--dt", "1.5"],
        ["--target", wide, "--noise", wide, "--n-sites", str(n), "--initial", "1" + "0" * (n - 1)],
        ["--config", auto],
        ["--initial", "1x"],
        ["--n-steps", "-1"],
        # finite phases, but the last row's time, 3 * 1e308, is not finite
        ["--dt", "1e308", "--n-steps", "3"],
    ):
        calls.clear()
        code = main(["benchmark", *argv, "--out", str(out)])
        assert (code, calls) == (EXIT_USAGE, []), argv
        assert capsys.readouterr().err.startswith("noisim: "), argv
        assert not out.exists(), argv


def test_exact_steps_run_beyond_two_sites(tmp_path):
    three = _write(tmp_path, "three.json", {"terms": [
        {"string": "III", "weight": 0.9}, {"string": "XII", "weight": 0.1}]})
    out = tmp_path / "o.csv"
    code = main(["benchmark", "--target", three, "--noise", three, "--n-sites", "3",
                 "--initial", "100", "--n-steps", "7", "--step-method", "exact_exponential",
                 "--out", str(out)])
    assert code == EXIT_OK
    # a header, then one row per step and one for the initial state
    assert len(out.read_text().splitlines()) == 1 + 7 + 1


def test_benchmark_needs_channels_beyond_two_sites(tmp_path):
    code = main(["benchmark", "--n-sites", "4", "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE


def test_sample_threads_write_identical_files(files, tmp_path):
    eff = _write(tmp_path, "ch.json", BENCH_TARGET)
    one = tmp_path / "s1.csv"
    eight = tmp_path / "s8.csv"
    for threads, path in ((1, one), (8, eight)):
        code = main([
            "sample", "--channel", eff, "--seed", "11", "--trials", "30",
            "--steps", "25", "--threads", str(threads), "--out", str(path),
        ])
        assert code == EXIT_OK
    assert one.read_bytes() == eight.read_bytes()


def test_sample_negative_seed_exits_one(tmp_path, capsys):
    eff = _write(tmp_path, "ch.json", BENCH_TARGET)
    out = tmp_path / "s.csv"
    code = main([
        "sample", "--channel", eff, "--seed", "-1", "--trials", "3",
        "--steps", "5", "--out", str(out),
    ])
    assert code == EXIT_USAGE
    assert "seed >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials, steps", [(10**20, 1), (1, 10**20), (2**31, 2**32)])
def test_sample_too_many_draws_exits_one(tmp_path, capsys, trials, steps):
    # refused before any worker starts, since the int64 counts would overflow
    eff = _write(tmp_path, "ch.json", BENCH_TARGET)
    out = tmp_path / "s.csv"
    code = main([
        "sample", "--channel", eff, "--seed", "1", "--trials", str(trials),
        "--steps", str(steps), "--out", str(out),
    ])
    assert code == EXIT_USAGE
    assert f"need trials * steps < 2**63, got {trials} * {steps}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == EXIT_USAGE


def test_refused_flag_values_exit_one(files, capsys):
    pair = ["--channel-a", files["target"], "--channel-b", files["noise"]]
    for argv, message in (
        (["certify", *pair, "--p", "abc"], "invalid Schatten order 'abc'"),
        (["benchmark", "--step-method", "auto"], "invalid choice: 'auto'"),
    ):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(files["dir"] / "x.out")])
        assert err.value.code == EXIT_USAGE, argv
        assert message in capsys.readouterr().err, argv


def test_missing_file_exits_one(files, capsys):
    code = main([
        "encode", "--target", "/nonexistent.json", "--noise", files["noise"],
        "--out", str(files["dir"] / "x.json"),
    ])
    assert code == EXIT_USAGE
    assert "nonexistent" in capsys.readouterr().err


def test_unwritable_output_names_the_requested_path(files, capsys):
    out = files["dir"] / "missing" / "x.json"
    code = main([
        "encode", "--target", files["target"], "--noise", files["noise"], "--out", str(out),
    ])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"No such file or directory: '{out}'" in err
    assert ".tmp" not in err


def test_malformed_channel_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    for text in (
        "{not json",
        # json.load accepts these literals; the loader must not
        '{"terms": [{"string": "I", "weight": NaN}, {"string": "X", "weight": 1.0}]}',
        '{"terms": [{"string": "I", "weight": Infinity}]}',
        # json.load raises RecursionError here
        "[" * 100_000,
        # valid JSON, but an array of terms, not a channel object
        '[{"string": "I", "weight": 1.0}]',
    ):
        bad.write_text(text)
        code = main([
            "encode", "--target", str(bad), "--noise", str(bad),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_USAGE, text


def test_encode_nan_tol_exits_one(files):
    code = main([
        "encode", "--target", files["target"], "--noise", files["noise"],
        "--tol", "nan", "--out", str(files["dir"] / "x.json"),
    ])
    assert code == EXIT_USAGE


def test_nan_order_and_step_exit_one(files, capsys):
    encode = ["encode", "--target", files["target"], "--noise", files["noise"]]
    for argv, name in (
        (["certify", "--channel-a", files["target"], "--channel-b", files["noise"], "--p", "nan"],
         "p >= 1"),
        (["benchmark", "--dt", "nan"], "dt"),
        ([*encode, "--tol", "inf"], "tol"),
        (["benchmark", "--tol", "inf"], "tol"),
        (["benchmark", "--omega0", "nan"], "omega0"),
        (["benchmark", "--coupling", "inf"], "coupling"),
    ):
        # refused at the boundary, before numpy meets the value and warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--out", str(files["dir"] / "x.out")])
        assert code == EXIT_USAGE, argv
        assert name in capsys.readouterr().err, argv
        assert not (files["dir"] / "x.out").exists(), argv


def test_benchmark_phase_overflow_exits_one(files, capsys):
    # finite flags whose product overflows: no NaN table, one line naming the inputs
    out = files["dir"] / "o.csv"
    for flags, inputs in ((["--omega0", "1e308", "--dt", "1e300"], "omega0=1e+308"),
                          (["--coupling", "1e308", "--dt", "1e300"], "coupling=1e+308")):
        code = main(["benchmark", "--target", files["bench_target"],
                     "--noise", files["bench_noise"], *flags, "--out", str(out)])
        assert code == EXIT_USAGE, flags
        err = capsys.readouterr().err
        assert err.startswith("noisim: ") and err.count("\n") == 1, err
        assert "overflows at 2 sites" in err and inputs in err and "dt=1e+300" in err, err
        assert not out.exists()


@pytest.mark.parametrize("rate", ["1e13", "1e16"])
def test_benchmark_exact_step_far_from_orthogonal_exits_one(files, capsys, rate):
    # finite phases, but eigh's rounding leaves the exact step's O off orthogonal
    out = files["dir"] / "o.csv"
    code = main(["benchmark", "--target", files["bench_target"], "--noise", files["bench_noise"],
                 "--step-method", "exact_exponential", "--omega0", rate, "--coupling", rate,
                 "--dt", "1", "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    phase = float(rate) + 2 * float(rate) * math.cos(math.pi / 3)
    assert err.startswith("noisim: ") and err.count("\n") == 1, err
    assert f"exact step at phase {phase:.6g}" in err and "not orthogonal" in err, err
    assert not out.exists()


@pytest.mark.parametrize("p", ["600", "1e308"])
def test_certify_at_any_finite_p(files, p):
    out = files["dir"] / "cert.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["certify", "--channel-a", files["target"], "--channel-b", files["noise"],
                     "--p", p, "--state", "10", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["satisfied"] is True and len(data["checks"]) == 4
    values = [data["renyi_entropy"]] + [c[k] for c in data["checks"] for k in ("lhs", "rhs")]
    assert all(math.isfinite(v) for v in values), values


def test_oversized_chain_exits_one(tmp_path, capsys):
    # refused before any 2n x 2n matrix is built; a chain above the dense cap runs
    def run(n):
        big = _write(tmp_path, f"big{n}.json", {"terms": [
            {"string": "I" * n, "weight": 0.9}, {"string": "X" * n, "weight": 0.1}]})
        return main(["benchmark", "--target", big, "--noise", big, "--n-sites", str(n),
                     "--initial", "1" + "0" * (n - 1), "--n-steps", "3", "--step-method", "trotter",
                     "--out", str(tmp_path / "x.out")])

    assert run(CHAIN_SITE_CAP + 1) == EXIT_USAGE
    assert "refusing a 513-site chain (cap 512)" in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()
    assert run(MATRIX_QUBIT_CAP + 1) == EXIT_OK


def test_benchmark_gap_above_its_bound_exits_three(tmp_path, capsys, monkeypatch):
    # a mutant that drops the target's XZ term from the encoded run: the realized
    # weights still match the target, so the gap breaks its t * delta / 2 bound
    import noisim.dynamics
    from noisim.channels import PauliChannel

    evolve, runs = noisim.dynamics.evolve_occupations, []

    def dropped(initial, unitaries, channel, n_steps):
        runs.append(channel)
        if len(runs) == 2:  # the encoded run comes second
            xz = parse("XZ")
            channel = PauliChannel([(w, parse("II") if s == xz else s) for w, s in channel.terms])
        return evolve(initial, unitaries, channel, n_steps)

    out = tmp_path / "o.csv"
    assert main(["benchmark", "--n-steps", "20", "--out", str(out)]) == EXIT_OK
    monkeypatch.setattr(noisim.dynamics, "evolve_occupations", dropped)
    out.unlink()
    assert main(["benchmark", "--n-steps", "20", "--out", str(out)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "invariant violation: occupation gap" in err and "exceeds its bound" in err, err
    assert not out.exists()


def test_certify_label_of_another_length_exits_one(tmp_path, capsys):
    small = _write(tmp_path, "small.json", BENCH_NOISE)
    label = "0" * (MATRIX_QUBIT_CAP + 1)
    code = main(["certify", "--channel-a", small, "--channel-b", small, "--state", label,
                 "--out", str(tmp_path / "x.out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("noisim: ") and err.count("\n") == 1, err
    assert f"has {len(label)} qubits" in err and "act on 2" in err, err


@pytest.mark.parametrize("n", [CHOI_QUBIT_CAP + 1, MATRIX_QUBIT_CAP + 1])
def test_certify_of_the_mixed_state_has_no_dense_cap(tmp_path, n):
    weights_a = {"I" * n: 0.9, "X" * n: 0.06, "Z" + "I" * (n - 1): 0.04}
    weights_b = {"I" * n: 0.8, "X" * n: 0.15, "Y" * n: 0.05}
    a = _write(tmp_path, "a.json", {"terms": [
        {"string": t, "weight": w} for t, w in weights_a.items()]})
    b = _write(tmp_path, "b.json", {"terms": [
        {"string": t, "weight": w} for t, w in weights_b.items()]})
    out = tmp_path / "cert.json"
    code = main(["certify", "--channel-a", a, "--channel-b", b, "--state", "mixed",
                 "--out", str(out)])
    assert code == EXIT_OK
    delta = [weights_a.get(t, 0.0) - weights_b.get(t, 0.0) for t in {**weights_a, **weights_b}]
    data = json.loads(out.read_text())
    assert data["dim"] == 2**n and data["satisfied"] is True
    assert data["choi_distance"] == pytest.approx(math.hypot(*delta), rel=1e-12)


FAULTS = (None, "weight", "sum", "letter", "length", "missing", "type", "empty", "n_qubits")
# a well-formed channel too wide for a certificate: a float cannot hold d**2 = 4**512
WIDE = ({"terms": [{"string": "I" * (CERTIFY_QUBIT_CAP + 1), "weight": 1.0}]}, "wide")


@st.composite
def channel_documents(draw):
    """A channel JSON object and the fault planted in it (None: well formed)."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    strings = [draw(st.text("IXYZ", min_size=n, max_size=n)) for _ in range(k)]
    raw = [draw(st.floats(0.01, 1.0)) for _ in range(k)]
    total = math.fsum(raw)
    terms = [{"string": s, "weight": w / total} for s, w in zip(strings, raw)]
    fault = draw(st.sampled_from(FAULTS))
    term = terms[draw(st.integers(0, k - 1))]
    if fault == "weight":
        # 10**400 is a JSON integer too large for a float
        term["weight"] = draw(st.sampled_from([-0.25, math.nan, math.inf, -math.inf, 10**400]))
    elif fault == "sum":
        factor = draw(st.sampled_from([0.0, 0.5, 1.5, 3.0]))
        for t in terms:
            t["weight"] *= factor
    elif fault == "letter":
        pos = draw(st.integers(0, n - 1))
        term["string"] = term["string"][:pos] + draw(st.sampled_from("Qx1 ")) + term["string"][pos + 1:]
    elif fault == "length":
        terms.append({"string": "I" * (n + 1), "weight": 0.0})
    elif fault == "missing":
        del term[draw(st.sampled_from(["string", "weight"]))]
    elif fault == "type":
        term[draw(st.sampled_from(["string", "weight"]))] = draw(
            st.sampled_from([5, None, ["X"], True, "0.5"])
        )
    elif fault == "empty":
        terms.clear()
    doc = {"terms": terms}
    if fault == "n_qubits":
        doc["n_qubits"] = draw(st.sampled_from([n + 1, "x", [n], True]))
    elif draw(st.booleans()):
        doc["n_qubits"] = n
    return doc, fault


@given(channel_documents())
@example(WIDE)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_channel_files_map_to_exit_codes(tmp_path, capsys, doc_fault):
    doc, fault = doc_fault
    path = str(tmp_path / "channel.json")
    (tmp_path / "channel.json").write_text(json.dumps(doc))  # NaN and Infinity become JSON literals
    encode_code = main(["encode", "--target", path, "--noise", path,
                        "--out", str(tmp_path / "enc.json")])
    capsys.readouterr()
    certify_code = main(["certify", "--channel-a", path, "--channel-b", path,
                         "--out", str(tmp_path / "cert.json")])
    err = capsys.readouterr().err
    if fault is None:
        assert encode_code in (EXIT_OK, EXIT_NO_CONVERGENCE), doc
        assert certify_code == EXIT_OK, doc
        return
    assert encode_code == (EXIT_OK if fault == "wide" else EXIT_USAGE), (fault, doc)
    assert certify_code == EXIT_USAGE, (fault, doc)
    assert err.startswith("noisim: ") and err.count("\n") == 1, err
    if fault == "wide":
        assert "refusing a 512-qubit certificate" in err and "cap 511" in err, err


def test_bad_pauli_string_exits_one(files):
    code = main([
        "cluster", "--node", "XQ", "--generators", "XX",
        "--out", str(files["dir"] / "c.json"),
    ])
    assert code == EXIT_USAGE
