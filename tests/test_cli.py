import dataclasses
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noisim.choi import CHOI_QUBIT_CAP, CertificateCheck, CertificateReport
from noisim.cli import (
    _BENCH_SETTINGS,
    EXIT_INVARIANT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from noisim.clusters import ORBIT_RANK_CAP
from noisim.dynamics import BenchmarkConfig
from noisim.encoder import effective_channel, encode_adaptive, encode_fixed
from noisim.pauli import MATRIX_QUBIT_CAP
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
    config = _write(tmp_path, "bench.json", {"n_step": 50})
    code = main(["benchmark", "--config", config, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert "unknown keys" in capsys.readouterr().err


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


def test_oversized_dense_states_exit_one(tmp_path, capsys):
    # refused before any 2**n x 2**n state or 4**n x 4**n Choi matrix is built
    n = MATRIX_QUBIT_CAP + 1
    small = _write(tmp_path, "small.json", BENCH_NOISE)
    big = _write(tmp_path, "big.json", {"terms": [{"string": "I" * n, "weight": 1.0}]})
    wide = _write(tmp_path, "wide.json",
                  {"terms": [{"string": "I" * (CHOI_QUBIT_CAP + 1), "weight": 1.0}]})
    for argv in (
        ["certify", "--channel-a", small, "--channel-b", small, "--state", "0" * n],
        ["certify", "--channel-a", big, "--channel-b", big],
        ["certify", "--channel-a", wide, "--channel-b", wide],
        ["benchmark", "--target", big, "--noise", big, "--n-sites", str(n),
         "--initial", "1" + "0" * (n - 1), "--step-method", "trotter"],
    ):
        code = main([*argv, "--out", str(tmp_path / "x.out")])
        assert code == EXIT_USAGE, argv
        assert "refusing" in capsys.readouterr().err


FAULTS = (None, "weight", "sum", "letter", "length", "missing", "type", "empty", "n_qubits")


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
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_channel_files_map_to_exit_codes(tmp_path, doc_fault):
    doc, fault = doc_fault
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity become JSON literals
    code = main([
        "encode", "--target", str(path), "--noise", str(path),
        "--out", str(tmp_path / "enc.json"),
    ])
    if fault is None:
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE), doc
    else:
        assert code == EXIT_USAGE, (fault, doc)


def test_bad_pauli_string_exits_one(files):
    code = main([
        "cluster", "--node", "XQ", "--generators", "XX",
        "--out", str(files["dir"] / "c.json"),
    ])
    assert code == EXIT_USAGE
