import csv
import io
import json
import math
import os
import tracemalloc
from collections import OrderedDict, namedtuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noisim.channels import PauliChannel
from noisim.choi import theorem1_check
from noisim.channels import DensityMatrix
from noisim.clusters import analyze_cluster
from noisim.dynamics import (
    BenchmarkConfig,
    BenchmarkResult,
    default_noise_channel,
    default_target_channel,
    run_benchmark,
)
from noisim.encoder import STOP_ALL_WITHIN_TOL, EncodingResult, EncodingStep, encode_adaptive
from noisim.pauli import parse
from noisim.sampling import run_trials
from noisim.serialize import (
    benchmark_rows,
    certificate_to_dict,
    channel_from_dict,
    channel_to_dict,
    cluster_to_dict,
    encoding_to_dict,
    load_channel,
    sample_rows,
    save_channel,
    write_csv,
    write_json,
)

CHANNEL = PauliChannel([(0.5, "II"), (0.3, "XZ"), (0.2, "IY")])


def test_channel_round_trip(tmp_path):
    path = tmp_path / "ch.json"
    save_channel(CHANNEL, path)
    assert load_channel(path) == CHANNEL
    data = json.loads(path.read_text())
    assert data["n_qubits"] == 2
    assert [t["string"] for t in data["terms"]] == ["II", "IY", "XZ"]


def test_channel_from_dict_validation():
    with pytest.raises(ValueError):
        channel_from_dict({})
    with pytest.raises(ValueError):
        channel_from_dict({"terms": [{"weight": 1.0}]})
    with pytest.raises(ValueError):
        channel_from_dict(
            {"n_qubits": 3, "terms": [{"string": "XZ", "weight": 1.0}]}
        )
    # values must have their JSON types, as in benchmark configs; nothing is coerced
    for doc, message in (
        ({"terms": [{"string": "I", "weight": True}]}, "term 0: weight must be a JSON number"),
        ({"terms": [{"string": "I", "weight": "1"}]}, "term 0: weight must be a JSON number"),
        ({"terms": [{"string": "I", "weight": 10**400}]}, "term 0: weight is too large"),
        ({"terms": [{"string": 5, "weight": 1.0}]}, "term 0: string must be a JSON string"),
        ({"n_qubits": True, "terms": [{"string": "I", "weight": 1.0}]}, "n_qubits must be"),
    ):
        with pytest.raises(ValueError, match=message):
            channel_from_dict(doc)


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old")
    write_json([1], path)
    assert path.read_text() == "[\n  1\n]\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_write_json_is_stable(tmp_path):
    path = tmp_path / "a.json"
    write_json({"b": 1.5, "a": [1, 2]}, path)
    assert path.read_text() == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1.5\n}\n'


# keys with quotes, backslashes, control and non-ASCII characters, beside arbitrary text
json_keys = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é", "\u2028", "😀", ""])
json_floats = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2e-308, 1e16, 1e-7, math.nan, math.inf, -math.inf]
)
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**64, -(2**100)])
    | json_floats | json_keys
)
# keys and values shared across the maps of one document, so both memos hit
memo_keys = st.sampled_from(["a", "b", "é", "XZ"])
memo_floats = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-300, 0.1 + 0.2, math.nan, math.inf])
# every kind of scalar in one flat container, json's C-encoder case; np.float64 is a float
# subclass, so it never takes the floats-only join
mixed_scalars = (
    st.none() | st.booleans() | st.integers() | json_keys
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]) | json_floats.map(np.float64)
)
Pair = namedtuple("Pair", "left right")


class DictSubclass(dict):
    pass


json_values = st.recursive(
    json_scalars | st.sampled_from([[], {}, ()]),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_keys, inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=4).map(OrderedDict)
    | st.dictionaries(json_keys, inner, max_size=4).map(DictSubclass)
    | st.builds(Pair, inner, inner)
    # a dict of floats only, the emitter's one-join case
    | st.dictionaries(json_keys, json_floats, min_size=1, max_size=6)
    | st.lists(st.dictionaries(memo_keys, memo_floats, min_size=1), min_size=2, max_size=5)
    | st.lists(st.lists(mixed_scalars, min_size=1, max_size=6), min_size=1, max_size=3)
    | st.lists(st.dictionaries(json_keys, mixed_scalars, min_size=1, max_size=6), min_size=1,
               max_size=3),
    max_leaves=20,
)


@given(json_values)
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_write_json_matches_json_dumps(tmp_path, value):
    path = tmp_path / "v.json"
    write_json(value, path)
    assert path.read_bytes() == (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize(
    "value",
    [
        [{"a": 0.0}, {"a": -0.0}],
        [{"a": -0.0}, {"a": 0.0}],
        {"m": {"a": -0.0, "b": 0.0}},
        [{"x": 0.1, "y": 2.5}, {"x": 0.1}, {"z": {"x": 0.1}}],
        [{"a": 1.5}, {"a": 1.5, "b": math.nan}, {"a": math.inf, "b": -math.inf}],
        {"steps": [{"k": 1.5}, {"k": 1.5}], "k": [1.5, 0.0, -0.0, 1.5]},
    ],
)
def test_memoized_texts_match_json_dumps(tmp_path, value):
    path = tmp_path / "v.json"
    write_json(value, path)
    assert path.read_text() == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_failed_write_keeps_the_target_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.json"
    write_json({"kept": [1.5, -0.0]}, path)
    before = path.read_bytes()
    # enough finished maps ahead of the bad item that the stream has reached the temp file
    done = [{"a": 0.25, "b": float(i)} for i in range(2000)]
    for tail, message in (({1: 0.5}, "keys must be str"), ({"a": {1, 2}}, "not JSON serializable")):
        with pytest.raises(TypeError, match=message):
            write_json({"steps": done + [tail]}, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.json"]


def test_failed_write_names_the_requested_path(tmp_path):
    # the temp file cannot be made; the temp file cannot replace a directory
    (tmp_path / "sub").mkdir()
    for path in (tmp_path / "missing" / "x.json", tmp_path / "sub"):
        with pytest.raises(OSError) as err:
            write_json({"a": 1}, path)
        assert err.value.filename == str(path)
        assert ".tmp" not in str(err.value)
    assert os.listdir(tmp_path) == ["sub"]


def test_write_json_refuses_what_json_would_convert_or_reject(tmp_path, monkeypatch):
    path = tmp_path / "v.json"
    for bad in ({1: 0.5}, {"a": {None: 1}}, {"a": [1, {1.5: "x", "b": 2}]}):
        with pytest.raises(TypeError, match="keys must be str"):
            write_json(bad, path)
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json({"a": {1, 2}}, path)
    assert not path.exists()
    # neither json.dumps nor json's pure-Python indenting encoder runs
    monkeypatch.setattr(json, "dumps", None)
    monkeypatch.setattr(json.encoder, "_make_iterencode", None)
    write_json({"b": [1.5, None], "a": {"x": 0.25}}, path)
    assert json.loads(path.read_text()) == {"a": {"x": 0.25}, "b": [1.5, None]}


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv([{"b": 0.1, "a": 2, "c": "x", "d": True}], path)
    assert path.read_text() == "a,b,c,d\n2,0.1,x,true\n"
    with pytest.raises(ValueError):
        write_csv([], path)
    with pytest.raises(ValueError):
        write_csv([{"a": 1}, {"b": 2}], path)


def test_write_csv_reads_a_one_shot_generator_as_its_list(tmp_path):
    rows = [{"b": i / 3, "a": i, "c": 'q"' if i % 2 else "x,y", "d": i % 3 == 0}
            for i in range(50)]
    write_csv(rows, tmp_path / "list.csv")
    write_csv((dict(row) for row in rows), tmp_path / "gen.csv")
    assert (tmp_path / "gen.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


def test_write_csv_refuses_a_late_disagreeing_row_and_keeps_the_target(tmp_path):
    path = tmp_path / "t.csv"
    write_csv([{"a": 1}], path)
    before = path.read_bytes()
    # enough agreeing rows ahead of the bad one that the stream has reached the temp file
    rows = [{"a": i, "b": 0.5} for i in range(2000)]
    for bad in ({"a": 1}, {"a": 1, "c": 0.5}, {"a": 1, "b": 0.5, "c": 0.5}):
        with pytest.raises(ValueError, match="rows disagree on CSV headers"):
            write_csv(iter(rows + [bad]), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["t.csv"]


def test_write_csv_full_float_precision(tmp_path):
    path = tmp_path / "t.csv"
    value = 1 / 3
    # numpy 2 spells repr(np.float64(0.1)) "np.float64(0.1)"; its str is "0.1"
    write_csv([{"v": value, "w": np.float64(0.1)}], path)
    assert path.read_text().splitlines()[1] == repr(value) + ",0.1"


def test_encoding_to_dict_contents():
    result = encode_adaptive(
        PauliChannel([(0.95, "II"), (0.03, "XZ"), (0.02, "IY")]),
        PauliChannel([(0.6, "II"), (0.4, "XX")]),
        tol=1e-6,
    )
    data = encoding_to_dict(result)
    assert data["mode"] == "adaptive"
    assert data["converged"] is True
    assert data["iterations"] == 1
    assert data["steps"][0]["node"] == "XZ"
    assert data["steps"][0]["residues"]["XZ"] == 0.0
    assert set(data["residues"]) == {"II", "XZ", "IY"}
    json.dumps(data)  # everything JSON-serializable



def test_encoding_to_dict_spells_snapshot_strings_absent_from_final_residues():
    # a result built by hand: its one snapshot holds ZZ, which the final ledger lacks
    target = PauliChannel([(0.9, "II"), (0.1, "XZ")])
    result = EncodingResult(
        mode="fixed",
        target=target,
        noise=PauliChannel([(0.5, "II"), (0.5, "XX")]),
        steps=(EncodingStep(1, parse("XZ"), 0.1, ((parse("ZZ"), 0.05), (parse("XZ"), 0.0))),),
        residues={parse("II"): 0.9, parse("XZ"): 0.0},
        encoded_mass=0.1,
        stop_reason=STOP_ALL_WITHIN_TOL,
    )
    data = encoding_to_dict(result)
    assert data["steps"][0]["residues"] == {"ZZ": 0.05, "XZ": 0.0}
    assert data["residues"] == {"II": 0.9, "XZ": 0.0}

def test_cluster_and_certificate_dicts():
    cluster = cluster_to_dict(analyze_cluster("YI", ["XX", "ZZ"]))
    assert cluster["members"] == ["IY", "XZ", "YI", "ZX"]
    assert cluster["all_to_all"] is False

    ident = PauliChannel([(1.0, "I")])
    depol = PauliChannel([(0.25, "I"), (0.25, "X"), (0.25, "Y"), (0.25, "Z")])
    report = theorem1_check(ident, depol, DensityMatrix.maximally_mixed(2), math.inf)
    data = certificate_to_dict(report)
    assert data["p"] == "inf"
    assert data["renyi_entropy"] is None
    json.dumps(data)


def test_benchmark_and_sample_rows():
    result = run_benchmark(
        BenchmarkConfig(target=default_target_channel(), noise=default_noise_channel())
    )
    rows = list(benchmark_rows(result))
    assert len(rows) == 201
    assert sorted(rows[0]) == ["gap", "site1_encoded", "site1_target",
                               "site2_encoded", "site2_target", "time"]
    assert rows[0]["site1_target"] == 1.0

    report = run_trials(CHANNEL, seed=2, n_trials=5, steps_per_trial=10)
    srows = list(sample_rows(report))
    assert [r["string"] for r in srows] == ["II", "IY", "XZ"]
    assert sum(r["count"] for r in srows) == 50


def _hand_built_benchmark(n_sites, n_rows):
    """A result with random occupations, exact ties and signed zeros; no run behind it."""
    rng = np.random.default_rng(7)
    target = rng.random((n_rows, n_sites))
    encoded = target + rng.normal(scale=1e-3, size=target.shape)
    encoded[::3] = target[::3]
    target[1, 0], encoded[1, 0] = -0.0, 0.0
    return BenchmarkResult(
        config=BenchmarkConfig(target=CHANNEL, noise=CHANNEL, n_sites=n_sites, n_steps=n_rows - 1),
        encoding=None,
        effective=None,
        times=np.arange(n_rows) * 0.05,
        target_occupations=target,
        encoded_occupations=encoded,
        max_gap=float(abs(target - encoded).max()),
    )


def test_benchmark_csv_matches_an_independent_rendering(tmp_path):
    # 11 sites, so that site10_* sorts before site2_*
    result = _hand_built_benchmark(11, 40)
    target, encoded = result.target_occupations, result.encoded_occupations
    sites = range(1, 12)
    headers = sorted(["time", "gap"] + [f"site{q}_{kind}" for q in sites
                                        for kind in ("target", "encoded")])
    assert headers[:4] == ["gap", "site10_encoded", "site10_target", "site11_encoded"]
    want = io.StringIO()
    writer = csv.DictWriter(want, fieldnames=headers, lineterminator="\n")
    writer.writeheader()
    for i, t in enumerate(result.times):
        row = {"time": t, "gap": np.abs(target[i] - encoded[i]).max()}
        for q in sites:
            row[f"site{q}_target"] = target[i, q - 1]
            row[f"site{q}_encoded"] = encoded[i, q - 1]
        writer.writerow({k: str(float(v)) for k, v in row.items()})
    path = tmp_path / "b.csv"
    write_csv(benchmark_rows(result), path)
    assert path.read_bytes() == want.getvalue().encode()


def test_benchmark_csv_streams_its_rows(tmp_path):
    # a list of 20,001 row dicts alone would take megabytes
    result = _hand_built_benchmark(2, 20_001)
    path = tmp_path / "b.csv"
    tracemalloc.start()
    try:
        write_csv(benchmark_rows(result), path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len(path.read_text().splitlines()) == 20_002
