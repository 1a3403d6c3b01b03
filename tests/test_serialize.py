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

from noisim import serialize
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
from noisim.encoder import (
    STOP_ALL_WITHIN_TOL,
    EncodingResult,
    EncodingStep,
    encode,
    encode_adaptive,
)
from noisim.pauli import PauliString, identity, multiply, parse
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
    write_cluster,
    write_csv,
    write_encoding,
    write_json,
)

from helpers import random_channel_terms, tie_heavy_encodings

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
json_keys = st.text() | st.sampled_from(
    ['"', "\\", "\x00\x1f\n\t", "é", "\u2028", "😀", "", "%", "%s"]
)
json_floats = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2e-308, 1e16, 1e-7, math.nan, math.inf, -math.inf]
)
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**64, -(2**100)])
    | json_floats | json_keys
)
# keys and values shared across the maps of one document, so the key memo hits
memo_keys = st.sampled_from(["a", "b", "é", "XZ"])
memo_floats = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-300, 0.1 + 0.2, math.nan, math.inf])
# every kind of scalar in one flat container, json's C-encoder case; np.float64 is a float
# subclass, spelled by json rather than by float.__repr__
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
    # a dict of floats only, a ledger's shape
    | st.dictionaries(json_keys, json_floats, min_size=1, max_size=6)
    | st.lists(st.dictionaries(memo_keys, memo_floats, min_size=1), min_size=2, max_size=5)
    | st.lists(st.lists(mixed_scalars, min_size=1, max_size=6), min_size=1, max_size=3)
    | st.lists(st.dictionaries(json_keys, mixed_scalars, min_size=1, max_size=6), min_size=1,
               max_size=3)
    # dicts of scalars that share one key set, the emitter's one-template case
    | st.lists(json_keys, min_size=1, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, mixed_scalars)),
                              min_size=1, max_size=4)),
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
        [{"%s": 0.5, "b": True, "c": "x"}, {"b": None, "c": -0.0, "%s": 1}],
        [{"a": 1.5}, DictSubclass(a=-0.0), OrderedDict(a="z")],
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
    # the first key that is not a str, in sorted order where the keys sort, is named
    for bad, kind in (
        ({1: 0.5}, "int"), ({"a": {None: 1}}, "NoneType"), ({"a": [1, {1.5: "x", "b": 2}]}, "float"),
        ({2: 0.5, 1.5: 0.25}, "float"), ({"b": 1, True: 2, 3: 4}, "bool"),
    ):
        with pytest.raises(TypeError, match=f"^JSON object keys must be str, not {kind}$"):
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


def test_encoding_to_dict_writes_each_snapshot_of_unchained_steps():
    # steps built without `previous` each hold their whole ledger, and the
    # third is chained onto the first, not onto the step before it
    first = EncodingStep(0, parse("XZ"), 0.1, ((parse("ZZ"), 0.05), (parse("XZ"), 0.0)))
    second = EncodingStep(1, parse("XZ"), 0.1, ((parse("XZ"), -0.1),))
    third = EncodingStep(2, parse("XZ"), 0.1, ((parse("IY"), 0.2),), first)
    result = EncodingResult(
        mode="fixed",
        target=PauliChannel([(0.9, "II"), (0.1, "XZ")]),
        noise=PauliChannel([(0.5, "II"), (0.5, "XX")]),
        steps=(first, second, third),
        residues={parse("II"): 0.6, parse("XZ"): -0.1},
        encoded_mass=0.3,
        stop_reason=STOP_ALL_WITHIN_TOL,
    )
    snapshots = [s["residues"] for s in encoding_to_dict(result)["steps"]]
    assert snapshots == [{"ZZ": 0.05, "XZ": 0.0}, {"XZ": -0.1}, {"ZZ": 0.05, "XZ": 0.0, "IY": 0.2}]
    assert [{p.text: r for p, r in s.residues} for s in result.steps] == snapshots


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _written(value, tmp_path):
    path = tmp_path / "v.json"
    write_json(value, path)
    return path.read_text()


def _encoding_bytes(result, tmp_path):
    path = tmp_path / "e.json"
    write_encoding(result, path)
    return path.read_bytes()


def _result(steps):
    return EncodingResult(
        mode="fixed",
        target=PauliChannel([(0.9, "II"), (0.1, "XZ")]),
        noise=PauliChannel([(0.5, "II"), (0.5, "XX")]),
        steps=tuple(steps),
        residues={parse("II"): 0.6, parse("XZ"): -0.1},
        encoded_mass=0.3,
        stop_reason=STOP_ALL_WITHIN_TOL,
    )


def _chain(first, *changes, mass=0.1):
    """Steps each chained onto the one before; the first holds a whole ledger."""
    steps = [EncodingStep(0, parse("XZ"), mass, _ledger(first))]
    for i, step_changes in enumerate(changes, 1):
        steps.append(EncodingStep(i, parse("XZ"), mass, _ledger(step_changes), steps[-1]))
    return steps


def _ledger(entries):
    return tuple((parse(text), r) for text, r in entries.items())


@given(tie_heavy_encodings, st.sampled_from(["fixed", "adaptive"]))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_encoding_json_is_json_dumps_byte_for_byte(tmp_path, channels, mode):
    target, noise, node = channels
    result = encode(target, noise, mode=mode, node=node, tol=0.0, max_iters=40)
    data = encoding_to_dict(result)
    assert _written(data, tmp_path) == _dumps(data)
    assert _encoding_bytes(result, tmp_path) == _dumps(data).encode()


_first = EncodingStep(0, parse("XZ"), 0.1, _ledger({"ZZ": 0.05, "XZ": 0.0}))


@pytest.mark.parametrize(
    "steps",
    [
        # unchained steps, and a third step chained onto the first rather than the second
        [_first, EncodingStep(1, parse("XZ"), 0.1, _ledger({"XZ": -0.1})),
         EncodingStep(2, parse("XZ"), 0.1, _ledger({"IY": 0.2}), _first), _first],
        # new strings that sort first, between and last
        _chain({"XZ": 0.5, "ZZ": 0.25}, {"IY": 0.125}, {"XZ": 0.0, "II": 1.0},
               {"ZZ": 0.5, "ZY": 2.0}),
        # residues flipping between 0.0 and -0.0, which are equal as values
        _chain({"XZ": 0.0, "ZZ": 0.5}, {"XZ": -0.0}, {"XZ": 0.0}, {"XZ": -0.0, "ZZ": -0.0},
               {"ZZ": 0.0}),
        # int and bool residues, equal to 1.0 as values but spelled differently
        _chain({"XZ": 1.0, "ZZ": 1}, {"XZ": 1}, {"XZ": True, "ZZ": 0.5}, {"XZ": 1.0}, {"ZZ": 1}),
        # a residue that is a container, then a float again
        _chain({"XZ": 0.5, "ZZ": 0.25}, {"XZ": [0.5, -0.0]}, {"XZ": 0.5}, {"ZZ": 0.125}),
        [],
        # steps with empty ledgers, chained and not, around one with an entry
        [*_chain({}, {}, {"XZ": 0.5}), EncodingStep(3, parse("XZ"), 0.1, ())],
        # float subclasses, non-finite residues, and 1 == 1.0 == True in one ledger
        _chain({"XZ": np.float64(0.5), "ZZ": np.float64(-0.0), "IY": math.nan, "YI": 1,
                "ZX": 1.0, "XX": True},
               {"IY": math.inf, "ZZ": -math.inf, "XZ": np.float64(1e-300)},
               {"IY": np.float64(math.nan), "YI": 1.0, "ZX": True, "XX": 1},
               mass=np.float64(1 / 3)),
    ],
    ids=["unchained", "new-strings", "signed-zeros", "int-and-bool", "container", "no-steps",
         "empty-ledger", "unusual-scalars"],
)
def test_hand_built_encodings_write_as_json_dumps(tmp_path, steps):
    result = _result(steps)
    data = encoding_to_dict(result)
    assert [s["residues"] for s in data["steps"]] == [
        {p.text: r for p, r in step.residues} for step in steps
    ]
    assert _written(data, tmp_path) == _dumps(data)
    assert _encoding_bytes(result, tmp_path) == _dumps(data).encode()


def _spelled_entries(result, tmp_path):
    """Ledger entries spelled while `write_encoding` writes `result`, and the
    entries of every unchained step's snapshot plus every step's changes."""
    data = encoding_to_dict(result)
    whole = sum(
        len(written["residues"])
        for step, before, written in zip(result.steps, (None,) + result.steps, data["steps"])
        if step.previous is not before
    )
    spelled = []
    spell = serialize._Emitter.spell

    def counting_spell(emitter, value, indent):
        spelled.append(value)
        return spell(emitter, value, indent)

    with pytest.MonkeyPatch.context() as patch:
        # write_encoding spells each ledger entry's value through spell, and nothing else
        patch.setattr(serialize._Emitter, "spell", counting_spell)
        write_encoding(result, tmp_path / "e.json")
    assert (tmp_path / "e.json").read_text() == _dumps(data)
    return len(spelled), whole + sum(len(step.changes) for step in result.steps)


@given(tie_heavy_encodings, st.sampled_from(["fixed", "adaptive"]))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_writing_an_encoding_spells_only_each_steps_changes(tmp_path, channels, mode):
    target, noise, node = channels
    result = encode(target, noise, mode=mode, node=node, tol=0.0, max_iters=40)
    spelled, bound = _spelled_entries(result, tmp_path)
    assert spelled <= bound


def _long_encoding():
    """133 steps over a ledger of 409 strings."""
    rng = np.random.default_rng(7)
    target = PauliChannel(random_channel_terms(rng, 6, max_terms=300, identity_weight=0.9))
    noise = PauliChannel(random_channel_terms(rng, 6, max_terms=6, identity_weight=0.3))
    return encode(target, noise, tol=0.0, max_iters=400)


def test_a_long_encoding_reads_far_fewer_entries_than_its_snapshots_hold(tmp_path):
    result = _long_encoding()
    spelled, bound = _spelled_entries(result, tmp_path)
    assert spelled <= bound < sum(len(step.residues) for step in result.steps) / 5
    # chained onto a step that is not written just before it, each step is spelled whole
    unchained = _result(result.steps[::-1])
    spelled, bound = _spelled_entries(unchained, tmp_path)
    assert spelled == sum(len(step.residues) for step in unchained.steps)


def test_writing_a_long_encoding_holds_no_copy_of_its_snapshots(tmp_path):
    result = _long_encoding()
    path = tmp_path / "e.json"
    tracemalloc.start()
    try:
        write_encoding(result, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the ledger's texts and the channels' dicts, against 133 snapshots of the ledger
    assert peak < path.stat().st_size / 4
    assert path.read_text() == _dumps(encoding_to_dict(result))


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


@st.composite
def cluster_cases(draw):
    """A node and generators on 1-8 qubits of rank 0 to 2n: independent
    strings mixed upward from a random choice of single X and Z letters,
    plus identities, repeats and products of two of them, in any order."""
    n = draw(st.integers(1, 8))
    units = draw(st.permutations([PauliString(n, 1 << q, 0) for q in range(n)]
                                 + [PauliString(n, 0, 1 << q) for q in range(n)]))
    rank = draw(st.integers(0, 2 * n))
    independent = []
    for i in range(rank):
        g = units[i]
        for later in units[i + 1:rank]:
            if draw(st.booleans()):
                g = multiply(g, later).string
        independent.append(g)
    extra = draw(st.lists(st.sampled_from(independent or [identity(n)]), max_size=3))
    pairs = draw(st.lists(st.tuples(st.sampled_from(independent), st.sampled_from(independent)),
                          max_size=3)) if independent else []
    generators = independent + extra + [multiply(a, b).string for a, b in pairs]
    generators += [identity(n)] * draw(st.integers(0, 2))
    node = PauliString(n, draw(st.integers(0, 2**n - 1)), draw(st.integers(0, 2**n - 1)))
    return node, draw(st.permutations(generators)), rank


@given(cluster_cases(), st.integers(1, 300))
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_write_cluster_matches_write_json(tmp_path, monkeypatch, case, chunk_bytes):
    # a small chunk splits the members' lines into many writes, or one line per write
    monkeypatch.setattr(serialize, "_CHUNK_BYTES", chunk_bytes)
    node, generators, rank = case
    cluster = analyze_cluster(node, generators)
    assert cluster.cluster_dimension == 2**rank
    texts = [s.text for s in cluster.members]
    assert list(cluster.member_texts) == sorted(texts) and len(set(texts)) == 2**rank
    by_cluster, by_dict = tmp_path / "by-cluster.json", tmp_path / "by-dict.json"
    write_cluster(cluster, by_cluster)
    write_json(cluster_to_dict(cluster), by_dict)
    assert by_cluster.read_bytes() == by_dict.read_bytes()
    assert by_cluster.read_text() == _dumps(cluster_to_dict(cluster))


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
