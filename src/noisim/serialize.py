"""JSON and CSV serialization with atomic writes.

Output files are written to a temporary sibling and moved into place with
os.replace, so readers never observe partial files and reruns are
byte-for-byte stable: JSON is written by one emitter whose output equals
json.dumps(indent=2, sort_keys=True), CSV uses LF line endings,
alphabetical headers and repr() for floats.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Mapping, Sequence

from .channels import PauliChannel
from .choi import CertificateReport
from .clusters import Cluster
from .dynamics import BenchmarkResult
from .encoder import EncodingResult
from .sampling import SampleReport

__all__ = [
    "atomic_write_text",
    "benchmark_rows",
    "certificate_to_dict",
    "channel_from_dict",
    "channel_to_dict",
    "cluster_to_dict",
    "encoding_to_dict",
    "json_value",
    "load_channel",
    "load_json",
    "sample_rows",
    "save_channel",
    "write_csv",
    "write_json",
]


def atomic_write_text(text: str, path: str | os.PathLike) -> None:
    """Write `text` to a temp file beside `path`, then move it there."""
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _float_text(value: float) -> str:
    # json's spellings of the non-finite values
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _json_text(value: Any, indent: str) -> str:
    """`value` as json.dumps(indent=2, sort_keys=True) writes it at this depth.

    json.dumps with an indent runs json's pure-Python encoder; here C string
    quoting and float repr do the work, and a map of floats is one join.
    Raises TypeError on a non-str key or a value that is not a str, int,
    float, bool, None, list, tuple or dict.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = sep.join([_json_text(v, inner) for v in value])
        return "[\n" + inner + items + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        try:
            keys = sorted(value)
            quoted = [encode_basestring_ascii(k) + ": " for k in keys]
        except TypeError:
            bad = next(k for k in value if not isinstance(k, str))
            raise TypeError(f"JSON object keys must be str, not {type(bad).__name__}") from None
        values = [value[k] for k in keys]
        # a sum of floats is finite only if every term is
        if set(map(type, values)) == {float} and math.isfinite(sum(values)):
            texts = map(float.__repr__, values)
        else:
            texts = [_json_text(v, inner) for v in values]
        items = sep.join(map(str.__add__, quoted, texts))
        return "{\n" + inner + items + "\n" + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(data: Any, path: str | os.PathLike) -> None:
    atomic_write_text(_json_text(data, "") + "\n", path)


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-finite number {name} is not allowed")


def load_json(path: str | os.PathLike) -> Any:
    """Parse a JSON file, refusing the NaN and Infinity literals."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


# the JSON values each field type accepts; true/false are never numbers here
_JSON_KINDS = {int: ("integer", (int,)), float: ("number", (int, float)), str: ("string", (str,))}


def json_value(value: Any, kind: type, label: str) -> Any:
    """`value` as `kind` (int, float or str) if it has that JSON type; nothing is coerced."""
    name, accepted = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{label} must be a JSON {name}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer too large for a float
        raise ValueError(f"{label} is too large for a float") from None


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(rows: Sequence[Mapping[str, Any]], path: str | os.PathLike) -> None:
    if not rows:
        raise ValueError("refusing to write an empty CSV")
    headers = sorted(rows[0].keys())
    for row in rows:
        if sorted(row.keys()) != headers:
            raise ValueError("rows disagree on CSV headers")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=headers, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _cell(v) for k, v in row.items()})
    atomic_write_text(buf.getvalue(), path)


def channel_to_dict(channel: PauliChannel) -> dict:
    return {
        "n_qubits": channel.n_qubits,
        "terms": [{"string": s.text, "weight": w} for w, s in channel.terms],
    }


def channel_from_dict(data: Mapping[str, Any]) -> PauliChannel:
    if not isinstance(data, Mapping) or not isinstance(data.get("terms"), list):
        raise ValueError("channel object needs a 'terms' list")
    terms = []
    for i, entry in enumerate(data["terms"]):
        try:
            string, weight = entry["string"], entry["weight"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"term {i} needs 'string' and 'weight' fields") from exc
        weight = json_value(weight, float, f"term {i}: weight")
        terms.append((weight, json_value(string, str, f"term {i}: string")))
    channel = PauliChannel(terms)
    declared = data.get("n_qubits")
    if declared is not None and json_value(declared, int, "n_qubits") != channel.n_qubits:
        raise ValueError(
            f"declared n_qubits {declared!r} != string length {channel.n_qubits}"
        )
    return channel


def save_channel(channel: PauliChannel, path: str | os.PathLike) -> None:
    write_json(channel_to_dict(channel), path)


def load_channel(path: str | os.PathLike) -> PauliChannel:
    data = load_json(path)
    if not isinstance(data, Mapping):
        raise ValueError(f"{path}: expected a channel object")
    return channel_from_dict(data)


def encoding_to_dict(result: EncodingResult) -> dict:
    # one text per string: the ledger only grows, so the final residues hold
    # every snapshot's strings (`or` covers results built by hand)
    text = {s: s.text for s in result.residues}
    return {
        "mode": result.mode,
        "stop_reason": result.stop_reason,
        "converged": result.converged,
        "iterations": result.iterations,
        "encoded_mass": result.encoded_mass,
        "max_residue": result.max_residue,
        "min_residue": result.min_residue,
        "steps": [
            {
                "iteration": s.iteration,
                "node": s.node.text,
                "mass": s.mass,
                "residues": {text.get(p) or p.text: r for p, r in s.residues},
            }
            for s in result.steps
        ],
        "residues": {text[s]: r for s, r in result.residues.items()},
        "target": channel_to_dict(result.target),
        "noise": channel_to_dict(result.noise),
    }


def cluster_to_dict(cluster: Cluster) -> dict:
    return {
        "node": cluster.node.text,
        "members": sorted(s.text for s in cluster.members),
        "branching_dimension": cluster.branching_dimension,
        "cluster_dimension": cluster.cluster_dimension,
        "all_to_all": cluster.all_to_all,
        "leakage_entropy": cluster.leakage_entropy,
    }


def certificate_to_dict(report: CertificateReport) -> dict:
    return {
        "p": "inf" if math.isinf(report.p) else report.p,
        "dim": report.dim,
        "output_distance": report.output_distance,
        "choi_distance": report.choi_distance,
        "weighted_choi_distance": report.weighted_choi_distance,
        "renyi_entropy": report.renyi,
        "satisfied": report.satisfied,
        "checks": [
            {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "satisfied": c.satisfied}
            for c in report.checks
        ],
    }


def benchmark_rows(result: BenchmarkResult) -> list[dict]:
    n_sites = result.config.n_sites
    rows = []
    for i, t in enumerate(result.times):
        row: dict[str, Any] = {"time": float(t)}
        for q in range(1, n_sites + 1):
            row[f"site{q}_target"] = float(result.target_occupations[i, q - 1])
            row[f"site{q}_encoded"] = float(result.encoded_occupations[i, q - 1])
        row["gap"] = float(
            abs(result.target_occupations[i] - result.encoded_occupations[i]).max()
        )
        rows.append(row)
    return rows


def sample_rows(report: SampleReport) -> list[dict]:
    rows = []
    freqs = report.frequencies
    for i, (w, s) in enumerate(report.channel.terms):
        rows.append(
            {
                "string": s.text,
                "weight": w,
                "count": report.counts[i],
                "frequency": freqs[i],
            }
        )
    return rows
