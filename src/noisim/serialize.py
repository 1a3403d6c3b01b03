"""JSON and CSV serialization with atomic writes.

Output files are written to a temporary sibling and moved into place with
os.replace, so readers never observe partial files and reruns are
byte-for-byte stable; a failed write leaves the target as it was and an
OSError names the target, not the temp file. CSV uses LF line endings,
alphabetical headers, true/false for bools and str() for every other
value, which for a float or numpy float64 is its shortest round-trip text.
CSV rows stream: write_csv reads them once, under the first row's headers,
and benchmark_rows and sample_rows yield one row at a time, so a benchmark
run holds its occupation arrays, not a dict per row.

JSON is written by one emitter whose output equals
json.dumps(indent=2, sort_keys=True). It streams into the temp file, and a
container takes one of four paths: an empty one is spelled like a scalar; a
list of dicts that share one key set and hold only scalars (channel terms,
certificate checks) fills one template per list; any other container of
scalars is one call of json's C encoder; a container of containers writes
its items as it goes, so the document is never held as one string. A
scalar's text is a function of its value alone; the only memo is the
document's quoted `"key": ` texts.

write_encoding copies no step's ledger. It keeps one list of the ledger's
`"key": value` texts in key order, re-spells the entries each step changed
without comparing values (0.0 == -0.0 spell apart) and joins it once per
step; a step not chained onto the one before is spelled whole.

write_cluster makes no str per member. It writes the members' lines as
bytes, straight from the cluster's letter rows, in chunks of about
_CHUNK_BYTES.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from contextlib import contextmanager, suppress
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import sub
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, TextIO

import numpy as np

from .channels import PauliChannel
from .choi import CertificateReport
from .clusters import Cluster
from .dynamics import BenchmarkResult
from .encoder import EncodingResult, EncodingStep
from .sampling import SampleReport

__all__ = [
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
    "write_cluster",
    "write_csv",
    "write_encoding",
    "write_json",
]


@contextmanager
def _atomic_open(path: str | os.PathLike) -> Iterator[TextIO]:
    """A text file that replaces `path` when the block exits cleanly.

    The text goes to a temp file beside `path`; if the block raises, the
    temp file is removed and `path` is left as it was. An OSError that names
    a file names `path`, not the random temp name.
    """
    target = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


_encode = json.JSONEncoder().encode
# bytes of member lines per write of a cluster report
_CHUNK_BYTES = 1 << 20


def _text(value: Any) -> str:
    """json's text of a scalar or an empty container."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return _encode(value)


class _KeyTexts(dict):
    """Quoted `"key": ` texts of one document."""

    def __missing__(self, key: Any) -> str:
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
        text = self[key] = encode_basestring_ascii(key) + ": "
        return text


def _names(value: dict) -> list:
    """The keys of `value` in order; when they do not sort, the ones that are not strs."""
    try:
        return sorted(value)
    except TypeError:  # unorderable keys, so at least one is not a str
        return [k for k in value if not isinstance(k, str)]


class _Emitter:
    """Writes one document as json.dumps(indent=2, sort_keys=True) writes it,
    in the ways the module docstring lists. Raises TypeError on a non-str key
    or a value that is not a str, int, float, bool, None, list, tuple or dict.
    """

    def __init__(self, write: Callable[[str], Any]) -> None:
        self.write = write
        self.keys = _KeyTexts()

    def spell(self, value: Any, indent: str) -> str:
        """json's text of `value` as an item at `indent`."""
        if not isinstance(value, (dict, list, tuple)):
            return _text(value)
        parts: list[str] = []
        _Emitter(parts.append).emit(value, indent)
        return "".join(parts)

    def template(self, names: Iterable[str], indent: str) -> str:
        """A %-template of a dict at `indent` whose keys are `names`, in that order."""
        inner = indent + "  "
        heads = [self.keys[name].replace("%", "%%") + "%s" for name in names]
        return "{\n" + inner + (",\n" + inner).join(heads) + "\n" + indent + "}"

    def records(self, items: list[dict], indent: str) -> str | None:
        """The texts of `items`, dicts at `indent`, joined, when they share one
        nonempty key set and hold only scalars; else None."""
        keys = items[0].keys()
        if not keys or not all(map(keys.__eq__, map(dict.keys, items))):
            return None
        names = _names(items[0])
        texts = []
        for name in names:
            column = [item[name] for item in items]
            if any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, column))):
                return None
            texts.append(map(_text, column))
        template = self.template(names, indent)
        return (",\n" + indent).join(map(template.__mod__, zip(*texts)))

    def emit(self, value: Any, indent: str) -> None:
        if not isinstance(value, (dict, list, tuple)) or not value:
            self.write(_text(value))
            return
        inner = indent + "  "
        sep = ",\n" + inner
        is_dict = isinstance(value, dict)
        opening, closing = ("{\n", "}") if is_dict else ("[\n", "]")
        kinds = set(map(type, value.values() if is_dict else value))
        nested = any(issubclass(kind, (dict, list, tuple)) for kind in kinds)
        # json's C encoder sorts and quotes str keys itself; a dict with any
        # other key takes the path below, which refuses it
        if not nested and (not is_dict or all(issubclass(kind, str) for kind in set(map(type, value)))):
            items = json.JSONEncoder(sort_keys=True, separators=(sep, ": ")).encode(value)[1:-1]
        else:
            if is_dict:
                names = _names(value)
                heads = list(map(self.keys.__getitem__, names))  # refuses a non-str key
                values = list(map(value.__getitem__, names))
            else:
                heads, values = None, value
            records = heads is None and all(issubclass(kind, dict) for kind in kinds)
            items = self.records(values, inner) if records else None
            if items is None:
                lead = opening + inner
                for head, item in zip(heads or repeat(""), values):
                    self.write(lead + head)
                    self.emit(item, inner)
                    lead = sep
                self.write("\n" + indent + closing)
                return
        self.write(opening + inner + items + "\n" + indent + closing)


def write_json(data: Any, path: str | os.PathLike) -> None:
    with _atomic_open(path) as fh:
        _Emitter(fh.write).emit(data, "")
        fh.write("\n")


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-finite number {name} is not allowed")


def load_json(path: str | os.PathLike) -> Any:
    """Parse a JSON file, refusing the NaN and Infinity literals."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


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
    return str(value)


def write_csv(rows: Iterable[Mapping[str, Any]], path: str | os.PathLike) -> None:
    """Write `rows` under the first row's sorted keys, reading `rows` once.

    Raises ValueError on no rows or on a row whose keys differ from the first
    row's; the target is then left as it was.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        raise ValueError("refusing to write an empty CSV")
    headers = sorted(first)
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(headers)
        for row in chain((first,), rows):
            if row.keys() != first.keys():
                raise ValueError("rows disagree on CSV headers")
            writer.writerow([_cell(row[k]) for k in headers])


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


def _changes(steps: Iterable[EncodingStep]) -> Iterator[tuple[EncodingStep, bool, list]]:
    """Each step, whether it is chained onto the step before, and the (text,
    residue) entries it sets: its changes if chained, else its whole ledger."""
    before = None
    for step in steps:
        chained = before is not None and step.previous is before
        yield step, chained, [(p.text, r) for p, r in (step.changes if chained else step.residues)]
        before = step


def _encoding_dict(result: EncodingResult, steps: Any) -> dict:
    return {
        "mode": result.mode,
        "stop_reason": result.stop_reason,
        "converged": result.converged,
        "iterations": result.iterations,
        "encoded_mass": result.encoded_mass,
        "max_residue": result.max_residue,
        "min_residue": result.min_residue,
        "steps": steps,
        "residues": {s.text: r for s, r in result.residues.items()},
        "target": channel_to_dict(result.target),
        "noise": channel_to_dict(result.noise),
    }


def encoding_to_dict(result: EncodingResult) -> dict:
    """`result` with every step's whole ledger. To write it, call write_encoding:
    write_json of this dict spells each ledger whole, several times slower."""
    steps = []
    for s, chained, entries in _changes(result.steps):
        ledger = {**ledger, **dict(entries)} if chained else dict(entries)
        steps.append({"iteration": s.iteration, "node": s.node.text, "mass": s.mass,
                      "residues": ledger})
    return _encoding_dict(result, steps)


def write_encoding(result: EncodingResult, path: str | os.PathLike) -> None:
    """Write `result` as write_json(encoding_to_dict(result), path) does, copying no ledger."""
    fields = _encoding_dict(result, result.steps)
    with _atomic_open(path) as fh:
        emitter = _Emitter(fh.write)
        lead = "{\n  "
        for name in sorted(fields):
            fh.write(lead + emitter.keys[name])
            if name == "steps":
                _write_steps(emitter, result.steps)
            else:
                emitter.emit(fields[name], "  ")
            lead = ",\n  "
        fh.write("\n}\n")


def _write_steps(emitter: _Emitter, steps: tuple[EncodingStep, ...]) -> None:
    """An encoding's steps as write_json writes them at the document's second level."""
    write, keys, spell = emitter.write, emitter.keys, emitter.spell
    head, tail = emitter.template(("iteration", "mass", "node", "residues"), "    ").rsplit("%s", 1)
    lead = "[\n    "
    for step, chained, entries in _changes(steps):
        if not chained:  # the ledger's `"key": value` texts in key order, and their indices
            fragments, positions = [], {}
        added = {key for key, _ in entries if key not in positions}
        if added:
            spelled = dict(zip(positions, fragments))
            order = sorted([*positions, *added])
            fragments = list(map(spelled.get, order))
            positions = dict(zip(order, range(len(order))))
        for key, value in entries:
            fragments[positions[key]] = keys[key] + spell(value, "        ")
        opening = "{\n        " if fragments else "{}"
        write(lead + head % (_text(step.iteration), _text(step.mass), _text(step.node.text)) + opening)
        if fragments:  # written apart: the body is too large to copy again
            write(",\n        ".join(fragments))
        write(("\n      }" if fragments else "") + tail)
        lead = ",\n    "
    write("\n  ]" if steps else "[]")


def _cluster_dict(cluster: Cluster, members: Any) -> dict:
    return {
        "node": cluster.node.text,
        "members": members,
        "branching_dimension": cluster.branching_dimension,
        "cluster_dimension": cluster.cluster_dimension,
        "all_to_all": cluster.all_to_all,
        "leakage_entropy": cluster.leakage_entropy,
    }


def cluster_to_dict(cluster: Cluster) -> dict:
    """`cluster` as a dict. To write it, call write_cluster: write_json of
    this dict spells a str per member, several times slower."""
    return _cluster_dict(cluster, list(cluster.member_texts))


def write_cluster(cluster: Cluster, path: str | os.PathLike) -> None:
    """Write `cluster` as write_json(cluster_to_dict(cluster), path) does,
    spelling its members from its letter rows, never one str per member."""
    fields = _cluster_dict(cluster, None)
    with _atomic_open(path) as fh:
        emitter = _Emitter(fh.write)
        lead = "{\n  "
        for name in sorted(fields):
            fh.write(lead + emitter.keys[name])
            if name == "members":
                fh.write("[\n")
                _write_members(fh, cluster)
                fh.write("\n  ]")
            else:
                emitter.emit(fields[name], "  ")
            lead = ",\n  "
        fh.write("\n}\n")


def _write_members(fh: TextIO, cluster: Cluster) -> None:
    """The members' lines `    "TEXT",` as bytes, the last one's `,` and
    newline left out. Whole lines are written in chunks of about _CHUNK_BYTES,
    each one array of rows: a constant lead column, the letters and a
    constant end column."""
    n = cluster.node.n_qubits
    letters = np.frombuffer(cluster.letters, dtype=np.uint8).reshape(-1, n)
    lead, end = b'    "', b'",\n'
    width = len(lead) + n + len(end)
    lines = np.empty((min(len(letters), max(1, _CHUNK_BYTES // width)), width), dtype=np.uint8)
    lines[:, : len(lead)] = np.frombuffer(lead, dtype=np.uint8)
    lines[:, len(lead) + n :] = np.frombuffer(end, dtype=np.uint8)
    fh.flush()  # the text written so far goes first
    for first in range(0, len(letters), len(lines)):
        chunk = letters[first : first + len(lines)]
        lines[: len(chunk), len(lead) : len(lead) + n] = chunk
        block = lines[: len(chunk)].reshape(-1).data
        last = first + len(chunk) == len(letters)
        fh.buffer.write(block[:-2] if last else block)  # the last line stops at its quote


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


def benchmark_rows(result: BenchmarkResult) -> Iterator[dict]:
    sites = range(1, result.config.n_sites + 1)
    target_names = [f"site{q}_target" for q in sites]
    encoded_names = [f"site{q}_encoded" for q in sites]
    occupations = zip(result.target_occupations, result.encoded_occupations)
    for t, (target_row, encoded_row) in zip(result.times, occupations):
        target, encoded = target_row.tolist(), encoded_row.tolist()
        row: dict[str, Any] = {"time": float(t), "gap": max(map(abs, map(sub, target, encoded)))}
        row.update(zip(target_names, target))
        row.update(zip(encoded_names, encoded))
        yield row


def sample_rows(report: SampleReport) -> Iterator[dict]:
    for (w, s), count, freq in zip(report.channel.terms, report.counts, report.frequencies):
        yield {"string": s.text, "weight": w, "count": count, "frequency": freq}
