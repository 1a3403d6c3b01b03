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
json.dumps(indent=2, sort_keys=True). It streams into the temp file: a
container of floats, or of floats and strs, joins memoized texts, any other
container of scalars is one call of json's C encoder, and a container of
containers writes its items as it goes, so the document is never held as
one string. json spells every scalar the memos do not hold. Float, str and
quoted-key texts are memoized per document. Zeros are not memoized:
0.0 == -0.0 as dict keys, but their texts differ.

An encoding's snapshots are spelled from each step's changes. Each one
records the texts its step changed and the snapshot it was chained onto;
the emitter keeps the last snapshot's `"key": value` texts in key order, so
a snapshot chained onto that one re-spells only its changed entries, and
rebuilds the order only when a change adds a string. Nothing is diffed by
value, since 0.0 == -0.0 and 1 == 1.0 == True compare equal but spell
differently; a snapshot that is mutated, copied or not chained onto the
last one written is spelled whole.
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
    "write_csv",
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


# json's text of a bare scalar, an empty container or a non-finite float
_encode = json.JSONEncoder().encode


class _ScalarTexts(dict):
    """Texts of one document's strs and floats, keyed by value.

    Only exact strs and floats may be looked up: 1 == 1.0 == True as keys.
    Zeros are not kept: 0.0 == -0.0, but their texts differ.
    """

    def __missing__(self, value: str | float) -> str:
        if type(value) is str:
            text = self[value] = encode_basestring_ascii(value)
            return text
        text = float.__repr__(value) if math.isfinite(value) else _encode(value)
        if value:
            self[value] = text
        return text


class _KeyTexts(dict):
    """Quoted `"key": ` texts of one document."""

    def __missing__(self, key: Any) -> str:
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
        text = self[key] = encode_basestring_ascii(key) + ": "
        return text


class _Snapshot(dict):
    """One step's ledger keyed by text, as `_snapshots` yields it.

    `base` is the snapshot its step was chained onto, or None when it was
    built from a whole ledger; `changed` names the texts its step changed.
    A mutation detaches it, and a copy or pickle of it is a plain dict, so
    a snapshot whose contents are not `base` updated at `changed` is never
    spelled from its changes.
    """

    __slots__ = ("base", "changed")

    def __reduce__(self) -> tuple:
        return dict, (dict(self),)


def _detaching(name: str) -> Callable:
    method = getattr(dict, name)

    def mutate(self: _Snapshot, *args: Any, **kwargs: Any) -> Any:
        self.base = self.changed = None
        return method(self, *args, **kwargs)

    return mutate


for _name in ("__setitem__", "__delitem__", "__ior__", "clear", "pop", "popitem", "setdefault",
              "update"):
    setattr(_Snapshot, _name, _detaching(_name))


class _Emitter:
    """Writes one document as json.dumps(indent=2, sort_keys=True) writes it.

    A container of floats, or of floats and strs, joins memoized texts, a
    container of other scalars is one call of json's C encoder, and a
    container that holds containers writes its items as it goes, so no text
    larger than one container of scalars is ever built. The emitter keeps
    the `"key": value` fragments of the last snapshot it wrote, in key
    order, so a snapshot chained onto that one re-spells only its changed
    entries. Raises TypeError on a non-str key or a value that is not a
    str, int, float, bool, None, list, tuple or dict.
    """

    def __init__(self, write: Callable[[str], Any]) -> None:
        self.write = write
        self.texts = _ScalarTexts()
        self.keys = _KeyTexts()
        self.last: _Snapshot | None = None  # the last snapshot whose fragments are kept
        self.fragments: list[str] = []
        self.positions: dict[str, int] = {}  # key -> index in fragments

    def text(self, value: Any) -> str:
        """json's text of a scalar."""
        return self.texts[value] if type(value) in (str, float) else _encode(value)

    def emit(self, value: Any, indent: str) -> None:
        if not isinstance(value, (dict, list, tuple)) or not value:
            self.write(self.text(value))
            return
        inner = indent + "  "
        sep = ",\n" + inner
        if isinstance(value, _Snapshot) and value.base is not None and value.base is self.last:
            fragments = self.respell(value)
            if fragments is not None:  # three writes: the body is too large to copy again
                self.write("{\n" + inner)
                self.write(sep.join(fragments))
                self.write("\n" + indent + "}")
                return
        if isinstance(value, dict):
            try:
                names = sorted(value)
            except TypeError:  # unorderable keys, so at least one is not a str
                names = [k for k in value if not isinstance(k, str)]
            heads = list(map(self.keys.__getitem__, names))  # refuses a non-str key
            values = list(map(value.__getitem__, names))
            opening, closing = "{\n", "}"
        else:
            heads = None
            values = value
            opening, closing = "[\n", "]"
        kinds = set(map(type, values))
        if float in kinds and kinds <= {str, float}:  # ledger snapshots, channel terms
            texts = map(self.texts.__getitem__, values)
            if heads is None:
                items = sep.join(texts)
            else:
                fragments = list(map(str.__add__, heads, texts))
                items = sep.join(fragments)
                if isinstance(value, _Snapshot) and value.changed is not None:
                    self.last, self.fragments = value, fragments
                    self.positions = dict(zip(names, range(len(names))))
        elif any(issubclass(kind, (dict, list, tuple)) for kind in kinds):
            lead = opening + inner
            for head, item in zip(heads or repeat(""), values):
                self.write(lead + head)
                self.emit(item, inner)
                lead = sep
            self.write("\n" + indent + closing)
            return
        else:
            items = json.JSONEncoder(sort_keys=True, separators=(sep, ": ")).encode(value)[1:-1]
        self.write(opening + inner + items + "\n" + indent + closing)

    def respell(self, snapshot: _Snapshot) -> list[str] | None:
        """The fragments of `snapshot`, chained onto the last one written,
        from that one's fragments and its changed entries; None if one of
        those entries is a container."""
        changed = snapshot.changed
        values = list(map(snapshot.__getitem__, changed))
        if any(isinstance(v, (dict, list, tuple)) for v in values):
            return None
        positions = self.positions
        if not all(map(positions.__contains__, changed)):  # a new string: rebuild the order
            order = sorted(snapshot)
            old = self.fragments
            self.fragments = [old[positions[k]] if k in positions else "" for k in order]
            self.positions = positions = dict(zip(order, range(len(order))))
        fragments = self.fragments
        for key, value in zip(changed, values):
            fragments[positions[key]] = self.keys[key] + self.text(value)
        self.last = snapshot
        return fragments


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


def _snapshots(steps: Iterable[EncodingStep]) -> Iterator[_Snapshot]:
    """Each step's ledger keyed by text, from one running ledger that takes
    each step's changes; a step not chained onto the one before replays.
    Each snapshot records the texts it took and, when its step is chained
    onto the one before, the snapshot before it."""
    ledger: dict[str, float] = {}
    before = snapshot = None
    for step in steps:
        if step.previous is before:
            changes, base = step.changes, snapshot
        else:
            ledger = {}
            changes, base = step.residues, None
        entries = [(p.text, r) for p, r in changes]
        ledger.update(entries)
        snapshot = _Snapshot(ledger)
        snapshot.base, snapshot.changed = base, tuple(text for text, _ in entries)
        yield snapshot
        before = step


def encoding_to_dict(result: EncodingResult) -> dict:
    return {
        "mode": result.mode,
        "stop_reason": result.stop_reason,
        "converged": result.converged,
        "iterations": result.iterations,
        "encoded_mass": result.encoded_mass,
        "max_residue": result.max_residue,
        "min_residue": result.min_residue,
        "steps": [
            {"iteration": s.iteration, "node": s.node.text, "mass": s.mass, "residues": snapshot}
            for s, snapshot in zip(result.steps, _snapshots(result.steps))
        ],
        "residues": {s.text: r for s, r in result.residues.items()},
        "target": channel_to_dict(result.target),
        "noise": channel_to_dict(result.noise),
    }


def cluster_to_dict(cluster: Cluster) -> dict:
    return {
        "node": cluster.node.text,
        "members": list(cluster.member_texts),
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
