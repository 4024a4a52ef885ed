"""Small shared helpers: rounding, seeding, hashing and data-file I/O. It owns
how output files are written (every writer opens its file by ``open_output``)
and how JSONL inputs are decoded (every reader is built on ``read_jsonl``)."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from importlib import resources
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, TextIO

from perturbe.errors import DataError


def round_half_away(x: float) -> int:
    """Round half away from zero (2.5 -> 3, -2.5 -> -3).

    Python's built-in round() is banker's rounding, which would make split
    and substitution counts disagree with the documented arithmetic.
    """
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def stable_seed(seed: int, *parts: str) -> int:
    """Derive a 64-bit seed from a base seed and string parts.

    Uses blake2b, not hash(): the builtin is salted per process and would
    break run-to-run determinism.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode("utf-8"))
    for part in parts:
        h.update(b"\x00")
        h.update(part.encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


def per_sample_rng(seed: int, sample_id: str) -> random.Random:
    """RNG seeded independently per sample so results do not depend on
    iteration order."""
    return random.Random(stable_seed(seed, sample_id))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding used for digests and manifests."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def pretty_json(obj: Any) -> str:
    """Indented, key-sorted JSON: the form of every manifest and metrics file."""
    return json.dumps(obj, indent=2, sort_keys=True)


def open_output(path: str | Path) -> TextIO:
    """``path`` opened to write UTF-8 text, newlines untranslated; its directory is created."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def write_csv(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Rows in the csv module's default dialect: commas, minimal quoting, CRLF."""
    with open_output(path) as fh:
        csv.writer(fh).writerows(rows)


def write_json(path: str | Path, obj: Any) -> None:
    """``pretty_json(obj)`` and a newline to ``path``."""
    with open_output(path) as fh:
        fh.write(pretty_json(obj) + "\n")


def read_data_lines(path: str | Path | None, shipped: str, raw: bool = False) -> list[str]:
    """Lines of the file at ``path``, or of the shipped data file ``shipped``
    when ``path`` is unset. Unless ``raw``, every line is stripped, and blank
    lines and lines starting with '#' are dropped."""
    if path:
        text = Path(path).read_text("utf-8")
    else:
        text = resources.files("perturbe.data").joinpath(shipped).read_text("utf-8")
    if raw:
        return text.splitlines()
    lines = (line.strip() for line in text.splitlines())
    return [line for line in lines if line and not line.startswith("#")]


# json.loads runs decode and raw_decode in Python on every call; the scanner
# under them, built once (json's pure-Python one where C has none), gives the
# same value for a line it consumes whole. Any other line (a BOM, extra data,
# invalid JSON) goes to json.loads, so its error is json's.
_scan_once = json.JSONDecoder().scan_once


def read_jsonl(path: str | Path, required: tuple[str, ...] = ()) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, record) pairs; blank lines are skipped. A
    record without one of the ``required`` fields is a DataError."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            text = line.strip(" \t\n\r")
            try:
                obj, end = _scan_once(text, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(text):
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            for key in required:
                if key not in obj:
                    raise DataError(f"{path}:{lineno}: expected {' and '.join(required)} fields")
            yield lineno, obj


def read_json_object(path: str | Path) -> dict:
    """The JSON object a whole file holds; a DataError names the file when it
    holds invalid JSON or another JSON value."""
    try:
        obj = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    return obj


# json.dumps(obj, ensure_ascii=False) builds json's C encoder anew on every
# call, with these arguments; one built once writes the same bytes. It skips
# the circular-reference check, which only changes the error that a record
# containing itself raises. A Python without the C encoder uses the public one.
if c_make_encoder is None:
    _encode_line = json.JSONEncoder(ensure_ascii=False).encode
else:
    _iterencode = c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring, None, ": ", ", ", False, False, True
    )

    def _encode_line(record: dict) -> str:
        return "".join(_iterencode(record, 0))


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One ``json.dumps(record, ensure_ascii=False)`` line per record."""
    with open_output(path) as fh:
        for rec in records:
            fh.write(_encode_line(rec) + "\n")
