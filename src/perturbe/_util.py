"""Small shared helpers: rounding, seeding, hashing, data-file and JSONL I/O."""

from __future__ import annotations

import hashlib
import json
import math
import random
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Iterator

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


def read_jsonl(path: str | Path, required: tuple[str, ...] = ()) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, record) pairs; blank lines are skipped. A
    record without one of the ``required`` fields is a DataError."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
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


# json.dumps(obj, ensure_ascii=False) builds an encoder with these settings on
# every call; one shared encoder gives the same bytes.
_encode_line = json.JSONEncoder(ensure_ascii=False).encode


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One ``json.dumps(record, ensure_ascii=False)`` line per record."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(_encode_line(rec) + "\n")
