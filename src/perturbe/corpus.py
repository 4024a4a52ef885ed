"""Load, validate, split, and persist intent/snippet datasets.

Datasets are (NL intent, code snippet) pairs. Multi-instruction snippets
keep their source convention: instructions are joined by the literal
two-character sequence ``\\n`` (backslash + n), not a real newline.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from perturbe._util import read_jsonl, round_half_away, write_csv, write_jsonl
from perturbe.errors import ConfigError, DataError

# Two-character separator between instructions of a multi-line snippet,
# as stored in the source data.
NEWLINE_MARKER = "\\n"

RATIO_TOLERANCE = 1e-9


@dataclass
class Sample:
    """One (intent, snippet) pair. ``multi_line`` is derived, never supplied."""

    id: str
    intent: str
    snippet: str
    multi_line: bool = field(init=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("sample id must be non-empty")
        if not self.intent.strip():
            raise DataError(f"sample {self.id!r}: intent is empty")
        if not self.snippet:
            raise DataError(f"sample {self.id!r}: snippet is empty")
        self.multi_line = NEWLINE_MARKER in self.snippet


@dataclass
class Corpus:
    """Ordered collection of samples with unique ids."""

    samples: list[Sample]
    name: str = ""
    _by_id: dict[str, Sample] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_id = {}
        for s in self.samples:
            if s.id in self._by_id:
                raise DataError(f"duplicate sample id {s.id!r} in corpus {self.name!r}")
            self._by_id[s.id] = s

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def ids(self) -> list[str]:
        return [s.id for s in self.samples]

    def by_id(self, sample_id: str) -> Sample:
        return self._by_id[sample_id]


@dataclass(frozen=True)
class SplitSpec:
    """Train/val/test ratios plus the shuffle seed."""

    train_ratio: float = 0.8
    val_ratio: float = 0.1
    test_ratio: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        ratios = (self.train_ratio, self.val_ratio, self.test_ratio)
        if any(not (0.0 < r < 1.0) for r in ratios):
            raise ConfigError(f"split ratios must each be in (0, 1), got {ratios}")
        if abs(sum(ratios) - 1.0) > RATIO_TOLERANCE:
            raise ConfigError(f"split ratios must sum to 1, got {sum(ratios)!r}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must fit in 64 unsigned bits")


def _record_to_sample(record: dict, row_index: int, where: str) -> Sample:
    for key in ("intent", "snippet"):
        if key not in record:
            raise DataError(f"{where}: missing field {key!r}")
    sample_id = record.get("id")
    if sample_id is None or sample_id == "":
        sample_id = f"{row_index:06d}"
    return Sample(id=str(sample_id), intent=str(record["intent"]), snippet=str(record["snippet"]))


def _is_csv(path: Path) -> bool:
    return path.suffix.lower() == ".csv"


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus: CSV (header id,intent,snippet; a UTF-8 BOM is skipped)
    when the path ends in ``.csv`` (any case), JSONL otherwise."""
    path = Path(path)
    samples: list[Sample] = []
    if _is_csv(path):
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                pass  # empty file -> empty corpus
            elif not {"intent", "snippet"}.issubset(reader.fieldnames):
                raise DataError(f"{path}: CSV header must include intent,snippet columns")
            for row_index, record in enumerate(reader):
                samples.append(
                    _record_to_sample(record, row_index, f"{path}:row {row_index + 2}")
                )
    else:
        for row_index, (lineno, record) in enumerate(read_jsonl(path)):
            samples.append(_record_to_sample(record, row_index, f"{path}:{lineno}"))
    return Corpus(samples=samples, name=path.stem)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Persist a corpus as CSV when the path ends in ``.csv`` (any case), and
    as JSONL otherwise; load_corpus() round-trips (id, intent, snippet)
    exactly."""
    if _is_csv(Path(path)):
        header = ("id", "intent", "snippet")
        write_csv(path, [header, *((s.id, s.intent, s.snippet) for s in corpus)])
    else:
        write_jsonl(path, ({"id": s.id, "intent": s.intent, "snippet": s.snippet} for s in corpus))


def split_corpus(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Seeded 3-way partition; samples are sorted by id before shuffling so the
    result does not depend on file order. Rounding remainders go to train."""
    if len(corpus) == 0:
        raise DataError("cannot split an empty corpus")
    n = len(corpus)
    n_val = round_half_away(spec.val_ratio * n)
    n_test = round_half_away(spec.test_ratio * n)
    n_train = n - n_val - n_test
    if n_train <= 0:
        raise ConfigError(f"split of {n} samples leaves no training data")
    ordered = sorted(corpus.samples, key=lambda s: s.id)
    rng = random.Random(spec.seed)
    rng.shuffle(ordered)
    train = Corpus(ordered[:n_train], name=f"{corpus.name}-train")
    val = Corpus(ordered[n_train : n_train + n_val], name=f"{corpus.name}-val")
    test = Corpus(ordered[n_train + n_val :], name=f"{corpus.name}-test")
    return train, val, test
