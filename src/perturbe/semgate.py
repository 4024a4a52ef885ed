"""Semantic gate: keep a perturbed intent only when its sentence embedding
stays close to the original's.

Scores are cosine similarities between sentence embeddings, clipped to
[0, 1] for reporting. A record passes the gate when its similarity is
strictly greater than the threshold; the threshold lies in [0, 1], so
clipping never changes a verdict. Records whose intents cannot be
encoded (every token out-of-vocabulary) are marked with NaN and always land
in the failed partition: an unverifiable perturbation is not used.

``score_records`` groups records by sample id and original text and scores
the groups in chunks of about ``CHUNK_TEXTS`` texts, which bounds the
arrays a chunk holds. Per chunk the encoder is called twice, on the
originals (one per group) and on the perturbed intents of the groups whose
original could be encoded; an original that cannot be encoded gives NaN for
its whole group. Every cosine of the chunk is then one ``cosines`` call,
whose dots and norms are the BLAS dots of the per-pair formula, and each
similarity is clipped with Python's ``min`` and ``max``. So every
``similarity``, which is serialized and compared strictly with the
threshold, has the bits of one pair scored on its own: a NaN cosine clips
to 0.0 and ``-0.0`` to ``0.0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from perturbe._util import write_csv
from perturbe.embedding import cosines
from perturbe.errors import ConfigError, DataError
from perturbe.perturb import GATE_FAIL, GATE_PASS, PerturbationRecord

DEFAULT_THRESHOLD = 0.80

# Texts (originals plus perturbed intents) per scoring chunk.
CHUNK_TEXTS = 64


@dataclass(frozen=True)
class GateConfig:
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if not (0.0 <= self.threshold <= 1.0):
            raise ConfigError(f"gate threshold must be in [0, 1], got {self.threshold}")


_Group = tuple[str, str, list[PerturbationRecord]]


def score_records(records: Sequence[PerturbationRecord], encoder) -> list[PerturbationRecord]:
    """Fill in the similarity of every record, in place and in order; the
    gate verdicts stay unevaluated. Records that share a sample id and
    original intent (the kinds of one sample) share one encode of the
    original. A record whose original or perturbed intent cannot be encoded
    gets NaN."""
    groups: dict[tuple[str, str], list[PerturbationRecord]] = {}
    for record in records:
        groups.setdefault((record.sample_id, record.original_intent), []).append(record)
    chunk: list[_Group] = []
    texts = 0
    for (sample_id, original_intent), group in groups.items():
        chunk.append((sample_id, original_intent, group))
        texts += 1 + len(group)
        if texts >= CHUNK_TEXTS:
            _score_chunk(chunk, encoder)
            chunk, texts = [], 0
    if chunk:
        _score_chunk(chunk, encoder)
    return list(records)


def _score_chunk(chunk: list[_Group], encoder) -> None:
    originals, encoded = encoder.encode(
        [original for _, original, _ in chunk], [sample_id for sample_id, _, _ in chunk]
    )
    pairs: list[tuple[int, PerturbationRecord]] = []
    for index, ((_, _, group), ok) in enumerate(zip(chunk, encoded.tolist())):
        if ok:
            pairs.extend((index, record) for record in group)
        else:
            for record in group:
                record.similarity = math.nan
    perturbed, encoded = encoder.encode(
        [record.perturbed_intent for _, record in pairs],
        [f"{record.sample_id}#{record.kind.value}" for _, record in pairs],
    )
    scored = np.flatnonzero(encoded)
    owners = np.array([index for index, _ in pairs], dtype=np.intp)
    sims = iter(cosines(originals[owners[scored]], perturbed[scored]).tolist())
    for (_, record), ok in zip(pairs, encoded.tolist()):
        record.similarity = min(1.0, max(0.0, next(sims))) if ok else math.nan


def gate(
    records: Sequence[PerturbationRecord], cfg: GateConfig
) -> tuple[list[PerturbationRecord], list[PerturbationRecord]]:
    """Partition scored records into (passed, failed), preserving order."""
    passed: list[PerturbationRecord] = []
    failed: list[PerturbationRecord] = []
    for record in records:
        if record.similarity is None:
            raise DataError(f"record {record.sample_id!r} has not been scored")
        if record.similarity > cfg.threshold:  # NaN comparisons are False
            record.gate_pass = GATE_PASS
            passed.append(record)
        else:
            record.gate_pass = GATE_FAIL
            failed.append(record)
    return passed, failed


def threshold_sweep(
    records: Sequence[PerturbationRecord], thresholds: Sequence[float]
) -> dict[float, float]:
    """Pass rate per threshold; monotonically non-increasing in the threshold."""
    if not records:
        raise DataError("cannot sweep over an empty record list")
    for record in records:
        if record.similarity is None:
            raise DataError(f"record {record.sample_id!r} has not been scored")
    rates: dict[float, float] = {}
    for t in thresholds:
        passing = sum(1 for r in records if r.similarity > t)
        rates[t] = passing / len(records)
    return rates


def write_sweep_csv(
    records: Sequence[PerturbationRecord],
    thresholds: Sequence[float],
    path: str | Path,
) -> None:
    """One row per (threshold, kind): threshold,kind,pass_rate."""
    by_kind: dict[str, list[PerturbationRecord]] = {}
    for record in records:
        by_kind.setdefault(record.kind.value, []).append(record)
    rates = {kind: threshold_sweep(by_kind[kind], thresholds) for kind in sorted(by_kind)}
    rows = [(t, kind, f"{rate[t]:.6f}") for t in thresholds for kind, rate in rates.items()]
    write_csv(path, [("threshold", "kind", "pass_rate"), *rows])
