"""Semantic gate: keep a perturbed intent only when its sentence embedding
stays close to the original's.

Scores are cosine similarities between sentence embeddings, clipped to
[0, 1] for reporting. A record passes the gate when its similarity is
strictly greater than the threshold. Records whose intents cannot be
encoded (every token out-of-vocabulary) are marked with NaN and always land
in the failed partition: an unverifiable perturbation is not used.

``score_records`` encodes each original intent once per call, however many
kinds perturbed it: records are grouped by sample id and original text, and
an original that cannot be encoded gives NaN for its whole group. Each
perturbed intent is encoded once. The scalar ``cosine`` is kept per record,
because ``similarity`` is serialized and a changed last bit could flip the
strict ``> threshold`` comparison.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from perturbe.embedding import cosine
from perturbe.errors import ConfigError, DataError, EncodingFailure
from perturbe.perturb import GATE_FAIL, GATE_PASS, PerturbationRecord

DEFAULT_THRESHOLD = 0.80


@dataclass(frozen=True)
class GateConfig:
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if not (0.0 <= self.threshold <= 1.0):
            raise ConfigError(f"gate threshold must be in [0, 1], got {self.threshold}")


def score_records(records: Sequence[PerturbationRecord], encoder) -> list[PerturbationRecord]:
    """Fill in the similarity of every record, in place and in order; the
    gate verdicts stay unevaluated. Records that share a sample id and
    original intent (the kinds of one sample) share one encode of the
    original. A record whose original or perturbed intent cannot be encoded
    gets NaN."""
    groups: dict[tuple[str, str], list[PerturbationRecord]] = {}
    for record in records:
        groups.setdefault((record.sample_id, record.original_intent), []).append(record)
    for (sample_id, original_intent), group in groups.items():
        # One group at a time, so only one original embedding is alive.
        try:
            original = encoder.encode(original_intent, key=sample_id)
        except EncodingFailure:
            original = None
        for record in group:
            perturbed = None
            if original is not None:
                try:
                    perturbed = encoder.encode(
                        record.perturbed_intent, key=f"{sample_id}#{record.kind.value}"
                    )
                except EncodingFailure:
                    pass
            if perturbed is None:
                record.similarity = record.raw_similarity = math.nan
            else:
                record.raw_similarity = cosine(original, perturbed)
                record.similarity = min(1.0, max(0.0, record.raw_similarity))
    return list(records)


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "kind", "pass_rate"])
        for t in thresholds:
            for kind in sorted(by_kind):
                rates = threshold_sweep(by_kind[kind], [t])
                writer.writerow([t, kind, f"{rates[t]:.6f}"])
