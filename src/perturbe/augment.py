"""Assemble size-preserving augmented splits and the experiment matrix.

Augmentation never grows a dataset: exactly round(p * N) samples have their
intent replaced by a gate-passing perturbed version; snippets are never
touched. A plan names one ``PerturbKind`` or one ``KindFamily``; a family
draws on the records of every kind whose ``family`` it is. The experiment
matrix materializes the cells behind the three research questions from one
augmentation per family, split and ratio, so cells that share a split share
its file, and writes a manifest whose digest is reproducible for a fixed
seed. A cell exists only as the JSON object the manifest lists; its id
names the family and both ratios in whole percents (``ratio_label``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from perturbe._util import (
    canonical_json,
    round_half_away,
    sha256_file,
    sha256_text,
    stable_seed,
    write_json,
)
from perturbe.corpus import Corpus, Sample, save_corpus
from perturbe.errors import ConfigError, DataError
from perturbe.perturb import GATE_PASS, KindFamily, PerturbationRecord, PerturbKind
from perturbe.vocab import count_frequencies


@dataclass(frozen=True)
class AugmentPlan:
    """How much of a split to replace, with which perturbation kind(s)."""

    ratio_p: float
    kind: PerturbKind | KindFamily
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.ratio_p <= 1.0):
            raise ConfigError(f"augmentation ratio must be in [0, 1], got {self.ratio_p}")


def augment_split(
    split: Corpus, records: list[PerturbationRecord], plan: AugmentPlan
) -> Corpus:
    """Replace the intents of exactly round(p * N) seeded-chosen samples.

    All records must have passed the gate. When the plan names a kind
    family, each chosen sample's variant is drawn uniformly among the kinds
    that have a passing record for it. The draws depend on the plan's seed
    and kind only, never on the split's name. Samples not chosen are kept.
    """
    _require_passed(records)
    kinds = {kind for kind in PerturbKind if plan.kind in (kind, kind.family)}
    by_id: dict[str, dict[str, PerturbationRecord]] = {}
    for record in records:
        if record.kind in kinds:
            by_id.setdefault(record.sample_id, {})[record.kind.value] = record

    need = round_half_away(plan.ratio_p * len(split))
    split_ids = set(split.ids())
    covered = sorted(sid for sid in by_id if sid in split_ids)
    if len(covered) < need:
        raise DataError(
            f"augmentation needs {need} perturbable samples but only "
            f"{len(covered)} are covered by gate-passing records "
            f"(short by {need - len(covered)})"
        )

    # Derived, so the draws are independent of split_corpus's Random(seed).
    rng = random.Random(stable_seed(plan.seed, "augment", plan.kind.value))
    chosen = set(rng.sample(covered, need))
    replacement: dict[str, PerturbationRecord] = {}
    for sid in sorted(chosen):
        candidates = by_id[sid]
        kind_key = rng.choice(sorted(candidates))
        replacement[sid] = candidates[kind_key]

    out: list[Sample] = []
    for sample in split:
        record = replacement.get(sample.id)
        if record is None:
            out.append(sample)
        else:
            out.append(Sample(id=sample.id, intent=record.perturbed_intent, snippet=sample.snippet))
    return Corpus(out, name=split.name)


def _require_passed(records: list[PerturbationRecord]) -> None:
    for record in records:
        if record.gate_pass != GATE_PASS:
            raise DataError(
                f"record {record.sample_id!r} ({record.kind.value}) has not passed the gate"
            )


def vocab_growth(variants: list[Corpus], stoplist: set[str]) -> list[int]:
    """Distinct non-stopword intent tokens per corpus variant (the stoplist
    is lowercase)."""
    return [
        count_frequencies((s.intent for s in corpus), stoplist).unique_count
        for corpus in variants
    ]


def ratio_label(p: float) -> str:
    """How a cell id names a ratio: p in whole percents, three digits."""
    return f"{round(p * 100):03d}"


def _cell_inventory(
    kinds: list[KindFamily], ratios: list[float]
) -> list[tuple[KindFamily | None, float, float]]:
    """Deterministic (family, train_p, test_p) inventory covering the three
    research questions; the baseline cell has no family."""
    cells: list[tuple[KindFamily | None, float, float]] = [(None, 0.0, 0.0)]
    for family in kinds:
        cells.extend((family, p, 1.0) for p in sorted(ratios))
        if 0.5 in ratios:
            cells.append((family, 0.5, 0.0))
    return cells


def _cell(family: KindFamily | None, train_p: float, test_p: float) -> dict:
    """A manifest cell object, before its split files fill paths and sha256."""
    kind = family.value if family else "none"
    return {
        "id": f"{kind}_train{ratio_label(train_p)}_test{ratio_label(test_p)}",
        "kind": kind,
        "train_p": train_p,
        "test_p": test_p,
        "paths": {},
        "sha256": {},
    }


def build_matrix(
    splits: dict[str, Corpus],
    records_by_split: dict[str, list[PerturbationRecord]],
    kinds: list[KindFamily],
    ratios: list[float],
    seed: int,
    out_dir: str | Path,
    apply_to_validation: bool = True,
) -> tuple[list[dict], str]:
    """Materialize every experiment cell under out_dir and write a manifest.

    Returns the manifest's cell objects (``id``, ``kind``, ``train_p``,
    ``test_p``, and ``paths`` and ``sha256`` by split) and its digest. Reruns
    with identical inputs and seed produce byte-identical trees and digests.
    Each distinct (family, split, p > 0) is augmented once, by
    ``augment_split`` with ``seed``, and written to every cell that uses it; a
    split at p = 0 is written as given. Every record is checked and every
    augmentation is made, in cell order, before the first directory is
    created, so a ``DataError`` leaves nothing behind.
    """
    for name in ("train", "val", "test"):
        if name not in splits:
            raise ConfigError(f"missing split {name!r}")
    for name in splits:
        _require_passed(records_by_split.get(name, []))
    cells: list[tuple[dict, dict[str, Corpus]]] = []
    augmented: dict[tuple[KindFamily | None, str, float], Corpus] = {}
    for family, train_p, test_p in _cell_inventory(kinds, ratios):
        contents: dict[str, Corpus] = {}
        for split_name, split in splits.items():
            p = test_p if split_name == "test" else train_p
            if split_name == "val" and not apply_to_validation:
                p = 0.0
            key = (family, split_name, p)
            if p > 0.0 and key not in augmented:
                plan = AugmentPlan(ratio_p=p, kind=family, seed=seed)
                augmented[key] = augment_split(split, records_by_split.get(split_name, []), plan)
            contents[split_name] = augmented.get(key, split)
        cells.append((_cell(family, train_p, test_p), contents))

    out_dir = Path(out_dir)
    for cell, contents in cells:
        for split_name, content in contents.items():
            target = out_dir / "cells" / cell["id"] / f"{split_name}.jsonl"
            save_corpus(content, target)
            cell["paths"][split_name] = str(target.relative_to(out_dir))
            cell["sha256"][split_name] = sha256_file(target)

    manifest = {
        "seed": seed,
        "kinds": [k.value for k in kinds],
        "ratios": sorted(ratios),
        "cells": [cell for cell, _ in cells],
    }
    digest = sha256_text(canonical_json(manifest))
    manifest["digest"] = digest
    write_json(out_dir / "manifest.json", manifest)
    return manifest["cells"], digest
