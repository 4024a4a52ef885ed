"""Assemble size-preserving augmented splits and the experiment matrix.

Augmentation never grows a dataset: exactly round(p * N) samples have their
intent replaced by a gate-passing perturbed version; snippets are never
touched. The experiment matrix materializes the cells behind the three
research questions (perturbed-test robustness, augmented training against
perturbed tests, augmented training against the original test) and writes
a manifest whose digest is reproducible for a fixed seed.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from perturbe._util import canonical_json, round_half_away, sha256_file, sha256_text, stable_seed
from perturbe.corpus import Corpus, Sample, save_corpus
from perturbe.errors import ConfigError, DataError
from perturbe.perturb import GATE_PASS, PerturbationRecord, PerturbKind
from perturbe.vocab import count_frequencies


class KindFamily(enum.Enum):
    SUBSTITUTION = "substitution"
    OMISSION = "omission"


_FAMILY_KINDS = {
    KindFamily.SUBSTITUTION: {PerturbKind.SUBST_CONSTRAINED, PerturbKind.SUBST_UNCONSTRAINED},
    KindFamily.OMISSION: {
        PerturbKind.OMIT_ACTION,
        PerturbKind.OMIT_STRUCTURE,
        PerturbKind.OMIT_NAME,
    },
}


@dataclass(frozen=True)
class AugmentPlan:
    """How much of a split to replace, with which perturbation kind(s)."""

    ratio_p: float
    kind: PerturbKind | KindFamily
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.ratio_p <= 1.0):
            raise ConfigError(f"augmentation ratio must be in [0, 1], got {self.ratio_p}")

    def matching_kinds(self) -> set[PerturbKind]:
        if isinstance(self.kind, KindFamily):
            return _FAMILY_KINDS[self.kind]
        return {self.kind}


@dataclass
class ExperimentCell:
    cell_id: str
    kind: str
    train_ratio_p: float
    test_ratio_p: float
    paths: dict[str, str] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.test_ratio_p not in (0.0, 1.0):
            raise ConfigError("test sets are either original (0) or fully perturbed (1)")


def augment_split(
    split: Corpus, records: list[PerturbationRecord], plan: AugmentPlan
) -> Corpus:
    """Replace the intents of exactly round(p * N) seeded-chosen samples.

    All records must have passed the gate. When the plan names a kind
    family, the variant used for each chosen sample is drawn uniformly among
    the categories that have a passing record for it. This is
    ``_index_passed`` followed by ``_materialize``; ``build_matrix`` indexes
    each split's records once per family and materializes every cell from
    that index.
    """
    return _materialize(split, _index_passed(records, plan.matching_kinds()), plan)


def _index_passed(
    records: list[PerturbationRecord], kinds: set[PerturbKind]
) -> dict[str, dict[str, PerturbationRecord]]:
    """sample id -> kind value -> record, for the records of the given kinds.
    Every record, of any kind, must have passed the gate."""
    by_id: dict[str, dict[str, PerturbationRecord]] = {}
    for record in records:
        if record.gate_pass != GATE_PASS:
            raise DataError(
                f"record {record.sample_id!r} ({record.kind.value}) has not passed the gate"
            )
        if record.kind in kinds:
            by_id.setdefault(record.sample_id, {})[record.kind.value] = record
    return by_id


def _materialize(
    split: Corpus, by_id: dict[str, dict[str, PerturbationRecord]], plan: AugmentPlan
) -> Corpus:
    """The split with round(p * N) seeded-chosen intents replaced from an
    ``_index_passed`` index. Samples not chosen are kept as they are."""
    need = round_half_away(plan.ratio_p * len(split))
    split_ids = set(split.ids())
    covered = sorted(sid for sid in by_id if sid in split_ids)
    if len(covered) < need:
        raise DataError(
            f"augmentation needs {need} perturbable samples but only "
            f"{len(covered)} are covered by gate-passing records "
            f"(short by {need - len(covered)})"
        )

    rng = random.Random(plan.seed)
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


def vocab_growth(variants: list[Corpus], stoplist: set[str]) -> list[int]:
    """Distinct non-stopword intent tokens per corpus variant (the stoplist
    is lowercase)."""
    return [
        count_frequencies((s.intent for s in corpus), stoplist).unique_count
        for corpus in variants
    ]


def _cell_inventory(
    kinds: list[KindFamily], ratios: list[float]
) -> list[tuple[str, float, float]]:
    """Deterministic (kind, train_p, test_p) inventory covering the three
    research questions, duplicates removed."""
    cells: list[tuple[str, float, float]] = [("none", 0.0, 0.0)]
    for family in kinds:
        for p in sorted(set(ratios)):
            cells.append((family.value, p, 1.0))
        if 0.5 in ratios:
            cells.append((family.value, 0.5, 0.0))
    return cells


def _cell_id(kind: str, train_p: float, test_p: float) -> str:
    return f"{kind}_train{int(round(train_p * 100)):03d}_test{int(round(test_p * 100)):03d}"


def build_matrix(
    splits: dict[str, Corpus],
    records_by_split: dict[str, list[PerturbationRecord]],
    kinds: list[KindFamily],
    ratios: list[float],
    seed: int,
    out_dir: str | Path,
    apply_to_validation: bool = True,
) -> tuple[list[ExperimentCell], str]:
    """Materialize every experiment cell under out_dir and write a manifest.

    Returns the cells and the manifest digest. Reruns with identical inputs
    and seed produce byte-identical trees and digests. Each split's records
    are checked and indexed once per family, when a cell first needs them,
    and every cell split is materialized from that index; the result equals
    one ``augment_split`` call per cell split.
    """
    for name in ("train", "val", "test"):
        if name not in splits:
            raise ConfigError(f"missing split {name!r}")
    out_dir = Path(out_dir)
    cells: list[ExperimentCell] = []
    # (split, family) -> index of that split's records of that family. The
    # "none" cells index the substitution family, as augment_split would.
    indexes: dict[tuple[str, KindFamily], dict[str, dict[str, PerturbationRecord]]] = {}
    for kind_label, train_p, test_p in _cell_inventory(kinds, ratios):
        cell_id = _cell_id(kind_label, train_p, test_p)
        cell_dir = out_dir / "cells" / cell_id
        cell_dir.mkdir(parents=True, exist_ok=True)
        cell = ExperimentCell(
            cell_id=cell_id, kind=kind_label, train_ratio_p=train_p, test_ratio_p=test_p
        )
        family = KindFamily(kind_label) if kind_label != "none" else None
        for split_name, split in splits.items():
            if family is None or (split_name == "val" and not apply_to_validation):
                p = 0.0
            elif split_name == "test":
                p = test_p
            else:
                p = train_p
            plan_kind = family if family is not None else KindFamily.SUBSTITUTION
            plan = AugmentPlan(
                ratio_p=p, kind=plan_kind, seed=stable_seed(seed, cell_id, split_name)
            )
            by_id = indexes.get((split_name, plan_kind))
            if by_id is None:
                by_id = _index_passed(records_by_split.get(split_name, []), plan.matching_kinds())
                indexes[(split_name, plan_kind)] = by_id
            materialized = _materialize(split, by_id, plan)
            target = cell_dir / f"{split_name}.jsonl"
            save_corpus(materialized, target)
            cell.paths[split_name] = str(target.relative_to(out_dir))
            cell.digests[split_name] = sha256_file(target)
        cells.append(cell)

    manifest = {
        "seed": seed,
        "kinds": [k.value for k in kinds],
        "ratios": sorted(set(ratios)),
        "cells": [
            {
                "id": c.cell_id,
                "kind": c.kind,
                "train_p": c.train_ratio_p,
                "test_p": c.test_ratio_p,
                "paths": c.paths,
                "sha256": c.digests,
            }
            for c in cells
        ],
    }
    digest = sha256_text(canonical_json(manifest))
    manifest["digest"] = digest
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    return cells, digest
