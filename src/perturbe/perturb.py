"""Word-level perturbations of code descriptions.

Two families are implemented:

* substitution: replace a seeded sample of eligible words with embedding
  neighbors. Constrained substitution requires the neighbor to share the
  original word's POS tag and clear a cosine threshold; unconstrained takes
  the single nearest neighbor from a wider pool regardless.
* omission: remove every word of one category (action verbs, structure
  words, name words) from the intent. Categories are never mixed.

Protected vocabulary words are never substitution candidates; punctuation
is never touched. Corpus-level runs seed an RNG per sample so output does
not depend on iteration order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from perturbe._util import per_sample_rng, read_jsonl, round_half_away, write_jsonl
from perturbe.corpus import Corpus
from perturbe.embedding import VectorStore
from perturbe.errors import ConfigError, DataError, NoEligibleWords
from perturbe.postag import OPEN_CLASS_TAGS, LexiconTagger, PosTag
from perturbe.preprocess import TokenizedIntent, detokenize, tokenize
from perturbe.vocab import Vocabulary, is_protected

DEFAULT_K_CONSTRAINED = 20
DEFAULT_K_UNCONSTRAINED = 50


class PerturbKind(enum.Enum):
    SUBST_CONSTRAINED = "subst-constrained"
    SUBST_UNCONSTRAINED = "subst-unconstrained"
    OMIT_ACTION = "omit-action"
    OMIT_STRUCTURE = "omit-structure"
    OMIT_NAME = "omit-name"

    @property
    def is_substitution(self) -> bool:
        return self in (PerturbKind.SUBST_CONSTRAINED, PerturbKind.SUBST_UNCONSTRAINED)


class OmissionCategory(enum.Enum):
    ACTION = "action"
    STRUCTURE = "structure"
    NAME = "name"

    @property
    def kind(self) -> PerturbKind:
        return _CATEGORY_TO_KIND[self]


_KIND_TO_CATEGORY = {
    PerturbKind.OMIT_ACTION: OmissionCategory.ACTION,
    PerturbKind.OMIT_STRUCTURE: OmissionCategory.STRUCTURE,
    PerturbKind.OMIT_NAME: OmissionCategory.NAME,
}
_CATEGORY_TO_KIND = {category: kind for kind, category in _KIND_TO_CATEGORY.items()}


GATE_PASS = "pass"
GATE_FAIL = "fail"
GATE_UNEVALUATED = "unevaluated"


@dataclass
class SubstitutionConfig:
    """Knobs for word substitution. Unset k defaults to 20 for
    subst-constrained and 50 for subst-unconstrained, matching the two
    evaluation modes; tau applies to subst-constrained only."""

    ratio: float = 0.10
    k: int | None = None
    tau: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.ratio <= 1.0):
            raise ConfigError(f"substitution ratio must be in (0, 1], got {self.ratio}")
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not (0.0 <= self.tau <= 1.0):
            raise ConfigError(f"tau must be in [0, 1], got {self.tau}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must fit in 64 unsigned bits")


@dataclass
class PerturbationRecord:
    sample_id: str
    kind: PerturbKind
    original_intent: str
    perturbed_intent: str
    changed_positions: list[int]
    similarity: float | None = None  # clipped to [0, 1] for reporting
    gate_pass: str = GATE_UNEVALUATED

    def __post_init__(self) -> None:
        if self.perturbed_intent == self.original_intent:
            raise DataError(f"record {self.sample_id!r}: perturbation changed nothing")
        if not self.changed_positions:
            raise DataError(f"record {self.sample_id!r}: no changed positions")


@dataclass
class SkipEntry:
    sample_id: str
    kind: PerturbKind
    reason: str


@dataclass
class CorpusPerturbation:
    """Records for the samples that could be perturbed, plus a skip report."""

    records: list[PerturbationRecord] = field(default_factory=list)
    skipped: list[SkipEntry] = field(default_factory=list)


def _transfer_case(original: str, replacement: str) -> str:
    if original.isupper() and len(original) > 1:
        return replacement.upper()
    if original[:1].isupper():
        return replacement[:1].upper() + replacement[1:]
    return replacement


def eligible_words(
    tokens: list[str],
    vocabulary: Vocabulary,
    tags: list[PosTag],
    store: VectorStore,
    stoplist: set[str],
) -> set[int]:
    """Indices a substitution may touch: open-class words that are not
    stopwords (the stoplist is lowercase), not protected vocabulary, and
    present in the vector store."""
    if len(tags) != len(tokens):
        raise DataError(f"{len(tags)} tags for {len(tokens)} tokens")
    out: set[int] = set()
    for i, (token, tag) in enumerate(zip(tokens, tags)):
        if tag not in OPEN_CLASS_TAGS:
            continue
        if token.lower() in stoplist:
            continue
        if is_protected(token, vocabulary):
            continue
        if token not in store:
            continue
        out.add(i)
    return out


def _pick_replacement(
    token: str,
    tag: PosTag,
    constrained: bool,
    k: int,
    tau: float,
    store: VectorStore,
    tagger: LexiconTagger,
) -> str | None:
    neighbors = store.top_k(token, k)
    if not constrained:
        return neighbors[0].word if neighbors else None
    for nb in neighbors:
        if nb.similarity >= tau and tagger.lexical_tag(nb.word) is tag:
            return nb.word
    return None


def substitute_words(
    intent: TokenizedIntent,
    kind: PerturbKind,
    cfg: SubstitutionConfig,
    vocabulary: Vocabulary,
    tags: list[PosTag],
    store: VectorStore,
    tagger: LexiconTagger,
    stoplist: set[str],
) -> PerturbationRecord:
    """Substitute a seeded sample of eligible words with one substitution
    kind, which decides the neighbor constraints and the default k.

    max(1, round(ratio * |eligible|)) indices are targeted, in an order
    shuffled by an RNG seeded from (cfg.seed, intent.source_id); a sampled
    word with no qualifying neighbor falls through to the next sampled
    index. The stoplist is lowercase. Raises NoEligibleWords when nothing
    is eligible or nothing qualifies.
    """
    if not kind.is_substitution:
        raise ConfigError(f"{kind.value} is not a substitution kind")
    constrained = kind is PerturbKind.SUBST_CONSTRAINED
    k = cfg.k
    if k is None:
        k = DEFAULT_K_CONSTRAINED if constrained else DEFAULT_K_UNCONSTRAINED
    rng = per_sample_rng(cfg.seed, intent.source_id)
    eligible = eligible_words(intent.tokens, vocabulary, tags, store, stoplist)
    if not eligible:
        raise NoEligibleWords(f"sample {intent.source_id!r}: no eligible words")
    wanted = max(1, round_half_away(cfg.ratio * len(eligible)))
    order = sorted(eligible)
    rng.shuffle(order)
    new_tokens = list(intent.tokens)
    changed: list[int] = []
    for index in order:
        if len(changed) == wanted:
            break
        token = intent.tokens[index]
        candidate = _pick_replacement(token, tags[index], constrained, k, cfg.tau, store, tagger)
        if candidate is None:
            continue
        new_tokens[index] = _transfer_case(token, candidate)
        changed.append(index)
    if not changed:
        raise NoEligibleWords(
            f"sample {intent.source_id!r}: no eligible word has a qualifying neighbor"
        )
    return PerturbationRecord(
        sample_id=intent.source_id,
        kind=kind,
        original_intent=detokenize(intent.tokens),
        perturbed_intent=detokenize(new_tokens),
        changed_positions=sorted(changed),
    )


def omittable_words(
    tokens: list[str],
    category: OmissionCategory,
    vocabulary: Vocabulary,
    tags: list[PosTag],
) -> set[int]:
    """Indices belonging to one omission category.

    ACTION follows the POS tags (verbs); STRUCTURE and NAME follow the
    vocabulary partitions, with the same case rules as is_protected().
    """
    if len(tags) != len(tokens):
        raise DataError(f"{len(tags)} tags for {len(tokens)} tokens")
    if category is OmissionCategory.ACTION:
        return {i for i, tag in enumerate(tags) if tag is PosTag.VERB}
    if category is OmissionCategory.STRUCTURE:
        return {i for i, t in enumerate(tokens) if t.lower() in vocabulary.structure_words}
    return {i for i, t in enumerate(tokens) if t in vocabulary.name_words}


def omit_words(
    intent: TokenizedIntent,
    category: OmissionCategory,
    vocabulary: Vocabulary,
    tags: list[PosTag],
) -> PerturbationRecord:
    """Remove every word of the category; raises NoEligibleWords when the
    category is absent (or omission would empty the intent)."""
    indices = omittable_words(intent.tokens, category, vocabulary, tags)
    if not indices:
        raise NoEligibleWords(
            f"sample {intent.source_id!r}: no {category.value}-related words"
        )
    kept = [t for i, t in enumerate(intent.tokens) if i not in indices]
    if not kept:
        raise NoEligibleWords(
            f"sample {intent.source_id!r}: omitting every token leaves no intent"
        )
    return PerturbationRecord(
        sample_id=intent.source_id,
        kind=category.kind,
        original_intent=detokenize(intent.tokens),
        perturbed_intent=detokenize(kept),
        changed_positions=sorted(indices),
    )


def analyze_corpus(
    corpus: Corpus, tagger: LexiconTagger
) -> list[tuple[TokenizedIntent, list[PosTag]]]:
    """Tokenize and tag every intent: one (tokens, tags) pair per sample, in
    corpus order. Neither depends on the perturbation kind, so one analysis
    serves every kind."""
    analyses = []
    for sample in corpus.samples:
        intent = tokenize(sample.intent, source_id=sample.id)
        analyses.append((intent, tagger.tag(intent.tokens, sample_id=sample.id)))
    return analyses


def perturb_corpus(
    corpus: Corpus,
    kind: PerturbKind,
    cfg: SubstitutionConfig,
    vocabulary: Vocabulary,
    store: VectorStore | None,
    tagger: LexiconTagger,
    stoplist: set[str],
    analyses: list[tuple[TokenizedIntent, list[PosTag]]],
) -> CorpusPerturbation:
    """Perturb every sample of a corpus with one kind.

    The per-sample RNG is derived from (cfg.seed, sample id), so each
    sample's record does not depend on corpus ordering. The vector store is
    only required for substitution kinds; the stoplist is lowercase.
    ``analyses`` is the corpus's ``analyze_corpus`` result, one (tokens,
    tags) pair per sample; ``perturb_split`` computes it once and passes it
    to the call for each kind. ``tagger`` tags the neighbors a substitution
    considers.
    """
    if kind.is_substitution and store is None:
        raise ConfigError(f"{kind.value} requires a vector store")
    if len(analyses) != len(corpus):
        raise DataError(f"{len(analyses)} analyses for {len(corpus)} samples")
    category = _KIND_TO_CATEGORY.get(kind)

    result = CorpusPerturbation()
    for sample, (intent, tags) in zip(corpus.samples, analyses):
        try:
            if category is None:
                record = substitute_words(
                    intent, kind, cfg, vocabulary, tags, store, tagger, stoplist
                )
            else:
                record = omit_words(intent, category, vocabulary, tags)
        except NoEligibleWords as exc:
            result.skipped.append(SkipEntry(sample_id=sample.id, kind=kind, reason=str(exc)))
            continue
        result.records.append(record)
    return result


def perturb_split(
    corpus: Corpus,
    kinds: Iterable[PerturbKind],
    cfg: SubstitutionConfig,
    vocabulary: Vocabulary,
    store: VectorStore | None,
    tagger: LexiconTagger,
    stoplist: set[str],
) -> CorpusPerturbation:
    """Perturb one corpus with each kind in turn. Every intent is tokenized
    and tagged once for all kinds; records and skips come in kind order, and
    within a kind in corpus order."""
    analyses = analyze_corpus(corpus, tagger)
    result = CorpusPerturbation()
    for kind in kinds:
        part = perturb_corpus(
            corpus, kind, cfg, vocabulary, store, tagger, stoplist, analyses=analyses
        )
        result.records.extend(part.records)
        result.skipped.extend(part.skipped)
    return result


def record_to_dict(record: PerturbationRecord) -> dict:
    similarity = record.similarity
    if similarity is not None and math.isnan(similarity):
        similarity = None  # unevaluable; JSON has no NaN
    return {
        "id": record.sample_id,
        "kind": record.kind.value,
        "original": record.original_intent,
        "perturbed": record.perturbed_intent,
        "changed": record.changed_positions,
        "similarity": similarity,
        "gate": record.gate_pass,
    }


def record_from_dict(obj: dict, where: str = "") -> PerturbationRecord:
    try:
        return PerturbationRecord(
            sample_id=str(obj["id"]),
            kind=PerturbKind(obj["kind"]),
            original_intent=obj["original"],
            perturbed_intent=obj["perturbed"],
            changed_positions=list(obj["changed"]),
            similarity=obj.get("similarity"),
            gate_pass=obj.get("gate", GATE_UNEVALUATED),
        )
    except (KeyError, ValueError) as exc:
        raise DataError(f"{where}: malformed perturbation record: {exc}") from exc


def write_records(records: Iterable[PerturbationRecord], path: str | Path) -> None:
    write_jsonl(path, map(record_to_dict, records))


def read_records(path: str | Path) -> list[PerturbationRecord]:
    return [record_from_dict(obj, f"{path}:{lineno}") for lineno, obj in read_jsonl(path)]
