"""Mine the programming-language-related vocabulary by corpus comparison.

A word joins the vocabulary when its occurrence ratio (count / number of
unique words) in the code-description corpus is at least ``threshold`` times
its ratio in a general-English comparison corpus, or when it never appears
in the comparison corpus at all. Included words are partitioned into
structure-related words (register, stack, function, ...) and name-related
words (register names, labels, bracketed operands, ...): the former are
matched case-insensitively, the latter case-sensitively. A mined
vocabulary also records the stopwords and the tag lexicon it was mined with,
so every later stage tags and filters as the mining did.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

from perturbe._util import open_output, read_data_lines, read_json_object
from perturbe.errors import ConfigError, DataError
from perturbe.postag import PosTag, is_name_like
from perturbe.preprocess import tokenize

DEFAULT_RATIO_THRESHOLD = 50.0


@dataclass
class FrequencyTable:
    """Token counts with stopwords already excluded."""

    counts: dict[str, int] = field(default_factory=dict)

    @property
    def unique_count(self) -> int:
        return len(self.counts)

    def lowercased(self) -> dict[str, int]:
        folded: Counter = Counter()
        for word, count in self.counts.items():
            folded[word.lower()] += count
        return dict(folded)


@dataclass
class Vocabulary:
    """Protected-word sets. structure_words are stored lowercase; name_words
    keep the case variants observed in the corpus. registers is the
    lowercase register list the words were partitioned with, stopwords the
    lowercase stoplist they were counted without, and tag_lexicon the
    (primary tags, verb-capable words) pair of ``postag.load_tag_lexicon``."""

    structure_words: set[str] = field(default_factory=set)
    name_words: set[str] = field(default_factory=set)
    ratio_threshold: float = DEFAULT_RATIO_THRESHOLD
    registers: set[str] = field(default_factory=set)
    stopwords: set[str] = field(default_factory=set)
    tag_lexicon: tuple[dict[str, PosTag], set[str]] = field(default_factory=lambda: ({}, set()))

    def __post_init__(self) -> None:
        overlap = self.structure_words & self.name_words
        if overlap:
            raise DataError(f"words in both vocabulary partitions: {sorted(overlap)[:5]}")


def load_registers(path: str | Path | None = None) -> set[str]:
    """Register mnemonic list, one per line, lowercased; blank lines and '#'
    lines are skipped. Unset -> shipped IA-32 list."""
    return {line.lower() for line in read_data_lines(path, "registers.txt")}


def check_threshold(value: float | str) -> float:
    """The threshold as a float, unless it is NaN, infinite or negative."""
    threshold = float(value)
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ConfigError(f"vocabulary threshold must be finite and >= 0, got {threshold!r}")
    return threshold


def count_frequencies(texts: Iterable[str], stoplist: set[str]) -> FrequencyTable:
    """Count tokens across a stream of texts, excluding stopwords (the
    stoplist is lowercase; tokens are compared lowercased).

    Case is preserved so the vocabulary can keep observed name variants.
    """
    counts: Counter = Counter()
    for text in texts:
        for token in tokenize(text).tokens:
            if token.lower() in stoplist:
                continue
            counts[token] += 1
    return FrequencyTable(counts=dict(counts))


def build_vocabulary(
    codegen: FrequencyTable,
    comparison: FrequencyTable,
    threshold: float = DEFAULT_RATIO_THRESHOLD,
    *,
    registers: set[str],
) -> Vocabulary:
    """Apply the frequency-ratio test and partition the included words.

    The ratio test is case-insensitive (counts are folded to lowercase);
    the partition then classifies every observed case variant, with
    ``registers`` (lowercase mnemonics, kept in the result) marking name-related words.
    """
    check_threshold(threshold)
    if not codegen.counts or not comparison.counts:
        raise DataError("both frequency tables must be non-empty")
    variants: dict[str, list[str]] = {}
    for word in codegen.counts:
        variants.setdefault(word.lower(), []).append(word)
    cmp_folded = comparison.lowercased()
    cg_unique = len(variants)
    cmp_unique = len(cmp_folded)
    structure: set[str] = set()
    names: set[str] = set()
    for lowered, observed in variants.items():
        ratio_cg = sum(codegen.counts[w] for w in observed) / cg_unique
        ratio_cmp = cmp_folded.get(lowered, 0) / cmp_unique
        if ratio_cmp != 0.0 and ratio_cg < threshold * ratio_cmp:
            continue
        for variant in observed:
            if is_name_like(variant, registers):
                names.add(variant)
            else:
                structure.add(variant.lower())
    # A lowercase structure entry may coexist with an uppercase name variant
    # of the same word; as string sets the partitions stay disjoint.
    structure -= names
    return Vocabulary(structure, names, threshold, registers)


def mine_vocabulary(
    texts: Iterable[str],
    stoplist: set[str],
    registers: set[str],
    comparison: str | Path | None = None,
    threshold: float = DEFAULT_RATIO_THRESHOLD,
    *,
    tag_lexicon: tuple[dict[str, PosTag], set[str]],
) -> Vocabulary:
    """Count the corpus texts and a plain-text comparison corpus (one text
    per line; unset -> shipped) without the (lowercase) stopwords, and build
    the vocabulary from the two with the given register list. The result
    records the stoplist and the tag lexicon next to the registers."""
    codegen = count_frequencies(texts, stoplist)
    comparison_lines = read_data_lines(comparison, "comparison_corpus.txt", raw=True)
    comparison_table = count_frequencies(comparison_lines, stoplist)
    vocabulary = build_vocabulary(
        codegen, comparison_table, threshold=threshold, registers=registers
    )
    return replace(vocabulary, stopwords=stoplist, tag_lexicon=tag_lexicon)


def is_protected(word: str, vocabulary: Vocabulary) -> bool:
    """True when the word may not be substituted: structure words match
    case-insensitively, name words case-sensitively."""
    if not word:
        return False
    return word.lower() in vocabulary.structure_words or word in vocabulary.name_words


def save_vocabulary(vocabulary: Vocabulary, path: str | Path) -> None:
    primary, verb_capable = vocabulary.tag_lexicon
    payload = {
        "structure": sorted(vocabulary.structure_words),
        "name": sorted(vocabulary.name_words),
        "threshold": vocabulary.ratio_threshold,
        "registers": sorted(vocabulary.registers),
        "stopwords": sorted(vocabulary.stopwords),
        "tag_lexicon": {
            "primary": {word: primary[word].value for word in sorted(primary)},
            "verb_capable": sorted(verb_capable),
        },
    }
    with open_output(path) as fh:
        fh.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")


def _word_set(payload: dict, key: str, where: str) -> set[str]:
    """The list of strings at ``payload[key]``, as a set."""
    if key not in payload:
        raise DataError(f"{where}: missing {key!r} list")
    words = payload[key]
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise DataError(f"{where}: {key!r} must be a list of strings")
    return set(words)


def load_vocabulary(path: str | Path) -> Vocabulary:
    payload = read_json_object(path)
    structure, name, registers, stopwords = (
        _word_set(payload, key, str(path))
        for key in ("structure", "name", "registers", "stopwords")
    )
    lexicon = payload.get("tag_lexicon")
    if not isinstance(lexicon, dict):
        raise DataError(f"{path}: missing 'tag_lexicon' object")
    verb_capable = _word_set(lexicon, "verb_capable", f"{path}: 'tag_lexicon'")
    try:
        primary = {word: PosTag[tag] for word, tag in lexicon["primary"].items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: 'tag_lexicon' needs a 'primary' object of tag names") from exc
    return Vocabulary(
        structure_words=structure,
        name_words=name,
        ratio_threshold=float(payload.get("threshold", DEFAULT_RATIO_THRESHOLD)),
        registers=registers,
        stopwords=stopwords,
        tag_lexicon=(primary, verb_capable),
    )
