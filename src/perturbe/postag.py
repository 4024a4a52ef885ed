"""Lexicon-and-rules part-of-speech tagger for short imperative intents.

Tagging order per token: name/number patterns (SYM/NUM, never VERB), the
sentence-initial imperative rule, lexicon lookup, suffix fallbacks, and a
NOUN default. An external tag file (JSONL {"id", "tags"}) can override the
tagger per sample for exact replication of another tool's output.
"""

from __future__ import annotations

import enum
import re
from pathlib import Path

from perturbe._util import read_data_lines, read_jsonl
from perturbe.errors import DataError


class PosTag(enum.Enum):
    NOUN = "NOUN"
    VERB = "VERB"
    ADJ = "ADJ"
    ADV = "ADV"
    PRON = "PRON"
    PREP = "PREP"
    CONJ = "CONJ"
    DET = "DET"
    NUM = "NUM"
    SYM = "SYM"
    OTHER = "OTHER"


OPEN_CLASS_TAGS = {PosTag.NOUN, PosTag.VERB, PosTag.ADJ, PosTag.ADV}

_NUMBER_RE = re.compile(r"\d+|0[xX][0-9A-Fa-f]+")
_PUNCT_RE = re.compile(r"[^\w\s]+")
_LETTER_DIGIT_RE = re.compile(r"[A-Za-z][0-9]|[0-9][A-Za-z]")
_NON_ALNUM_RE = re.compile(r"[^A-Za-z0-9]")

_SUFFIX_RULES: tuple[tuple[str, PosTag], ...] = (
    ("ing", PosTag.VERB),
    ("ed", PosTag.VERB),
    ("ly", PosTag.ADV),
    ("tion", PosTag.NOUN),
    ("sion", PosTag.NOUN),
    ("ment", PosTag.NOUN),
    ("ness", PosTag.NOUN),
)


def is_name_like(word: str, registers: set[str]) -> bool:
    """Name-related predicate: identifiers, register mnemonics, tokens with
    digits adjacent to letters, underscores, brackets or other specials,
    or all-caps words."""
    if not word:
        return False
    if _LETTER_DIGIT_RE.search(word):
        return True
    if _NON_ALNUM_RE.search(word):
        return True
    if len(word) >= 2 and word.isalpha() and word.isupper():
        return True
    return word.lower() in registers


def load_tag_lexicon(path: str | Path | None = None) -> tuple[dict[str, PosTag], set[str]]:
    """Parse word<TAB>tag lines; blank lines and '#' lines are skipped. Unset
    -> shipped lexicon. The first row per word gives its primary tag; any
    VERB row marks the word verb-capable (for the imperative rule)."""
    primary: dict[str, PosTag] = {}
    verb_capable: set[str] = set()
    for line in read_data_lines(path, "tag_lexicon.tsv"):
        try:
            word, tag_name = line.split("\t")
            tag = PosTag[tag_name.strip()]
        except (ValueError, KeyError) as exc:
            raise DataError(f"tag lexicon: expected word<TAB>tag, got {line!r}") from exc
        word = word.strip().lower()
        primary.setdefault(word, tag)
        if tag is PosTag.VERB:
            verb_capable.add(word)
    return primary, verb_capable


class LexiconTagger:
    """Deterministic tagger over an immutable lexicon; safe to share.

    ``lexicon`` is the (primary tags, verb-capable words) pair that
    ``load_tag_lexicon`` returns and ``registers`` the lowercase register
    list that ``vocab.load_registers`` returns; the caller resolves both.
    Context-free tags are memoized per word. Racing threads only recompute
    the same value, so no lock is needed.
    """

    def __init__(self, lexicon: tuple[dict[str, PosTag], set[str]], registers: set[str]):
        self.primary, self.verb_capable = lexicon
        self.registers = registers
        self._lexical_memo: dict[str, PosTag] = {}

    def _pattern_tag(self, token: str) -> PosTag | None:
        if _NUMBER_RE.fullmatch(token):
            return PosTag.NUM
        if _PUNCT_RE.fullmatch(token):
            return PosTag.OTHER
        if is_name_like(token, self.registers):
            return PosTag.SYM
        return None

    def lexical_tag(self, word: str) -> PosTag:
        """Context-free tag, used for substitution candidates."""
        tag = self._lexical_memo.get(word)
        if tag is None:
            tag = self._lexical_memo[word] = self._rule_tag(word)
        return tag

    def _rule_tag(self, word: str) -> PosTag:
        pattern = self._pattern_tag(word)
        if pattern is not None:
            return pattern
        lowered = word.lower()
        if lowered in self.primary:
            return self.primary[lowered]
        for suffix, tag in _SUFFIX_RULES:
            if len(lowered) > len(suffix) + 1 and lowered.endswith(suffix):
                return tag
        return PosTag.NOUN

    def tag(self, tokens: list[str], sample_id: str | None = None) -> list[PosTag]:
        if not tokens:
            raise DataError("cannot tag an empty token list")
        tags: list[PosTag] = []
        for i, token in enumerate(tokens):
            if i == 0 and self._pattern_tag(token) is None and token.lower() in self.verb_capable:
                # Code descriptions are overwhelmingly imperative.
                tags.append(PosTag.VERB)
            else:
                tags.append(self.lexical_tag(token))
        return tags


class FileTagger:
    """Per-sample tag sequences from an external JSONL file, with a
    LexiconTagger fallback for samples the file does not cover. A word's
    context-free tag (``lexical_tag``) is always the fallback's: an override
    tags the tokens of one sample, not a word on its own."""

    def __init__(self, path: str | Path, fallback: LexiconTagger):
        self.fallback = fallback
        self.overrides: dict[str, list[PosTag]] = {}
        for lineno, record in read_jsonl(path, ("id", "tags")):
            try:
                self.overrides[str(record["id"])] = [PosTag[t] for t in record["tags"]]
            except KeyError as exc:
                raise DataError(f"{path}:{lineno}: unknown tag {exc}") from exc
        self.fallback_count = 0

    def tag(self, tokens: list[str], sample_id: str | None = None) -> list[PosTag]:
        if sample_id is not None and sample_id in self.overrides:
            tags = self.overrides[sample_id]
            if len(tags) != len(tokens):
                raise DataError(
                    f"tag override for {sample_id!r} has {len(tags)} tags "
                    f"for {len(tokens)} tokens"
                )
            return list(tags)
        self.fallback_count += 1
        return self.fallback.tag(tokens, sample_id)

    def lexical_tag(self, word: str) -> PosTag:
        return self.fallback.lexical_tag(word)
