"""Intent preprocessing: tokenization, stopword lists, standardization.

The tokenizer splits on whitespace and punctuation but keeps domain tokens
whole: hex literals (0x4), bracketed operands ([esi]), and identifiers with
underscores (_start_label). Case is preserved throughout; register mnemonics
and labels are case-bearing.

Standardization rewrites value-like tokens (immediates, label names,
bracket groups) to var0, var1, ... placeholders and records the originals so
predicted code can be de-standardized exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from perturbe.errors import DataError

# Order matters: bracket groups and hex literals must win over the
# bare-word and punctuation rules.
_TOKEN_RE = re.compile(
    r"""
    \[[^\]]*\]            # bracketed operand, e.g. [esi]
    | 0[xX][0-9A-Fa-f]+   # hex literal
    | \w+                 # word (keeps underscores and digits)
    | [^\w\s]             # any single punctuation character
    """,
    re.VERBOSE,
)

# Punctuation that attaches to the preceding token when detokenizing.
_CLOSING_PUNCT = {".", ",", ";", ":", "!", "?", ")", "]", "}"}
_OPENING_PUNCT = {"(", "[", "{"}

_PLACEHOLDER_RE = re.compile(r"var(\d+)")

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Words that introduce a name: "jump to label formatting" standardizes
# "formatting" even though it matches no character-class pattern.
_NAME_INTRODUCERS = {"label", "function"}


@dataclass
class TokenizedIntent:
    """Token sequence for one intent, tagged with its source sample id."""

    tokens: list[str]
    source_id: str = ""

    def __post_init__(self) -> None:
        if any(not t for t in self.tokens):
            raise DataError(f"intent {self.source_id!r}: empty token")


@dataclass
class StandardizationMap:
    """Ordered map var-index -> original token, built by standardize()."""

    entries: dict[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)


def tokenize(text: str, source_id: str = "") -> TokenizedIntent:
    """Split text into tokens; whitespace-only input yields an empty list."""
    return TokenizedIntent(tokens=_TOKEN_RE.findall(text), source_id=source_id)


def detokenize(tokens: list[str]) -> str:
    """Space-join tokens, re-attaching closing punctuation to its neighbor."""
    parts: list[str] = []
    for tok in tokens:
        if parts and tok in _CLOSING_PUNCT:
            parts[-1] += tok
        elif parts and parts[-1] in _OPENING_PUNCT:
            parts[-1] += tok
        else:
            parts.append(tok)
    return " ".join(parts)


def load_stopwords(path: str | Path | None = None) -> set[str]:
    """One token per line, UTF-8; '#' lines are comments. None -> shipped list."""
    if path is None:
        text = resources.files("perturbe.data").joinpath("stopwords.txt").read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return words


def load_patterns(path: str | Path | None = None) -> dict[str, re.Pattern]:
    """Standardizable-token patterns from name=regex lines. None -> defaults."""
    if path is None:
        text = resources.files("perturbe.data").joinpath("patterns.txt").read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    patterns: dict[str, re.Pattern] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, expr = line.partition("=")
        if not sep:
            raise DataError(f"pattern file line {lineno}: expected name=regex")
        try:
            patterns[name.strip()] = re.compile(expr.strip())
        except re.error as exc:
            raise DataError(f"pattern file line {lineno}: bad regex: {exc}") from exc
    return patterns


def standardize(
    intent: TokenizedIntent, patterns: dict[str, re.Pattern] | None = None
) -> tuple[TokenizedIntent, StandardizationMap]:
    """Replace value-like tokens left-to-right with var0, var1, ...

    A token standardizes if it fully matches a configured pattern, or if it
    is an identifier immediately preceded by a name-introducing word
    ("label", "function").
    """
    if patterns is None:
        patterns = load_patterns()
    out: list[str] = []
    mapping = StandardizationMap()
    index = 0
    prev = ""
    for tok in intent.tokens:
        is_value = any(p.fullmatch(tok) for p in patterns.values())
        if not is_value and prev.lower() in _NAME_INTRODUCERS:
            is_value = _IDENTIFIER_RE.fullmatch(tok) is not None
        prev = tok
        if is_value:
            mapping.entries[index] = tok
            out.append(f"var{index}")
            index += 1
        else:
            out.append(tok)
    return TokenizedIntent(tokens=out, source_id=intent.source_id), mapping


def destandardize(code_text: str, mapping: StandardizationMap) -> str:
    """Replace var# placeholders with their originals; collapses extra spaces."""

    def _sub(match: re.Match) -> str:
        index = int(match.group(1))
        if index not in mapping.entries:
            raise DataError(f"unknown placeholder var{index}")
        return mapping.entries[index]

    restored = _PLACEHOLDER_RE.sub(_sub, code_text)
    return re.sub(r"[ \t]+", " ", restored).strip()
