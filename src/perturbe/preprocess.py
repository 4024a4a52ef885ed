"""Intent preprocessing: tokenization, stopword lists, de-standardization.

The tokenizer splits on whitespace and punctuation but keeps domain tokens
whole: hex literals (0x4), bracketed operands ([esi]), and identifiers with
underscores (_start_label). Case is preserved throughout; register mnemonics
and labels are case-bearing.

De-standardization replaces the var0, var1, ... placeholders of predicted
code with the original value-like tokens (immediates, label names, bracket
groups) recorded in a StandardizationMap.
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
    """Ordered map var-index -> original token, read by destandardize()."""

    entries: dict[int, str] = field(default_factory=dict)


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


def destandardize(code_text: str, mapping: StandardizationMap) -> str:
    """Replace var# placeholders with their originals; collapses extra spaces."""

    def _sub(match: re.Match) -> str:
        index = int(match.group(1))
        if index not in mapping.entries:
            raise DataError(f"unknown placeholder var{index}")
        return mapping.entries[index]

    restored = _PLACEHOLDER_RE.sub(_sub, code_text)
    return re.sub(r"[ \t]+", " ", restored).strip()
