"""Intent preprocessing: tokenization and stopword lists.

The tokenizer splits on whitespace and punctuation but keeps domain tokens
whole: hex literals (0x4), bracketed operands ([esi]), and identifiers with
underscores (_start_label). Case is preserved throughout; register mnemonics
and labels are case-bearing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from perturbe._util import read_data_lines
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


@dataclass
class TokenizedIntent:
    """Token sequence for one intent, tagged with its source sample id."""

    tokens: list[str]
    source_id: str = ""

    def __post_init__(self) -> None:
        if "" in self.tokens:
            raise DataError(f"intent {self.source_id!r}: empty token")

    @cached_property
    def text(self) -> str:
        """``detokenize(tokens)``, computed once: every perturbation kind of
        a sample records it as the original intent."""
        return detokenize(self.tokens)


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
    """One token per line, UTF-8; blank lines and '#' lines are skipped.
    Unset -> shipped list. Words are lowercased: every function that takes a
    stoplist expects a lowercase set and lowercases the token it looks up."""
    return {line.lower() for line in read_data_lines(path, "stopwords.txt")}
