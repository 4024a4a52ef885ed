"""Word-vector store: file loading, cosine similarity, exact top-k neighbor
search, and the sentence encoders used by the semantic gate.

Loading parses every component in one call to numpy's C text reader
(``np.loadtxt``, numpy >= 1.23). Lines stream through it one at a time: the
loader keeps each word and its line number, never the text, so the file is
not held in memory beside the matrix. ``#`` is an ordinary word, not a
comment. Whenever the bulk parse cannot take the file (a float it rejects, a
component count that changes or disagrees with the header, a word without
components, no data at all), the file is parsed again line by line with
``float()``. That exact path defines the format: it raises ``DataError`` with
the ``path:lineno`` of the first bad line and accepts everything ``float()``
accepts, such as ``1_0``. Where both parsers accept a file they give
bit-identical values.

A store holds one float64 matrix, one row per distinct word in order of first
appearance (a repeated word keeps its first position and its last values).
The store adopts the parsed matrix without copying it and makes it
read-only.

Neighbor search is exact and deterministic. One matrix-vector product in
64-bit floats gives every cosine as ``(M @ q) / (norms * |q|)``; rows are not
pre-normalized, because dividing first moves similarities by about 1e-16 and
can flip a comparison that sits exactly on a gate threshold. A partial
selection (``np.partition``) finds the k-th largest similarity, and only the
candidates at or above it are sorted by (similarity descending, word), so
ties that straddle the k-th place still break lexicographically. Each store
memoizes its answers per (resolved word, k): a corpus asks about the same few
intent words over and over, so the memo is bounded by the words that occur
in intents.

The default sentence encoder resolves each token to a row once, gathers the
rows and reduces them in one call. The semantic gate encodes each original
intent once per ``score_records`` call, however many kinds perturbed it, so
the encoder's out-of-vocabulary count covers only the encodes performed.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perturbe._util import read_jsonl
from perturbe.errors import DataError, EncodingFailure
from perturbe.preprocess import tokenize

logger = logging.getLogger(__name__)

_NORM_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Neighbor:
    word: str
    similarity: float


class VectorStore:
    """Immutable word -> vector map over one float64 matrix, one row per word."""

    def __init__(self, words: list[str], matrix: np.ndarray):
        """Adopt a (len(words), D) float64 matrix of distinct words without
        copying it."""
        matrix.flags.writeable = False  # the neighbor memo relies on fixed rows
        self._words = words
        self._rows = {w: i for i, w in enumerate(words)}
        self._matrix = matrix
        # Blocks of rows bound the squared temporary; each row is reduced on
        # its own, so the norms equal one full-matrix call bit for bit.
        norms = np.empty(len(words), dtype=np.float64)
        for start in range(0, len(words), _NORM_BLOCK_ROWS):
            stop = start + _NORM_BLOCK_ROWS
            norms[start:stop] = np.linalg.norm(matrix[start:stop], axis=1)
        norms[norms == 0.0] = np.nan  # zero vectors never win a similarity scan
        self._norms = norms
        # (resolved word, k) -> neighbors. Racing threads only recompute the
        # same value, so no lock is needed.
        self._neighbor_memo: dict[tuple[str, int], tuple[Neighbor, ...]] = {}

    def __contains__(self, word: str) -> bool:
        return self.resolve(word) is not None

    def resolve(self, word: str) -> str | None:
        """Exact lookup first, then lowercase fallback: intents capitalize
        sentence-initial words while vector files are usually lowercase."""
        if word in self._rows:
            return word
        lowered = word.lower()
        if lowered in self._rows:
            return lowered
        return None

    def top_k(self, word: str, k: int) -> list[Neighbor]:
        return top_k_neighbors(word, k, self)


class _NeedsExactParse(Exception):
    """A line the bulk parser cannot take; the exact per-line parse decides."""


class _DataRows:
    """Iterates the component text of a vector file's data lines (the part
    after the word), recording each line's word and number. The text itself
    is not kept."""

    def __init__(self, fh):
        self._fh = fh
        self.header: int | None = None
        self.words: list[str] = []
        self.linenos: list[int] = []

    def __iter__(self):
        for lineno, line in enumerate(self._fh, start=1):
            if lineno == 1:
                self.header = _header_dimension(line)
                if self.header is not None:
                    continue
            parts = line.split(None, 1)
            if not parts:
                continue
            if len(parts) == 1:
                raise _NeedsExactParse  # a word with no components
            self.words.append(parts[0])
            self.linenos.append(lineno)
            yield parts[1]


def load_vectors(path: str | Path) -> VectorStore:
    """Parse a whitespace-delimited vector file: token then D floats per line,
    with an optional 'N D' header. Duplicate tokens: last one wins."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        rows = _DataRows(fh)
        data = iter(rows)
        try:
            # A file without data lines goes to the exact parse, which names
            # the error, instead of making loadtxt warn about empty input.
            first = next(data)
            matrix = np.loadtxt(
                itertools.chain([first], data), dtype=np.float64, comments=None, ndmin=2
            )
        except (StopIteration, ValueError, _NeedsExactParse):
            matrix = None
    if (
        matrix is None
        or matrix.shape[0] != len(rows.words)  # loadtxt dropped a line as blank
        or (rows.header is not None and matrix.shape[1] != rows.header)
    ):
        return _load_vectors_exact(path)
    slots: dict[str, int] = {}
    for row, word in enumerate(rows.words):
        if word in slots:
            logger.warning("%s:%d: duplicate token %r, keeping last", path, rows.linenos[row], word)
        slots[word] = row  # keeps the first position, points at the last row
    if len(slots) < len(rows.words):
        matrix = matrix[list(slots.values())]
    return VectorStore(list(slots), matrix)


def _header_dimension(line: str) -> int | None:
    """D when the line is an 'N D' header of two integers, else None."""
    fields = line.split()
    if len(fields) == 2:
        try:
            int(fields[0])
            return int(fields[1])
        except ValueError:
            pass
    return None


def _load_vectors_exact(path: Path) -> VectorStore:
    """Line-by-line parse with float(): the reference the bulk path matches.
    Used when the bulk parse fails, so malformed files get the same
    path:lineno errors and what float() accepts (e.g. '1_0') still loads."""
    vectors: dict[str, np.ndarray] = {}
    dimension: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1:
                dimension = _header_dimension(line)
                if dimension is not None:
                    continue
            fields = line.split()
            if not fields:
                continue
            word, values = fields[0], fields[1:]
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparseable float") from exc
            if dimension is None:
                if len(vec) == 0:
                    raise DataError(f"{path}:{lineno}: no vector components")
                dimension = len(vec)
            elif len(vec) != dimension:
                raise DataError(
                    f"{path}:{lineno}: expected {dimension} components, got {len(vec)}"
                )
            if word in vectors:
                logger.warning("%s:%d: duplicate token %r, keeping last", path, lineno, word)
            vectors[word] = vec
    if not vectors:
        raise DataError(f"{path}: no vectors loaded")
    return VectorStore(list(vectors), np.array(list(vectors.values()), dtype=np.float64))


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` for a float64 array without its dispatch: numpy
    computes the 2-norm as ``sqrt(x.dot(x))`` over the flattened array, and
    both square roots are correctly rounded, so the result is bit-identical."""
    flat = v.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, in 64-bit floats."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = _norm(a)
    norm_b = _norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise DataError("cosine undefined for zero-norm vector")
    return float(np.dot(a, b) / (norm_a * norm_b))


def top_k_neighbors(word: str, k: int, store: VectorStore) -> list[Neighbor]:
    """The k most-similar distinct words (query excluded), cosine descending,
    ties broken lexicographically. Zero vectors are never neighbors."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    key = store.resolve(word)
    if key is None:
        raise DataError(f"query word not in vector store: {word!r}")
    neighbors = store._neighbor_memo.get((key, k))
    if neighbors is None:
        neighbors = _rank_neighbors(word, key, k, store)
        store._neighbor_memo[(key, k)] = neighbors
    return list(neighbors)


def _rank_neighbors(word: str, key: str, k: int, store: VectorStore) -> tuple[Neighbor, ...]:
    query = store._matrix[store._rows[key]]
    query_norm = float(np.linalg.norm(query))
    if query_norm == 0.0:
        raise DataError(f"query word has a zero vector: {word!r}")
    sims = store._matrix @ query / (store._norms * query_norm)
    valid = ~np.isnan(sims)
    valid[store._rows[key]] = False
    candidates = np.flatnonzero(valid)
    if len(candidates) > k:
        candidate_sims = sims[candidates]
        cut = len(candidates) - k
        kth = np.partition(candidate_sims, cut)[cut]
        candidates = candidates[candidate_sims >= kth]
    ranked = sorted(
        (Neighbor(store._words[i], float(sims[i])) for i in candidates),
        key=lambda nb: (-nb.similarity, nb.word),
    )
    return tuple(ranked[:k])


class MeanVectorEncoder:
    """Default sentence encoder: L2-normalized mean of the in-vocabulary token
    vectors (bag of words).

    Each token is resolved to a row once, exact word first and then its
    lowercase form, as ``VectorStore.resolve`` does. The mean is one
    reduction over the gathered rows, bit-identical to ``np.mean`` over the
    list of row vectors, and its norm is ``sqrt(mean . mean)``, bit-identical
    to ``np.linalg.norm``. ``oov_skipped`` counts the out-of-vocabulary
    tokens of every encode performed, as a diagnostic;
    ``semgate.score_records`` encodes each original intent once per call, so
    a shared original counts once.
    """

    name = "mean-of-word-vectors"

    def __init__(self, store: VectorStore):
        self.store = store
        self.oov_skipped = 0

    def encode(self, text: str, key: str | None = None) -> np.ndarray:
        tokens = tokenize(text).tokens
        row_of = self.store._rows.get
        rows = []
        for token in tokens:  # VectorStore.resolve's rule, inlined
            row = row_of(token)
            if row is None:
                row = row_of(token.lower())
            if row is not None:
                rows.append(row)
        self.oov_skipped += len(tokens) - len(rows)
        if not rows:
            raise EncodingFailure(f"no token has a vector: {tokens!r}")
        mean = np.add.reduce(self.store._matrix[rows], axis=0) / len(rows)
        norm = _norm(mean)
        if norm == 0.0:
            raise EncodingFailure("token vectors cancel out to the zero vector")
        return mean / norm


class PrecomputedEncoder:
    """Looks up per-intent embeddings computed by an external model.

    File format: JSONL {"id": str, "vec": [floats]}. Originals are keyed by
    sample id; perturbed intents by "<sample_id>#<kind>".
    """

    name = "precomputed-file"

    def __init__(self, path: str | Path):
        self._embeddings: dict[str, np.ndarray] = {}
        for _, record in read_jsonl(path, ("id", "vec")):
            self._embeddings[str(record["id"])] = np.asarray(record["vec"], dtype=np.float64)
        if not self._embeddings:
            raise DataError(f"{path}: no embeddings loaded")

    def encode(self, text: str, key: str | None = None) -> np.ndarray:
        if key is None or key not in self._embeddings:
            raise EncodingFailure(f"no precomputed embedding for key {key!r}")
        return self._embeddings[key]
