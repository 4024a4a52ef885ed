"""Deterministic fixture builders shared across the test suite.

Two vector stores are constructed with controlled geometry:

* golden_store(): 30 verbs arranged so that "stock" is the nearest neighbor
  of "store" (a noun, rejected by the POS constraint) and "save" the best
  qualifying verb. Reproduces the golden substitution examples.
* demo_store(): content words of the demo corpus. Every word carries a
  shared component plus its own axis; synonyms are built from their base
  word's direction with a target cosine, traps get large norms so that
  unconstrained substitution visibly damages sentence embeddings.

The reference_* functions are the plain implementations that the fast paths
must reproduce exactly: reference_top_k_neighbors() the full-sort neighbor
search, reference_load_vectors() the per-component float() loader,
reference_build_vocabulary() the variant-rescanning vocabulary builder,
reference_sentence_embedding() the np.mean sentence encoder,
reference_lexical_tag() the unmemoized context-free tagger,
reference_score() the per-record gate scoring, which reference_gated_records()
uses in the matrix's per-kind perturb, score and gate loop,
reference_cosine() the np.linalg.norm cosine, reference_augment_split()
with reference_build_matrix() the matrix builder that checks, indexes and
rebuilds every sample for each of its cell splits, reference_jsd() and
reference_vocab_growth() the per-corpus token loops, reference_omission_rates()
the tokenize-and-tag loop, and reference_substitute_words() the substitution
driven by a use_constraints flag and a caller-supplied RNG.
"""

from __future__ import annotations

import json
import logging
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np

from perturbe._util import canonical_json, round_half_away, sha256_file, sha256_text, stable_seed
from perturbe.augment import AugmentPlan, ExperimentCell, KindFamily, _cell_id, _cell_inventory
from perturbe.corpus import Corpus, Sample, save_corpus
from perturbe.embedding import Neighbor, VectorStore, cosine
from perturbe.errors import DataError, EncodingFailure, NoEligibleWords
from perturbe.metrics import jsd_from_counts
from perturbe.perturb import (
    DEFAULT_K_CONSTRAINED,
    DEFAULT_K_UNCONSTRAINED,
    GATE_PASS,
    OmissionCategory,
    PerturbationRecord,
    PerturbKind,
    _transfer_case,
    eligible_words,
    omittable_words,
    perturb_split,
)
from perturbe.postag import (
    _NUMBER_RE,
    _PUNCT_RE,
    _SUFFIX_RULES,
    LexiconTagger,
    PosTag,
    load_tag_lexicon,
)
from perturbe.preprocess import detokenize, tokenize
from perturbe.semgate import gate
from perturbe.vocab import (
    DEFAULT_RATIO_THRESHOLD,
    FrequencyTable,
    Vocabulary,
    is_name_like,
    load_registers,
)

DATA_DIR = Path(__file__).parent / "data"

SYNONYM_NORM = 1.1662  # matches the norm of a (1.0, 0.6) base verb


class _Geometry:
    def __init__(self, dim: int):
        self.dim = dim
        self.words: dict[str, np.ndarray] = {}
        self._next_axis = 1  # axis 0 is the shared component

    def base(self, word: str, common: float, specific: float) -> None:
        v = np.zeros(self.dim)
        v[0] = common
        v[self._next_axis] = specific
        self._next_axis += 1
        self.words[word] = v

    def derived(self, word: str, source: str, cos_target: float, norm: float) -> None:
        u = self.words[source] / np.linalg.norm(self.words[source])
        e = np.zeros(self.dim)
        e[self._next_axis] = 1.0
        self._next_axis += 1
        self.words[word] = norm * (cos_target * u + np.sqrt(1.0 - cos_target**2) * e)


GOLDEN_WORDS = [
    "store", "save", "stock", "keep", "preserve", "place", "put", "move",
    "copy", "transfer", "write", "record", "push", "press", "pop", "jump",
    "leap", "clear", "empty", "flush", "zero", "load", "fetch", "check",
    "verify", "call", "invoke", "point", "set", "test",
]


def golden_vectors() -> dict[str, np.ndarray]:
    geom = _Geometry(dim=36)
    for word in GOLDEN_WORDS:
        if word in ("save", "stock"):
            continue
        geom.base(word, 1.0, 0.6)
    geom.derived("save", "store", 0.90, SYNONYM_NORM)
    geom.derived("stock", "store", 0.95, 2.5)
    assert len(geom.words) == 30
    return geom.words


def store_of(vectors: dict[str, np.ndarray]) -> VectorStore:
    """A store of the given words and vectors, in dict order."""
    return VectorStore(list(vectors), np.array(list(vectors.values()), dtype=np.float64))


def row_of(store: VectorStore, word: str) -> np.ndarray:
    """The word's vector, as ``store.resolve`` finds it."""
    return store._matrix[store._rows[store.resolve(word)]]


def golden_store() -> VectorStore:
    return store_of(golden_vectors())


def golden_vocabulary() -> Vocabulary:
    return Vocabulary(structure_words={"register"}, name_words={"ESI"})


def shipped_tagger() -> LexiconTagger:
    """A fresh tagger (empty memo) over the shipped tag lexicon and registers."""
    return LexiconTagger(load_tag_lexicon(), load_registers())


DEMO_RICH_VERBS = [
    "store", "copy", "move", "clear", "put", "load", "check", "call",
    "jump", "push", "point", "test", "set", "pop", "keep",
]
DEMO_POOR_VERBS = [
    "perform", "subtract", "compare", "zero", "swap", "shift", "divide", "multiply",
]
DEMO_SYNONYMS = [
    ("save", "store", 0.90), ("duplicate", "copy", 0.88), ("relocate", "move", 0.86),
    ("empty", "clear", 0.85), ("place", "put", 0.87), ("fetch", "load", 0.85),
    ("verify", "check", 0.86), ("invoke", "call", 0.84), ("leap", "jump", 0.83),
    ("press", "push", 0.82), ("indicate", "point", 0.84), ("inspect", "test", 0.82),
    ("assign", "set", 0.81), ("pull", "pop", 0.81), ("preserve", "keep", 0.83),
    ("execute", "perform", 0.82), ("deduct", "subtract", 0.82),
    ("contrast", "compare", 0.81), ("nullify", "zero", 0.81),
    ("exchange", "swap", 0.84), ("rotate", "shift", 0.82),
    ("split", "divide", 0.81), ("scale", "multiply", 0.81),
]
DEMO_TRAPS = [
    ("stock", "store", 0.95, 2.5), ("clearance", "clear", 0.86, 3.0),
    ("jumper", "jump", 0.84, 2.8), ("performance", "perform", 0.86, 3.5),
    ("subtraction", "subtract", 0.85, 3.2), ("comparison", "compare", 0.85, 3.0),
    ("null", "zero", 0.84, 2.8), ("division", "divide", 0.85, 3.2),
    ("multiplication", "multiply", 0.85, 3.4),
]
DEMO_STRUCTURE_NOUNS = [
    "register", "registers", "stack", "pointer", "shellcode", "buffer",
    "byte", "bytes", "contents", "value", "address", "label", "function",
    "result", "bits", "flag", "program", "top",
]
DEMO_NAME_TOKENS = [
    "eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp", "al", "bl",
    "cl", "ch", "ax", "0x1", "0x2", "0x4", "0x8", "0x10", "0x20", "0x80",
    "0xff", "0x0b", "0x3c", "_read_loop", "_myfunc", "_exit_proc",
    "_start_label", "_encoder",
]


def demo_vectors() -> dict[str, np.ndarray]:
    geom = _Geometry(dim=128)
    for verb in DEMO_RICH_VERBS + DEMO_POOR_VERBS:
        geom.base(verb, 1.0, 0.6)
    for word, source, cos_target in DEMO_SYNONYMS:
        geom.derived(word, source, cos_target, SYNONYM_NORM)
    for word, source, cos_target, norm in DEMO_TRAPS:
        geom.derived(word, source, cos_target, norm)
    for noun in DEMO_STRUCTURE_NOUNS:
        geom.base(noun, 1.0, 0.85)
    for name in DEMO_NAME_TOKENS:
        geom.base(name, 0.25, 2.2)
    return geom.words


def demo_store() -> VectorStore:
    return store_of(demo_vectors())


def write_vector_file(vectors: dict[str, np.ndarray], path: Path, header: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            dim = len(next(iter(vectors.values())))
            fh.write(f"{len(vectors)} {dim}\n")
        for word, vec in vectors.items():
            fh.write(word + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def load_demo_corpus() -> Corpus:
    samples = []
    with open(DATA_DIR / "demo_corpus.jsonl", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                samples.append(Sample(obj["id"], obj["intent"], obj["snippet"]))
    return Corpus(samples, name="demo")


def seeded_corpora(corpus: Corpus, seed: int, count: int) -> list[Corpus]:
    """``count`` seeded samplings of ``corpus``, each intent kept as it is,
    uppercased or title-cased, so stopwords and names occur in several cases."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        picked = rng.sample(corpus.samples, rng.randint(1, 40))
        out.append(
            Corpus(
                [
                    Sample(s.id, rng.choice((str, str.upper, str.title))(s.intent), s.snippet)
                    for s in picked
                ],
                name=f"seeded{i}",
            )
        )
    return out


def reference_top_k_neighbors(word: str, k: int, store: VectorStore) -> list[Neighbor]:
    """Full sort of every valid store word by (-similarity, word), no memo."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    key = store.resolve(word)
    if key is None:
        raise DataError(f"query word not in vector store: {word!r}")
    query = store._matrix[store._rows[key]]
    query_norm = float(np.linalg.norm(query))
    if query_norm == 0.0:
        raise DataError(f"query word has a zero vector: {word!r}")
    sims = store._matrix @ query / (store._norms * query_norm)
    ranked = sorted(
        (
            Neighbor(w, float(s))
            for w, s in zip(store._words, sims)
            if w != key and not np.isnan(s)
        ),
        key=lambda nb: (-nb.similarity, nb.word),
    )
    return ranked[:k]


def reference_load_vectors(path: str | Path) -> VectorStore:
    """One float() per component, one array per row, then a stacked store.
    Logs through perturbe.embedding's logger, as the loader does."""
    logger = logging.getLogger("perturbe.embedding")
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dimension: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if lineno == 1 and len(fields) == 2:
                try:
                    int(fields[0]), int(fields[1])
                except ValueError:
                    pass
                else:
                    dimension = int(fields[1])
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
    return store_of(vectors)


def reference_build_vocabulary(
    codegen: FrequencyTable,
    comparison: FrequencyTable,
    threshold: float = DEFAULT_RATIO_THRESHOLD,
    *,
    registers: set[str],
) -> Vocabulary:
    """Ratio test on lowercase-folded counts; rescans every codegen word for
    the case variants of each included word."""
    if not codegen.counts or not comparison.counts:
        raise DataError("both frequency tables must be non-empty")
    cg_folded = codegen.lowercased()
    cmp_folded = comparison.lowercased()
    cg_unique = len(cg_folded)
    cmp_unique = len(cmp_folded)
    structure: set[str] = set()
    names: set[str] = set()
    for lowered, count in cg_folded.items():
        ratio_cg = count / cg_unique
        ratio_cmp = cmp_folded.get(lowered, 0) / cmp_unique
        if ratio_cmp != 0.0 and ratio_cg < threshold * ratio_cmp:
            continue
        for variant in (w for w in codegen.counts if w.lower() == lowered):
            if is_name_like(variant, registers):
                names.add(variant)
            else:
                structure.add(variant.lower())
    structure -= names
    return Vocabulary(
        structure_words=structure, name_words=names, ratio_threshold=threshold, registers=registers
    )


def reference_sentence_embedding(tokens: list[str], store: VectorStore) -> np.ndarray:
    """np.mean over the list of in-vocabulary token vectors, then normalized."""
    vecs = [row_of(store, t) for t in tokens if t in store]
    if not vecs:
        raise EncodingFailure(f"no token has a vector: {tokens!r}")
    mean = np.mean(vecs, axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        raise EncodingFailure("token vectors cancel out to the zero vector")
    return mean / norm


def reference_lexical_tag(tagger: LexiconTagger, word: str) -> PosTag:
    """Name/number patterns, lexicon, suffix rules, NOUN; nothing memoized."""
    if _NUMBER_RE.fullmatch(word):
        return PosTag.NUM
    if _PUNCT_RE.fullmatch(word):
        return PosTag.OTHER
    if is_name_like(word, tagger.registers):
        return PosTag.SYM
    lowered = word.lower()
    if lowered in tagger.primary:
        return tagger.primary[lowered]
    for suffix, tag in _SUFFIX_RULES:
        if len(lowered) > len(suffix) + 1 and lowered.endswith(suffix):
            return tag
    return PosTag.NOUN


def reference_score(record: PerturbationRecord, encoder) -> PerturbationRecord:
    """Fill in one record's similarity from its own encodes of the original
    and the perturbed intent; NaN when either cannot be encoded."""
    try:
        original = encoder.encode(record.original_intent, key=record.sample_id)
        perturbed = encoder.encode(
            record.perturbed_intent, key=f"{record.sample_id}#{record.kind.value}"
        )
    except EncodingFailure:
        record.similarity = math.nan
        return record
    record.similarity = min(1.0, max(0.0, cosine(original, perturbed)))
    return record


def reference_gated_records(
    splits, kinds, cfg, vocabulary, store, tagger, stoplist, gate_cfg, encoder
):
    """Per split, per kind: perturb, score each record on its own, gate, and
    keep the passing records in kind order."""
    records_by_split = {}
    for split_name, part in splits.items():
        gathered = []
        for kind in kinds:
            result = perturb_split(part, [kind], cfg, vocabulary, store, tagger, stoplist)
            passed, _ = gate([reference_score(r, encoder) for r in result.records], gate_cfg)
            gathered.extend(passed)
        records_by_split[split_name] = gathered
    return records_by_split


def reference_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine with both norms from np.linalg.norm."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise DataError("cosine undefined for zero-norm vector")
    return float(np.dot(a, b) / (norm_a * norm_b))


def reference_augment_split(split: Corpus, records, plan: AugmentPlan) -> Corpus:
    """Check and index the records, choose round(p * N) samples, and rebuild
    every sample of the split."""
    wanted_kinds = plan.matching_kinds()
    by_id = {}
    for record in records:
        if record.gate_pass != GATE_PASS:
            raise DataError(
                f"record {record.sample_id!r} ({record.kind.value}) has not passed the gate"
            )
        if record.kind in wanted_kinds:
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

    rng = random.Random(plan.seed)
    chosen = set(rng.sample(covered, need))
    replacement = {}
    for sid in sorted(chosen):
        candidates = by_id[sid]
        kind_key = rng.choice(sorted(candidates))
        replacement[sid] = candidates[kind_key]

    out = []
    for sample in split:
        if sample.id in replacement:
            out.append(
                Sample(
                    id=sample.id,
                    intent=replacement[sample.id].perturbed_intent,
                    snippet=sample.snippet,
                )
            )
        else:
            out.append(Sample(id=sample.id, intent=sample.intent, snippet=sample.snippet))
    return Corpus(out, name=split.name)


def reference_build_matrix(
    splits, records_by_split, kinds, ratios, seed, out_dir, apply_to_validation=True
):
    """One reference_augment_split call per cell split, then the manifest."""
    out_dir = Path(out_dir)
    cells = []
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
            materialized = reference_augment_split(
                split, records_by_split.get(split_name, []), plan
            )
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
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    return cells, digest


def _reference_intent_counts(corpus: Corpus, stoplist: set[str]) -> Counter:
    lowered_stop = {w.lower() for w in stoplist}
    counts: Counter = Counter()
    for sample in corpus:
        for token in tokenize(sample.intent).tokens:
            if token.lower() not in lowered_stop:
                counts[token] += 1
    return counts


def reference_jsd(a: Corpus, b: Corpus, stoplist: set[str]) -> float:
    """JSD over token counts gathered by a loop of its own."""
    return jsd_from_counts(
        _reference_intent_counts(a, stoplist), _reference_intent_counts(b, stoplist)
    )


def reference_vocab_growth(variants: list[Corpus], stoplist: set[str]) -> list[int]:
    """Distinct non-stopword tokens per variant, collected into a set."""
    lowered_stop = {w.lower() for w in stoplist}
    counts = []
    for corpus in variants:
        seen = set()
        for sample in corpus:
            seen.update(
                t for t in tokenize(sample.intent).tokens if t.lower() not in lowered_stop
            )
        counts.append(len(seen))
    return counts


def reference_omission_rates(corpus: Corpus, vocabulary: Vocabulary, tagger) -> dict:
    """Tokenize and tag each sample here, then average each category's share."""
    totals = {category: 0.0 for category in OmissionCategory}
    for sample in corpus:
        tokens = tokenize(sample.intent, source_id=sample.id).tokens
        tags = tagger.tag(tokens, sample_id=sample.id)
        for category in OmissionCategory:
            indices = omittable_words(tokens, category, vocabulary, tags)
            totals[category] += len(indices) / len(tokens)
    return {category: total / len(corpus) for category, total in totals.items()}


def reference_substitute_words(
    intent, cfg, use_constraints, vocabulary, tags, store, tagger, stoplist, rng
) -> PerturbationRecord:
    """Substitution whose constraints, default k and record kind follow a
    use_constraints flag, shuffled by the given RNG."""
    k = cfg.k
    if k is None:
        k = DEFAULT_K_CONSTRAINED if use_constraints else DEFAULT_K_UNCONSTRAINED
    eligible = eligible_words(intent.tokens, vocabulary, tags, store, stoplist)
    if not eligible:
        raise NoEligibleWords(f"sample {intent.source_id!r}: no eligible words")
    wanted = max(1, round_half_away(cfg.ratio * len(eligible)))
    order = sorted(eligible)
    rng.shuffle(order)
    new_tokens = list(intent.tokens)
    changed = []
    for index in order:
        if len(changed) == wanted:
            break
        token = intent.tokens[index]
        neighbors = store.top_k(token, k)
        candidate = None
        if not use_constraints:
            candidate = neighbors[0].word if neighbors else None
        else:
            for nb in neighbors:
                if nb.similarity >= cfg.tau and tagger.lexical_tag(nb.word) is tags[index]:
                    candidate = nb.word
                    break
        if candidate is None:
            continue
        new_tokens[index] = _transfer_case(token, candidate)
        changed.append(index)
    if not changed:
        raise NoEligibleWords(
            f"sample {intent.source_id!r}: no eligible word has a qualifying neighbor"
        )
    kind = PerturbKind.SUBST_CONSTRAINED if use_constraints else PerturbKind.SUBST_UNCONSTRAINED
    return PerturbationRecord(
        sample_id=intent.source_id,
        kind=kind,
        original_intent=detokenize(intent.tokens),
        perturbed_intent=detokenize(new_tokens),
        changed_positions=sorted(changed),
    )
