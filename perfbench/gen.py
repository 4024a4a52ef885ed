"""Seeded input generator for the pipeline benchmark.

Every input file a workload needs is derived from the workload name and the
seed alone: the same (workload, seed) pair writes byte-identical files. The
program under test only ever sees the files written to ``inputs/``; what the
generator knows by construction (expected verdicts and scores) goes to a
separate ``expected.json`` that only the benchmark reads.

The demo corpus under ``data/`` and the demo vector geometry below are
copies of the test suite's fixtures, kept here so the benchmark inputs do not
change when the tests do.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent / "data"

WORKLOADS = ("matrix_paper", "matrix_omission", "evaluate_syn")

# matrix_paper: a store shaped like the counter-fitted vectors (300 dims),
# sized so that one untuned matrix run takes about a second (see NOTES.md).
PAPER_WORDS = 2_000
PAPER_DIM = 300
# matrix_omission: distinct template intents; evaluate_syn: predictions.
OMISSION_SAMPLES = 1_000
EVAL_PREDICTIONS = 500
MUTANT_SHARE = 0.2
LABEL_BEFORE_TRUE = 0.7
LABEL_AFTER_TRUE = 0.6

MATRIX_RATIOS = (0.0, 0.25, 0.5, 1.0)
SPLIT_RATIOS = (0.8, 0.1, 0.1)
GATE_THRESHOLD = 0.80

_HEX_RE = re.compile(r"0[xX][0-9A-Fa-f]+")
_LABEL_RE = re.compile(r"\b_[A-Za-z_]\w*")
_WORD_RE = re.compile(r"\w+")
_REGS32 = ("eax", "ebx", "ecx", "edx", "esi", "edi")
_REGS8 = {"al", "bl", "cl", "dl", "ah", "bh", "ch", "dh"}
_NEWLINE_MARKER = "\\n"

# --- demo vector geometry (copied from the test fixtures) -------------------

_SYNONYM_NORM = 1.1662
_RICH_VERBS = [
    "store", "copy", "move", "clear", "put", "load", "check", "call",
    "jump", "push", "point", "test", "set", "pop", "keep",
]
_POOR_VERBS = [
    "perform", "subtract", "compare", "zero", "swap", "shift", "divide", "multiply",
]
_SYNONYMS = [
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
_TRAPS = [
    ("stock", "store", 0.95, 2.5), ("clearance", "clear", 0.86, 3.0),
    ("jumper", "jump", 0.84, 2.8), ("performance", "perform", 0.86, 3.5),
    ("subtraction", "subtract", 0.85, 3.2), ("comparison", "compare", 0.85, 3.0),
    ("null", "zero", 0.84, 2.8), ("division", "divide", 0.85, 3.2),
    ("multiplication", "multiply", 0.85, 3.4),
]
_STRUCTURE_NOUNS = [
    "register", "registers", "stack", "pointer", "shellcode", "buffer",
    "byte", "bytes", "contents", "value", "address", "label", "function",
    "result", "bits", "flag", "program", "top",
]
_NAME_TOKENS = [
    "eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp", "al", "bl",
    "cl", "ch", "ax", "0x1", "0x2", "0x4", "0x8", "0x10", "0x20", "0x80",
    "0xff", "0x0b", "0x3c", "_read_loop", "_myfunc", "_exit_proc",
    "_start_label", "_encoder",
]
_DEMO_DIM = 128


def demo_vectors() -> dict[str, np.ndarray]:
    """101 words whose geometry makes every demo intent perturb: each word
    has a shared component plus its own axis, synonyms sit at a fixed cosine
    from their base verb, and traps have large norms."""
    words: dict[str, np.ndarray] = {}
    next_axis = 1

    def axis() -> np.ndarray:
        nonlocal next_axis
        e = np.zeros(_DEMO_DIM)
        e[next_axis] = 1.0
        next_axis += 1
        return e

    def base(word: str, common: float, specific: float) -> None:
        v = specific * axis()
        v[0] = common
        words[word] = v

    def derived(word: str, source: str, cos_target: float, norm: float) -> None:
        u = words[source] / np.linalg.norm(words[source])
        words[word] = norm * (cos_target * u + np.sqrt(1.0 - cos_target**2) * axis())

    for verb in _RICH_VERBS + _POOR_VERBS:
        base(verb, 1.0, 0.6)
    for word, source, cos_target in _SYNONYMS:
        derived(word, source, cos_target, _SYNONYM_NORM)
    for word, source, cos_target, norm in _TRAPS:
        derived(word, source, cos_target, norm)
    for noun in _STRUCTURE_NOUNS:
        base(noun, 1.0, 0.85)
    for name in _NAME_TOKENS:
        base(name, 0.25, 2.2)
    return words


# --- corpus helpers ----------------------------------------------------------


def load_demo_corpus() -> list[dict]:
    with open(DATA_DIR / "demo_corpus.jsonl", "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def _write_vectors(path: Path, words: list[str], matrix: np.ndarray) -> None:
    """Text format with an 'N D' header and 6-decimal components."""
    row_fmt = "%s " + " ".join(["%.6f"] * matrix.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix.tolist()):
            fh.write(row_fmt % (word, *row))


def _filler_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    out: list[str] = []
    seen = set(taken)
    while len(out) < count:
        word = "".join(rng.choice(letters) for _ in range(rng.randint(5, 10)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _is_byte_context(snippet_line: str) -> bool:
    operands = set(re.findall(r"[a-z]+", snippet_line.lower()))
    return bool(operands & _REGS8) or snippet_line.strip().startswith("int ")


def vary(sample: dict, rng: random.Random) -> dict:
    """A fresh instance of a demo template: new hex immediates (byte-sized
    where the instruction needs it), new label names and a permutation of the
    general-purpose registers, applied consistently to intent and snippet."""
    intent, snippet = sample["intent"], sample["snippet"]
    lines = snippet.split(_NEWLINE_MARKER)
    for literal in sorted(set(_HEX_RE.findall(intent)) | set(_HEX_RE.findall(snippet))):
        lowered = literal.lower()
        byte = any(lowered in line.lower() and _is_byte_context(line) for line in lines)
        value = rng.randrange(0x10, 0x100) if byte else rng.randrange(0x100, 0x1_0000_0000)
        fresh = f"0x{value:X}"
        pattern = re.compile(re.escape(literal) + r"\b", re.IGNORECASE)
        intent = pattern.sub(fresh, intent)
        snippet = pattern.sub(fresh.lower(), snippet)
    for label in sorted(set(_LABEL_RE.findall(intent)) | set(_LABEL_RE.findall(snippet))):
        fresh = f"{label}_{rng.randrange(0x1000, 0x100000):x}"
        pattern = re.compile(re.escape(label) + r"\b")
        intent = pattern.sub(fresh, intent)
        snippet = pattern.sub(fresh, snippet)
    permuted = list(_REGS32)
    rng.shuffle(permuted)
    mapping = dict(zip(_REGS32, permuted))
    reg_re = re.compile(r"\b(" + "|".join(_REGS32) + r")\b", re.IGNORECASE)

    def swap(match: re.Match) -> str:
        new = mapping[match.group(1).lower()]
        return new.upper() if match.group(1).isupper() else new

    return {"intent": reg_re.sub(swap, intent), "snippet": reg_re.sub(swap, snippet)}


def _templates(demo: list[dict]) -> list[dict]:
    """Demo samples with a hex immediate or a label, so every instance can
    be made distinct."""
    return [s for s in demo if _HEX_RE.search(s["intent"]) or _LABEL_RE.search(s["intent"])]


def _distinct_instances(
    rng: random.Random, templates: list[dict], count: int, key: str
) -> list[dict]:
    """``count`` instances, each template used equally often (so seeds differ
    in values, not in workload shape), no two equal in ``key``, in seeded
    order."""
    seen: set[str] = set()
    out: list[dict] = []
    while len(out) < count:
        inst = vary(templates[len(out) % len(templates)], rng)
        if inst[key] not in seen:
            seen.add(inst[key])
            out.append(inst)
    rng.shuffle(out)
    return out


def _config(seed: int, kinds: str) -> str:
    return (
        "corpus = corpus.jsonl\n"
        "vectors = vectors.txt\n"
        "out_dir = out\n"
        f"seed = {seed}\n"
        f"kinds = {kinds}\n"
        f"ratios = {','.join(str(r) for r in MATRIX_RATIOS)}\n"
    )


def _unique_tokens(texts: list[str]) -> int:
    return len({t for text in texts for t in _WORD_RE.findall(text)})


# --- workloads --------------------------------------------------------------


def _gen_matrix_paper(seed: int, inputs: Path) -> tuple[dict, dict]:
    rng = random.Random(f"matrix_paper:{seed}")
    nprng = np.random.default_rng([seed, 1])
    corpus = load_demo_corpus()
    demo = demo_vectors()
    fillers = _filler_words(rng, PAPER_WORDS - len(demo), set(demo))
    matrix = np.zeros((PAPER_WORDS, PAPER_DIM))
    matrix[: len(demo), :_DEMO_DIM] = np.array(list(demo.values()))
    matrix[len(demo) :] = nprng.standard_normal((len(fillers), PAPER_DIM))
    _write_vectors(inputs / "vectors.txt", list(demo) + fillers, matrix)
    _write_jsonl(inputs / "corpus.jsonl", corpus)
    cfg_seed = rng.randrange(2**32)
    (inputs / "exp.cfg").write_text(_config(cfg_seed, "substitution,omission"), "utf-8")
    intents = [s["intent"] for s in corpus]
    in_store = {t.lower() for text in intents for t in _WORD_RE.findall(text)} & set(demo)
    stats = {
        "V": PAPER_WORDS,
        "D": PAPER_DIM,
        "n_samples": len(corpus),
        "intent_words_in_store": len(in_store),
        "unique_intent_tokens": _unique_tokens(intents),
    }
    expected = {"kinds": ["substitution", "omission"]}
    return stats, expected


def _gen_matrix_omission(seed: int, inputs: Path) -> tuple[dict, dict]:
    rng = random.Random(f"matrix_omission:{seed}")
    demo = demo_vectors()
    samples = _distinct_instances(rng, _templates(load_demo_corpus()), OMISSION_SAMPLES, "intent")
    corpus = [{"id": f"o{i:06d}", **s} for i, s in enumerate(samples)]
    _write_vectors(inputs / "vectors.txt", list(demo), np.array(list(demo.values())))
    _write_jsonl(inputs / "corpus.jsonl", corpus)
    cfg_seed = rng.randrange(2**32)
    (inputs / "exp.cfg").write_text(_config(cfg_seed, "omission"), "utf-8")
    stats = {
        "V": len(demo),
        "D": _DEMO_DIM,
        "n_samples": len(corpus),
        "unique_intent_tokens": _unique_tokens([s["intent"] for s in corpus]),
    }
    expected = {"kinds": ["omission"]}
    return stats, expected


def _mutate(snippet: str) -> str:
    """A prediction no assembler accepts: the first mnemonic gets a suffix
    that makes it an unknown instruction."""
    mnemonic, sep, rest = snippet.partition(" ")
    return f"{mnemonic}zz{sep}{rest}"


def _share(flags: list[bool]) -> float | None:
    return sum(flags) / len(flags) if flags else None


def _cohorts(values: dict[str, bool], multi: dict[str, bool]) -> dict:
    single = [ok for sid, ok in values.items() if not multi[sid]]
    many = [ok for sid, ok in values.items() if multi[sid]]
    return {
        "single-line": {"n": float(len(single)), "accuracy": _share(single)},
        "multi-line": {"n": float(len(many)), "accuracy": _share(many)},
    }


def _gen_evaluate_syn(seed: int, inputs: Path) -> tuple[dict, dict]:
    rng = random.Random(f"evaluate_syn:{seed}")
    refs = _distinct_instances(rng, _templates(load_demo_corpus()), EVAL_PREDICTIONS, "snippet")
    ids = [f"e{i:06d}" for i in range(len(refs))]
    mutants = set(rng.sample(ids, round(MUTANT_SHARE * len(ids))))
    verdicts, preds, before, after = {}, [], {}, {}
    for sid, ref in zip(ids, refs):
        ok = sid not in mutants
        verdicts[sid] = ok
        preds.append({"id": sid, "prediction": ref["snippet"] if ok else _mutate(ref["snippet"])})
        before[sid] = rng.random() < LABEL_BEFORE_TRUE
        after[sid] = rng.random() < LABEL_AFTER_TRUE
    _write_jsonl(inputs / "refs.jsonl", [{"id": sid, **r} for sid, r in zip(ids, refs)])
    _write_jsonl(inputs / "preds.jsonl", preds)
    for name, labels in (("labels.jsonl", after), ("labels_before.jsonl", before)):
        rows = [{"id": sid, "correct": ok, "provenance": "human"} for sid, ok in labels.items()]
        _write_jsonl(inputs / name, rows)
    multi = {sid: _NEWLINE_MARKER in r["snippet"] for sid, r in zip(ids, refs)}
    kept = [sid for sid in ids if before[sid]]
    texts = [p["prediction"] for p in preds]
    stats = {
        "n_samples": len(preds),
        "mutant_share": 1 - _share(list(verdicts.values())),
        "distinct_prediction_share": len(set(texts)) / len(texts),
        "unique_intent_tokens": _unique_tokens([r["intent"] for r in refs]),
    }
    expected = {
        "verdicts": verdicts,
        "syn": _share(list(verdicts.values())),
        "syn_cohorts": _cohorts(verdicts, multi),
        "sem": _share(list(after.values())),
        "sem_cohorts": _cohorts(after, multi),
        "rob": _share([after[sid] for sid in kept]),
    }
    return stats, expected


_GENERATORS = {
    "matrix_paper": _gen_matrix_paper,
    "matrix_omission": _gen_matrix_omission,
    "evaluate_syn": _gen_evaluate_syn,
}


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write ``work/inputs/*`` and ``work/expected.json``; return the input
    statistics (sizes and sharing properties) recorded next to the numbers."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    stats, expected = _GENERATORS[workload](seed, inputs)
    (work / "expected.json").write_text(json.dumps(expected, sort_keys=True) + "\n", "utf-8")
    return stats
