"""Evaluation metrics: syntactic accuracy via an external assembler,
semantic accuracy from label files, robust accuracy, Jensen-Shannon
divergence between corpora, and descriptive statistics.

Semantic correctness is a human judgment consumed as a label file; the
exact-match proxy here is a clearly-labeled automatic lower bound, never a
silent substitute.

Syntactic accuracy checks each snippet wrapped in its scaffold, in a
temporary file. A diagnostic is the checker's last stderr line with that
file's path replaced by ``snippet<suffix>``, so verdict files are
byte-identical across runs. The suffix follows the scaffold: ``.asm`` under
``NASM_SCAFFOLD``, ``.s`` under any other. When the checker is GNU ``as``
(argv0's basename is ``as``) with ``GAS_SCAFFOLD``, snippets are first
settled in bulk: every snippet made only of letters, digits,
``_ , + - * [ ] ( )``, blanks and newlines goes into one file under a single
scaffold header. These characters cannot spell a label, a symbol
assignment, a directive, a comment, a string or a statement separator, so
no snippet in the file can change how another assembles. Each
``snippet.s:<n>: Error:`` or ``Warning:`` line of that run is mapped to a
snippet and a line within it. A snippet an error line points at fails, and
its diagnostic is its last message in stderr order, renumbered to
``snippet.s:<first_line + i>``: line ``i`` of the snippet sits there in its
own scaffolded file. GNU as prints parse-phase messages in line order and
write-phase messages after them, so one snippet's messages keep their order
in the batch, and this is the line a standalone run ends with. The other
snippets are assembled once more, and only an exit status of 0 there makes
the verdicts of both runs count; when every snippet failed, there is no
second run. A batch of one snippet is byte for byte its standalone source. A
timeout, a stderr line that names no snippet or a second failure settles
nothing. Every snippet not settled this way gets the standalone check, the
reference path: one checker run per snippet. NASM is never batched.
"""

from __future__ import annotations

import os
import re
import shlex
import shutil
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perturbe._util import open_output, read_jsonl, write_csv, write_jsonl
from perturbe.corpus import NEWLINE_MARKER, Corpus
from perturbe.errors import CheckerError, ConfigError, DataError
from perturbe.perturb import KindFamily, PerturbKind, analyze_corpus, omittable_words
from perturbe.vocab import Vocabulary, count_frequencies

DEFAULT_CHECK_TIMEOUT = 10.0

# Minimal scaffolds that let an instruction fragment assemble standalone.
NASM_SCAFFOLD = "section .text\nglobal _start\n_start:\n{code}\n"
GAS_SCAFFOLD = ".intel_syntax noprefix\n.text\n.globl _start\n_start:\n{code}\n"

_MARKER_RE = re.compile(r"\s*" + re.escape(NEWLINE_MARKER) + r"\s*")

# Snippets made only of these characters may share one GNU as source file.
_BATCHABLE_RE = re.compile(r"[A-Za-z0-9_,+\-*\[\]() \t\n]*")


@dataclass
class SemLabelSet:
    """Per-sample semantic-correctness labels and their provenance."""

    entries: dict[str, bool]
    provenance: str = "human"


@dataclass
class RobInput:
    """Label sets for the same test split before and after perturbation."""

    before: SemLabelSet
    after: SemLabelSet

    def __post_init__(self) -> None:
        if set(self.before.entries) != set(self.after.entries):
            raise DataError("before/after label sets cover different sample ids")


@dataclass(frozen=True)
class CheckerConfig:
    """External syntax checker: a command template with a {file} placeholder
    plus the scaffold the snippet is wrapped in. Standalone checks run on a
    pool of ``workers`` threads (at least 1)."""

    template: str
    scaffold: str = NASM_SCAFFOLD
    timeout: float = DEFAULT_CHECK_TIMEOUT
    workers: int = 4

    def __post_init__(self) -> None:
        if "{file}" not in self.template:
            raise ConfigError("checker template must contain a {file} placeholder")
        if self.workers < 1:
            raise ConfigError(f"checker workers must be >= 1, got {self.workers}")

    @property
    def suffix(self) -> str:
        """The checked file's suffix: .asm under NASM's scaffold, .s under any other."""
        return ".asm" if self.scaffold == NASM_SCAFFOLD else ".s"


@dataclass
class SyntaxReport:
    accuracy: float
    verdicts: dict[str, bool] = field(default_factory=dict)
    diagnostics: dict[str, str] = field(default_factory=dict)


def detect_checker(
    timeout: float = DEFAULT_CHECK_TIMEOUT, workers: int = CheckerConfig.workers
) -> CheckerConfig | None:
    """Pick an installed x86 assembler, preferring NASM's dialect."""
    if shutil.which("nasm"):
        return CheckerConfig(
            template="nasm -f elf32 {file} -o /dev/null",
            scaffold=NASM_SCAFFOLD,
            timeout=timeout,
            workers=workers,
        )
    if shutil.which("as"):
        return CheckerConfig(
            template="as --32 {file} -o /dev/null",
            scaffold=GAS_SCAFFOLD,
            timeout=timeout,
            workers=workers,
        )
    return None


def _snippet_code(snippet: str) -> str:
    """Expand the two-character line separator into real lines."""
    return _MARKER_RE.sub("\n", snippet).strip()


def snippet_to_source(snippet: str, scaffold: str) -> str:
    """Expand the two-character line separator and wrap in the scaffold."""
    return scaffold.format(code=_snippet_code(snippet))


def _assemble(source: str, checker: CheckerConfig) -> tuple[int | None, str]:
    """Run the checker on one source file. Returns the exit status (None on
    timeout) and stderr with the file's path replaced by ``snippet<suffix>``."""
    with tempfile.NamedTemporaryFile(
        "w", suffix=checker.suffix, delete=False, encoding="utf-8"
    ) as handle:
        handle.write(source)
        path = handle.name
    try:
        proc = subprocess.run(
            shlex.split(checker.template.format(file=path)),
            capture_output=True,
            timeout=checker.timeout,
            text=True,
        )
        return proc.returncode, proc.stderr.replace(path, "snippet" + checker.suffix)
    except subprocess.TimeoutExpired:
        return None, ""
    finally:
        Path(path).unlink(missing_ok=True)


def _check_standalone(prediction: str, checker: CheckerConfig) -> tuple[bool, str]:
    """The reference check: one checker run on the scaffolded snippet."""
    if not prediction.strip():
        return False, "empty prediction"
    code, stderr = _assemble(snippet_to_source(prediction, checker.scaffold), checker)
    if code is None:
        return False, f"checker timed out after {checker.timeout}s"
    if code == 0:
        return True, ""
    return False, stderr.strip().splitlines()[-1] if stderr.strip() else "nonzero exit"


def _batch_failures(
    batch: list[tuple[str, str]], checker: CheckerConfig
) -> dict[str, str] | None:
    """Assemble every (id, code) pair in one file under the scaffold header.
    Returns the diagnostic of each snippet that an error line points at
    (empty when the file assembles), or None when the run proves nothing: a
    timeout, or a failure with a stderr line that names no snippet."""
    header, _, footer = checker.scaffold.partition("{code}")
    first_line = header.count("\n") + 1
    place: list[tuple[str, int]] = []  # place[k]: (id, line in its snippet) of line k + first_line
    for sample_id, code in batch:
        place.extend((sample_id, i) for i in range(code.count("\n") + 1))
    status, stderr = _assemble(header + "\n".join(code for _, code in batch) + footer, checker)
    if status == 0:
        return {}
    if status is None:
        return None
    name = "snippet" + checker.suffix
    message = re.compile(
        rf"{re.escape(name)}: Assembler messages:|{re.escape(name)}:(\d+): ((Error|Warning): .*)"
    )
    last: dict[str, str] = {}
    failed: set[str] = set()
    for line in stderr.splitlines():
        match = message.fullmatch(line)
        if match is None:
            return None
        if match.group(1) is None:
            continue
        index = int(match.group(1)) - first_line
        if not 0 <= index < len(place):
            return None
        sample_id, i = place[index]
        last[sample_id] = f"{name}:{first_line + i}: {match.group(2)}".rstrip()
        if match.group(3) == "Error":
            failed.add(sample_id)
    return {sample_id: last[sample_id] for sample_id in failed} or None


def _check_in_batch(preds: dict[str, str], checker: CheckerConfig) -> dict[str, tuple[bool, str]]:
    """Verdict and diagnostic of each snippet that batched GNU as runs settle."""
    batch = []
    for sample_id, prediction in sorted(preds.items()):
        code = _snippet_code(prediction)
        if prediction.strip() and _BATCHABLE_RE.fullmatch(code):
            batch.append((sample_id, code))
    failures = _batch_failures(batch, checker) if batch else None
    if failures is None:
        return {}
    rest = [item for item in batch if item[0] not in failures]
    if failures and rest and _batch_failures(rest, checker) != {}:
        return {}
    settled = {sample_id: (True, "") for sample_id, _ in rest}
    settled.update((sample_id, (False, diagnostic)) for sample_id, diagnostic in failures.items())
    return settled


def syntactic_accuracy(preds: dict[str, str], checker: CheckerConfig) -> SyntaxReport:
    """Fraction of predictions the external checker accepts (exit 0).

    Empty predictions count as incorrect without invoking the checker;
    timeouts count as incorrect with a diagnostic. Snippets that batched GNU
    as runs settle (see the module docstring) take their verdict and their
    diagnostic from those runs, renumbered to their own file's lines; the
    rest are checked standalone on a pool of ``checker.workers`` threads,
    which is only built when some snippet needs it.
    """
    argv0 = shlex.split(checker.template)[0]
    if shutil.which(argv0) is None:
        raise CheckerError(f"syntax checker not found: {argv0!r}")
    if not preds:
        raise DataError("empty prediction set")

    settled: dict[str, tuple[bool, str]] = {}
    if os.path.basename(argv0) == "as" and checker.scaffold == GAS_SCAFFOLD:
        settled = _check_in_batch(preds, checker)
    results = [(sample_id, *verdict) for sample_id, verdict in settled.items()]
    items = [item for item in sorted(preds.items()) if item[0] not in settled]

    def check(item: tuple[str, str]) -> tuple[str, bool, str]:
        return (item[0], *_check_standalone(item[1], checker))

    if items:
        with ThreadPoolExecutor(max_workers=checker.workers) as pool:
            results.extend(pool.map(check, items))

    report = SyntaxReport(accuracy=0.0)
    for sample_id, ok, diagnostic in sorted(results):
        report.verdicts[sample_id] = ok
        if diagnostic:
            report.diagnostics[sample_id] = diagnostic
    report.accuracy = sum(report.verdicts.values()) / len(report.verdicts)
    return report


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def exact_match_labels(preds: dict[str, str], references: Corpus) -> SemLabelSet:
    """Automatic lower-bound proxy: correct iff the whitespace-normalized
    prediction equals the reference snippet. Equivalent-but-different code
    is counted wrong; real semantic labels come from human judgment files."""
    refs = {s.id: s.snippet for s in references}
    entries: dict[str, bool] = {}
    for sample_id, prediction in preds.items():
        if sample_id not in refs:
            raise DataError(f"prediction {sample_id!r} has no reference snippet")
        entries[sample_id] = _normalize_ws(prediction) == _normalize_ws(refs[sample_id])
    return SemLabelSet(entries=entries, provenance="exact-match-proxy")


def semantic_accuracy(labels: SemLabelSet) -> float:
    if not labels.entries:
        raise DataError("empty label set")
    return sum(labels.entries.values()) / len(labels.entries)


def robust_accuracy(rob: RobInput) -> float | None:
    """Among samples correct before perturbation, the fraction still correct
    after. Undefined (None) when nothing was correct before; never 0 by
    convention."""
    correct_before = {sid for sid, ok in rob.before.entries.items() if ok}
    if not correct_before:
        return None
    still_correct = sum(1 for sid in correct_before if rob.after.entries[sid])
    return still_correct / len(correct_before)


def jsd_from_counts(counts_a: dict[str, int], counts_b: dict[str, int]) -> float:
    """Base-2 Jensen-Shannon divergence between two unigram distributions.

    Accumulates integer-weighted log terms and divides once per side, so
    identical inputs give exactly 0.0 and disjoint supports exactly 1.0.
    """
    if not counts_a or not counts_b:
        raise DataError("cannot compare empty distributions")
    union = sorted(set(counts_a) | set(counts_b))
    a = np.array([counts_a.get(w, 0) for w in union], dtype=np.float64)
    b = np.array([counts_b.get(w, 0) for w in union], dtype=np.float64)
    total_a = a.sum()
    total_b = b.sum()
    p = a / total_a
    q = b / total_b
    m = 0.5 * (p + q)
    mask_a = a > 0
    mask_b = b > 0
    term_a = np.sum(a[mask_a] * np.log2(p[mask_a] / m[mask_a])) / total_a
    term_b = np.sum(b[mask_b] * np.log2(q[mask_b] / m[mask_b])) / total_b
    return float(0.5 * (term_a + term_b))


def jsd(a: Corpus, b: Corpus, stoplist: set[str]) -> float:
    """JSD between the non-stopword intent-token distributions of two corpora
    (the stoplist is lowercase)."""
    if len(a) == 0 or len(b) == 0:
        raise DataError("cannot compare empty corpora")
    return jsd_from_counts(
        count_frequencies((s.intent for s in a), stoplist).counts,
        count_frequencies((s.intent for s in b), stoplist).counts,
    )


def omission_rate_stats(
    corpus: Corpus, vocabulary: Vocabulary, tagger
) -> dict[PerturbKind, float]:
    """Mean fraction of intent tokens each omission kind would remove."""
    if len(corpus) == 0:
        raise DataError("empty corpus")
    totals = {kind: 0.0 for kind in PerturbKind if kind.family is KindFamily.OMISSION}
    for intent, tags in analyze_corpus(corpus, tagger):
        for kind in totals:
            indices = omittable_words(intent.tokens, kind, vocabulary, tags)
            totals[kind] += len(indices) / len(intent.tokens)
    return {kind: total / len(corpus) for kind, total in totals.items()}


def _fmt(value: float | str | None) -> str:
    """A score to four places; null and "undefined" print as '-'."""
    return "-" if value in (None, "undefined") else f"{value:.4f}"


def _fmt_cohort(key: str, value: int | float | None) -> str:
    """A cohort's value: an integer count ``n`` as an integer, any other
    value as a score."""
    return str(value) if key == "n" and isinstance(value, int) else _fmt(value)


def report(cells: list[dict], out_dir: str | Path) -> tuple[Path, Path]:
    """Write metrics.csv plus a readable summary of metrics objects as
    ``evaluate`` writes them to metrics.json; returns both paths. An absent
    ``model`` is empty, an absent ``kind`` is '-', an absent p is 0.0 and an
    absent score is '-'."""
    rows = [("model", "kind", "train_p", "test_p", "SYN", "SEM", "ROB")]
    lines = ["Evaluation summary", "=================="]
    for cell in cells:
        model, kind = cell.get("model", ""), cell.get("kind", "-")
        # float(): an integer p prints as 1.0, never 1.
        train_p, test_p = float(cell.get("train_p", 0.0)), float(cell.get("test_p", 0.0))
        syn, sem, rob = (_fmt(cell.get(key)) for key in ("syn", "sem", "rob"))
        rows.append((model, kind, train_p, test_p, syn, sem, rob))
        lines.append(
            f"{model or '-'} | {kind} | train {train_p:.0%} | test {test_p:.0%} "
            f"| SYN {syn} | SEM {sem} | ROB {rob}"
        )
        for cohort, values in sorted(cell.get("sem_cohorts", {}).items()):
            parts = " | ".join(f"{k} {_fmt_cohort(k, v)}" for k, v in sorted(values.items()))
            lines.append(f"    {cohort}: {parts}")
    csv_path, summary_path = Path(out_dir) / "metrics.csv", Path(out_dir) / "summary.txt"
    write_csv(csv_path, rows)
    with open_output(summary_path) as fh:
        fh.write("\n".join(lines) + "\n")
    return csv_path, summary_path


def cohort_breakdown(
    verdicts: dict[str, bool], corpus: Corpus
) -> dict[str, dict[str, int | float | None]]:
    """Split per-id boolean verdicts into single-line/multi-line cohorts: the
    count ``n`` and the share of true verdicts. An id the corpus does not hold
    is a DataError."""
    try:
        multi_lines = [corpus.by_id(sid).multi_line for sid in verdicts]
    except KeyError as exc:
        raise DataError(f"id {exc.args[0]!r} is not in corpus {corpus.name!r}") from None
    out: dict[str, dict[str, int | float | None]] = {}
    for cohort, multi_line in (("single-line", False), ("multi-line", True)):
        oks = [ok for ok, multi in zip(verdicts.values(), multi_lines) if multi == multi_line]
        out[cohort] = {"n": len(oks), "accuracy": sum(oks) / len(oks) if oks else None}
    return out


def load_predictions(path: str | Path) -> dict[str, str]:
    """Model outputs keyed by sample id."""
    preds: dict[str, str] = {}
    for _, record in read_jsonl(path, ("id", "prediction")):
        preds[str(record["id"])] = str(record["prediction"])
    return preds


def load_labels(path: str | Path) -> SemLabelSet:
    entries: dict[str, bool] = {}
    provenance = "human"
    for lineno, record in read_jsonl(path, ("id", "correct")):
        correct = record["correct"]
        if not isinstance(correct, bool):
            raise DataError(f"{path}:{lineno}: 'correct' must be true or false")
        entries[str(record["id"])] = correct
        provenance = str(record.get("provenance", provenance))
    return SemLabelSet(entries=entries, provenance=provenance)


def save_labels(labels: SemLabelSet, path: str | Path) -> None:
    write_jsonl(
        path,
        (
            {"id": sid, "correct": ok, "provenance": labels.provenance}
            for sid, ok in sorted(labels.entries.items())
        ),
    )
