"""Output verification for one workload run.

Every check reads only the run's output files, the generated inputs and what
the generator knows by construction. A run is correct when its list of
problems is empty. The rounding and digest helpers repeat the package's own
on purpose, so that verification does not rely on the code it checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from gen import GATE_THRESHOLD, MATRIX_RATIOS, SPLIT_RATIOS

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_FAMILY_KINDS = {
    "substitution": {"subst-constrained", "subst-unconstrained"},
    "omission": {"omit-action", "omit-structure", "omit-name"},
}


def round_half_away(x: float) -> int:
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def canonical_digest(obj: dict) -> str:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_cells(kinds: list[str]) -> set[tuple[str, float, float]]:
    """The experiment-cell inventory the matrix promises for these kinds."""
    cells = {("none", 0.0, 0.0)}
    for family in kinds:
        cells.update((family, p, 1.0) for p in MATRIX_RATIOS)
        cells.add((family, 0.5, 0.0))
    return cells


def _is_subsequence(short: list[str], long: list[str]) -> bool:
    it = iter(long)
    return all(token in it for token in short)


def _record_problem(record: dict | None, family: str, before: str, after: str) -> str | None:
    if record is None:
        return "no gate-passing record"
    if record.get("gate") != "pass" or not (record.get("similarity") or 0.0) > GATE_THRESHOLD:
        return f"record {record.get('kind')} did not pass the gate"
    if record["kind"] not in _FAMILY_KINDS[family]:
        return f"record kind {record['kind']} outside family {family}"
    if record["original"] != before or record["perturbed"] != after:
        return "intent differs from its record"
    old, new = _TOKEN_RE.findall(before), _TOKEN_RE.findall(after)
    if family == "omission" and not (len(new) < len(old) and _is_subsequence(new, old)):
        return "omission is not a deletion of words"
    if family == "substitution" and (len(new) != len(old) or new == old):
        return "substitution changed the token count or nothing"
    return None


def verify_matrix(
    out: Path, corpus: list[dict], kinds: list[str]
) -> tuple[list[str], str | None]:
    """Check a matrix output tree against its input corpus.

    Every cell keeps each split's size, ids (in order) and snippets; exactly
    round(p * N) intents differ from the split's original, each equal to a
    gate-passing record of the cell's family; the manifest digest and the
    per-file sha256 match the files. Returns the problems and the manifest
    digest (None when the manifest is unreadable).
    """
    problems: list[str] = []
    try:
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        digest = manifest.pop("digest")
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest unreadable: {exc}"], None
    if canonical_digest(manifest) != digest:
        problems.append("manifest digest does not match its content")
    cells = {(c["kind"], float(c["train_p"]), float(c["test_p"])): c for c in manifest["cells"]}
    if set(cells) != expected_cells(kinds):
        problems.append(f"cell inventory {sorted(cells)} != {sorted(expected_cells(kinds))}")
        return problems, digest

    splits: dict[str, dict[str, list[dict]]] = {}
    for key, cell in cells.items():
        splits[key] = {}
        for name in ("train", "val", "test"):
            path = out / cell["paths"][name]
            data = path.read_bytes()
            if hashlib.sha256(data).hexdigest() != cell["sha256"][name]:
                problems.append(f"{cell['id']}/{name}: sha256 differs from the manifest")
            splits[key][name] = [json.loads(line) for line in data.decode("utf-8").splitlines()]

    base = splits[("none", 0.0, 0.0)]
    n = len(corpus)
    n_val = round_half_away(SPLIT_RATIOS[1] * n)
    n_test = round_half_away(SPLIT_RATIOS[2] * n)
    sizes = {"train": n - n_val - n_test, "val": n_val, "test": n_test}
    by_id = {row["id"]: row for row in corpus}
    seen: set[str] = set()
    for name, rows in base.items():
        if len(rows) != sizes[name]:
            problems.append(f"baseline {name}: {len(rows)} samples, expected {sizes[name]}")
        for row in rows:
            source = by_id.get(row["id"])
            if source is None or row["id"] in seen or row != source:
                problems.append(f"baseline {name}: sample {row['id']!r} is not an input sample")
            seen.add(row["id"])
    if seen != set(by_id):
        problems.append("baseline splits do not partition the corpus")

    records: dict[str, dict[tuple[str, str], dict]] = {}
    for name in ("train", "val", "test"):
        records[name] = {
            (r["id"], r["perturbed"]): r for r in read_jsonl(out / f"records_{name}.jsonl")
        }

    for (family, train_p, test_p), cell_splits in splits.items():
        for name, rows in cell_splits.items():
            originals = base[name]
            label = f"{cells[(family, train_p, test_p)]['id']}/{name}"
            if [r["id"] for r in rows] != [r["id"] for r in originals]:
                problems.append(f"{label}: ids or order changed")
                continue
            if any(r["snippet"] != o["snippet"] for r, o in zip(rows, originals)):
                problems.append(f"{label}: a snippet changed")
            changed = [(o, r) for r, o in zip(rows, originals) if r["intent"] != o["intent"]]
            p = test_p if name == "test" else train_p
            want = round_half_away(p * len(rows)) if family != "none" else 0
            if len(changed) != want:
                problems.append(f"{label}: {len(changed)} intents changed, expected {want}")
            for original, row in changed:
                record = records[name].get((row["id"], row["intent"]))
                problem = _record_problem(record, family, original["intent"], row["intent"])
                if problem:
                    problems.append(f"{label}: sample {row['id']!r}: {problem}")
    return problems, digest


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if a is None or b is None:
        return a is b
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def verify_evaluate(out: Path, expected: dict) -> tuple[int, list[str]]:
    """Per-prediction SYN verdicts against the generator's, plus SYN, SEM,
    ROB and both cohort breakdowns. A wrong aggregate fails every item."""
    verdicts = expected["verdicts"]
    problems: list[str] = []
    try:
        result = json.loads((out / "metrics.json").read_text("utf-8"))
        rows = read_jsonl(out / "syn_verdicts.jsonl")
    except (OSError, ValueError) as exc:
        return len(verdicts), [f"evaluate output unreadable: {exc}"]
    got = {row["id"]: row["ok"] for row in rows}
    wrong = sorted(sid for sid, ok in verdicts.items() if got.get(sid) is not ok)
    if wrong:
        problems.append(f"{len(wrong)} wrong SYN verdicts, e.g. {wrong[:3]}")
    # SYN aggregates follow from the verdicts; check them only when those are right.
    keys = ("sem", "sem_cohorts", "rob") + (() if wrong else ("syn", "syn_cohorts"))
    aggregate_wrong = set(got) != set(verdicts) or result.get("n") != len(verdicts)
    for key in keys:
        if not _close(result.get(key), expected[key]):
            problems.append(f"{key}: got {result.get(key)!r}, expected {expected[key]!r}")
            aggregate_wrong = True
    if aggregate_wrong:
        problems.append("aggregates or prediction ids are wrong: every item fails")
        return len(verdicts), problems
    return len(wrong), problems
