"""The byte contract as a test: fixed runs on the demo corpus must write the
bytes whose sha256 digests are committed in ``data/golden_digests.json``.

* ``matrix`` on seeds 1-10, both families, ratios 0, 0.25, 0.5 and 1: the
  manifest digest (which covers every cell file's sha256) and ``vocab.json``.
* The command chain of ``test_cli.TestCsvCorpus.commands``, plus ``ingest``
  to CSV, ``gate --sweep`` and ``report``: every file it writes, so each CSV
  writer and ``summary.txt`` are covered, under ``chain``, and the run
  manifest of every command but ``gate`` and ``matrix`` under
  ``run_manifests``. The chain runs in a fresh working directory on relative
  paths, because a run manifest digests its arguments' paths.

Every file that serializes a gate similarity is left out (gate's passed and
failed records, the matrix's ``records_*.jsonl``), and so are the run
manifests of ``gate`` and ``matrix``, which digest such files: the last bits
of a similarity depend on the BLAS kernel. A change that moves an output on
purpose rewrites the golden file with ``PYTHONPATH=src python
tests/test_golden.py`` and names each moved entry.
"""

from __future__ import annotations

import fnmatch
import json
import os
import tempfile
from pathlib import Path

from perturbe._util import sha256_file
from perturbe.corpus import save_corpus

import helpers
import test_cli

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"
SEEDS = range(1, 11)
UNPINNED = ("*.passed.jsonl", "*.failed.jsonl", "*records_*.jsonl", "*.gate.manifest.json",
            "matrix/run_manifest.json")
RUN_MANIFESTS = ("*run_manifest.json", "*.manifest.json")


def _matches(name: str, patterns) -> bool:
    return any(fnmatch.fnmatch(name, pattern) for pattern in patterns)


def _inputs(root: Path) -> tuple[Path, Path]:
    """The demo corpus and the demo store as files under ``root``."""
    corpus, vectors = root / "in" / "corpus.jsonl", root / "in" / "vectors.txt"
    if not corpus.exists():
        save_corpus(helpers.load_demo_corpus(), corpus)
        helpers.write_vector_file(helpers.demo_vectors(), vectors)
    return corpus, vectors


def matrix_digests(root: Path) -> dict[str, dict[str, str]]:
    corpus, vectors = _inputs(root)
    digests = {}
    for seed in SEEDS:
        out, config = root / f"matrix{seed}", root / f"matrix{seed}.cfg"
        config.write_text(
            f"corpus = {corpus}\nvectors = {vectors}\nout_dir = {out}\nseed = {seed}\n"
            "kinds = substitution,omission\nratios = 0,0.25,0.5,1\n"
        )
        assert test_cli.run("matrix", "--config", config) == 0
        digests[str(seed)] = {
            "manifest": json.loads((out / "manifest.json").read_text("utf-8"))["digest"],
            "vocab.json": sha256_file(out / "vocab.json"),
        }
    return digests


def chain_digests(root: Path) -> dict[str, dict[str, str]]:
    """The pinned files of the chain, by key of the golden file; ``root`` is
    relative to the working directory."""
    corpus, vectors = _inputs(root)
    out = root / "chain"
    sweep = out / "sweep"
    argvs = [
        *test_cli.TestCsvCorpus.commands(corpus, vectors, out),
        ("ingest", "--in", corpus, "--out", out / "x.csv"),
        ("gate", "--records", out / "recs.jsonl", "--vectors", vectors,
         "--sweep", "0.7,0.8,0.9", "--out-passed", sweep / "recs.passed.jsonl",
         "--out-failed", sweep / "recs.failed.jsonl", "--sweep-out", sweep / "sweep.csv"),
        ("report", "--metrics", out / "eval" / "metrics.json", "--out-dir", out / "report"),
    ]
    for argv in argvs:
        assert test_cli.run(*argv) == 0, argv[0]
    digests: dict[str, dict[str, str]] = {"chain": {}, "run_manifests": {}}
    for name in test_cli.tree(out):
        if not _matches(name, UNPINNED):
            key = "run_manifests" if _matches(name, RUN_MANIFESTS) else "chain"
            digests[key][name] = sha256_file(out / name)
    return digests


def golden() -> dict:
    return json.loads(GOLDEN.read_text("utf-8"))


def test_matrix_outputs_match_golden(tmp_path):
    assert matrix_digests(tmp_path) == golden()["matrix"]


def test_chain_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = chain_digests(Path("."))
    # Every CSV writer and the report summary are among the pinned files.
    assert {"x.csv", "sweep/sweep.csv", "report/metrics.csv", "report/summary.txt"} <= set(
        digests["chain"]
    )
    assert len(digests["run_manifests"]) == 8
    assert digests == {key: golden()[key] for key in digests}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        root = Path(".")
        payload = {"matrix": matrix_digests(root), **chain_digests(root)}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {GOLDEN}")
