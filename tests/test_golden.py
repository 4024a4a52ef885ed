"""The byte contract as a test: fixed runs on the demo corpus must write the
bytes whose sha256 digests are committed in ``data/golden_digests.json``.

* ``matrix`` on seeds 1-10, both families, ratios 0, 0.25, 0.5 and 1: the
  manifest digest (which covers every cell file's sha256) and ``vocab.json``.
* The command chain of ``test_cli.TestCsvCorpus.commands``, plus ``ingest``
  to CSV, ``gate --sweep`` and ``report``: every file it writes, so each CSV
  writer and ``summary.txt`` are covered.

Run manifests are left out, because they digest absolute paths, and so is
every file that serializes a gate similarity (gate's passed and failed
records, the matrix's ``records_*.jsonl``): the last bits of a similarity
depend on the BLAS kernel. A change that moves an output on purpose rewrites
the golden file with ``PYTHONPATH=src python tests/test_golden.py`` and names
each moved entry.
"""

from __future__ import annotations

import fnmatch
import json
import tempfile
from pathlib import Path

from perturbe._util import sha256_file
from perturbe.corpus import save_corpus

import helpers
import test_cli

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"
SEEDS = range(1, 11)
UNPINNED = ("*run_manifest.json", "*.manifest.json", "*.passed.jsonl", "*.failed.jsonl",
            "*records_*.jsonl")


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


def chain_digests(root: Path) -> dict[str, str]:
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
    return {
        name: sha256_file(out / name)
        for name in test_cli.tree(out)
        if not any(fnmatch.fnmatch(name, pattern) for pattern in UNPINNED)
    }


def golden() -> dict:
    return json.loads(GOLDEN.read_text("utf-8"))


def test_matrix_outputs_match_golden(tmp_path):
    assert matrix_digests(tmp_path) == golden()["matrix"]


def test_chain_outputs_match_golden(tmp_path):
    digests = chain_digests(tmp_path)
    # Every CSV writer and the report summary are among the pinned files.
    assert {"x.csv", "sweep/sweep.csv", "report/metrics.csv", "report/summary.txt"} <= set(digests)
    assert digests == golden()["chain"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        payload = {"matrix": matrix_digests(root), "chain": chain_digests(root)}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {GOLDEN}")
