"""Tests of the benchmark itself: deterministic inputs, and output
verification that catches corrupted matrix cells and wrong SYN verdicts.

Run with ``python3 -m pytest perfbench/tests``.
"""

import hashlib
import json
import shutil

import pytest

import gen
import verify
from perturbe.cli import main as cli_main
from spans import Tracer


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "PAPER_WORDS", 500)
    stats = [gen.generate(workload, 11, tmp_path / name) for name in ("a", "b")]
    gen.generate(workload, 12, tmp_path / "c")
    assert stats[0] == stats[1]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_template_instances_are_distinct(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "EVAL_PREDICTIONS", 400)
    stats = gen.generate("evaluate_syn", 3, tmp_path)
    assert stats["distinct_prediction_share"] == 1.0
    corpus = [json.loads(line) for line in (tmp_path / "inputs" / "refs.jsonl").open()]
    assert len({row["intent"] for row in corpus}) == len(corpus)


def _rewrite_manifest(out):
    """Make the manifest agree with edited cell files, so only the semantic
    checks can catch the edit."""
    manifest = json.loads((out / "manifest.json").read_text())
    manifest.pop("digest")
    for cell in manifest["cells"]:
        for name, rel in cell["paths"].items():
            cell["sha256"][name] = hashlib.sha256((out / rel).read_bytes()).hexdigest()
    manifest["digest"] = verify.canonical_digest(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))


def _edit_rows(path, edit):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


@pytest.fixture(scope="module")
def small_matrix(tmp_path_factory):
    work = tmp_path_factory.mktemp("matrix")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gen, "OMISSION_SAMPLES", 120)
        gen.generate("matrix_omission", 5, work)
        mp.chdir(work / "inputs")
        assert cli_main(["matrix", "--config", "exp.cfg"]) == 0
    corpus = verify.read_jsonl(work / "inputs" / "corpus.jsonl")
    return work / "inputs" / "out", corpus


def _copy(small_matrix, tmp_path):
    out, corpus = small_matrix
    shutil.copytree(out, tmp_path / "out")
    return tmp_path / "out", corpus


def test_matrix_verification_accepts_real_output(small_matrix):
    out, corpus = small_matrix
    assert verify.verify_matrix(out, corpus, ["omission"])[0] == []


def test_matrix_verification_flags_edited_snippet(small_matrix, tmp_path):
    out, corpus = _copy(small_matrix, tmp_path)

    def edit(rows):
        rows[0]["snippet"] += " ; edited"

    _edit_rows(out / "cells" / "omission_train050_test100" / "train.jsonl", edit)
    _rewrite_manifest(out)
    problems, _ = verify.verify_matrix(out, corpus, ["omission"])
    assert any("a snippet changed" in p for p in problems)


def test_matrix_verification_flags_one_extra_changed_intent(small_matrix, tmp_path):
    out, corpus = _copy(small_matrix, tmp_path)
    records = verify.read_jsonl(out / "records_train.jsonl")
    cell = out / "cells" / "omission_train025_test100" / "train.jsonl"

    originals = {row["id"]: row["intent"] for row in corpus}

    def edit(rows):
        unchanged = {r["id"] for r in rows if r["intent"] == originals[r["id"]]}
        record = next(r for r in records if r["id"] in unchanged)
        row = next(r for r in rows if r["id"] == record["id"])
        row["intent"] = record["perturbed"]  # a valid record, one too many

    _edit_rows(cell, edit)
    _rewrite_manifest(out)
    problems, _ = verify.verify_matrix(out, corpus, ["omission"])
    assert any("intents changed, expected" in p for p in problems)


def test_failed_matrix_run_fails_every_item(tmp_path, monkeypatch):
    from runner import Loop

    monkeypatch.setattr(gen, "OMISSION_SAMPLES", 120)
    gen.generate("matrix_omission", 5, tmp_path)
    loop = Loop("matrix_omission", tmp_path)
    loop._check(2, tmp_path / "missing")
    loop._check(0, tmp_path / "missing")
    assert loop.failed == 2 * loop.items == 2 * 120
    assert any("exit code 2" in p for p in loop.problems)
    assert any("manifest unreadable" in p for p in loop.problems)


def test_matrix_verification_flags_stale_manifest(small_matrix, tmp_path):
    out, corpus = _copy(small_matrix, tmp_path)
    _edit_rows(out / "cells" / "none_train000_test000" / "val.jsonl", lambda rows: rows.reverse())
    problems, _ = verify.verify_matrix(out, corpus, ["omission"])
    assert any("sha256 differs" in p for p in problems)


def _fake_evaluate_output(work, expected, flip=None):
    out = work / "out"
    out.mkdir()
    verdicts = dict(expected["verdicts"])
    if flip is not None:
        verdicts[flip] = not verdicts[flip]
    with open(out / "syn_verdicts.jsonl", "w") as fh:
        for sid, ok in sorted(verdicts.items()):
            fh.write(json.dumps({"id": sid, "ok": ok, "diagnostic": ""}) + "\n")
    result = {key: expected[key] for key in ("syn", "syn_cohorts", "sem", "sem_cohorts", "rob")}
    result["n"] = len(verdicts)
    (out / "metrics.json").write_text(json.dumps(result))
    return out


@pytest.fixture()
def eval_expected(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "EVAL_PREDICTIONS", 60)
    gen.generate("evaluate_syn", 9, tmp_path)
    return json.loads((tmp_path / "expected.json").read_text())


def test_evaluate_verification_accepts_expected(tmp_path, eval_expected):
    out = _fake_evaluate_output(tmp_path, eval_expected)
    assert verify.verify_evaluate(out, eval_expected) == (0, [])


def test_evaluate_verification_flags_wrong_syn_verdict(tmp_path, eval_expected):
    sid = sorted(eval_expected["verdicts"])[7]
    out = _fake_evaluate_output(tmp_path, eval_expected, flip=sid)
    failed, problems = verify.verify_evaluate(out, eval_expected)
    assert failed == 1
    assert any("wrong SYN verdicts" in p and sid in p for p in problems)


def test_evaluate_verification_fails_every_item_on_wrong_rob(tmp_path, eval_expected):
    out = _fake_evaluate_output(tmp_path, eval_expected)
    result = json.loads((out / "metrics.json").read_text())
    result["rob"] = 0.5 if result["rob"] != 0.5 else 0.25
    (out / "metrics.json").write_text(json.dumps(result))
    failed, problems = verify.verify_evaluate(out, eval_expected)
    assert failed == len(eval_expected["verdicts"])
    assert any(p.startswith("rob:") for p in problems)


def test_self_time_subtracts_children_once():
    tracer = Tracer()
    tracer.spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],  # overlaps a, as pool threads do
        ["c", 2.0, 3.0, 1, None],
    ]
    assert tracer.self_times() == [5.0, 2.0, 3.0, 1.0]


def test_tracer_restores_every_patched_attribute(small_matrix):
    import importlib

    from spans import TARGETS

    def current():
        out = []
        for module, cls, attr, _ in TARGETS:
            owner = importlib.import_module(module)
            owner = getattr(owner, cls) if cls else owner
            out.append(owner.__dict__[attr] if cls else getattr(owner, attr))
        return out

    before = current()
    tracer = Tracer()
    tracer.install()
    assert all(a is not b for a, b in zip(current(), before))
    tracer.uninstall()
    assert all(a is b for a, b in zip(current(), before))
    assert tracer.missing == []


def test_traced_omission_run_counts_each_layer(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "OMISSION_SAMPLES", 120)
    gen.generate("matrix_omission", 5, tmp_path)
    monkeypatch.chdir(tmp_path / "inputs")
    tracer = Tracer()
    tracer.install()
    root = tracer.begin("cli.main")
    try:
        assert cli_main(["matrix", "--config", "exp.cfg"]) == 0
    finally:
        tracer.end(root)
        tracer.uninstall()
    m = tracer.layer_metrics()
    assert m["embedding.topk_calls"] == 0
    assert m["metrics.checks"] == 0
    assert m["perturb.records.omit-action"] + m["perturb.skipped.omit-action"] == 120
    assert m["augment.cells"] == 6
    assert m["corpus.save_calls"] == 6 * 3
    assert m["corpus.bytes_written"] > 0
    assert m["embedding.encode_calls"] > 0
    assert m["cli.other_s"] > 0
