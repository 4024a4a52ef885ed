import inspect
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import perturbe
from perturbe._util import read_data_lines, sha256_file
from perturbe.cli import _MATRIX_KEYS, build_parser, main, read_config
from perturbe.corpus import SplitSpec, load_corpus, save_corpus
from perturbe.metrics import CheckerConfig, detect_checker
from perturbe.perturb import SubstitutionConfig
from perturbe.preprocess import tokenize
from perturbe.semgate import GateConfig
from perturbe.vocab import DEFAULT_RATIO_THRESHOLD, Vocabulary, load_registers, save_vocabulary

import helpers


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A working directory with the demo corpus and vector file on disk."""
    root = tmp_path_factory.mktemp("cliwork")
    corpus = helpers.load_demo_corpus()
    save_corpus(corpus, root / "corpus.jsonl")
    helpers.write_vector_file(helpers.demo_vectors(), root / "vectors.txt")
    return root


def run(*argv):
    return main([str(a) for a in argv])


def tree(root):
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


class TestBasics:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run("--version")
        assert excinfo.value.code == 0
        assert "perturbe" in capsys.readouterr().out

    def test_unknown_subcommand_is_config_error(self):
        assert run("frobnicate") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["ingest", "--in", "{missing}", "--out", "{tmp}/o.jsonl"], id="ingest-in"),
            *(
                pytest.param(
                    ["build-vocab", "--corpus", "{corpus}", option, "{missing}",
                     "--out", "{tmp}/v.json"],
                    id=f"build-vocab{option}",
                )
                for option in ("--stopwords", "--comparison", "--registers")
            ),
            *(
                pytest.param(
                    ["perturb", "--kind", "omit-name", "--in", "{corpus}", "--vocab", vocab,
                     "--out", "{tmp}/r.jsonl", "--seed", "1", *extra],
                    id=f"perturb-{name}",
                )
                for name, vocab, extra in (
                    ("tag-lexicon", "{vocab}", ["--tag-lexicon", "{missing}"]),
                    ("vocab", "{missing}", []),
                )
            ),
            pytest.param(["gate", "--records", "{missing}", "--vectors", "{vectors}"], id="gate"),
            pytest.param(["matrix", "--config", "{missing}"], id="matrix-config"),
            pytest.param(["matrix", "--config", "{config}"], id="matrix-stopwords"),
        ],
    )
    def test_missing_file_is_data_error(self, workdir, tmp_path, capsys, argv):
        missing = tmp_path / "missing.txt"
        vocab = tmp_path / "vocab.json"
        save_vocabulary(Vocabulary(structure_words={"register"}, name_words={"EAX"}), vocab)
        config = tmp_path / "exp.cfg"
        config.write_text(
            f"corpus = {workdir / 'corpus.jsonl'}\nvectors = {workdir / 'vectors.txt'}\n"
            f"out_dir = {tmp_path / 'out'}\nseed = 1\nstopwords = {missing}\n"
        )
        paths = {
            "missing": missing, "tmp": tmp_path, "corpus": workdir / "corpus.jsonl",
            "vectors": workdir / "vectors.txt", "vocab": vocab, "config": config,
        }
        assert run(*(arg.format(**paths) for arg in argv)) == 2
        assert capsys.readouterr().err == f"data error: {missing}: file not found\n"


class TestDefaults:
    @staticmethod
    def parsed(*argv):
        return build_parser().parse_args([str(a) for a in argv])

    def test_parser_defaults_equal_owners(self):
        split = self.parsed("split", "--in", "c", "--out-dir", "o", "--seed", 1)
        spec = SplitSpec()
        # The run manifest digests str() of each option: the default stays text.
        assert split.ratios == "0.8,0.1,0.1"
        assert split.ratios == f"{spec.train_ratio},{spec.val_ratio},{spec.test_ratio}"
        perturb = self.parsed(
            "perturb", "--kind", "omit-name", "--in", "c", "--vocab", "v", "--out", "o",
            "--seed", 1,
        )
        subst = SubstitutionConfig()
        assert (perturb.ratio, perturb.k, perturb.tau) == (subst.ratio, subst.k, subst.tau)
        assert self.parsed("gate", "--records", "r").threshold == GateConfig().threshold
        vocab = self.parsed("build-vocab", "--corpus", "c", "--out", "o")
        assert vocab.threshold == DEFAULT_RATIO_THRESHOLD
        evaluate = self.parsed("evaluate", "--preds", "p", "--refs", "r", "--out-dir", "o")
        checker = CheckerConfig(template="{file}")
        assert (evaluate.timeout, evaluate.workers) == (checker.timeout, checker.workers)
        detect = inspect.signature(detect_checker).parameters
        assert detect["timeout"].default == checker.timeout
        assert detect["workers"].default == checker.workers


class TestIngestSplit:
    def test_ingest_round_trip(self, workdir):
        out = workdir / "normalized.jsonl"
        assert run("ingest", "--in", workdir / "corpus.jsonl", "--out", out) == 0
        assert len(load_corpus(out)) == 133

    def test_manifest_option_overrides_default_path(self, workdir, tmp_path):
        out = tmp_path / "normalized.jsonl"
        custom = tmp_path / "elsewhere" / "custom.json"
        assert run("ingest", "--in", workdir / "corpus.jsonl", "--out", out, "--manifest", custom) == 0
        assert not (tmp_path / "normalized.jsonl.manifest.json").exists()
        assert json.loads(custom.read_text())["outputs"] == {"normalized.jsonl": sha256_file(out)}
        assert run("ingest", "--in", workdir / "corpus.jsonl", "--out", out) == 0
        default = json.loads((tmp_path / "normalized.jsonl.manifest.json").read_text())
        assert default["command"] == "ingest"
        assert default["outputs"] == {"normalized.jsonl": sha256_file(out)}

    def test_run_manifest_identical_across_processes(self, workdir, tmp_path):
        # The digested config must not hold anything process-specific, such
        # as the repr of the handler function (a memory address).
        src = str(Path(perturbe.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "normalized.jsonl"
        manifests = []
        for _ in range(2):
            subprocess.run(
                [sys.executable, "-m", "perturbe.cli", "ingest",
                 "--in", str(workdir / "corpus.jsonl"), "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            manifests.append((tmp_path / "normalized.jsonl.manifest.json").read_bytes())
        assert manifests[0] == manifests[1]

    def test_ingest_duplicate_id_exit_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"id": "x", "intent": "a", "snippet": "b"}\n'
            '{"id": "x", "intent": "c", "snippet": "d"}\n'
        )
        assert run("ingest", "--in", bad, "--out", tmp_path / "o.jsonl") == 2

    def test_split_writes_three_files_and_manifest(self, workdir):
        out_dir = workdir / "splits"
        assert run(
            "split", "--in", workdir / "corpus.jsonl", "--out-dir", out_dir, "--seed", 13
        ) == 0
        sizes = {
            name: len(load_corpus(out_dir / f"{name}.jsonl")) for name in ("train", "val", "test")
        }
        assert sizes == {"train": 107, "val": 13, "test": 13}
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["seed"] == 13
        assert set(manifest["outputs"]) == {"train.jsonl", "val.jsonl", "test.jsonl"}

    def test_split_bad_ratios_exit_1(self, workdir, tmp_path):
        assert run(
            "split", "--in", workdir / "corpus.jsonl", "--out-dir", tmp_path,
            "--ratios", "0.9,0.2,0.1", "--seed", 1,
        ) == 1


class TestVocabPerturbGate:
    def test_build_vocab(self, workdir):
        out = workdir / "vocab.json"
        assert run("build-vocab", "--corpus", workdir / "corpus.jsonl", "--out", out) == 0
        payload = json.loads(out.read_text())
        assert "register" in payload["structure"]
        assert "EAX" in payload["name"]
        assert payload["registers"] == sorted(load_registers())

    @pytest.mark.parametrize("threshold", ["nan", "-1", "inf"])
    def test_build_vocab_bad_threshold_exit_1(self, workdir, tmp_path, capsys, threshold):
        out = tmp_path / "vocab.json"
        assert run(
            "build-vocab", "--corpus", workdir / "corpus.jsonl", "--threshold", threshold,
            "--out", out,
        ) == 1
        assert "threshold must be finite and >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_vocab_without_registers_exit_2(self, workdir, tmp_path, capsys):
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"structure": ["register"], "name": ["EAX"], "threshold": 50}))
        assert run(
            "perturb", "--kind", "omit-name", "--in", workdir / "corpus.jsonl", "--vocab", vocab,
            "--out", tmp_path / "r.jsonl", "--seed", 1,
        ) == 2
        assert capsys.readouterr().err == f"data error: {vocab}: missing 'registers' list\n"

    def test_perturb_and_stats_tag_with_the_vocabulary_registers(self, workdir, tmp_path):
        # With "push" on the register list, "Push" is a name and never a verb.
        registers = tmp_path / "registers.txt"
        registers.write_text("\n".join(sorted(load_registers() | {"push"})) + "\n")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"id": "p", "intent": "Push the EAX register.",
                                      "snippet": "push eax"}) + "\n")
        perturbed, action_rates = {}, {}
        for name, extra in (("shipped", []), ("push", ["--registers", registers])):
            vocab = tmp_path / f"{name}.json"
            assert run("build-vocab", "--corpus", workdir / "corpus.jsonl", *extra,
                       "--out", vocab) == 0
            out = tmp_path / f"{name}.jsonl"
            assert run("perturb", "--kind", "omit-action", "--in", corpus, "--vocab", vocab,
                       "--out", out, "--seed", 1) == 0
            perturbed[name] = [json.loads(row)["perturbed"] for row in out.read_text().splitlines()]
            stats = tmp_path / f"{name}.stats.json"
            assert run("stats", "--corpus", corpus, "--vocab", vocab, "--out", stats) == 0
            action_rates[name] = json.loads(stats.read_text())["omission_rates"]["action"]
        assert perturbed == {"shipped": ["the EAX register."], "push": []}
        assert action_rates == {"shipped": 0.2, "push": 0.0}  # 1 of 5 tokens, then none

    def test_skips_keep_non_ascii_text(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"id": "échantillon-ü", "intent": "Store the value.", "snippet": "nop"})
            + "\n"
        )
        vocab, out = tmp_path / "vocab.json", tmp_path / "r.jsonl"
        save_vocabulary(Vocabulary(structure_words={"register"}, name_words={"EAX"}), vocab)
        assert run(
            "perturb", "--kind", "omit-name", "--in", corpus, "--vocab", vocab,
            "--out", out, "--seed", 1,
        ) == 0
        [line] = Path(f"{out}.skips.jsonl").read_text("utf-8").splitlines()
        row = json.loads(line)
        assert row["id"] == "échantillon-ü"
        assert line == json.dumps(row, ensure_ascii=False)

    def test_perturb_omission(self, workdir):
        out = workdir / "recs_name.jsonl"
        assert run(
            "perturb", "--kind", "omit-name", "--in", workdir / "corpus.jsonl",
            "--vocab", workdir / "vocab.json", "--out", out, "--seed", 42,
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 133
        first = json.loads(lines[0])
        assert first["kind"] == "omit-name"
        assert first["gate"] == "unevaluated"

    def test_perturb_substitution_requires_vectors(self, workdir):
        assert run(
            "perturb", "--kind", "subst-constrained", "--in", workdir / "corpus.jsonl",
            "--vocab", workdir / "vocab.json", "--out", workdir / "x.jsonl", "--seed", 1,
        ) == 1

    def test_perturb_substitution(self, workdir):
        out = workdir / "recs_subst.jsonl"
        assert run(
            "perturb", "--kind", "subst-constrained", "--in", workdir / "corpus.jsonl",
            "--vocab", workdir / "vocab.json", "--vectors", workdir / "vectors.txt",
            "--out", out, "--seed", 42,
        ) == 0
        assert len(out.read_text().strip().splitlines()) == 133

    @pytest.mark.parametrize("kind", ["subst-constrained", "subst-unconstrained"])
    def test_tags_equal_to_the_lexicon_change_nothing(self, workdir, tmp_path, kind):
        corpus = workdir / "corpus.jsonl"
        tagger = helpers.shipped_tagger()
        tags = tmp_path / "tags.jsonl"
        with open(tags, "w") as fh:
            for sample in load_corpus(corpus):
                tokens = tokenize(sample.intent).tokens
                row = {"id": sample.id, "tags": [t.name for t in tagger.tag(tokens)]}
                fh.write(json.dumps(row) + "\n")
        vocab = tmp_path / "vocab.json"
        assert run("build-vocab", "--corpus", corpus, "--out", vocab) == 0
        outputs = []
        for name, extra in (("plain", []), ("tagged", ["--tags", tags])):
            out = tmp_path / f"{name}.jsonl"
            assert run(
                "perturb", "--kind", kind, "--in", corpus, "--vocab", vocab,
                "--vectors", workdir / "vectors.txt", "--out", out, "--seed", 42, *extra,
            ) == 0
            outputs.append((out.read_bytes(), Path(f"{out}.skips.jsonl").read_bytes()))
        assert outputs[0][0]
        assert outputs[0] == outputs[1]

    def test_gate_partition_and_sweep(self, workdir):
        records = workdir / "recs_name.jsonl"
        assert run(
            "gate", "--records", records, "--vectors", workdir / "vectors.txt",
            "--threshold", "0.8", "--sweep", "0.7,0.8,0.9",
        ) == 0
        passed = (workdir / "recs_name.passed.jsonl").read_text().strip().splitlines()
        failed = (workdir / "recs_name.failed.jsonl").read_text().strip().splitlines()
        assert len(passed) + len(failed) == 133
        for line in passed:
            assert json.loads(line)["gate"] == "pass"
        sweep = (workdir / "recs_name.sweep.csv").read_text().strip().splitlines()
        assert sweep[0] == "threshold,kind,pass_rate"
        rates = [float(line.split(",")[2]) for line in sweep[1:]]
        assert rates == sorted(rates, reverse=True)

    def test_gate_needs_encoder(self, workdir):
        assert run("gate", "--records", workdir / "recs_name.jsonl") == 1


class TestAugmentCommand:
    def test_augment_half(self, workdir):
        passed = workdir / "recs_subst.passed.jsonl"
        run(
            "gate", "--records", workdir / "recs_subst.jsonl",
            "--vectors", workdir / "vectors.txt",
        )
        out = workdir / "train_aug.jsonl"
        assert run(
            "augment", "--split", workdir / "corpus.jsonl", "--records", passed,
            "--p", "0.5", "--kind", "substitution", "--seed", 3, "--out", out,
        ) == 0
        base = load_corpus(workdir / "corpus.jsonl")
        augmented = load_corpus(out)
        changed = sum(1 for a, b in zip(base, augmented) if a.intent != b.intent)
        assert changed == 67  # round(0.5 * 133) half away from zero
        assert [s.snippet for s in augmented] == [s.snippet for s in base]

    def test_unknown_kind_exit_1(self, workdir, tmp_path, capsys):
        assert run(
            "augment", "--split", workdir / "corpus.jsonl", "--records", workdir / "none.jsonl",
            "--p", "0.5", "--kind", "bogus", "--seed", 3, "--out", tmp_path / "aug.jsonl",
        ) == 1
        assert "argument --kind: invalid choice: 'bogus'" in capsys.readouterr().err


class TestMatrix:
    def write_config(self, workdir, out_dir, seed=5):
        config = workdir / f"exp_{seed}.cfg"
        config.write_text(
            "\n".join(
                [
                    f"corpus = {workdir / 'corpus.jsonl'}",
                    f"vectors = {workdir / 'vectors.txt'}",
                    f"out_dir = {out_dir}",
                    f"seed = {seed}",
                    "kinds = substitution,omission",
                    "ratios = 0,0.25,0.5,1.0",
                ]
            )
            + "\n"
        )
        return config

    def test_matrix_twenty_sample_smoke(self, workdir, tmp_path):
        small = tmp_path / "small.jsonl"
        corpus = load_corpus(workdir / "corpus.jsonl")
        from perturbe.corpus import Corpus

        save_corpus(Corpus(corpus.samples[:20], name="small"), small)
        config = tmp_path / "exp.cfg"
        config.write_text(
            "\n".join(
                [
                    f"corpus = {small}",
                    f"vectors = {workdir / 'vectors.txt'}",
                    f"out_dir = {tmp_path / 'out'}",
                    "seed = 5",
                    "kinds = substitution,omission",
                    "ratios = 0,0.5,1.0",
                ]
            )
            + "\n"
        )
        assert run("matrix", "--config", config) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest["cells"]) == 1 + 2 * (3 + 1)
        for cell in manifest["cells"]:
            for rel in cell["paths"].values():
                assert (tmp_path / "out" / rel).exists()

    def test_matrix_tokenizes_and_tags_each_sample_once(self, workdir, tmp_path, monkeypatch):
        from collections import Counter

        from perturbe import perturb
        from perturbe.postag import LexiconTagger

        tagged, tokenized = Counter(), Counter()
        original_tag, original_tokenize = LexiconTagger.tag, perturb.tokenize

        def counting_tag(self, tokens, sample_id=""):
            tagged[sample_id] += 1
            return original_tag(self, tokens, sample_id=sample_id)

        def counting_tokenize(text, source_id=""):
            tokenized[source_id] += 1
            return original_tokenize(text, source_id=source_id)

        monkeypatch.setattr(LexiconTagger, "tag", counting_tag)
        monkeypatch.setattr(perturb, "tokenize", counting_tokenize)
        config = self.write_config(workdir, tmp_path / "out")
        assert run("matrix", "--config", config) == 0
        # Every sample sits in exactly one split, and all four kinds share it.
        ids = load_corpus(workdir / "corpus.jsonl").ids()
        assert tagged == Counter(ids)
        assert tokenized == Counter(ids)

    def test_config_parsing(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("# comment\nkey = value\nspaced.key = a b c  # trailing\n")
        assert read_config(config) == {"key": "value", "spaced.key": "a b c"}

    def test_config_hash_inside_value_is_kept(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("corpus = runs#3/corpus.jsonl\n  # indented comment\n")
        assert read_config(config) == {"corpus": "runs#3/corpus.jsonl"}

    def test_config_trailing_comment_after_hash_path(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("corpus = runs#3/corpus.jsonl # the third run\n")
        assert read_config(config) == {"corpus": "runs#3/corpus.jsonl"}

    def test_matrix_missing_key_exit_1(self, workdir, tmp_path):
        config = tmp_path / "broken.cfg"
        config.write_text("corpus = whatever\n")
        assert run("matrix", "--config", config) == 1

    def test_matrix_unknown_keys_exit_1(self, workdir, tmp_path, capsys):
        config = tmp_path / "typo.cfg"
        valid = self.write_config(workdir, tmp_path / "out").read_text()
        config.write_text(valid + "gate.treshold = 0.99\nsubst.tua = 0.1\n")
        assert run("matrix", "--config", config) == 1
        assert "unknown matrix config key(s): gate.treshold, subst.tua" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_key_table_names_every_matrix_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        table = readme.split("| Key | Default | Meaning |\n", 1)[1].split("\n\n", 1)[0]
        rows = table.splitlines()[1:]  # below the | --- | rule
        keys = [row.split("|")[1].strip().strip("`") for row in rows]
        assert keys == list(_MATRIX_KEYS)

    def test_matrix_accepts_every_known_key(self, workdir, tmp_path):
        # Every key set to the value matrix uses when it is absent.
        shipped = {}
        for key, name in (
            ("stopwords", "stopwords.txt"),
            ("registers", "registers.txt"),
            ("comparison", "comparison_corpus.txt"),
            ("tag_lexicon", "tag_lexicon.tsv"),
        ):
            shipped[key] = tmp_path / name
            shipped[key].write_text("\n".join(read_data_lines(None, name, raw=True)) + "\n")
        explicit = tmp_path / "explicit.cfg"
        explicit.write_text(
            self.write_config(workdir, tmp_path / "explicit").read_text()
            + "".join(f"{key} = {path}\n" for key, path in shipped.items())
            + "split.ratios = 0.8,0.1,0.1\nvocab.threshold = 50\n"
            "subst.ratio = 0.1\nsubst.k = 20\nsubst.tau = 0.8\ngate.threshold = 0.8\n"
            "apply_to_validation = true\n"
        )
        assert len(read_config(explicit)) == 17
        implicit = self.write_config(workdir, tmp_path / "implicit")
        # Run manifests go elsewhere: their config digests differ.
        assert run("matrix", "--config", explicit, "--manifest", tmp_path / "e.json") == 0
        assert run("matrix", "--config", implicit, "--manifest", tmp_path / "i.json") == 0
        expected = tree(tmp_path / "implicit")
        assert len(expected) > 20
        assert tree(tmp_path / "explicit") == expected

    @pytest.mark.parametrize(
        "key, value",
        [
            ("kinds", "substitution,bogus"),
            ("kinds", "omission, omission"),
            ("subst.tau", "high"),
            ("seed", "abc"),
            ("subst.k", "2.5"),
            ("apply_to_validation", "nope"),
            ("split.ratios", "0.8,0.2"),
            ("ratios", "0,0.5,2"),
            ("ratios", "0.33,0.333"),  # both would be cells *_train033_test100
            ("ratios", ""),
            ("vocab.threshold", "nan"),
            ("vocab.threshold", "-1"),
        ],
    )
    def test_matrix_malformed_value_exit_1(self, workdir, tmp_path, capsys, key, value):
        config = tmp_path / "bad.cfg"
        valid = self.write_config(workdir, tmp_path / "out").read_text()
        config.write_text(valid + f"{key} = {value}\n")
        assert run("matrix", "--config", config) == 1
        assert f"error: {config}: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_matrix_apply_to_validation_any_case(self, workdir, tmp_path):
        trees = {}
        for value in ("FALSE", "false", "True"):
            config = tmp_path / f"{value}.cfg"
            valid = self.write_config(workdir, tmp_path / value).read_text()
            config.write_text(valid + f"apply_to_validation = {value}\n")
            assert run("matrix", "--config", config, "--manifest", tmp_path / f"{value}.json") == 0
            trees[value] = tree(tmp_path / value)
        assert trees["FALSE"] == trees["false"] != trees["True"]


class TestEvaluate:
    def test_exact_match_and_report(self, workdir, tmp_path):
        corpus = load_corpus(workdir / "corpus.jsonl")
        preds_path = tmp_path / "preds.jsonl"
        with open(preds_path, "w") as fh:
            for i, sample in enumerate(corpus.samples[:10]):
                prediction = sample.snippet if i % 2 == 0 else "garbage"
                fh.write(json.dumps({"id": sample.id, "prediction": prediction}) + "\n")
        out_dir = tmp_path / "eval"
        assert run(
            "evaluate", "--preds", preds_path, "--refs", workdir / "corpus.jsonl",
            "--model", "demo", "--out-dir", out_dir,
        ) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["sem"] == 0.5
        assert metrics["sem_provenance"] == "exact-match-proxy"
        assert run(
            "report", "--metrics", out_dir / "metrics.json", "--out-dir", tmp_path / "rep"
        ) == 0
        assert (tmp_path / "rep" / "metrics.csv").exists()

    def test_rob_with_label_files(self, workdir, tmp_path):
        corpus = load_corpus(workdir / "corpus.jsonl")
        ids = [s.id for s in corpus.samples[:4]]
        preds_path = tmp_path / "preds.jsonl"
        with open(preds_path, "w") as fh:
            for sid in ids:
                fh.write(json.dumps({"id": sid, "prediction": "nop"}) + "\n")
        after = tmp_path / "after.jsonl"
        with open(after, "w") as fh:
            for sid, ok in zip(ids, (True, False, True, True)):
                fh.write(json.dumps({"id": sid, "correct": ok, "provenance": "human"}) + "\n")
        before = tmp_path / "before.jsonl"
        with open(before, "w") as fh:
            for sid, ok in zip(ids, (True, True, False, True)):
                fh.write(json.dumps({"id": sid, "correct": ok, "provenance": "human"}) + "\n")
        out_dir = tmp_path / "eval"
        assert run(
            "evaluate", "--preds", preds_path, "--refs", workdir / "corpus.jsonl",
            "--labels", after, "--labels-before", before, "--out-dir", out_dir,
        ) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["rob"] == pytest.approx(2 / 3)

    def test_checker_failure_exit_3(self, workdir, tmp_path):
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text(json.dumps({"id": "d0000", "prediction": "nop"}) + "\n")
        assert run(
            "evaluate", "--preds", preds_path, "--refs", workdir / "corpus.jsonl",
            "--checker", "no-such-assembler {file}", "--out-dir", tmp_path / "e",
        ) == 3

    def test_mock_checker_via_template(self, workdir, tmp_path):
        script = tmp_path / "okcheck"
        script.write_text("#!/bin/sh\nexit 0\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text(json.dumps({"id": "d0000", "prediction": "nop"}) + "\n")
        out_dir = tmp_path / "e"
        assert run(
            "evaluate", "--preds", preds_path, "--refs", workdir / "corpus.jsonl",
            "--checker", f"{script} {{file}}", "--out-dir", out_dir,
        ) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["syn"] == 1.0

    def test_evaluate_outputs_are_byte_identical_across_runs(self, workdir, tmp_path):
        # The checker's message names its temporary input file.
        script = tmp_path / "pathcheck"
        script.write_text("#!/bin/sh\necho \"$1:5: Error: no such instruction\" >&2\nexit 1\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text(
            "".join(json.dumps({"id": f"d{i:04d}", "prediction": "nop"}) + "\n" for i in range(3))
        )
        manifests = []
        for name in ("a", "b"):
            assert run(
                "evaluate", "--preds", preds_path, "--refs", workdir / "corpus.jsonl",
                "--checker", f"{script} {{file}}", "--out-dir", tmp_path / name,
            ) == 0
            manifests.append(json.loads((tmp_path / name / "run_manifest.json").read_text()))
        verdicts = (tmp_path / "a" / "syn_verdicts.jsonl").read_bytes()
        assert verdicts == (tmp_path / "b" / "syn_verdicts.jsonl").read_bytes()
        assert json.loads(verdicts.splitlines()[0])["diagnostic"] == (
            "snippet.s:5: Error: no such instruction"
        )
        outputs = manifests[0]["outputs"]
        assert set(outputs) == {"metrics.json", "syn_verdicts.jsonl", "exact_match_labels.jsonl"}
        assert outputs == manifests[1]["outputs"]


    def test_verdicts_keep_non_ascii_text(self, tmp_path):
        script = tmp_path / "reject"
        script.write_text("#!/bin/sh\necho \"$1:1: Error: bad\" >&2\nexit 1\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        refs = tmp_path / "refs.jsonl"
        refs.write_text(
            json.dumps({"id": "échantillon-ü", "intent": "Do it.", "snippet": "nop"}) + "\n"
        )
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": "échantillon-ü", "prediction": "zz"}) + "\n")
        out_dir = tmp_path / "e"
        assert run(
            "evaluate", "--preds", preds, "--refs", refs, "--checker", f"{script} {{file}}",
            "--out-dir", out_dir,
        ) == 0
        [line] = (out_dir / "syn_verdicts.jsonl").read_text("utf-8").splitlines()
        row = {"id": "échantillon-ü", "ok": False, "diagnostic": "snippet.s:1: Error: bad"}
        assert line == json.dumps(row, ensure_ascii=False)

    @staticmethod
    def one_sample_refs(tmp_path):
        refs = tmp_path / "refs.jsonl"
        refs.write_text(json.dumps({"id": "a", "intent": "Do it.", "snippet": "nop"}) + "\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            "".join(json.dumps({"id": sid, "prediction": "nop"}) + "\n" for sid in ("a", "zz"))
        )
        return refs, preds

    def test_label_id_missing_from_refs_exit_2(self, tmp_path, capsys):
        refs, preds = self.one_sample_refs(tmp_path)
        labels = tmp_path / "labels.jsonl"
        labels.write_text(
            "".join(json.dumps({"id": sid, "correct": True}) + "\n" for sid in ("a", "zz"))
        )
        assert run(
            "evaluate", "--preds", preds, "--refs", refs, "--labels", labels,
            "--out-dir", tmp_path / "e",
        ) == 2
        assert capsys.readouterr().err == "data error: id 'zz' is not in corpus 'refs'\n"

    def test_checked_prediction_missing_from_refs_exit_2(self, tmp_path, capsys):
        script = tmp_path / "okcheck"
        script.write_text("#!/bin/sh\nexit 0\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        refs, preds = self.one_sample_refs(tmp_path)
        assert run(
            "evaluate", "--preds", preds, "--refs", refs, "--checker", f"{script} {{file}}",
            "--out-dir", tmp_path / "e",
        ) == 2
        assert capsys.readouterr().err == "data error: id 'zz' is not in corpus 'refs'\n"

    def test_non_boolean_label_exit_2(self, tmp_path, capsys):
        refs, preds = self.one_sample_refs(tmp_path)
        labels = tmp_path / "labels.jsonl"
        labels.write_text(json.dumps({"id": "a", "correct": "false"}) + "\n")
        assert run(
            "evaluate", "--preds", preds, "--refs", refs, "--labels", labels,
            "--out-dir", tmp_path / "e",
        ) == 2
        assert capsys.readouterr().err == (
            f"data error: {labels}:1: 'correct' must be true or false\n"
        )

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("not json\n", "invalid JSON: Expecting value"),
            ('["sem", 1.0]\n', "expected a JSON object"),
        ],
    )
    def test_report_rejects_a_metrics_file_that_is_no_json_object(
        self, tmp_path, capsys, text, reason
    ):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(text)
        assert run("report", "--metrics", metrics, "--out-dir", tmp_path / "rep") == 2
        assert capsys.readouterr().err == f"data error: {metrics}: {reason}\n"

    @pytest.mark.parametrize(
        "payload, reason",
        [
            ({"model": "m", "train_p": "x"}, "'train_p' must be a number"),
            ({"model": "m", "syn": "high"}, "'syn' must be a number or null"),
            ({"model": "m", "test_p": True}, "'test_p' must be a number"),
            ({"model": "m", "rob": "none"}, "'rob' must be a number, null or \"undefined\""),
            ({"model": 3}, "'model' must be a string"),
            ({"sem_cohorts": {"multi-line": {"n": "2"}}}, "'sem_cohorts' must be an object of"),
        ],
    )
    def test_report_rejects_a_mistyped_metric(self, tmp_path, capsys, payload, reason):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"model": "m", "syn": 0.5, "rob": "undefined"}))
        bad.write_text(json.dumps(payload))
        assert run("report", "--metrics", good, bad, "--out-dir", tmp_path / "rep") == 2
        assert capsys.readouterr().err.startswith(f"data error: {bad}: {reason}")
        assert not (tmp_path / "rep").exists()


class TestCsvCorpus:
    """A corpus path ending in .csv is read as CSV by every command."""

    @staticmethod
    def outputs(corpus, vectors, out):
        """Run every command that reads a corpus, writing under ``out``; return
        the files written, run manifests excluded (they hash paths)."""
        inputs = corpus.parent
        preds, config = inputs / "preds.jsonl", inputs / "exp.cfg"
        samples = load_corpus(corpus).samples[:6]
        preds.write_text("".join(
            json.dumps({"id": s.id, "prediction": s.snippet if i % 2 else "nop"}) + "\n"
            for i, s in enumerate(samples)
        ))
        config.write_text(
            f"corpus = {corpus}\nvectors = {vectors}\nout_dir = {out / 'matrix'}\nseed = 5\n"
        )
        vocab, records = out / "vocab.json", out / "recs.jsonl"
        commands = [
            ("split", "--in", corpus, "--out-dir", out / "splits", "--seed", 3),
            ("build-vocab", "--corpus", corpus, "--out", vocab),
            ("perturb", "--kind", "omit-name", "--in", corpus, "--vocab", vocab,
             "--out", records, "--seed", 3),
            ("gate", "--records", records, "--vectors", vectors),
            ("augment", "--split", corpus, "--records", out / "recs.passed.jsonl", "--p", "0.25",
             "--kind", "omission", "--seed", 3, "--out", out / "aug.jsonl"),
            ("evaluate", "--preds", preds, "--refs", corpus, "--out-dir", out / "eval"),
            ("stats", "--corpus", corpus, "--vocab", vocab, "--against", corpus,
             "--variants", corpus, "--out", out / "stats.json"),
            ("matrix", "--config", config),
        ]
        for argv in commands:
            assert run(*argv) == 0, argv[0]
        run_manifests = ("run_manifest.json", ".manifest.json")
        return {name: data for name, data in tree(out).items() if not name.endswith(run_manifests)}

    def test_every_command_reads_csv(self, workdir, tmp_path):
        trees = {}
        for suffix in ("jsonl", "csv"):
            corpus = tmp_path / suffix / "in" / f"corpus.{suffix}"
            save_corpus(load_corpus(workdir / "corpus.jsonl"), corpus)
            trees[suffix] = self.outputs(corpus, workdir / "vectors.txt", tmp_path / suffix / "out")
        assert (tmp_path / "csv" / "in" / "corpus.csv").read_text("utf-8").startswith("id,intent,")
        assert "matrix/manifest.json" in trees["jsonl"] and len(trees["jsonl"]) > 20
        assert trees["csv"] == trees["jsonl"]

    def test_ingest_csv_to_jsonl(self, workdir, tmp_path):
        as_csv, back = tmp_path / "x.csv", tmp_path / "y.jsonl"
        assert run("ingest", "--in", workdir / "corpus.jsonl", "--out", as_csv) == 0
        assert as_csv.read_text("utf-8").startswith("id,intent,snippet\n")
        assert run("ingest", "--in", as_csv, "--out", back) == 0
        assert back.read_bytes() == (workdir / "corpus.jsonl").read_bytes()


class TestStats:
    def test_stats_output(self, workdir, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert run(
            "stats", "--corpus", workdir / "corpus.jsonl", "--vocab", workdir / "vocab.json",
            "--against", workdir / "corpus.jsonl", "--out", out,
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["samples"] == 133
        assert payload["jsd"] == 0.0
        assert set(payload["omission_rates"]) == {"action", "structure", "name"}

    def test_stats_out_creates_missing_directory(self, workdir, tmp_path):
        out = tmp_path / "nodir" / "stats.json"
        assert run("stats", "--corpus", workdir / "corpus.jsonl", "--out", out) == 0
        assert json.loads(out.read_text())["samples"] == 133
        assert (tmp_path / "nodir" / "stats.manifest.json").exists()
