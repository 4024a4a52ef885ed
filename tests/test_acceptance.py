"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria tied to the production dataset run against the bundled
133-sample demo corpus by default; point PERTURBE_DATASET (and
PERTURBE_VECTORS for embedding-dependent checks) at the real files to run
them on the full data instead.
"""

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import helpers
import perturbe
from perturbe._util import read_data_lines
from perturbe.augment import AugmentPlan, KindFamily, augment_split, vocab_growth
from perturbe.cli import main as cli_main
from perturbe.corpus import Corpus, Sample, SplitSpec, load_corpus, save_corpus, split_corpus
from perturbe.embedding import MeanVectorEncoder, load_vectors
from perturbe.errors import EncodingFailure
from perturbe.metrics import (
    RobInput,
    SemLabelSet,
    detect_checker,
    jsd,
    jsd_from_counts,
    omission_rate_stats,
    robust_accuracy,
    syntactic_accuracy,
)
from perturbe.perturb import (
    GATE_PASS,
    OmissionCategory,
    PerturbKind,
    PerturbationRecord,
    SubstitutionConfig,
    omit_words,
    perturb_split,
    substitute_words,
    write_records,
)
from perturbe.preprocess import load_stopwords, tokenize
from perturbe.semgate import GateConfig, gate, score_records, threshold_sweep
from perturbe.vocab import load_registers, load_vocabulary, mine_vocabulary

REAL_DATASET = os.environ.get("PERTURBE_DATASET")
REAL_VECTORS = os.environ.get("PERTURBE_VECTORS")


def announce(number, label):
    print(f"\nACCEPTANCE {number} ({label}): PASS")


class TestCriterion1GoldenExamples:
    def test_golden_substitution_and_omission(self, golden_store, golden_vocab, tagger, stopwords):
        started = time.perf_counter()

        with_period = "Store the shellcode pointer in the ESI register."
        without_period = "Store the shellcode pointer in the ESI register"

        constrained = substitute_words(
            tokenize(with_period, source_id="t1"),
            PerturbKind.SUBST_CONSTRAINED,
            SubstitutionConfig(seed=0),
            golden_vocab,
            tagger.tag(tokenize(with_period).tokens),
            golden_store,
            tagger,
            stopwords,
        )
        assert constrained.perturbed_intent == "Save the shellcode pointer in the ESI register."

        unconstrained = substitute_words(
            tokenize(with_period, source_id="t1"),
            PerturbKind.SUBST_UNCONSTRAINED,
            SubstitutionConfig(seed=0),
            golden_vocab,
            tagger.tag(tokenize(with_period).tokens),
            golden_store,
            tagger,
            stopwords,
        )
        assert unconstrained.perturbed_intent == "Stock the shellcode pointer in the ESI register."

        intent = tokenize(without_period, source_id="t2")
        tags = tagger.tag(intent.tokens)
        omissions = {
            OmissionCategory.ACTION: "the shellcode pointer in the ESI register",
            OmissionCategory.STRUCTURE: "Store the shellcode pointer in the ESI",
            OmissionCategory.NAME: "Store the shellcode pointer in the register",
        }
        for category, expected in omissions.items():
            record = omit_words(intent, category, golden_vocab, tags)
            assert record.perturbed_intent == expected

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"golden fixtures took {elapsed:.3f}s"
        announce(1, "golden substitution and omission examples")


class TestCriterion2RobOracle:
    def test_oracle_equivalence(self):
        def oracle(before, after):
            denominator = [i for i in before if before[i]]
            if not denominator:
                return None
            return sum(1 for i in denominator if after[i]) / len(denominator)

        rng = random.Random(20240229)
        checked_undefined = 0
        for _ in range(1000):
            n = rng.randint(1, 50)
            ids = [f"s{i}" for i in range(n)]
            p_true = rng.random()
            before = {i: rng.random() < p_true for i in ids}
            after = {i: rng.random() < p_true for i in ids}
            expected = oracle(before, after)
            got = robust_accuracy(RobInput(SemLabelSet(before), SemLabelSet(after)))
            assert got == expected
            if expected is None:
                checked_undefined += 1
                assert got is not None or got != 0  # undefined is None, never 0
        # force the edge case explicitly as well
        rob = robust_accuracy(
            RobInput(SemLabelSet({"a": False}), SemLabelSet({"a": True}))
        )
        assert rob is None and rob != 0
        assert checked_undefined > 0
        announce(2, "ROB brute-force oracle equivalence")


class TestCriterion3Jsd:
    def test_oracle_and_bounds(self):
        started = time.perf_counter()

        def oracle(p, q):
            m = [(pi + qi) / 2 for pi, qi in zip(p, q)]
            kl_pm = sum(pi * math.log2(pi / mi) for pi, mi in zip(p, m) if pi > 0)
            kl_qm = sum(qi * math.log2(qi / mi) for qi, mi in zip(q, m) if qi > 0)
            return 0.5 * kl_pm + 0.5 * kl_qm

        rng = random.Random(424242)
        for _ in range(1000):
            size = rng.randint(2, 40)
            words = [f"w{i}" for i in range(size)]
            counts_a = {w: rng.randint(0, 9) for w in words}
            counts_b = {w: rng.randint(0, 9) for w in words}
            counts_a = {w: c for w, c in counts_a.items() if c} or {"w0": 3}
            counts_b = {w: c for w, c in counts_b.items() if c} or {"w1": 2}
            union = sorted(set(counts_a) | set(counts_b))
            total_a = sum(counts_a.values())
            total_b = sum(counts_b.values())
            p = [counts_a.get(w, 0) / total_a for w in union]
            q = [counts_b.get(w, 0) / total_b for w in union]
            assert jsd_from_counts(counts_a, counts_b) == pytest.approx(
                oracle(p, q), abs=1e-9
            )

        same = {"push": 4, "eax": 2, "stack": 1}
        assert jsd_from_counts(same, dict(same)) == 0.0
        assert jsd_from_counts({"a": 1, "b": 2, "c": 1}, {"d": 3, "e": 4}) == 1.0

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        announce(3, "JSD definitional-oracle equivalence")

    @pytest.mark.skipif(REAL_DATASET is None, reason="set PERTURBE_DATASET to run")
    def test_paper_values_on_real_dataset(self):
        started = time.perf_counter()
        corpus = load_corpus(REAL_DATASET)
        train, _, test = split_corpus(corpus, SplitSpec(seed=0))
        stoplist = load_stopwords()
        assert jsd(train, test, stoplist) == pytest.approx(0.29, abs=0.05)
        if REAL_VECTORS:
            store = load_vectors(REAL_VECTORS)
            vocab = _mined_vocabulary(corpus)
            result = perturb_split(
                test, [PerturbKind.SUBST_CONSTRAINED], SubstitutionConfig(seed=0), vocab, store,
                helpers.shipped_tagger(), stoplist,
            )
            encoder = MeanVectorEncoder(store)
            passed, _ = gate(score_records(result.records, encoder), GateConfig())
            plan = AugmentPlan(ratio_p=1.0, kind=KindFamily.SUBSTITUTION, seed=0)
            perturbed_test = augment_split(test, passed, plan)
            assert jsd(train, perturbed_test, stoplist) == pytest.approx(0.40, abs=0.05)
        assert time.perf_counter() - started < 30.0
        announce(3, "JSD paper values on the real dataset")


class TestCriterion4AugmentationExactness:
    def test_exact_counts_and_monotone_vocabulary(self):
        n = 1000
        corpus = Corpus(
            [
                Sample(f"s{i:04d}", f"move the value item{i} into the target", f"mov eax, {i}")
                for i in range(n)
            ],
            name="synthetic",
        )
        # every replacement introduces a sample-unique token, so the
        # unique-token count grows with coverage by construction
        records = [
            PerturbationRecord(
                sample_id=s.id,
                kind=PerturbKind.SUBST_CONSTRAINED,
                original_intent=s.intent,
                perturbed_intent=s.intent.replace("value", f"value{s.id[1:]}"),
                changed_positions=[2],
                similarity=0.95,
                gate_pass=GATE_PASS,
            )
            for s in corpus
        ]
        variants = [corpus]
        for p in (0.25, 0.5, 1.0):
            plan = AugmentPlan(ratio_p=p, kind=KindFamily.SUBSTITUTION, seed=17)
            augmented = augment_split(corpus, records, plan)
            assert len(augmented) == n
            changed = sum(1 for a, b in zip(corpus, augmented) if a.intent != b.intent)
            assert changed == round(p * n)
            assert [s.snippet for s in augmented] == [s.snippet for s in corpus]
            assert [s.id for s in augmented] == [s.id for s in corpus]
            variants.append(augmented)
        counts = vocab_growth(variants, stoplist=set())
        assert counts == sorted(counts), f"unique-token counts not monotone: {counts}"
        announce(4, "size-preserving augmentation exactness")


def _mined_vocabulary(corpus):
    return mine_vocabulary((s.intent for s in corpus), load_stopwords(), load_registers())


class TestCriterion5GateProperties:
    def _scored_by_kind(self, corpus, vocab, store, tagger, stoplist):
        encoder_store = store
        scored = {}
        for kind in PerturbKind:
            result = perturb_split(
                corpus, [kind], SubstitutionConfig(seed=11), vocab, store, tagger, stoplist
            )
            encoder = MeanVectorEncoder(encoder_store)
            scored[kind] = score_records(result.records, encoder)
        return scored

    def test_monotone_sweep_and_ordinal_means(
        self, demo_corpus, demo_store, demo_vocab, tagger, stopwords
    ):
        if REAL_DATASET and REAL_VECTORS:
            corpus = load_corpus(REAL_DATASET)
            store = load_vectors(REAL_VECTORS)
            vocab = _mined_vocabulary(corpus)
        else:
            corpus, store, vocab = demo_corpus, demo_store, demo_vocab

        scored = self._scored_by_kind(corpus, vocab, store, tagger, stopwords)
        thresholds = [0.70, 0.80, 0.90]
        means = {}
        for kind, records in scored.items():
            assert records, f"no records for {kind.value}"
            rates = threshold_sweep(records, thresholds)
            assert rates[0.70] >= rates[0.80] >= rates[0.90], f"{kind.value}: {rates}"
            sims = [r.similarity for r in records if not math.isnan(r.similarity)]
            means[kind] = statistics.fmean(sims)

        assert means[PerturbKind.SUBST_CONSTRAINED] > means[PerturbKind.SUBST_UNCONSTRAINED]
        assert means[PerturbKind.OMIT_ACTION] >= means[PerturbKind.OMIT_STRUCTURE]
        assert means[PerturbKind.OMIT_STRUCTURE] >= means[PerturbKind.OMIT_NAME]
        announce(5, "gate monotonicity and ordinal similarity means")


class TestCriterion6OmissionRates:
    def test_rates_in_range(self, demo_corpus, demo_vocab, tagger):
        if REAL_DATASET:
            corpus = load_corpus(REAL_DATASET)
            vocab = _mined_vocabulary(corpus)
        else:
            corpus, vocab = demo_corpus, demo_vocab
        rates = omission_rate_stats(corpus, vocab, tagger)
        for category in OmissionCategory:
            rate = rates[category]
            assert 0.10 <= rate <= 0.20, f"{category.value}: {rate:.4f} outside [0.10, 0.20]"
        announce(6, "per-category omission rates within [10%, 20%]")


# Omission-perturbable intents with no word in the demo vector store.
UNENCODABLE = [
    Sample("x-oov-1", "Frob the quux with 0x99.", "xor eax, eax"),
    Sample("x-oov-2", "Zap each blorp by 0x77.", "inc ebx"),
]
SPLIT_NAMES = ("train", "val", "test")


def _write_matrix_inputs(tmp_path, samples, seed, ratios="0,0.25,0.5,1.0"):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus(samples, name="fixture"), corpus_path)
    vectors_path = tmp_path / "vectors.txt"
    helpers.write_vector_file(helpers.demo_vectors(), vectors_path)
    config = tmp_path / "exp.cfg"
    config.write_text(
        f"corpus = {corpus_path}\nvectors = {vectors_path}\nout_dir = {tmp_path / 'out'}\n"
        f"seed = {seed}\nkinds = substitution,omission\nratios = {ratios}\n"
    )
    return corpus_path, vectors_path, config


def _matrix_outputs(out):
    manifest = json.loads((out / "manifest.json").read_text())
    records = {name: (out / f"records_{name}.jsonl").read_bytes() for name in SPLIT_NAMES}
    return manifest["digest"], records, (out / "vocab.json").read_bytes()


class TestCriterion7Determinism:
    def test_matrix_digest_stable_across_input_order(self, tmp_path, demo_corpus):
        started = time.perf_counter()
        samples = list(demo_corpus.samples[:100])
        vectors = helpers.demo_vectors()
        rng = random.Random(7)

        outputs = []
        for out_name in ("run_a", "run_b"):
            if out_name == "run_b":  # same lines and rows, shuffled
                rng.shuffle(samples)
                words = list(vectors)
                rng.shuffle(words)
                vectors = {w: vectors[w] for w in words}
            corpus_path = tmp_path / f"{out_name}.jsonl"
            save_corpus(Corpus(samples, name="fixture100"), corpus_path)
            vectors_path = tmp_path / f"{out_name}.vectors.txt"
            helpers.write_vector_file(vectors, vectors_path)
            config = tmp_path / f"exp_{out_name}.cfg"
            config.write_text(
                "\n".join(
                    [
                        f"corpus = {corpus_path}",
                        f"vectors = {vectors_path}",
                        f"out_dir = {tmp_path / out_name}",
                        "seed = 97",
                        "kinds = substitution,omission",
                        "ratios = 0,0.25,0.5,1.0",
                    ]
                )
                + "\n"
            )
            assert cli_main(["matrix", "--config", str(config)]) == 0
            outputs.append(_matrix_outputs(tmp_path / out_name))

        for suffix in (".jsonl", ".vectors.txt"):
            assert (tmp_path / f"run_a{suffix}").read_bytes() != (tmp_path / f"run_b{suffix}").read_bytes()
        assert all(outputs[0][1].values())
        assert outputs[0] == outputs[1]
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"matrix determinism check took {elapsed:.2f}s"
        announce(7, "matrix digest and records identical for shuffled corpus and vector rows")

    def test_matrix_records_match_per_kind_reference(self, tmp_path, demo_corpus):
        corpus = Corpus(list(demo_corpus.samples) + UNENCODABLE, name="fixture")
        # The uncovered samples must land in train: a fully perturbed test
        # cell needs every test sample covered (ROADMAP 4a).
        seed = next(
            s for s in range(100)
            if {x.id for x in UNENCODABLE} <= set(split_corpus(corpus, SplitSpec(seed=s))[0].ids())
        )
        corpus_path, vectors_path, config = _write_matrix_inputs(
            tmp_path, corpus.samples, seed, ratios="0,0.5"
        )
        assert cli_main(["matrix", "--config", str(config)]) == 0
        out = tmp_path / "out"

        store = load_vectors(vectors_path)
        train, val, test = split_corpus(load_corpus(corpus_path), SplitSpec(seed=seed))
        kinds = [
            PerturbKind.SUBST_CONSTRAINED,
            PerturbKind.OMIT_ACTION,
            PerturbKind.OMIT_STRUCTURE,
            PerturbKind.OMIT_NAME,
        ]
        stoplist = load_stopwords()
        vocabulary = load_vocabulary(out / "vocab.json")
        tagger = helpers.shipped_tagger()
        cfg = SubstitutionConfig(seed=seed)
        expected = helpers.reference_gated_records(
            {"train": train, "val": val, "test": test},
            kinds, cfg, vocabulary, store, tagger, stoplist, GateConfig(), MeanVectorEncoder(store),
        )
        for name in SPLIT_NAMES:
            write_records(expected[name], tmp_path / f"expected_{name}.jsonl")
            assert (out / f"records_{name}.jsonl").read_bytes() == (
                tmp_path / f"expected_{name}.jsonl"
            ).read_bytes(), name

        # The unencodable originals were perturbed, scored NaN, and gated out.
        encoder = MeanVectorEncoder(store)
        for sample in UNENCODABLE:
            with pytest.raises(EncodingFailure):
                encoder.encode(sample.intent)
            single = Corpus([sample], name="one")
            assert any(
                perturb_split(single, [kind], cfg, vocabulary, store, tagger, stoplist).records
                for kind in kinds
            )
        assert b"x-oov" not in (out / "records_train.jsonl").read_bytes()
        announce(7, "one gate pass per split reproduces the per-kind records byte for byte")

    def test_matrix_outputs_independent_of_hash_seed(self, tmp_path, demo_corpus):
        _, _, config = _write_matrix_inputs(tmp_path, list(demo_corpus.samples), seed=41)
        src = str(Path(perturbe.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"out_{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-m", "perturbe.cli", "matrix", "--config", str(config),
                 "--out-dir", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            outputs.append(_matrix_outputs(out))
        assert all(outputs[0][1].values())
        assert outputs[0] == outputs[1]
        announce(7, "matrix records, vocabulary and digest independent of PYTHONHASHSEED")

    def test_chained_subcommands_reproduce_matrix(self, tmp_path, demo_corpus):
        seed = 11
        self._check_chain(tmp_path / "shipped", demo_corpus, seed, {})
        # A register list with "push" makes "Push" a name word, never a verb,
        # and a lexicon that tags "stock" as a verb lets it replace "Store".
        # The default ratios would stop this matrix at the coverage wall:
        # 107 train samples at p = 1.0, only 100 covered.
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        registers = inputs / "registers.txt"
        registers.write_text("\n".join(read_data_lines(None, "registers.txt") + ["push"]) + "\n")
        lexicon = inputs / "tag_lexicon.tsv"
        lines = [line for line in read_data_lines(None, "tag_lexicon.tsv") if line != "stock\tNOUN"]
        lexicon.write_text("\n".join(lines + ["stock\tVERB"]) + "\n")
        custom = {"registers": registers, "tag_lexicon": lexicon}
        self._check_chain(tmp_path / "custom", demo_corpus, seed, custom, ratios="0,0.5")
        shipped_records = (tmp_path / "shipped" / "out" / "records_train.jsonl").read_bytes()
        assert (tmp_path / "custom" / "out" / "records_train.jsonl").read_bytes() != shipped_records
        announce(7, "split, build-vocab, perturb and gate chained reproduce matrix byte for byte")

    @staticmethod
    def _check_chain(root, demo_corpus, seed, files, ratios="0,0.25,0.5,1.0"):
        """Run matrix with the config's ``files`` keys, then the subcommand
        chain with the same files, and compare their outputs."""
        root.mkdir()
        corpus_path, vectors_path, config = _write_matrix_inputs(
            root, list(demo_corpus.samples), seed, ratios
        )
        with open(config, "a") as fh:
            fh.writelines(f"{key} = {path}\n" for key, path in files.items())
        assert cli_main(["matrix", "--config", str(config)]) == 0
        out, chain = root / "out", root / "chain"

        splits = chain / "splits"
        assert cli_main(["split", "--in", str(corpus_path), "--out-dir", str(splits),
                         "--seed", str(seed)]) == 0
        vocab_path = chain / "vocab.json"
        registers = ["--registers", str(files["registers"])] if "registers" in files else []
        assert cli_main(["build-vocab", "--corpus", str(corpus_path), "--out", str(vocab_path),
                         *registers]) == 0
        lexicon = ["--tag-lexicon", str(files["tag_lexicon"])] if "tag_lexicon" in files else []
        kinds = ("subst-constrained", "omit-action", "omit-structure", "omit-name")
        for name in SPLIT_NAMES:
            passed = b""
            for kind in kinds:
                records = chain / f"{name}_{kind}.jsonl"
                assert cli_main(["perturb", "--kind", kind, "--in", str(splits / f"{name}.jsonl"),
                                 "--vocab", str(vocab_path), "--vectors", str(vectors_path),
                                 "--out", str(records), "--seed", str(seed), *lexicon]) == 0
                assert cli_main(["gate", "--records", str(records), "--vectors", str(vectors_path),
                                 "--threshold", "0.8"]) == 0
                passed += records.with_suffix(".passed.jsonl").read_bytes()
            matrix_records = (out / f"records_{name}.jsonl").read_bytes()
            assert matrix_records
            assert passed == matrix_records, (root.name, name)
            cell_split = out / "cells" / "none_train000_test000" / f"{name}.jsonl"
            assert (splits / f"{name}.jsonl").read_bytes() == cell_split.read_bytes(), name
        assert vocab_path.read_bytes() == (out / "vocab.json").read_bytes()


class TestCriterion8SyntaxChecker:
    @staticmethod
    def _drop_one_operand(snippet):
        """Mutate the first instruction: remove its final operand."""
        marker = " \\n "
        lines = snippet.split(marker)
        first = lines[0]
        if "," in first:
            first = first.rsplit(",", 1)[0] + ","
        elif " " in first:
            first = first.rsplit(" ", 1)[0]
        else:
            first = ""
        return marker.join([first] + lines[1:])

    def test_references_assemble_and_mutants_fail(self, demo_corpus):
        checker = detect_checker()
        if checker is None:
            self._mock_fallback()
            return
        the_slice = demo_corpus.samples[:50]
        refs = {s.id: s.snippet for s in the_slice}
        report = syntactic_accuracy(refs, checker)
        assert report.accuracy == 1.0, f"reference snippets failed: {report.diagnostics}"

        mutants = {s.id: self._drop_one_operand(s.snippet) for s in the_slice}
        mutated = syntactic_accuracy(mutants, checker)
        assert mutated.accuracy < 0.5, f"mutation suite too permissive: {mutated.accuracy}"
        announce(8, "assembler accepts references, rejects mutants")

    def _mock_fallback(self):
        import stat
        import tempfile
        from pathlib import Path

        from perturbe.metrics import CheckerConfig

        with tempfile.TemporaryDirectory() as tmp:
            script = Path(tmp) / "fake"
            script.write_text("#!/bin/sh\ngrep -q ok \"$1\"\n")
            script.chmod(script.stat().st_mode | stat.S_IEXEC)
            checker = CheckerConfig(template=f"{script} {{file}}", scaffold="{code}\n")
            report = syntactic_accuracy({"a": "ok", "b": "bad"}, checker)
            assert report.verdicts == {"a": True, "b": False}
            slow = Path(tmp) / "slow"
            slow.write_text("#!/bin/sh\nsleep 5\n")
            slow.chmod(slow.stat().st_mode | stat.S_IEXEC)
            timeout_checker = CheckerConfig(
                template=f"{slow} {{file}}", scaffold="{code}\n", timeout=0.2
            )
            timed = syntactic_accuracy({"a": "x"}, timeout_checker)
            assert timed.verdicts == {"a": False}
        announce(8, "checker mock exit-code and timeout paths (no assembler)")
