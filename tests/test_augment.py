import dataclasses
import json

import pytest

from perturbe._util import round_half_away
from perturbe.augment import AugmentPlan, KindFamily, augment_split, build_matrix, vocab_growth
from perturbe.corpus import Corpus, Sample, SplitSpec, split_corpus
from perturbe.embedding import MeanVectorEncoder
from perturbe.errors import DataError
from perturbe.perturb import (
    GATE_FAIL,
    GATE_PASS,
    PerturbationRecord,
    PerturbKind,
    SubstitutionConfig,
)
from perturbe.semgate import GateConfig

import helpers


def make_corpus(n):
    return Corpus(
        [Sample(f"s{i:04d}", f"move the value {i} now", f"mov eax, {i}") for i in range(n)],
        name="synthetic",
    )


def passing_record(sample_id, kind=PerturbKind.SUBST_CONSTRAINED, suffix="swapped"):
    return PerturbationRecord(
        sample_id=sample_id,
        kind=kind,
        original_intent="ignored original",
        perturbed_intent=f"perturbed intent {suffix} {sample_id}",
        changed_positions=[0],
        similarity=0.95,
        gate_pass=GATE_PASS,
    )


def full_coverage(corpus, kind=PerturbKind.SUBST_CONSTRAINED):
    return [passing_record(s.id, kind) for s in corpus]


class TestAugmentSplit:
    def test_exact_replacement_count(self):
        corpus = make_corpus(100)
        records = full_coverage(corpus)
        plan = AugmentPlan(ratio_p=0.5, kind=KindFamily.SUBSTITUTION, seed=3)
        out = augment_split(corpus, records, plan)
        changed = sum(1 for a, b in zip(corpus, out) if a.intent != b.intent)
        assert changed == 50
        assert len(out) == 100

    def test_records_of_other_samples_are_ignored(self):
        corpus = make_corpus(40)
        half = Corpus(corpus.samples[::2], name="half")
        out = augment_split(
            half, full_coverage(corpus), AugmentPlan(ratio_p=1.0, kind=KindFamily.SUBSTITUTION, seed=4)
        )
        assert all(a.intent != b.intent for a, b in zip(half, out))

    def test_p_zero_is_identity(self):
        corpus = make_corpus(10)
        out = augment_split(corpus, [], AugmentPlan(ratio_p=0.0, kind=KindFamily.OMISSION, seed=1))
        assert [s.intent for s in out] == [s.intent for s in corpus]
        assert [s.id for s in out] == [s.id for s in corpus]

    def test_p_one_replaces_everything(self):
        corpus = make_corpus(20)
        records = full_coverage(corpus)
        out = augment_split(corpus, records, AugmentPlan(ratio_p=1.0, kind=KindFamily.SUBSTITUTION, seed=1))
        assert all(a.intent != b.intent for a, b in zip(corpus, out))

    def test_snippets_never_touched(self):
        corpus = make_corpus(50)
        records = full_coverage(corpus)
        out = augment_split(corpus, records, AugmentPlan(ratio_p=1.0, kind=KindFamily.SUBSTITUTION, seed=2))
        assert [s.snippet for s in out] == [s.snippet for s in corpus]

    def test_rounding_half_away(self):
        corpus = make_corpus(10)
        records = full_coverage(corpus)
        plan = AugmentPlan(ratio_p=0.25, kind=KindFamily.SUBSTITUTION, seed=1)
        out = augment_split(corpus, records, plan)
        changed = sum(1 for a, b in zip(corpus, out) if a.intent != b.intent)
        assert changed == 3  # round(2.5) away from zero

    def test_insufficient_coverage_names_shortfall(self):
        corpus = make_corpus(10)
        records = [passing_record(s.id) for s in corpus.samples[:3]]
        plan = AugmentPlan(ratio_p=0.8, kind=KindFamily.SUBSTITUTION, seed=1)
        with pytest.raises(DataError, match="short by 5"):
            augment_split(corpus, records, plan)

    def test_non_passing_record_rejected(self):
        corpus = make_corpus(2)
        record = passing_record("s0000")
        record.gate_pass = "fail"
        with pytest.raises(DataError, match="gate"):
            augment_split(corpus, [record], AugmentPlan(ratio_p=0.5, kind=KindFamily.SUBSTITUTION, seed=1))

    def test_deterministic_choice(self):
        corpus = make_corpus(40)
        records = full_coverage(corpus)
        plan = AugmentPlan(ratio_p=0.5, kind=KindFamily.SUBSTITUTION, seed=77)
        first = augment_split(corpus, records, plan)
        second = augment_split(corpus, records, plan)
        assert [s.intent for s in first] == [s.intent for s in second]

    def test_omission_category_drawn_among_available(self):
        corpus = make_corpus(30)
        records = []
        for sample in corpus:
            records.append(passing_record(sample.id, PerturbKind.OMIT_ACTION, "action"))
            records.append(passing_record(sample.id, PerturbKind.OMIT_NAME, "name"))
        plan = AugmentPlan(ratio_p=1.0, kind=KindFamily.OMISSION, seed=5)
        out = augment_split(corpus, records, plan)
        kinds_used = {s.intent.split()[2] for s in out}
        assert kinds_used == {"action", "name"}  # both categories appear

    # Each perturbation kind's family: the family whose plans draw its records.
    FAMILY_OF = {
        "subst-constrained": "substitution",
        "subst-unconstrained": "substitution",
        "omit-action": "omission",
        "omit-structure": "omission",
        "omit-name": "omission",
    }

    @pytest.mark.parametrize("kind", list(PerturbKind))
    def test_a_family_plan_draws_exactly_its_kinds(self, kind):
        corpus = make_corpus(4)
        for family in KindFamily:
            plan = AugmentPlan(ratio_p=1.0, kind=family, seed=2)
            if family.value == self.FAMILY_OF[kind.value]:
                out = augment_split(corpus, full_coverage(corpus, kind), plan)
                assert all(s.intent.startswith("perturbed intent") for s in out)
            else:
                with pytest.raises(DataError, match="only 0 are covered"):
                    augment_split(corpus, full_coverage(corpus, kind), plan)

    def test_specific_kind_plan(self):
        corpus = make_corpus(10)
        records = full_coverage(corpus, PerturbKind.OMIT_NAME) + full_coverage(
            corpus, PerturbKind.OMIT_ACTION
        )
        plan = AugmentPlan(ratio_p=1.0, kind=PerturbKind.OMIT_NAME, seed=1)
        out = augment_split(corpus, [r for r in records if r.kind is PerturbKind.OMIT_NAME], plan)
        assert len(out) == 10


class TestVocabGrowth:
    def test_monotone_on_synthetic(self):
        base = make_corpus(30)
        records = [
            passing_record(s.id, suffix=f"brandnewword{i}") for i, s in enumerate(base)
        ]
        variants = [base]
        for p in (0.25, 0.5, 1.0):
            plan = AugmentPlan(ratio_p=p, kind=KindFamily.SUBSTITUTION, seed=4)
            variants.append(augment_split(base, records, plan))
        counts = vocab_growth(variants, stoplist=set())
        assert counts == sorted(counts)

    def test_equal_for_identical(self):
        base = make_corpus(10)
        counts = vocab_growth([base, base], stoplist=set())
        assert counts[0] == counts[1]

    def test_set_union_oracle(self):
        base = make_corpus(20)
        records = [passing_record(s.id, suffix=f"neww{i}") for i, s in enumerate(base)]
        plan = AugmentPlan(ratio_p=0.5, kind=KindFamily.SUBSTITUTION, seed=9)
        augmented = augment_split(base, records, plan)
        from perturbe.preprocess import tokenize

        def unique(corpus):
            seen = set()
            for sample in corpus:
                seen.update(tokenize(sample.intent).tokens)
            return len(seen)

        assert vocab_growth([base, augmented], stoplist=set()) == [unique(base), unique(augmented)]
        # each substitution introduces at most one new word per replaced sample
        assert unique(augmented) <= unique(base) + 10 * 4

    def test_matches_reference(self, demo_corpus, stopwords):
        for seed in range(5):
            variants = helpers.seeded_corpora(demo_corpus, seed, 6)
            for stoplist in (stopwords, set(), {"the", "eax"}):
                got = vocab_growth(variants, stoplist)
                assert got == helpers.reference_vocab_growth(variants, stoplist)


class TestBuildMatrix:
    def _inputs(self, n=40):
        corpus = make_corpus(n)
        train = Corpus(corpus.samples[: n - 10], name="train")
        val = Corpus(corpus.samples[n - 10 : n - 5], name="val")
        test = Corpus(corpus.samples[n - 5 :], name="test")
        splits = {"train": train, "val": val, "test": test}
        records = {
            name: full_coverage(split) + full_coverage(split, PerturbKind.OMIT_ACTION)
            for name, split in splits.items()
        }
        return splits, records

    def test_cell_inventory(self, tmp_path):
        splits, records = self._inputs()
        kinds = [KindFamily.SUBSTITUTION, KindFamily.OMISSION]
        ratios = [0.0, 0.25, 0.5, 1.0]
        cells, digest = build_matrix(splits, records, kinds, ratios, 7, tmp_path)
        assert cells == json.loads((tmp_path / "manifest.json").read_text())["cells"]
        ids = [c["id"] for c in cells]
        assert len(ids) == 1 + 2 * (4 + 1)  # baseline + per kind: 4 test-perturbed + RQ3
        assert "none_train000_test000" in ids
        assert "substitution_train050_test000" in ids
        assert "omission_train100_test100" in ids

    def test_ratios_zero_only_gives_baseline_cells(self, tmp_path):
        splits, records = self._inputs()
        cells, _ = build_matrix(
            splits, records, [KindFamily.SUBSTITUTION], [0.0], 7, tmp_path
        )
        assert [c["id"] for c in cells] == [
            "none_train000_test000",
            "substitution_train000_test100",
        ]

    def test_rerun_same_digest(self, tmp_path):
        splits, records = self._inputs()
        kinds = [KindFamily.SUBSTITUTION]
        _, digest_a = build_matrix(splits, records, kinds, [0.0, 0.5], 7, tmp_path / "a")
        _, digest_b = build_matrix(splits, records, kinds, [0.0, 0.5], 7, tmp_path / "b")
        assert digest_a == digest_b

    def test_different_seed_different_digest(self, tmp_path):
        splits, records = self._inputs()
        kinds = [KindFamily.SUBSTITUTION]
        _, digest_a = build_matrix(splits, records, kinds, [0.5], 7, tmp_path / "a")
        _, digest_b = build_matrix(splits, records, kinds, [0.5], 8, tmp_path / "b")
        assert digest_a != digest_b

    def test_materialized_files_exist(self, tmp_path):
        splits, records = self._inputs()
        cells, _ = build_matrix(splits, records, [KindFamily.OMISSION], [0.0, 1.0], 3, tmp_path)
        for cell in cells:
            for split_name, rel in cell["paths"].items():
                assert (tmp_path / rel).exists()
        assert (tmp_path / "manifest.json").exists()


DEMO_SPLIT_SEED = 3  # every family covers each demo test sample at this split


@pytest.fixture(scope="module")
def demo_matrix_inputs(demo_corpus, demo_store, demo_vocab, tagger, stopwords):
    """Demo splits with gate-passing records of both families, as matrix makes them."""
    train, val, test = split_corpus(demo_corpus, SplitSpec(seed=DEMO_SPLIT_SEED))
    splits = {"train": train, "val": val, "test": test}
    records = helpers.reference_gated_records(
        splits,
        list(PerturbKind),
        SubstitutionConfig(seed=DEMO_SPLIT_SEED),
        demo_vocab,
        demo_store,
        tagger,
        stopwords,
        GateConfig(),
    )
    return splits, records


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestBuildMatrixDifferential:
    """build_matrix augments each distinct (family, split, p) once; the cells
    must equal one reference augment_split per cell split, byte for byte."""

    KINDS = [KindFamily.SUBSTITUTION, KindFamily.OMISSION]

    def _both(self, tmp_path, splits, records, ratios, **kwargs):
        new = build_matrix(splits, records, self.KINDS, ratios, 11, tmp_path / "new", **kwargs)
        ref = helpers.reference_build_matrix(
            splits, records, self.KINDS, ratios, 11, tmp_path / "ref", **kwargs
        )
        return new, ref

    @pytest.mark.parametrize("apply_to_validation", [True, False])
    def test_demo_cells_and_digest_match_reference(
        self, tmp_path, demo_matrix_inputs, apply_to_validation
    ):
        splits, records = demo_matrix_inputs
        assert {r.kind.value for r in records["test"]} == {k.value for k in PerturbKind}
        (cells, digest), (ref_cells, ref_digest) = self._both(
            tmp_path, splits, records, [0.0, 0.25, 0.5, 1.0],
            apply_to_validation=apply_to_validation,
        )
        assert digest == ref_digest
        assert cells == ref_cells
        new_tree, ref_tree = _tree(tmp_path / "new"), _tree(tmp_path / "ref")
        assert len(new_tree) == 1 + 3 * len(cells)
        assert new_tree == ref_tree

    def test_split_without_records(self, tmp_path, demo_matrix_inputs):
        splits, records = demo_matrix_inputs
        no_val = {name: recs for name, recs in records.items() if name != "val"}
        (cells, digest), (ref_cells, ref_digest) = self._both(
            tmp_path, splits, no_val, [0.0, 1.0], apply_to_validation=False
        )
        assert (digest, cells) == (ref_digest, ref_cells)
        assert _tree(tmp_path / "new") == _tree(tmp_path / "ref")

    def test_uncovered_split_raises_the_same_error(self, tmp_path, demo_matrix_inputs):
        splits, records = demo_matrix_inputs
        no_val = {name: recs for name, recs in records.items() if name != "val"}
        with pytest.raises(DataError) as new:
            build_matrix(splits, no_val, self.KINDS, [0.5], 11, tmp_path / "new")
        with pytest.raises(DataError) as ref:
            helpers.reference_build_matrix(splits, no_val, self.KINDS, [0.5], 11, tmp_path / "ref")
        assert str(new.value) == str(ref.value)
        assert "augmentation needs" in str(new.value)
        assert not (tmp_path / "new").exists()

    def test_ungated_record_raises_the_same_error(self, tmp_path, demo_matrix_inputs):
        splits, records = demo_matrix_inputs
        ungated = dataclasses.replace(records["test"][-1], gate_pass=GATE_FAIL)
        broken = {**records, "test": records["test"][:-1] + [ungated]}
        with pytest.raises(DataError) as new:
            build_matrix(splits, broken, self.KINDS, [0.0, 0.5], 11, tmp_path / "new")
        with pytest.raises(DataError) as ref:
            helpers.reference_build_matrix(splits, broken, self.KINDS, [0.0, 0.5], 11, tmp_path / "ref")
        assert str(new.value) == str(ref.value)
        assert "has not passed the gate" in str(new.value)
        assert not (tmp_path / "new").exists()  # checked before any cell file

    def test_unreplaced_samples_are_kept_as_given(self, demo_matrix_inputs):
        splits, records = demo_matrix_inputs
        train = splits["train"]
        out = augment_split(train, records["train"], AugmentPlan(0.25, KindFamily.OMISSION, seed=5))
        kept = [a is b for a, b in zip(out, train)]
        assert kept.count(False) == round_half_away(0.25 * len(train))
        for before, after, same in zip(train, out, kept):
            assert (after.intent == before.intent) == same
            assert after.snippet == before.snippet


class TestSharedCellSplits:
    """One augmentation per (family, split, p): cells that use it hold the
    same file, whatever their cell ids."""

    KINDS = [KindFamily.SUBSTITUTION, KindFamily.OMISSION]

    def _cell_files(self, tmp_path, demo_matrix_inputs):
        splits, records = demo_matrix_inputs
        build_matrix(splits, records, self.KINDS, [0.0, 0.25, 0.5, 1.0], 11, tmp_path)
        return _tree(tmp_path / "cells")

    def test_test100_cells_share_one_test_split(self, tmp_path, demo_matrix_inputs):
        tree = self._cell_files(tmp_path, demo_matrix_inputs)
        for family in self.KINDS:
            tests = {
                name: data for name, data in tree.items()
                if name.startswith(f"{family.value}_") and name.endswith("_test100/test.jsonl")
            }
            assert len(tests) == 4
            assert len(set(tests.values())) == 1, family
            assert tree["none_train000_test000/test.jsonl"] not in tests.values()

    def test_train50_cells_share_train_and_val(self, tmp_path, demo_matrix_inputs):
        tree = self._cell_files(tmp_path, demo_matrix_inputs)
        for family in self.KINDS:
            for split_name in ("train", "val"):
                original = tree[f"{family.value}_train050_test000/{split_name}.jsonl"]
                assert original == tree[f"{family.value}_train050_test100/{split_name}.jsonl"]
                assert original != tree[f"none_train000_test000/{split_name}.jsonl"]
