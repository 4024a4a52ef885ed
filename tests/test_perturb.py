import random

import pytest

from perturbe._util import per_sample_rng
from perturbe.corpus import Corpus, Sample
from perturbe.embedding import cosine, load_vectors
from perturbe.errors import ConfigError, DataError, NoEligibleWords
from perturbe.perturb import (
    OmissionCategory,
    PerturbKind,
    SubstitutionConfig,
    analyze_corpus,
    eligible_words,
    omit_words,
    omittable_words,
    perturb_corpus,
    perturb_split,
    read_records,
    substitute_words,
    write_records,
)
from perturbe.postag import LexiconTagger, PosTag
from perturbe.preprocess import tokenize

import helpers

SUBST = PerturbKind.SUBST_CONSTRAINED
STORE_INTENT = "Store the shellcode pointer in the ESI register."
STORE_INTENT_BARE = "Store the shellcode pointer in the ESI register"


def tagged(text, tagger, source_id="t"):
    intent = tokenize(text, source_id=source_id)
    return intent, tagger.tag(intent.tokens, sample_id=source_id)


class TestEligibleWords:
    def test_only_main_verb_eligible(self, golden_store, golden_vocab, tagger, stopwords):
        intent, tags = tagged(STORE_INTENT, tagger)
        assert eligible_words(intent.tokens, golden_vocab, tags, golden_store, stopwords) == {0}

    def test_all_protected_intent(self, golden_store, golden_vocab, tagger, stopwords):
        intent, tags = tagged("the ESI register", tagger)
        assert eligible_words(intent.tokens, golden_vocab, tags, golden_store, stopwords) == set()

    def test_unprotected_in_store_words(self, demo_store, demo_vocab, tagger, stopwords):
        intent, tags = tagged("clear the stack and check the EAX register", tagger)
        got = eligible_words(intent.tokens, demo_vocab, tags, demo_store, stopwords)
        assert got == {0, 4}  # clear, check; stack/register/EAX protected

    def test_protection_beats_store_membership(self, demo_store, demo_vocab, tagger, stopwords):
        # "register" has a vector but the vocabulary protects it
        intent, tags = tagged("store the register", tagger)
        assert eligible_words(intent.tokens, demo_vocab, tags, demo_store, stopwords) == {0}

    def test_unprotected_open_class_words(self, tagger, stopwords):
        import numpy as np

        from perturbe.vocab import Vocabulary

        store = helpers.store_of({"clear": np.array([1.0, 0.0]), "contents": np.array([0.0, 1.0])})
        vocab = Vocabulary(structure_words={"register"}, name_words={"EAX"})
        intent, tags = tagged("clear contents EAX register", tagger)
        assert eligible_words(intent.tokens, vocab, tags, store, stopwords) == {0, 1}


class TestSubstitution:
    def test_constrained_swaps_pos_matching_synonym(
        self, golden_store, golden_vocab, tagger, stopwords
    ):
        intent, tags = tagged(STORE_INTENT, tagger)
        cfg = SubstitutionConfig(seed=0)
        record = substitute_words(
            intent, SUBST, cfg, golden_vocab, tags, golden_store, tagger, stopwords
        )
        assert record.perturbed_intent == "Save the shellcode pointer in the ESI register."
        assert record.kind is PerturbKind.SUBST_CONSTRAINED
        assert record.changed_positions == [0]

    def test_unconstrained_takes_nearest_neighbor(
        self, golden_store, golden_vocab, tagger, stopwords
    ):
        intent, tags = tagged(STORE_INTENT, tagger)
        cfg = SubstitutionConfig(seed=0)
        record = substitute_words(
            intent, PerturbKind.SUBST_UNCONSTRAINED, cfg, golden_vocab, tags, golden_store,
            tagger, stopwords,
        )
        assert record.perturbed_intent == "Stock the shellcode pointer in the ESI register."
        assert record.kind is PerturbKind.SUBST_UNCONSTRAINED

    def test_count_rule_nine_eligible(self, demo_store, demo_vocab, tagger, stopwords):
        text = "store copy move clear put load check call jump"
        intent, tags = tagged(text, tagger)
        eligible = eligible_words(intent.tokens, demo_vocab, tags, demo_store, stopwords)
        assert len(eligible) == 9
        cfg = SubstitutionConfig(ratio=0.10, seed=3)
        record = substitute_words(
            intent, SUBST, cfg, demo_vocab, tags, demo_store, tagger, stopwords
        )
        assert len(record.changed_positions) == 1  # max(1, round(0.9)) = 1

    def test_count_rule_half_away_from_zero(self, demo_store, demo_vocab, tagger, stopwords):
        text = "store copy move clear put load check call jump push"
        intent, tags = tagged(text, tagger)
        cfg = SubstitutionConfig(ratio=0.45, seed=3)  # round(4.5) -> 5
        record = substitute_words(
            intent, SUBST, cfg, demo_vocab, tags, demo_store, tagger, stopwords
        )
        assert len(record.changed_positions) == 5

    def test_constrained_replacements_satisfy_constraints(
        self, demo_store, demo_vocab, tagger, demo_corpus, stopwords
    ):
        cfg = SubstitutionConfig(seed=21)
        result = perturb_split(
            demo_corpus, [PerturbKind.SUBST_CONSTRAINED], cfg, demo_vocab, demo_store,
            tagger=tagger, stoplist=stopwords,
        )
        assert result.records
        for record in result.records[:50]:
            original = tokenize(record.original_intent).tokens
            perturbed = tokenize(record.perturbed_intent).tokens
            tags = tagger.tag(original, sample_id=record.sample_id)
            for index in record.changed_positions:
                old, new = original[index], perturbed[index]
                sim = cosine(helpers.row_of(demo_store, old), helpers.row_of(demo_store, new))
                assert sim >= cfg.tau - 1e-9
                assert tagger.lexical_tag(new) is tags[index]

    def test_protected_words_never_change(
        self, demo_store, demo_vocab, tagger, demo_corpus, stopwords
    ):
        from perturbe.vocab import is_protected

        for kind in (PerturbKind.SUBST_CONSTRAINED, PerturbKind.SUBST_UNCONSTRAINED):
            result = perturb_split(
                demo_corpus, [kind], SubstitutionConfig(seed=5), demo_vocab, demo_store,
                tagger=tagger, stoplist=stopwords,
            )
            for record in result.records:
                original = tokenize(record.original_intent).tokens
                for index in record.changed_positions:
                    assert not is_protected(original[index], demo_vocab)

    def test_capitalization_transferred(self, golden_store, golden_vocab, tagger, stopwords):
        intent, tags = tagged("store the shellcode pointer in the ESI register", tagger)
        cfg = SubstitutionConfig(seed=0)
        record = substitute_words(
            intent, SUBST, cfg, golden_vocab, tags, golden_store, tagger, stopwords
        )
        assert record.perturbed_intent.startswith("save ")

    def test_no_eligible_raises(self, golden_store, golden_vocab, tagger, stopwords):
        intent, tags = tagged("the ESI register", tagger)
        with pytest.raises(NoEligibleWords):
            substitute_words(
                intent, SUBST, SubstitutionConfig(seed=0), golden_vocab, tags, golden_store,
                tagger, stopwords,
            )

    def test_no_qualifying_neighbor_raises(self, golden_store, golden_vocab, tagger, stopwords):
        # "keep" has no neighbor above tau in the golden store (all fillers ~0.73)
        intent, tags = tagged("keep the ESI register", tagger)
        with pytest.raises(NoEligibleWords):
            substitute_words(
                intent, SUBST, SubstitutionConfig(seed=0), golden_vocab, tags, golden_store,
                tagger, stopwords,
            )

    def test_fall_through_to_next_eligible(self, golden_store, golden_vocab, tagger, stopwords):
        # "keep" has no qualifying neighbor; "store" does. Whichever is sampled
        # first, the record must land on "store".
        intent, tags = tagged("keep the store value", tagger)
        eligible = eligible_words(intent.tokens, golden_vocab, tags, golden_store, stopwords)
        assert eligible == {0, 2}
        for seed in range(8):
            cfg = SubstitutionConfig(seed=seed)
            record = substitute_words(
                intent, SUBST, cfg, golden_vocab, tags, golden_store, tagger, stopwords
            )
            assert record.changed_positions == [2]


class TestSubstitutionDifferential:
    CONFIGS = (
        SubstitutionConfig(seed=3),
        SubstitutionConfig(ratio=0.5, k=5, tau=0.82, seed=11),
        SubstitutionConfig(ratio=1.0, k=1, tau=0.0, seed=2**64 - 1),
    )

    @pytest.mark.parametrize(
        "kind", [PerturbKind.SUBST_CONSTRAINED, PerturbKind.SUBST_UNCONSTRAINED]
    )
    def test_kind_decides_what_use_constraints_did(
        self, demo_corpus, demo_vocab, demo_store, tagger, stopwords, kind
    ):
        corpus = Corpus(demo_corpus.samples + [Sample("x-skip", "Good luck, friend.", "nop")])
        analyses = analyze_corpus(corpus, tagger)
        for cfg in self.CONFIGS:
            expected, skipped = [], []
            for intent, tags in analyses:
                try:
                    got = substitute_words(
                        intent, kind, cfg, demo_vocab, tags, demo_store, tagger, stopwords
                    )
                except NoEligibleWords as exc:
                    got = str(exc)
                try:
                    ref = helpers.reference_substitute_words(
                        intent, cfg, kind is PerturbKind.SUBST_CONSTRAINED, demo_vocab, tags,
                        demo_store, tagger, stopwords, per_sample_rng(cfg.seed, intent.source_id),
                    )
                except NoEligibleWords as exc:
                    ref = str(exc)
                    skipped.append(intent.source_id)
                else:
                    expected.append(ref)
                assert got == ref, intent.source_id
            result = perturb_split(corpus, [kind], cfg, demo_vocab, demo_store, tagger, stopwords)
            assert result.records == expected
            assert [s.sample_id for s in result.skipped] == skipped
            assert expected and skipped

    def test_omission_kind_rejected(self, golden_store, golden_vocab, tagger, stopwords):
        intent, tags = tagged(STORE_INTENT, tagger)
        with pytest.raises(ConfigError, match="omit-name"):
            substitute_words(
                intent, PerturbKind.OMIT_NAME, SubstitutionConfig(), golden_vocab, tags,
                golden_store, tagger, stopwords,
            )


class TestOmission:
    def test_action_indices_are_verbs(self, golden_vocab, tagger):
        intent, tags = tagged(STORE_INTENT_BARE, tagger)
        got = omittable_words(intent.tokens, OmissionCategory.ACTION, golden_vocab, tags)
        assert got == {0}

    def test_structure_indices_from_vocabulary(self, golden_vocab, tagger):
        intent, tags = tagged(STORE_INTENT_BARE, tagger)
        got = omittable_words(intent.tokens, OmissionCategory.STRUCTURE, golden_vocab, tags)
        assert got == {intent.tokens.index("register")}

    def test_name_indices_from_vocabulary(self, golden_vocab, tagger):
        intent, tags = tagged(STORE_INTENT_BARE, tagger)
        got = omittable_words(intent.tokens, OmissionCategory.NAME, golden_vocab, tags)
        assert got == {intent.tokens.index("ESI")}

    def test_action_omission_text(self, golden_vocab, tagger):
        intent, tags = tagged(STORE_INTENT_BARE, tagger)
        record = omit_words(intent, OmissionCategory.ACTION, golden_vocab, tags)
        assert record.perturbed_intent == "the shellcode pointer in the ESI register"
        assert record.kind is PerturbKind.OMIT_ACTION

    def test_structure_omission_text(self, golden_vocab, tagger):
        intent, tags = tagged(STORE_INTENT_BARE, tagger)
        record = omit_words(intent, OmissionCategory.STRUCTURE, golden_vocab, tags)
        assert record.perturbed_intent == "Store the shellcode pointer in the ESI"

    def test_name_omission_text(self, golden_vocab, tagger):
        intent, tags = tagged(STORE_INTENT_BARE, tagger)
        record = omit_words(intent, OmissionCategory.NAME, golden_vocab, tags)
        assert record.perturbed_intent == "Store the shellcode pointer in the register"

    def test_structure_omission_bl_register(self, tagger):
        from perturbe.vocab import Vocabulary

        vocab = Vocabulary(structure_words={"register"}, name_words={"BL"})
        intent, tags = tagged("copy 0x4 into the BL register", tagger)
        record = omit_words(intent, OmissionCategory.STRUCTURE, vocab, tags)
        assert record.perturbed_intent == "copy 0x4 into the BL"

    def test_no_verbs_raises(self, golden_vocab, tagger):
        intent, tags = tagged("the shellcode pointer", tagger)
        with pytest.raises(NoEligibleWords):
            omit_words(intent, OmissionCategory.ACTION, golden_vocab, tags)

    def test_removes_every_category_word(self, demo_vocab, tagger):
        intent, tags = tagged("push the value onto the stack near the stack pointer", tagger)
        record = omit_words(intent, OmissionCategory.STRUCTURE, demo_vocab, tags)
        for token in tokenize(record.perturbed_intent).tokens:
            assert token.lower() not in demo_vocab.structure_words

    def test_omission_never_mixes_categories(self, golden_vocab, tagger):
        intent, tags = tagged(STORE_INTENT_BARE, tagger)
        record = omit_words(intent, OmissionCategory.NAME, golden_vocab, tags)
        kept = tokenize(record.perturbed_intent).tokens
        assert "Store" in kept and "register" in kept  # other categories untouched

    def test_omitting_everything_raises(self, tagger):
        from perturbe.vocab import Vocabulary

        vocab = Vocabulary(structure_words={"stack", "pointer"}, name_words=set())
        intent, tags = tagged("stack pointer", tagger)
        with pytest.raises(NoEligibleWords):
            omit_words(intent, OmissionCategory.STRUCTURE, vocab, tags)


class TestPerturbCorpus:
    def test_one_record_per_applicable_sample(self, demo_vocab, demo_store, tagger, stopwords):
        corpus = Corpus(
            [
                Sample("a", "Store the EAX register on the stack.", "push eax"),
                Sample("b", "Clear the EBX register.", "xor ebx, ebx"),
            ]
        )
        result = perturb_split(
            corpus, [PerturbKind.OMIT_NAME], SubstitutionConfig(seed=1), demo_vocab, None,
            tagger=tagger, stoplist=stopwords,
        )
        assert [r.sample_id for r in result.records] == ["a", "b"]
        assert not result.skipped

    def test_skip_report(self, demo_vocab, tagger, stopwords):
        corpus = Corpus([Sample("a", "the shellcode pointer", "nop")])
        result = perturb_split(
            corpus, [PerturbKind.OMIT_ACTION], SubstitutionConfig(seed=1), demo_vocab, None,
            tagger=tagger, stoplist=stopwords,
        )
        assert not result.records
        assert result.skipped[0].sample_id == "a"

    def test_rerun_identical(self, demo_corpus, demo_vocab, demo_store, tagger, stopwords):
        cfg = SubstitutionConfig(seed=42)
        runs = [
            perturb_split(
                demo_corpus, [PerturbKind.SUBST_CONSTRAINED], cfg, demo_vocab, demo_store,
                tagger=tagger, stoplist=stopwords,
            )
            for _ in range(2)
        ]
        assert [r.perturbed_intent for r in runs[0].records] == [
            r.perturbed_intent for r in runs[1].records
        ]
        assert [r.changed_positions for r in runs[0].records] == [
            r.changed_positions for r in runs[1].records
        ]

    def test_corpus_and_vector_row_order_irrelevant(
        self, tmp_path, demo_corpus, demo_vocab, tagger, stopwords
    ):
        vectors = helpers.demo_vectors()
        words = list(vectors)
        random.Random(5).shuffle(words)
        in_order, shuffled_rows = tmp_path / "a.txt", tmp_path / "b.txt"
        helpers.write_vector_file(vectors, in_order)
        helpers.write_vector_file({w: vectors[w] for w in words}, shuffled_rows)
        samples = list(demo_corpus.samples)
        random.Random(6).shuffle(samples)
        cfg = SubstitutionConfig(seed=9)
        base = perturb_split(
            demo_corpus, [PerturbKind.SUBST_CONSTRAINED], cfg, demo_vocab,
            load_vectors(in_order), tagger=tagger, stoplist=stopwords,
        )
        moved = perturb_split(
            Corpus(samples, name="shuffled"), [PerturbKind.SUBST_CONSTRAINED], cfg, demo_vocab,
            load_vectors(shuffled_rows), tagger=tagger, stoplist=stopwords,
        )
        assert len(base.records) > 20

        def by_id(entries):
            return sorted(entries, key=lambda e: e.sample_id)

        assert by_id(base.records) == by_id(moved.records)
        assert by_id(base.skipped) == by_id(moved.skipped)

    def test_corpus_order_irrelevant(self, demo_corpus, demo_vocab, demo_store, tagger, stopwords):
        cfg = SubstitutionConfig(seed=13)
        shuffled_samples = list(demo_corpus.samples)
        random.Random(4).shuffle(shuffled_samples)
        shuffled = Corpus(shuffled_samples, name="shuffled")
        base = perturb_split(
            demo_corpus, [PerturbKind.SUBST_CONSTRAINED], cfg, demo_vocab, demo_store,
            tagger=tagger, stoplist=stopwords,
        )
        moved = perturb_split(
            shuffled, [PerturbKind.SUBST_CONSTRAINED], cfg, demo_vocab, demo_store,
            tagger=tagger, stoplist=stopwords,
        )
        assert {r.sample_id: r.perturbed_intent for r in base.records} == {
            r.sample_id: r.perturbed_intent for r in moved.records
        }

    def test_different_seeds_differ(self, demo_corpus, demo_vocab, demo_store, tagger, stopwords):
        outputs = []
        for seed in (1, 2):
            result = perturb_split(
                demo_corpus, [PerturbKind.SUBST_CONSTRAINED], SubstitutionConfig(seed=seed),
                demo_vocab, demo_store, tagger=tagger, stoplist=stopwords,
            )
            outputs.append([r.perturbed_intent for r in result.records])
        assert outputs[0] != outputs[1]

    def test_records_round_trip(
        self, tmp_path, demo_corpus, demo_vocab, demo_store, tagger, stopwords
    ):
        result = perturb_split(
            demo_corpus, [PerturbKind.OMIT_STRUCTURE], SubstitutionConfig(seed=7), demo_vocab,
            demo_store, tagger=tagger, stoplist=stopwords,
        )
        path = tmp_path / "records.jsonl"
        write_records(result.records, path)
        loaded = read_records(path)
        assert [(r.sample_id, r.kind, r.perturbed_intent) for r in loaded] == [
            (r.sample_id, r.kind, r.perturbed_intent) for r in result.records
        ]


class TestAnalyzeCorpus:
    def test_one_analysis_per_sample(self, demo_corpus, tagger):
        analyses = analyze_corpus(demo_corpus, tagger)
        assert len(analyses) == len(demo_corpus)
        for sample, (intent, tags) in zip(demo_corpus, analyses):
            assert intent == tokenize(sample.intent, source_id=sample.id)
            assert tags == tagger.tag(intent.tokens, sample_id=sample.id)

    @pytest.mark.parametrize("kind", list(PerturbKind))
    def test_shared_analyses_give_the_same_records(
        self, demo_corpus, demo_vocab, demo_store, tagger, kind, stopwords
    ):
        corpus = Corpus(demo_corpus.samples + [Sample("x-skip", "Good luck, friend.", "nop")])
        cfg = SubstitutionConfig(seed=9)
        analyses = analyze_corpus(corpus, tagger)
        shared = perturb_corpus(
            corpus, kind, cfg, demo_vocab, demo_store, tagger, stopwords, analyses=analyses
        )
        own = perturb_split(corpus, [kind], cfg, demo_vocab, demo_store, tagger, stopwords)
        assert shared == own
        assert shared.records and shared.skipped

    def test_analyses_of_another_corpus_rejected(
        self, demo_corpus, demo_vocab, tagger, stopwords
    ):
        analyses = analyze_corpus(Corpus(demo_corpus.samples[:3]), tagger)
        with pytest.raises(DataError, match="3 analyses"):
            perturb_corpus(
                demo_corpus, PerturbKind.OMIT_NAME, SubstitutionConfig(), demo_vocab, None,
                tagger=tagger, stoplist=stopwords, analyses=analyses,
            )

    def test_perturb_split_concatenates_kinds_in_order(
        self, demo_corpus, demo_vocab, demo_store, tagger, stopwords
    ):
        corpus = Corpus(demo_corpus.samples + [Sample("x-skip", "Good luck, friend.", "nop")])
        kinds = [PerturbKind.OMIT_NAME, PerturbKind.SUBST_CONSTRAINED, PerturbKind.OMIT_ACTION]
        cfg = SubstitutionConfig(seed=9)
        split = perturb_split(corpus, kinds, cfg, demo_vocab, demo_store, tagger, stopwords)
        per_kind = [
            perturb_split(corpus, [kind], cfg, demo_vocab, demo_store, tagger, stopwords)
            for kind in kinds
        ]
        assert split.records == [r for part in per_kind for r in part.records]
        assert split.skipped == [s for part in per_kind for s in part.skipped]
        assert split.skipped

    def test_category_kind_round_trip(self):
        kinds = [category.kind for category in OmissionCategory]
        assert kinds == [PerturbKind.OMIT_ACTION, PerturbKind.OMIT_STRUCTURE, PerturbKind.OMIT_NAME]
