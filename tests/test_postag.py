import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import helpers
from perturbe.errors import DataError
from perturbe.postag import FileTagger, LexiconTagger, PosTag, load_tag_lexicon
from perturbe.preprocess import tokenize

# Case variants, names, numbers, punctuation, suffix words and unknowns.
TRICKY_WORDS = [
    "store", "Store", "STORE", "sToRe", "save", "Save", "stock", "zero", "Zero", "ZERO",
    "eax", "EAX", "Eax", "esi", "ESI", "al", "AL", "_start_label", "_myfunc", "my_var",
    "0x4", "0X4", "0xff", "0XFF", "0xzz", "10", "007", "1e3", "x86",
    ",", ".", "...", "[", "]", "(", "-",
    "frobbing", "Frobbing", "FROBBED", "frobly", "frobment", "frobtion", "frobsion",
    "frobness", "ing", "ed", "ly", "bed", "sing", "blorp", "Blorp", "register", "Register",
]


class TestTagging:
    def test_imperative_store(self, tagger):
        tags = tagger.tag(["Store", "the", "shellcode", "pointer"])
        assert tags == [PosTag.VERB, PosTag.DET, PosTag.NOUN, PosTag.NOUN]

    def test_hex_literal_is_num(self, tagger):
        assert tagger.tag(["0x4"]) == [PosTag.NUM]

    def test_lexicon_lookup_sentence(self, tagger):
        # oracle: independent lookup in the shipped lexicon file
        primary, verb_capable = load_tag_lexicon()
        tokens = ["push", "the", "contents", "onto", "the", "stack"]
        expected = []
        for i, token in enumerate(tokens):
            if i == 0 and token in verb_capable:
                expected.append(PosTag.VERB)
            else:
                expected.append(primary[token])
        got = tagger.tag(tokens)
        assert got == expected
        assert got == [
            PosTag.VERB, PosTag.DET, PosTag.NOUN, PosTag.PREP, PosTag.DET, PosTag.NOUN,
        ]

    def test_alignment(self, tagger, demo_corpus):
        from perturbe.preprocess import tokenize

        for sample in demo_corpus.samples[:30]:
            tokens = tokenize(sample.intent).tokens
            assert len(tagger.tag(tokens)) == len(tokens)

    def test_determinism(self, tagger):
        tokens = ["Move", "the", "ESI", "register", "to", "0x10"]
        assert tagger.tag(tokens) == tagger.tag(tokens)

    def test_registers_and_names_never_verb(self, tagger):
        tags = tagger.tag(["Store", "EAX", "eax", "0x80", "_start_label", "[esi]"])
        for token_tag in tags[1:]:
            assert token_tag in (PosTag.SYM, PosTag.NUM)

    def test_imperative_rule_only_for_verb_capable(self, tagger):
        # "Stack" leads the sentence but is not verb-capable
        assert tagger.tag(["Stack", "the", "value"])[0] is PosTag.NOUN

    def test_zero_is_imperative_verb_but_adjective_midsentence(self, tagger):
        assert tagger.tag(["Zero", "out", "the", "EAX"])[0] is PosTag.VERB
        assert tagger.tag(["result", "is", "zero"])[2] is PosTag.ADJ

    def test_suffix_fallbacks(self, tagger):
        assert tagger.lexical_tag("frobbing") is PosTag.VERB
        assert tagger.lexical_tag("frobbed") is PosTag.VERB
        assert tagger.lexical_tag("frobly") is PosTag.ADV
        assert tagger.lexical_tag("frobment") is PosTag.NOUN

    def test_unknown_defaults_to_noun(self, tagger):
        assert tagger.lexical_tag("blorp") is PosTag.NOUN

    def test_punctuation_other(self, tagger):
        assert tagger.tag(["push", "eax", ","])[2] is PosTag.OTHER

    def test_empty_rejected(self, tagger):
        with pytest.raises(DataError):
            tagger.tag([])

    def test_lexical_tag_candidates(self, tagger):
        assert tagger.lexical_tag("save") is PosTag.VERB
        assert tagger.lexical_tag("stock") is PosTag.NOUN


class TestLexicalMemo:
    @staticmethod
    def words(demo_corpus):
        corpus_words = {t for s in demo_corpus for t in tokenize(s.intent).tokens}
        return TRICKY_WORDS + sorted(corpus_words)

    def test_matches_reference_twice(self, demo_corpus):
        tagger = helpers.shipped_tagger()
        words = self.words(demo_corpus)
        for _ in range(2):  # the second pass is answered from the memo
            for word in words:
                assert tagger.lexical_tag(word) is helpers.reference_lexical_tag(tagger, word), word
        assert set(tagger._lexical_memo) == set(words)

    def test_lexicon_and_registers_are_required(self):
        with pytest.raises(TypeError):
            LexiconTagger()

    def test_memo_is_per_instance(self):
        custom = LexiconTagger(load_tag_lexicon(), {"blorp"})
        default = helpers.shipped_tagger()
        assert custom.lexical_tag("blorp") is PosTag.SYM
        assert default.lexical_tag("blorp") is PosTag.NOUN
        assert custom.lexical_tag("blorp") is PosTag.SYM

    def test_shared_across_threads(self, demo_corpus):
        tagger = helpers.shipped_tagger()
        words = self.words(demo_corpus)
        expected = {w: helpers.reference_lexical_tag(tagger, w) for w in words}

        def run(seed):
            order = list(words) * 3
            random.Random(seed).shuffle(order)
            return [(w, tagger.lexical_tag(w)) for w in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(run, range(8)))
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert all(tag is expected[w] for w, tag in result)
        assert tagger._lexical_memo == expected


class TestFileTagger:
    def test_override_used(self, tmp_path, tagger):
        path = tmp_path / "tags.jsonl"
        path.write_text(json.dumps({"id": "s1", "tags": ["NOUN", "NOUN"]}) + "\n")
        file_tagger = FileTagger(path, fallback=tagger)
        assert file_tagger.tag(["Store", "eax"], sample_id="s1") == [PosTag.NOUN, PosTag.NOUN]

    def test_fallback_for_unknown_sample(self, tmp_path, tagger):
        path = tmp_path / "tags.jsonl"
        path.write_text(json.dumps({"id": "s1", "tags": ["NOUN"]}) + "\n")
        file_tagger = FileTagger(path, fallback=tagger)
        assert file_tagger.tag(["Store"], sample_id="s2") == [PosTag.VERB]
        assert file_tagger.fallback_count == 1

    def test_length_mismatch_rejected(self, tmp_path, tagger):
        path = tmp_path / "tags.jsonl"
        path.write_text(json.dumps({"id": "s1", "tags": ["NOUN"]}) + "\n")
        file_tagger = FileTagger(path, fallback=tagger)
        with pytest.raises(DataError):
            file_tagger.tag(["a", "b"], sample_id="s1")

    def test_unknown_tag_rejected(self, tmp_path, tagger):
        path = tmp_path / "tags.jsonl"
        path.write_text(json.dumps({"id": "s1", "tags": ["BANANA"]}) + "\n")
        with pytest.raises(DataError):
            FileTagger(path, fallback=tagger)

    def test_lexical_tag_is_the_fallbacks(self, tmp_path, tagger):
        # An override tags one sample's tokens; a word on its own (a
        # substitution candidate) is always tagged by the lexicon.
        path = tmp_path / "tags.jsonl"
        path.write_text(json.dumps({"id": "store", "tags": ["ADJ"]}) + "\n")
        file_tagger = FileTagger(path, fallback=tagger)
        for word in TRICKY_WORDS:
            assert file_tagger.lexical_tag(word) is tagger.lexical_tag(word), word
