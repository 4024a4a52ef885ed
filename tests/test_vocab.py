import json
import math
import os
import random
from dataclasses import replace

import pytest

from perturbe.corpus import load_corpus
from perturbe.errors import ConfigError, DataError
from perturbe.postag import PosTag, load_tag_lexicon
from perturbe.preprocess import load_stopwords
from perturbe.vocab import (
    FrequencyTable,
    Vocabulary,
    build_vocabulary,
    count_frequencies,
    is_name_like,
    is_protected,
    load_registers,
    load_vocabulary,
    mine_vocabulary,
    save_vocabulary,
)

import helpers

REAL_DATASET = os.environ.get("PERTURBE_DATASET")


class TestCounting:
    def test_direct_count(self):
        table = count_frequencies(["push eax push ebx"], stoplist=set())
        assert table.counts == {"push": 2, "eax": 1, "ebx": 1}
        assert table.unique_count == 3

    def test_only_stopwords(self):
        table = count_frequencies(["the each onto"], stoplist={"the", "each", "onto"})
        assert table.counts == {}
        assert table.unique_count == 0

    def test_stopwords_excluded_case_insensitive(self):
        table = count_frequencies(["The stack holds The value"], stoplist={"the"})
        assert "The" not in table.counts and "the" not in table.counts
        assert table.counts["stack"] == 1

    @pytest.mark.skipif(REAL_DATASET is None, reason="set PERTURBE_DATASET to run")
    def test_real_dataset_unique_tokens(self):
        corpus = load_corpus(REAL_DATASET)
        table = count_frequencies((s.intent for s in corpus), load_stopwords())
        assert table.unique_count == 2855


class TestBuildVocabulary:
    def test_word_absent_from_comparison_included_as_structure(self):
        codegen = FrequencyTable({"register": 120, "push": 30})
        comparison = FrequencyTable({"walk": 5, "tree": 2})
        vocab = build_vocabulary(codegen, comparison, registers=set())
        assert "register" in vocab.structure_words

    def test_register_name_included_as_name_word(self):
        codegen = FrequencyTable({"EAX": 40, "move": 10})
        comparison = FrequencyTable({"move": 50, "walk": 5})
        vocab = build_vocabulary(codegen, comparison, registers={"eax"})
        assert "EAX" in vocab.name_words

    def test_ratio_arithmetic(self):
        # codegen ratio 50/10 = 5; comparison ratio 1/1000 = 0.001
        # 5 >= 50 * 0.001 -> included
        codegen = FrequencyTable({"a": 50, **{f"w{i}": 1 for i in range(9)}})
        comparison = FrequencyTable({"a": 1, **{f"c{i}": 1 for i in range(999)}})
        vocab = build_vocabulary(codegen, comparison, registers=set())
        assert is_protected("a", vocab)

    def test_ratio_below_threshold_excluded(self):
        # codegen ratio 2/10 = 0.2 < 50 * (5/10 = 0.5)
        codegen = FrequencyTable({"move": 2, **{f"w{i}": 1 for i in range(9)}})
        comparison = FrequencyTable({"move": 5, **{f"c{i}": 1 for i in range(9)}})
        vocab = build_vocabulary(codegen, comparison, registers=set())
        assert not is_protected("move", vocab)

    def test_monotonic_in_threshold(self):
        codegen = FrequencyTable(
            {"alpha": 30, "beta": 10, "gamma": 4, "delta": 2, "epsilon": 1}
        )
        comparison = FrequencyTable(
            {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1, "other": 40}
        )
        sizes = []
        for threshold in (1, 5, 20, 50, 200):
            vocab = build_vocabulary(codegen, comparison, threshold=threshold, registers=set())
            included = vocab.structure_words | vocab.name_words
            sizes.append(included)
        for smaller, bigger in zip(sizes[1:], sizes):
            assert smaller <= bigger

    def test_partition_is_disjoint_and_total(self, demo_vocab):
        assert not (demo_vocab.structure_words & demo_vocab.name_words)

    def test_vocabulary_words_occur_in_codegen(self, demo_vocab, demo_corpus, stopwords):
        table = count_frequencies((s.intent for s in demo_corpus), stopwords)
        lowered = {w.lower() for w in table.counts}
        for word in demo_vocab.structure_words | demo_vocab.name_words:
            assert word.lower() in lowered

    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            build_vocabulary(FrequencyTable({}), FrequencyTable({"a": 1}), registers=set())

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, -0.5, math.inf, -math.inf])
    def test_threshold_not_finite_or_negative_rejected(self, threshold):
        codegen = FrequencyTable({"register": 3, "move": 1})
        with pytest.raises(ConfigError, match="threshold"):
            build_vocabulary(codegen, FrequencyTable({"move": 9}), threshold, registers=set())

    def test_threshold_zero_accepted(self):
        codegen = FrequencyTable({"register": 3, "move": 1})
        vocab = build_vocabulary(codegen, FrequencyTable({"move": 9}), 0.0, registers=set())
        assert vocab.structure_words == {"register", "move"}


class TestBuildVocabularyDifferential:
    """One grouping pass gives the reference's vocabulary exactly."""

    def test_case_variants(self):
        codegen = FrequencyTable(
            {
                "EAX": 30, "eax": 12, "Eax": 3, "Stack": 4, "stack": 20, "STACK": 1,
                "Move": 2, "move": 9, "register": 40, "Register": 5, "esi": 7, "ESI": 8,
                "_loop": 3, "Label1": 2, "label1": 1, "walk": 1, "Walk": 1,
            }
        )
        comparison = FrequencyTable({"move": 40, "walk": 60, "stack": 1, "Tree": 3})
        for threshold in (0.5, 5.0, 50.0, 500.0):
            got = build_vocabulary(codegen, comparison, threshold, registers={"eax", "esi"})
            expected = helpers.reference_build_vocabulary(
                codegen, comparison, threshold, registers={"eax", "esi"}
            )
            assert got == expected, threshold
        got = build_vocabulary(codegen, comparison, 5.0, registers={"eax", "esi"})
        assert {"EAX", "eax", "Eax"} <= got.name_words
        assert "stack" in got.structure_words and "STACK" in got.name_words

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_case_variant_tables(self, seed):
        rng = random.Random(seed)
        stems = ["stack", "eax", "push", "label", "x1", "reg", "walk", "tree", "byte", "ebp"]

        def variants():
            stem = rng.choice(stems)
            return "".join(c.upper() if rng.random() < 0.4 else c for c in stem)

        codegen = FrequencyTable({variants(): rng.randint(1, 50) for _ in range(60)})
        comparison = FrequencyTable({variants(): rng.randint(1, 50) for _ in range(20)})
        for threshold in (0.1, 1.0, 10.0):
            assert build_vocabulary(
                codegen, comparison, threshold, registers={"eax", "ebp"}
            ) == helpers.reference_build_vocabulary(
                codegen, comparison, threshold, registers={"eax", "ebp"}
            )

    def test_demo_corpus(self, demo_corpus, stopwords, demo_vocab):
        from importlib import resources

        codegen = count_frequencies((s.intent for s in demo_corpus), stopwords)
        text = resources.files("perturbe.data").joinpath("comparison_corpus.txt").read_text("utf-8")
        comparison = count_frequencies(text.splitlines(), stopwords)
        expected = helpers.reference_build_vocabulary(
            codegen, comparison, registers=load_registers()
        )
        assert demo_vocab == replace(expected, stopwords=stopwords, tag_lexicon=load_tag_lexicon())


LEXICON = ({"push": PosTag.VERB, "stack": PosTag.NOUN}, {"push"})


class TestMineVocabulary:
    def test_counts_both_corpora(self, tmp_path):
        comparison = tmp_path / "comparison.txt"
        comparison.write_text("walk the dog\npush the cart\n")
        texts = ["push the EAX register", "push the stack"]
        vocab = mine_vocabulary(
            texts, {"the"}, {"eax"}, comparison=comparison, threshold=3.0, tag_lexicon=LEXICON
        )
        built = build_vocabulary(
            count_frequencies(texts, {"the"}),
            count_frequencies(["walk the dog", "push the cart"], {"the"}),
            threshold=3.0,
            registers={"eax"},
        )
        assert vocab == replace(built, stopwords={"the"}, tag_lexicon=LEXICON)
        assert vocab.structure_words == {"register", "stack"}
        assert vocab.name_words == {"EAX"}

    def test_records_its_register_list(self, tmp_path):
        comparison = tmp_path / "comparison.txt"
        comparison.write_text("walk the dog\n")
        vocab = mine_vocabulary(
            ["push the EAX register"], {"the"}, {"eax", "push"}, comparison, tag_lexicon=LEXICON
        )
        assert vocab.registers == {"eax", "push"}
        assert vocab.name_words == {"EAX", "push"}
        # The stoplist and the tag lexicon are recorded next to the registers.
        assert (vocab.stopwords, vocab.tag_lexicon) == ({"the"}, LEXICON)


class TestLoadRegisters:
    def test_user_file_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "registers.txt"
        path.write_text("# IA-32\n  # indented comment\nEAX\n\n  esi  \n\t#tabbed\n")
        assert load_registers(path) == {"eax", "esi"}


class TestNamePredicate:
    def test_examples(self):
        registers = load_registers()
        assert is_name_like("EAX", registers)
        assert is_name_like("eax", registers)
        assert is_name_like("0xBB", registers)
        assert is_name_like("_start_label", registers)
        assert is_name_like("[esi]", registers)
        assert not is_name_like("register", registers)
        assert not is_name_like("Store", registers)
        assert not is_name_like("", registers)


class TestIsProtected:
    def test_structure_case_insensitive(self, demo_vocab):
        assert is_protected("pointer", demo_vocab)
        assert is_protected("Pointer", demo_vocab)

    def test_general_verb_not_protected(self, demo_vocab):
        assert not is_protected("store", demo_vocab)
        assert not is_protected("Store", demo_vocab)

    def test_name_case_sensitive(self):
        vocab = Vocabulary(structure_words=set(), name_words={"ESI"})
        assert is_protected("ESI", vocab)
        assert not is_protected("esi", vocab)

    def test_empty_string(self, demo_vocab):
        assert not is_protected("", demo_vocab)


class TestSerialization:
    def test_round_trip(self, tmp_path, demo_vocab):
        path = tmp_path / "vocab.json"
        save_vocabulary(demo_vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.structure_words == demo_vocab.structure_words
        assert loaded.name_words == demo_vocab.name_words
        assert loaded.ratio_threshold == demo_vocab.ratio_threshold
        assert loaded.registers == demo_vocab.registers == load_registers()
        assert loaded == demo_vocab

    def test_registers_written_sorted(self, tmp_path):
        # So are the stopwords and the tag lexicon's words.
        path = tmp_path / "vocab.json"
        lexicon = ({"stack": PosTag.NOUN, "push": PosTag.VERB}, {"push", "copy"})
        vocab = Vocabulary(
            name_words={"ESI"}, registers={"esi", "eax", "ah"}, stopwords={"the", "a"},
            tag_lexicon=lexicon,
        )
        save_vocabulary(vocab, path)
        payload = json.loads(path.read_text())
        assert payload["registers"] == ["ah", "eax", "esi"]
        assert payload["stopwords"] == ["a", "the"]
        assert payload["tag_lexicon"] == {
            "primary": {"push": "VERB", "stack": "NOUN"},
            "verb_capable": ["copy", "push"],
        }
        assert list(payload["tag_lexicon"]["primary"]) == ["push", "stack"]
        assert load_vocabulary(path) == vocab

    def test_missing_registers_list_rejected(self, tmp_path):
        # A vocabulary must record the registers, stopwords and tag lexicon
        # it was mined with.
        path = tmp_path / "vocab.json"
        complete = {
            "structure": ["stack"], "name": ["EAX"], "threshold": 50.0, "registers": ["eax"],
            "stopwords": ["the"], "tag_lexicon": {"primary": {"push": "VERB"}, "verb_capable": []},
        }
        path.write_text(json.dumps(complete))
        assert load_vocabulary(path).tag_lexicon == ({"push": PosTag.VERB}, set())
        for key, reason in (
            ("registers", "missing 'registers' list"),
            ("stopwords", "missing 'stopwords' list"),
            ("tag_lexicon", "missing 'tag_lexicon' object"),
        ):
            path.write_text(json.dumps({k: v for k, v in complete.items() if k != key}))
            with pytest.raises(DataError, match=reason):
                load_vocabulary(path)
        # A string is not a word list: set("the") would be three letters.
        for key, value, reason in (
            ("stopwords", "the", "'stopwords' must be a list of strings"),
            ("registers", ["eax", 1], "'registers' must be a list of strings"),
            ("tag_lexicon", [], "missing 'tag_lexicon' object"),
            ("tag_lexicon", {"primary": {}}, "'tag_lexicon': missing 'verb_capable' list"),
            ("tag_lexicon", {"verb_capable": []}, "'tag_lexicon' needs a 'primary' object"),
            ("tag_lexicon", {"primary": {"push": "VRB"}, "verb_capable": []}, "'primary' object"),
        ):
            path.write_text(json.dumps({**complete, key: value}))
            with pytest.raises(DataError, match=reason):
                load_vocabulary(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "vocab.json"
        for text, reason in (("{not json", "invalid JSON"), ("5", "expected a JSON object")):
            path.write_text(text)
            with pytest.raises(DataError, match=reason):
                load_vocabulary(path)
