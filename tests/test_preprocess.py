import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbe.errors import DataError
from perturbe.preprocess import TokenizedIntent, detokenize, load_stopwords, tokenize


class TestTokenize:
    def test_imperative_intent_with_period(self):
        t = tokenize("Store the shellcode pointer in the ESI register.")
        assert t.tokens == [
            "Store", "the", "shellcode", "pointer", "in", "the", "ESI", "register", ".",
        ]

    def test_hex_literal_kept_whole(self):
        assert tokenize("copy 0x4 into the BL register").tokens == [
            "copy", "0x4", "into", "the", "BL", "register",
        ]

    def test_bracketed_operand_kept_whole(self):
        assert tokenize("mov cl, byte [esi]").tokens == ["mov", "cl", ",", "byte", "[esi]"]

    def test_underscore_identifier_kept_whole(self):
        assert tokenize("jump to _start_label now").tokens == [
            "jump", "to", "_start_label", "now",
        ]

    def test_case_preserved(self):
        assert tokenize("EAX eax Eax").tokens == ["EAX", "eax", "Eax"]

    def test_whitespace_only_gives_empty(self):
        assert tokenize("   \t ").tokens == []

    def test_hand_built_empty_token_is_refused(self):
        with pytest.raises(DataError, match=r"^intent 's1': empty token$"):
            TokenizedIntent(["mov", "", "eax"], source_id="s1")

    @settings(max_examples=100, deadline=None)
    @given(
        st.text(
            alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Po", "Ps", "Pe")),
            min_size=1,
            max_size=60,
        )
    )
    def test_idempotent_under_join(self, text):
        once = tokenize(text).tokens
        again = tokenize(" ".join(once)).tokens
        assert once == again

    def test_idempotent_on_domain_text(self):
        for text in (
            "mov cl, byte [esi]",
            "Store the shellcode pointer in the ESI register.",
            "xor bl, 0xBB \\n jz formatting",
            "push dword 0x74652f2f onto the stack",
        ):
            once = tokenize(text).tokens
            assert tokenize(" ".join(once)).tokens == once


class TestDetokenize:
    def test_reattaches_period(self):
        tokens = tokenize("Save the pointer in the ESI register.").tokens
        assert detokenize(tokens) == "Save the pointer in the ESI register."

    def test_reattaches_comma(self):
        assert detokenize(["mov", "cl", ",", "byte", "[esi]"]) == "mov cl, byte [esi]"


class TestStopwords:
    def test_shipped_list_has_paper_examples(self, stopwords):
        assert {"the", "each", "onto"} <= stopwords

    def test_custom_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nfoo\nBAR\n")
        assert load_stopwords(path) == {"foo", "bar"}

