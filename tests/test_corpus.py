import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbe.corpus import Corpus, Sample, SplitSpec, load_corpus, save_corpus, split_corpus
from perturbe.errors import ConfigError, DataError

ZERO_REGS_PAIR = {
    "id": "s1",
    "intent": "Zero out the EAX and ECX registers.",
    "snippet": "xor ecx, ecx \\n mul ecx",
}


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def make_corpus(n, prefix="s"):
    return Corpus(
        [Sample(f"{prefix}{i:05d}", f"intent number {i}", f"mov eax, {i}") for i in range(n)]
    )


class TestLoad:
    def test_single_jsonl_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [ZERO_REGS_PAIR])
        corpus = load_corpus(path)
        assert len(corpus) == 1
        sample = corpus.samples[0]
        assert sample.intent == "Zero out the EAX and ECX registers."
        assert sample.snippet == "xor ecx, ecx \\n mul ecx"
        assert sample.multi_line is True

    def test_single_line_snippet_not_multi(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "intent": "push eax", "snippet": "push eax"}])
        assert load_corpus(path).samples[0].multi_line is False

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert len(load_corpus(path)) == 0

    def test_duplicate_id_names_offender(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "intent": "x", "snippet": "y"},
                {"id": "a", "intent": "z", "snippet": "w"},
            ],
        )
        with pytest.raises(DataError, match="'a'"):
            load_corpus(path)

    def test_missing_id_synthesized(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"intent": "a", "snippet": "b"}, {"intent": "c", "snippet": "d"}])
        corpus = load_corpus(path)
        assert corpus.ids() == ["000000", "000001"]

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "intent": "x", "snippet": "y"}\n{broken\n')
        with pytest.raises(DataError, match=":2"):
            load_corpus(path)

    def test_empty_intent_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "intent": "   ", "snippet": "y"}])
        with pytest.raises(DataError, match="intent"):
            load_corpus(path)

    def test_csv_round(self, tmp_path):
        corpus = Corpus(
            [
                Sample("a", 'intent with "quotes", and commas', "mov eax, 1"),
                Sample("b", "plain", "xor ecx, ecx \\n mul ecx"),
            ]
        )
        path = tmp_path / "c.csv"
        save_corpus(corpus, path)
        assert path.read_text("utf-8").splitlines()[0] == "id,intent,snippet"
        loaded = load_corpus(path)
        assert [(s.id, s.intent, s.snippet) for s in loaded] == [
            (s.id, s.intent, s.snippet) for s in corpus
        ]

    @pytest.mark.parametrize(
        "name, csv", [("c.csv", True), ("c.CSV", True), ("c.jsonl", False), ("c.txt", False)]
    )
    def test_suffix_picks_format(self, tmp_path, name, csv):
        corpus = make_corpus(3)
        path = tmp_path / name
        save_corpus(corpus, path)
        first = path.read_text("utf-8").splitlines()[0]
        assert first == ("id,intent,snippet" if csv else json.dumps(
            {"id": "s00000", "intent": "intent number 0", "snippet": "mov eax, 0"}
        ))
        assert load_corpus(path).samples == corpus.samples

    def test_csv_byte_order_mark_is_not_part_of_the_id_column(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfid,intent,snippet\r\nx1,Push EAX.,push eax\r\n")
        assert [(s.id, s.intent, s.snippet) for s in load_corpus(path)] == [
            ("x1", "Push EAX.", "push eax")
        ]


class TestRoundTrip:
    def test_jsonl_round_trip_multiline_pair(self, tmp_path):
        corpus = Corpus(
            [
                Sample(
                    "t1",
                    "Perform the xor between BL register and 0xBB and jump to the label "
                    "formatting if the result is zero else move the current byte of the "
                    "shellcode in the CL register.",
                    "xor bl, 0xBB \\n jz formatting \\n mov cl, byte [esi]",
                ),
                Sample("t2", ZERO_REGS_PAIR["intent"], ZERO_REGS_PAIR["snippet"]),
            ]
        )
        path = tmp_path / "t.jsonl"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert [(s.id, s.intent, s.snippet) for s in loaded] == [
            (s.id, s.intent, s.snippet) for s in corpus
        ]

    def test_newline_marker_survives_escaping(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_corpus(Corpus([Sample("a", "two steps", "push eax \\n pop ebx")]), path)
        raw = path.read_text()
        assert "\\\\n" in raw  # JSON escapes the backslash
        assert load_corpus(path).samples[0].snippet == "push eax \\n pop ebx"

    def test_empty_corpus_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_corpus(Corpus([]), path)
        assert len(load_corpus(path)) == 0


class TestById:
    def test_lookup(self):
        corpus = make_corpus(50)
        assert corpus.by_id("s00037") is corpus.samples[37]

    def test_missing_id_raises_key_error(self):
        corpus = make_corpus(3)
        with pytest.raises(KeyError):
            corpus.by_id("s99999")


class TestSplit:
    def test_sizes_n10(self):
        corpus = make_corpus(10)
        train, val, test = split_corpus(corpus, SplitSpec(seed=7))
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_sizes_n5900(self):
        corpus = make_corpus(5900)
        train, val, test = split_corpus(corpus, SplitSpec(seed=1))
        assert (len(train), len(val), len(test)) == (4720, 590, 590)

    def test_partition_exhaustive_disjoint(self):
        corpus = make_corpus(53)
        train, val, test = split_corpus(corpus, SplitSpec(seed=3))
        ids = [set(c.ids()) for c in (train, val, test)]
        assert ids[0] | ids[1] | ids[2] == set(corpus.ids())
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])

    def test_order_independence(self):
        # same seed, shuffled input order -> identical id sets per split
        samples = [Sample(f"s{i:03d}", f"intent {i}", f"mov eax, {i}") for i in range(40)]
        shuffled = samples[:]
        random.Random(99).shuffle(shuffled)
        split_a = split_corpus(Corpus(samples), SplitSpec(seed=5))
        split_b = split_corpus(Corpus(shuffled), SplitSpec(seed=5))
        for a, b in zip(split_a, split_b):
            assert set(a.ids()) == set(b.ids())

    def test_same_seed_identical_partition(self):
        corpus = make_corpus(200)
        first = split_corpus(corpus, SplitSpec(seed=11))
        second = split_corpus(corpus, SplitSpec(seed=11))
        for a, b in zip(first, second):
            assert a.ids() == b.ids()

    def test_invalid_ratios(self):
        with pytest.raises(ConfigError):
            SplitSpec(train_ratio=0.5, val_ratio=0.2, test_ratio=0.2)
        with pytest.raises(ConfigError):
            SplitSpec(train_ratio=1.0, val_ratio=0.0, test_ratio=0.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            split_corpus(Corpus([]), SplitSpec(seed=0))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=3, max_value=400), seed=st.integers(0, 2**32))
    def test_partition_property(self, n, seed):
        corpus = make_corpus(n)
        train, val, test = split_corpus(corpus, SplitSpec(seed=seed))
        assert len(train) + len(val) + len(test) == n
        assert set(train.ids()) | set(val.ids()) | set(test.ids()) == set(corpus.ids())
        assert len(set(train.ids()) | set(val.ids()) | set(test.ids())) == n
