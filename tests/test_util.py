import json

import pytest

import helpers
from perturbe._util import read_data_lines, write_jsonl
from perturbe.corpus import Corpus, Sample, save_corpus
from perturbe.embedding import PrecomputedEncoder
from perturbe.errors import DataError
from perturbe.metrics import load_labels, load_predictions
from perturbe.perturb import GATE_PASS, PerturbationRecord, PerturbKind, write_records
from perturbe.postag import FileTagger

# Non-ASCII text, quotes, backslashes, the two-character snippet marker, a
# real newline and tab, control characters, Unicode line and space
# separators, and an astral-plane character.
TEXTS = [
    "déplacer la valeur dans le registre EAX",
    "将 0x4 移入 寄存器 BL",
    'say "hello" and \'bye\'',
    "xor eax, eax \\n push eax \\n pop ebx",
    "line one\nline two\ttabbed",
    "bell \x07 escape \x1b separators \u2028 \u00a0 emoji \U0001f600",
    "back\\slash / slash",
]


def expected_lines(rows):
    return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows).encode("utf-8")


class TestReadDataLines:
    TEXT = "# header\n\n  alpha  \n\t# indented\nbeta # not a comment\n"

    def test_list_rule(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text(self.TEXT)
        assert read_data_lines(path, "stopwords.txt") == ["alpha", "beta # not a comment"]

    def test_raw_lines(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text(self.TEXT)
        assert read_data_lines(path, "stopwords.txt", raw=True) == self.TEXT.splitlines()

    def test_unset_path_reads_shipped_file(self):
        for unset in (None, ""):
            assert "the" in read_data_lines(unset, "stopwords.txt")


class TestReadJsonl:
    @pytest.mark.parametrize(
        "read, fields",
        [
            (load_predictions, "id and prediction"),
            (load_labels, "id and correct"),
            (PrecomputedEncoder, "id and vec"),
            (lambda path: FileTagger(path, fallback=helpers.shipped_tagger()), "id and tags"),
        ],
    )
    def test_missing_field_names_the_line(self, tmp_path, read, fields):
        path = tmp_path / "in.jsonl"
        full = {"id": "a", "prediction": "nop", "correct": True, "vec": [1.0], "tags": ["NOUN"]}
        path.write_text(json.dumps(full) + "\n" + json.dumps({"id": "b"}) + "\n")
        with pytest.raises(DataError) as excinfo:
            read(path)
        assert str(excinfo.value) == f"{path}:2: expected {fields} fields"


class TestWriteJsonl:
    def test_matches_json_dumps_lines(self, tmp_path):
        rows = [
            {"id": str(i), "text": text, "n": i, "x": i / 3, "flag": i % 2 == 0, "none": None,
             "list": [text, i, [1.5, None]]}
            for i, text in enumerate(TEXTS)
        ]
        rows.append(
            {"nan": float("nan"), "inf": [float("inf"), -float("inf")], "big": 10**30,
             "neg0": -0.0, "nested": {"é": {"k": [True, False]}}, 3: "int key", "empty": {}}
        )
        path = tmp_path / "deep" / "rows.jsonl"
        write_jsonl(path, iter(rows))
        assert path.read_bytes() == expected_lines(rows)

    def test_unserializable_value_raises_as_json_dumps(self, tmp_path):
        row = {"id": "a", "value": {1, 2}}
        with pytest.raises(TypeError) as expected:
            json.dumps(row, ensure_ascii=False)
        with pytest.raises(TypeError) as raised:
            write_jsonl(tmp_path / "rows.jsonl", [row])
        assert str(raised.value) == str(expected.value)

    def test_empty_input_writes_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_jsonl(path, [])
        assert path.read_bytes() == b""

    def test_save_corpus_bytes(self, tmp_path):
        corpus = Corpus([Sample(f"s{i}", text, text[::-1]) for i, text in enumerate(TEXTS)])
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        assert path.read_bytes() == expected_lines(
            {"id": s.id, "intent": s.intent, "snippet": s.snippet} for s in corpus
        )

    def test_write_records_bytes(self, tmp_path):
        records = [
            PerturbationRecord(
                sample_id=f"s{i}",
                kind=PerturbKind.OMIT_NAME,
                original_intent=text,
                perturbed_intent=text + " ü",
                changed_positions=[0, i],
                similarity=float("nan") if i == 0 else 0.9 + i / 100,
                gate_pass=GATE_PASS,
            )
            for i, text in enumerate(TEXTS)
        ]
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        rows = [
            {
                "id": r.sample_id,
                "kind": r.kind.value,
                "original": r.original_intent,
                "perturbed": r.perturbed_intent,
                "changed": r.changed_positions,
                "similarity": None if i == 0 else r.similarity,
                "gate": r.gate_pass,
            }
            for i, r in enumerate(records)
        ]
        assert path.read_bytes() == expected_lines(rows)
