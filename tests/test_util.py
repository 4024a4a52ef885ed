import json
import json.scanner
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from perturbe import _util
from perturbe._util import read_data_lines, read_jsonl, write_jsonl
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


# One line of each kind a JSONL input can hold: objects and other values, NaN
# and infinities, big ints (the last one past int()'s digit limit), duplicate
# keys, escaped and raw non-ASCII text, a BOM, JSON and other whitespace
# around a value ("\r" also ends a line in text mode), trailing garbage,
# truncation, and blank and whitespace-only lines.
_NAMED_LINES = [
    '{"id": "a", "vec": [1.0]}', '{"id": 1, "id": 2}', '{"id": NaN, "vec": [Infinity, -Infinity]}',
    '{"id": 123456789012345678901234567890}', '{"id": ' + "9" * 4301 + "}", '[1, 2]', '"s"', "NaN",
    '{"id": "é\u2028\x85\xa0"}', '{"id": "\\u00e9\\u2028"}', '\ufeff{"id": 1}', '\x0c{"id": 1}',
    '{"id": 1}\x0c', '\t {"id": 1} \t', '\xa0{"id": 1}', '{"id": 1}\u2028', '\r{"id": 1}\r',
    '{"id": 1} x', '{"id": 1}{}', '{"id": 1', '{"id": "a', '{"vec": []}', "", "  \t", "\x0c", "\u2028",
]
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_KEYS = st.sampled_from(["id", "vec", "tags"]) | _TEXT
_SCALARS = (
    st.none() | st.booleans() | st.floats() | st.integers(-(2**80), 2**80)
    | _TEXT | st.sampled_from(["\u2028", "\x85", "\xa0", "é"])
)
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6,
)
_JSON = st.one_of(
    st.tuples(st.dictionaries(_KEYS, _VALUES, max_size=4) | _VALUES, st.booleans()).map(
        lambda drawn: json.dumps(drawn[0], ensure_ascii=drawn[1])
    ),
    st.sampled_from(_NAMED_LINES),
)
# Around a value, most often nothing.
_PADS = st.sampled_from(["", "", "", "", " ", "\t ", "\r", "\x0c", "\xa0", "\u2028", "\x85"])


@st.composite
def _lines(draw):
    """One line: padded JSON text, maybe truncated or followed by garbage, or
    only padding; a BOM in front of a quarter of them."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_PADS)
    text = draw(_JSON)
    cut = draw(st.sampled_from(["", "", "", "", "truncate", "garbage"]))
    if cut == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    elif cut == "garbage":
        text += draw(st.sampled_from(["x", "}", "]", ",", " {}", "\x00"]))
    bom = draw(st.sampled_from(["", "", "", "\ufeff"]))
    return bom + draw(_PADS) + text + draw(_PADS)


def _assert_same(scanner, lines, required):
    """``read_jsonl``, with json's C or pure-Python scanner, yields what the
    reference yields (compared by repr, so NaN equals NaN) or raises its error."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if scanner == "python":
            mp.setattr(_util, "_scan_once", json.scanner.py_make_scanner(json.JSONDecoder()))
        path = Path(tmp) / "in.jsonl"
        path.write_text("\n".join(lines) + "\n", "utf-8")
        outcomes = []
        for read in (read_jsonl, helpers.reference_read_jsonl):
            try:
                outcomes.append(repr(list(read(path, required))))
            except Exception as exc:  # noqa: BLE001 - the error itself is compared
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


class TestReadJsonlMatchesReference:
    def test_scanner_is_the_c_one(self):
        assert json.scanner.c_make_scanner is not None
        assert isinstance(_util._scan_once, json.scanner.c_make_scanner)

    @pytest.mark.parametrize("scanner", ["c", "python"])
    def test_named_lines(self, scanner):
        # Each on its own, so that no earlier line's error hides it.
        for line in _NAMED_LINES:
            _assert_same(scanner, ["", line, '{"id": "z"}'], ("id",))

    @pytest.mark.parametrize("scanner", ["c", "python"])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        lines=st.lists(_lines(), min_size=1, max_size=4),
        required=st.sampled_from([(), ("id",), ("id", "vec")]),
    )
    def test_same_records_or_error(self, scanner, lines, required):
        _assert_same(scanner, lines, required)


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
