"""Property tests over the CLI's configuration surface."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perturbe._util import sha256_file
from perturbe.cli import _MATRIX_KEYS, main
from perturbe.corpus import Corpus, save_corpus

import helpers

# Config values must survive read_config: no line breaks and no '#'. No '/'
# either, so a drawn out_dir stays inside the test's directory.
_TEXT = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"), blacklist_characters="#/"),
    max_size=12,
)
_JUNK = st.one_of(
    _TEXT,
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.floats().map(str),
)
# Augmentation ratios in [0, 1], as any float or in thousandths as configs
# write them; two may share a cell id, which names p in whole percents.
_RATIO = st.one_of(
    st.floats(min_value=0.0, max_value=1.0), st.integers(0, 1000).map(lambda n: n / 1000)
)
_RATIOS = st.lists(_RATIO, max_size=4).map(lambda ratios: ",".join(map(str, ratios)))
_PATH_KEYS = ("corpus", "vectors", "stopwords", "registers", "comparison", "tag_lexicon")
# A value each key accepts; a path key's value is relative to the inputs.
_VALID = {
    "corpus": "corpus.jsonl",
    "out_dir": "",
    "seed": "5",
    "vectors": "vectors.txt",
    "split.ratios": "0.6,0.2,0.2",
    "stopwords": "",
    "registers": "",
    "comparison": "",
    "vocab.threshold": "50",
    "tag_lexicon": "",
    "kinds": "substitution,omission",
    "ratios": "0,0.5,1",
    "subst.ratio": "0.2",
    "subst.k": "5",
    "subst.tau": "0.5",
    "gate.threshold": "0.5",
    "apply_to_validation": "false",
}


@pytest.fixture(scope="module")
def matrix_inputs(tmp_path_factory):
    """A 20-sample corpus and the demo vector file."""
    root = tmp_path_factory.mktemp("matrix_inputs")
    save_corpus(Corpus(helpers.load_demo_corpus().samples[:20]), root / "corpus.jsonl")
    helpers.write_vector_file(helpers.demo_vectors(), root / "vectors.txt")
    return root


@st.composite
def _config_values(draw):
    """Every key at its valid value, except drawn ``ratios`` and up to two
    keys that are absent (None) or hold drawn text or numbers."""
    values = dict(_VALID, ratios=draw(_RATIOS))
    for key in draw(st.lists(st.sampled_from(sorted(_VALID)), max_size=2, unique=True)):
        values[key] = draw(st.one_of(st.none(), _JUNK))
    return values


def test_valid_values_cover_every_key():
    assert set(_VALID) == set(_MATRIX_KEYS)


@settings(
    derandomize=True,
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(values=_config_values())
def test_matrix_never_ends_in_a_traceback(matrix_inputs, values):
    with tempfile.TemporaryDirectory() as tmp:
        lines = []
        for key, value in values.items():
            if value is None:
                continue
            if key in _PATH_KEYS and value:
                value = f"{matrix_inputs}/{value}"
            elif key == "out_dir":
                value = f"{tmp}/out/{value}"
            lines.append(f"{key} = {value}\n")
        config = Path(tmp) / "exp.cfg"
        config.write_text("".join(lines), "utf-8")
        code = main(["matrix", "--config", str(config)])
        assert code in (0, 1, 2)
        if code == 0:
            out = Path(f"{tmp}/out/{values['out_dir']}")
            cells = json.loads((out / "manifest.json").read_text())["cells"]
            assert len({cell["id"] for cell in cells}) == len(cells)
            for cell in cells:
                for split_name, rel in cell["paths"].items():
                    assert sha256_file(out / rel) == cell["sha256"][split_name]
