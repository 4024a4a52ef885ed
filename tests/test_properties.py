"""Property tests over the CLI's configuration surface."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    """Every key at its valid value, except up to two that are absent (None)
    or hold drawn text or numbers."""
    values = dict(_VALID)
    for key in draw(st.lists(st.sampled_from(sorted(_VALID)), max_size=2, unique=True)):
        values[key] = draw(st.one_of(st.none(), _JUNK))
    return values


def test_valid_values_cover_every_key():
    assert set(_VALID) == set(_MATRIX_KEYS)


@settings(
    derandomize=True,
    max_examples=40,
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
        assert main(["matrix", "--config", str(config)]) in (0, 1, 2)
