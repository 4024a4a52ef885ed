import pytest

from perturbe.postag import load_tag_lexicon
from perturbe.preprocess import load_stopwords
from perturbe.vocab import load_registers, mine_vocabulary

import helpers


@pytest.fixture(scope="session")
def stopwords():
    return load_stopwords()


@pytest.fixture(scope="session")
def tagger():
    return helpers.shipped_tagger()


@pytest.fixture(scope="session")
def golden_store():
    return helpers.golden_store()


@pytest.fixture(scope="session")
def golden_vocab():
    return helpers.golden_vocabulary()


@pytest.fixture(scope="session")
def demo_corpus():
    return helpers.load_demo_corpus()


@pytest.fixture(scope="session")
def demo_store():
    return helpers.demo_store()


@pytest.fixture(scope="session")
def demo_vocab(demo_corpus, stopwords):
    return mine_vocabulary(
        (s.intent for s in demo_corpus), stopwords, load_registers(), tag_lexicon=load_tag_lexicon()
    )
