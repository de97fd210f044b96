import numpy as np
import pytest

from tokalign import (
    AlignConfig,
    MaskCache,
    PretokenizeOptions,
    SamplerConfig,
    Vocabulary,
    build_ngram_model,
    build_trie,
    fixtures,
    train_tiny_bpe,
)

TRAIN_OPTIONS = PretokenizeOptions(space_prefix=True, group_whitespace=True)


@pytest.fixture(scope="session")
def code_corpus():
    return fixtures.build_code_corpus()


@pytest.fixture(scope="session")
def code_texts(code_corpus):
    return [text for _, text in code_corpus]


@pytest.fixture(scope="session")
def trained_vocab(code_texts):
    return train_tiny_bpe(code_texts, 512, TRAIN_OPTIONS)


@pytest.fixture(scope="session")
def ngram_provider(code_texts, trained_vocab):
    return build_ngram_model(code_texts, trained_vocab, order=3, alpha=0.1)


@pytest.fixture(scope="session")
def trained_trie(trained_vocab):
    return build_trie(trained_vocab)


@pytest.fixture()
def trained_cache(trained_trie):
    return MaskCache(trained_trie)


@pytest.fixture(scope="session")
def demo_vocab():
    return fixtures.build_demo_vocabulary()


@pytest.fixture(scope="session")
def demo_model(demo_vocab):
    return fixtures.build_demo_model(demo_vocab)


@pytest.fixture()
def greedy_cfg():
    return SamplerConfig(mode="greedy", max_new_tokens=16)


@pytest.fixture()
def default_align_cfg():
    return AlignConfig()


def byte_vocab(extra=(), merges=None, specials=(), pretokenize=None):
    """All 256 single-byte tokens plus the given extras."""
    tokens = [bytes([i]) for i in range(256)] + [bytes(t) for t in extra]
    return Vocabulary(tokens, merges=merges, specials=specials, pretokenize=pretokenize)


class FixedDraw:
    """A generator stand-in whose draw is a chosen value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


# Draws at both ends of [0, 1) and in its middle.  A nucleus cut that keeps
# a different mass draws a different id at the last of them, unless the two
# masses differ only in their last bits.
EDGE_DRAWS = (0.0, 0.5, float(np.nextafter(1.0, 0.0)))
