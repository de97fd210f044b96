"""Per-token work calls ndarray methods, never the ``np.*`` wrappers.

The wrappers forward to the same methods with the same arguments, so the
methods give the same draws without the wrappers' Python cost.  Each
wrapper below is patched to raise while both arms run, and the outputs
must equal those of an unpatched run.
"""

import numpy as np
import pytest

from tokalign import AlignConfig, MaskCache, SamplerConfig, aligned_generate, build_trie, generate
from tokalign import decoding as decoding_module
from tokalign.bench import make_synthetic_vocabulary

WRAPPERS = ("argmax", "sort", "cumsum", "searchsorted", "flatnonzero")


class PeakedAndFlatRows:
    """Two permuted Zipf rows, peaked enough for the candidate path, and a uniform row."""

    def __init__(self, vocab_size):
        rng = np.random.default_rng(0)
        zipf = np.arange(1, vocab_size + 1, dtype=np.float64) ** -1.5
        zipf /= zipf.sum()
        self.vocab_size = vocab_size
        self.rows = [zipf[rng.permutation(vocab_size)] for _ in range(2)]
        self.rows.append(np.full(vocab_size, 1.0 / vocab_size))

    def next_distribution(self, context):
        return self.rows[context[-1] % len(self.rows) if context else 0]


def _both_arms(provider, vocab, trie, prompt, cfg):
    # capacity 0 stores no mask, so every alignment step queries the index
    aligned = aligned_generate(provider, vocab, trie, MaskCache(trie, 0), prompt, AlignConfig(), cfg)
    plain = generate(provider, vocab, prompt, cfg)
    return aligned.output, aligned.token_ids, plain.output, plain.token_ids


def _forbidden(*args, **kwargs):
    raise AssertionError("an np.* wrapper ran on the per-token path")


def _without_wrappers(monkeypatch, run):
    with monkeypatch.context() as patched:
        for name in WRAPPERS:
            patched.setattr(np, name, _forbidden)
        return run()


def test_greedy_on_trained_vocabulary(monkeypatch, trained_vocab, trained_trie, ngram_provider):
    cfg = SamplerConfig(mode="greedy", max_new_tokens=16)
    for prompt in (b"def get_total(items):\n    re", b"    for item in ite", b"x = valu"):
        run = lambda: _both_arms(ngram_provider, trained_vocab, trained_trie, prompt, cfg)
        assert _without_wrappers(monkeypatch, run) == run()


def test_nucleus_on_large_synthetic_vocabulary(monkeypatch):
    vocab = make_synthetic_vocabulary(5000)
    assert len(vocab) > decoding_module._FULL_SORT_MAX
    trie = build_trie(vocab)
    provider = PeakedAndFlatRows(len(vocab))
    nucleus_cut = decoding_module._nucleus_cut
    found = []

    def recording(w, top_p):
        result = nucleus_cut(w, top_p)
        found.append(result[0] is not None)
        return result

    monkeypatch.setattr(decoding_module, "_nucleus_cut", recording)
    for seed in range(4):
        cfg = SamplerConfig(mode="nucleus", top_p=0.9, seed=seed, max_new_tokens=8)
        run = lambda: _both_arms(provider, vocab, trie, b"the quick brown fo", cfg)
        assert _without_wrappers(monkeypatch, run) == run()
    # both the candidate path and the full sort ran
    assert any(found) and not all(found)
