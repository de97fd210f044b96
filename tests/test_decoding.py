import itertools

import numpy as np
import pytest

from tokalign import (
    GenerationResult,
    NGramModel,
    SamplerConfig,
    ScriptedModel,
    build_ngram_model,
    generate,
    make_rng,
    nucleus_keep_set,
    sample,
)
from tokalign.decoding import check_distribution, first_stop_index

from conftest import byte_vocab


def grid_distributions(n_tokens, step=0.05):
    # every composition of 1.0 into n_tokens parts on a 0.05 grid
    units = round(1 / step)
    for cut in itertools.combinations(range(units + n_tokens - 1), n_tokens - 1):
        parts = []
        prev = -1
        for c in cut + (units + n_tokens - 1,):
            parts.append(c - prev - 1)
            prev = c
        yield np.array(parts, dtype=np.float64) * step


class TestSample:
    def test_greedy_argmax(self):
        cfg = SamplerConfig(mode="greedy")
        assert sample(np.array([0.1, 0.7, 0.2]), cfg, make_rng(0)) == 1

    def test_greedy_tie_breaks_low_id(self):
        cfg = SamplerConfig(mode="greedy")
        assert sample(np.array([0.5, 0.5, 0.0]), cfg, make_rng(0)) == 0

    def test_all_zero_rejected(self):
        cfg = SamplerConfig(mode="greedy")
        with pytest.raises(ValueError):
            sample(np.array([0.0, 0.0]), cfg, make_rng(0))

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            check_distribution(np.array([0.5, 0.6]), 2)
        with pytest.raises(ValueError):
            check_distribution(np.array([1.1, -0.1]), 2)
        with pytest.raises(ValueError):
            check_distribution(np.array([0.5, np.nan, 0.5]), 3)
        with pytest.raises(ValueError):
            check_distribution(np.array([0.5, np.inf, 0.5]), 3)
        with pytest.raises(ValueError, match="shape"):
            check_distribution(np.array([0.5, 0.5]), 3)
        with pytest.raises(ValueError, match="shape"):
            check_distribution(np.full((2, 2), 0.25), 4)

    def test_nucleus_empirical_frequencies(self):
        # top_p=0.8 keeps {0.6, 0.3}; renormalized to (2/3, 1/3)
        cfg = SamplerConfig(mode="nucleus", top_p=0.8, temperature=1.0, seed=42)
        dist = np.array([0.6, 0.3, 0.1])
        rng = make_rng(cfg.seed)
        draws = np.array([sample(dist, cfg, rng) for _ in range(100_000)])
        freq0 = np.mean(draws == 0)
        freq1 = np.mean(draws == 1)
        assert draws.max() <= 1
        assert abs(freq0 - 2 / 3) < 0.01
        assert abs(freq1 - 1 / 3) < 0.01

    def test_nucleus_keep_set_minimal_on_grid(self):
        for n_tokens in (2, 3, 4, 5):
            for dist in grid_distributions(n_tokens):
                if dist.sum() == 0:
                    continue
                for top_p in (0.15, 0.5, 0.8, 1.0):
                    kept = set(nucleus_keep_set(dist, top_p).tolist())
                    order = sorted(range(n_tokens), key=lambda i: (-dist[i], i))
                    expected = []
                    cum = 0.0
                    for i in order:
                        expected.append(i)
                        cum += dist[i]
                        if cum >= top_p:
                            break
                    assert kept == set(expected), (dist, top_p)

    def test_temperature_keeps_zeros_zero(self):
        cfg = SamplerConfig(mode="nucleus", top_p=1.0, temperature=0.25, seed=1)
        dist = np.array([0.7, 0.0, 0.3])
        rng = make_rng(cfg.seed)
        draws = {sample(dist, cfg, rng) for _ in range(2000)}
        assert 1 not in draws

    def test_temperature_extremes(self):
        # low temperature approaches greedy; high approaches uniform support
        dist = np.array([0.55, 0.45, 0.0])
        cold = SamplerConfig(mode="nucleus", top_p=1.0, temperature=0.01, seed=3)
        rng = make_rng(3)
        assert all(sample(dist, cold, rng) == 0 for _ in range(200))
        hot = SamplerConfig(mode="nucleus", top_p=1.0, temperature=100.0, seed=4)
        rng = make_rng(4)
        draws = np.array([sample(dist, hot, rng) for _ in range(20_000)])
        assert abs(np.mean(draws == 0) - 0.5) < 0.02

    def test_nucleus_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(mode="nucleus", top_p=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(mode="nucleus", temperature=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(mode="wild")


class TestNGram:
    def test_hand_counted_bigram(self):
        vocab = byte_vocab()
        model = build_ngram_model([b"ababab"], vocab, order=1, alpha=0.0)
        a, b = ord("a"), ord("b")
        dist_after_a = model.next_distribution([a])
        dist_after_b = model.next_distribution([b])
        assert dist_after_a[b] == 1.0
        assert dist_after_b[a] == 1.0

    def test_large_alpha_is_uniform(self):
        vocab = byte_vocab()
        model = build_ngram_model([b"ababab"], vocab, order=1, alpha=1e9)
        dist = model.next_distribution([ord("a")])
        assert np.allclose(dist, 1.0 / len(vocab), atol=1e-6)

    def test_unseen_context_uniform_backoff(self):
        vocab = byte_vocab()
        model = build_ngram_model([b"ababab"], vocab, order=1, alpha=0.0)
        dist = model.next_distribution([ord("z")])
        assert np.allclose(dist, 1.0 / len(vocab))

    def test_sequence_start_is_modeled(self):
        vocab = byte_vocab()
        model = build_ngram_model([b"ab", b"ac"], vocab, order=3, alpha=0.0)
        dist = model.next_distribution([])
        assert dist[ord("a")] == 1.0
        after_a = model.next_distribution([ord("a")])
        assert after_a[ord("b")] == after_a[ord("c")] == 0.5

    def test_empty_corpus_rejected(self):
        vocab = byte_vocab()
        with pytest.raises(ValueError):
            build_ngram_model([], vocab, order=1, alpha=0.1)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            NGramModel(10, order=0, alpha=0.1)


class TestScripted:
    def test_default_only(self):
        vocab = byte_vocab()
        uniform = [1.0 / len(vocab)] * len(vocab)
        model = ScriptedModel.from_json_dict(vocab, {"rows": [], "default": uniform})
        assert np.allclose(model.next_distribution([1, 2, 3]), uniform)

    def test_missing_default_rejected(self):
        vocab = byte_vocab()
        with pytest.raises(ValueError, match="default"):
            ScriptedModel.from_json_dict(vocab, {"rows": []})

    def test_longest_suffix_wins(self):
        vocab = byte_vocab()
        vocab_size = len(vocab)
        short = np.zeros(vocab_size)
        short[ord("s")] = 1.0
        long = np.zeros(vocab_size)
        long[ord("l")] = 1.0
        model = ScriptedModel(
            vocab, [(b"b", short), (b"ab", long)], np.full(vocab_size, 1.0 / vocab_size)
        )
        context = [ord("x"), ord("a"), ord("b")]
        assert model.next_distribution(context)[ord("l")] == 1.0

    def test_duplicate_suffix_rejected(self):
        vocab = byte_vocab()
        uniform = np.full(len(vocab), 1.0 / len(vocab))
        with pytest.raises(ValueError, match="duplicate"):
            ScriptedModel(vocab, [(b"a", uniform), (b"a", uniform)], uniform)

    def test_row_length_checked(self):
        vocab = byte_vocab()
        with pytest.raises(ValueError):
            ScriptedModel(vocab, [], np.array([1.0]))


class TestGenerate:
    def test_degenerate_continuation_without_alignment(self, demo_vocab, demo_model):
        from tokalign import fixtures

        cfg = SamplerConfig(mode="greedy", max_new_tokens=6)
        result = generate(demo_model, demo_vocab, fixtures.DEMO_PROMPT, cfg)
        continuation = result.output[len(fixtures.DEMO_PROMPT):]
        assert continuation.startswith(b" = []")
        assert b"turn" not in continuation
        assert result.alignment_steps == 0

    def test_max_new_tokens_zero(self, trained_vocab, ngram_provider):
        cfg = SamplerConfig(mode="greedy", max_new_tokens=0)
        prompt = b"def get_total(items):"
        result = generate(ngram_provider, trained_vocab, prompt, cfg)
        assert result.output == prompt

    def test_stop_sequence_halts_at_newline(self, trained_vocab, ngram_provider):
        cfg = SamplerConfig(mode="greedy", max_new_tokens=64, stop_sequences=(b"\n",))
        prompt = b"def get_total(items):\n    total = 0"
        result = generate(ngram_provider, trained_vocab, prompt, cfg)
        continuation = result.output[len(prompt):]
        assert b"\n" not in continuation
        unbounded = generate(
            ngram_provider, trained_vocab, prompt,
            SamplerConfig(mode="greedy", max_new_tokens=64),
        )
        assert len(unbounded.output) > len(result.output)

    def test_seeded_determinism(self, trained_vocab, ngram_provider):
        cfg = SamplerConfig(mode="nucleus", top_p=0.9, temperature=1.2, seed=77, max_new_tokens=24)
        prompt = b"def calc_count(values):\n"
        r1 = generate(ngram_provider, trained_vocab, prompt, cfg)
        r2 = generate(ngram_provider, trained_vocab, prompt, cfg)
        assert r1.output == r2.output
        assert r1.token_ids == r2.token_ids

    def test_vocab_size_mismatch_rejected(self, trained_vocab):
        provider = NGramModel(vocab_size=7, order=1, alpha=0.1)
        with pytest.raises(ValueError, match="vocab size"):
            generate(provider, trained_vocab, b"x", SamplerConfig())

    def test_result_json_round_trip(self, trained_vocab, ngram_provider):
        cfg = SamplerConfig(mode="greedy", max_new_tokens=4)
        result = generate(ngram_provider, trained_vocab, b"def ", cfg)
        doc = result.to_json_dict()
        back = GenerationResult.from_json_dict(doc)
        assert back == result


class TestStopIndex:
    def test_earliest_occurrence(self):
        assert first_stop_index(b"abcabc", (b"ca", b"bc")) == 1

    def test_no_occurrence(self):
        assert first_stop_index(b"abc", (b"zz",)) is None

    def test_empty_stop_ignored(self):
        assert first_stop_index(b"abc", (b"",)) is None
