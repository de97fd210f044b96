import base64
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from tokalign import (
    AlignConfig,
    MaskCache,
    NGramModel,
    SamplerConfig,
    ScriptedModel,
    Vocabulary,
    aligned_generate,
    build_ngram_model,
    generate,
    make_rng,
    sample,
)
from tokalign.decoding import ConfigError, check_distribution, first_stop_index, load_scripted_model
from tokalign.decoding import run_free_phase

from conftest import EDGE_DRAWS, FixedDraw, byte_vocab


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

    @pytest.mark.parametrize("size", [3, 5000])
    @pytest.mark.parametrize("temperature", [1.0, 0.5, 1e-4])
    def test_nucleus_all_zero_rejected_without_warnings(self, size, temperature):
        cfg = SamplerConfig(mode="nucleus", top_p=0.9, temperature=temperature)
        dist = np.zeros(size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^cannot sample from an all-zero"):
                sample(dist, cfg, make_rng(0))

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

    def test_check_returns_the_float64_row_it_passed(self):
        row = np.array([0.25, 0.75])
        assert check_distribution(row, 2) is row
        for given in ([0.25, 0.75], np.array([0.25, 0.75], dtype=np.float32)):
            got = check_distribution(given, 2)
            assert got.dtype == np.float64 and got.tolist() == [0.25, 0.75]
        # the int64 sum wraps round to 1; the float64 values the sampler reads do not sum to 1
        with pytest.raises(ValueError, match="sums to"):
            check_distribution(np.array([2**63 - 1, 2**63 - 1, 3]), 3)

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
                    order = sorted(range(n_tokens), key=lambda i: (-dist[i], i))
                    expected = []
                    sums = []
                    cum = 0.0
                    for i in order:
                        expected.append(i)
                        cum += dist[i]
                        sums.append(cum)
                        if cum >= top_p:
                            break
                    # the first kept id whose running sum exceeds u times the kept mass
                    cfg = SamplerConfig(mode="nucleus", top_p=top_p)
                    for u in EDGE_DRAWS:
                        want = next(i for i, c in zip(expected, sums) if c > u * cum)
                        assert sample(dist, cfg, FixedDraw(u)) == want, (dist, top_p, u)

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

    @pytest.mark.parametrize("size", [3, 5000])
    def test_low_temperature_leaves_a_valid_row_drawable(self, size):
        # exp(log(p) / T) underflows every weight of these rows to zero;
        # scaled by the largest first, the largest weight stays exactly 1
        g = np.random.default_rng(size)
        spiked = g.permutation(np.r_[0.4, np.full(size - 1, 0.6 / (size - 1))])
        cold = SamplerConfig(mode="nucleus", top_p=0.9, temperature=1e-3)
        assert all(sample(spiked, cold, make_rng(s)) == spiked.argmax() for s in range(50))
        uniform = np.full(size, 1.0 / size)
        colder = SamplerConfig(mode="nucleus", top_p=0.9, temperature=1e-4)
        untempered = SamplerConfig(mode="nucleus", top_p=0.9)
        for u in EDGE_DRAWS:
            draw = FixedDraw(u)
            assert sample(uniform, colder, draw) == sample(uniform, untempered, draw)
        kept = int(np.cumsum(uniform).searchsorted(0.9)) + 1  # the first ids, in position order
        assert all(sample(uniform, colder, make_rng(s)) < kept for s in range(50))
        if size == 3:
            assert sample(np.array([0.3, 0.3, 0.4]), cold, make_rng(0)) == 2

    @pytest.mark.parametrize("mode", ["greedy", "nucleus"])
    def test_empty_vector_refused(self, mode):
        for temperature in (1.0, 0.5):
            cfg = SamplerConfig(mode=mode, top_p=0.9, temperature=temperature)
            with pytest.raises(ValueError, match="cannot sample from an empty distribution"):
                sample(np.array([]), cfg, make_rng(0))

    def test_nucleus_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(mode="nucleus", top_p=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(mode="nucleus", temperature=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(mode="wild")


    @pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf])
    def test_nucleus_temperature_must_be_finite_and_positive(self, temperature):
        with pytest.raises(ConfigError, match="temperature") as info:
            SamplerConfig(mode="nucleus", temperature=temperature)
        assert info.value.field == "temperature"

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

    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_alpha_outside_range_rejected(self, alpha):
        # a NaN or infinite alpha would make every seen context's row NaN
        with pytest.raises(ValueError, match="finite and >= 0"):
            NGramModel(10, order=1, alpha=alpha)

    @pytest.mark.parametrize("ids, bad", [([-1, 3], -1), ([7], 7), ([2, 5, -2], 5)])
    def test_id_outside_vocabulary_rejected_before_counting(self, ids, bad):
        model = NGramModel(5, order=1, alpha=0.0)
        model.observe([1, 2])
        with pytest.raises(ValueError, match=rf"token id {bad} is outside 0\.\.4"):
            model.observe(ids)
        # nothing of the rejected sequence was counted
        assert np.array_equal(model.next_distribution([]), [0, 1, 0, 0, 0])
        assert np.array_equal(model.next_distribution([2]), [0.2] * 5)

    @pytest.mark.parametrize(
        "ids, bad",
        [([1.5, 2], "1.5"), ([2, np.float64(1.0)], "np.float64(1.0)"), (["x"], "'x'"),
         ([None], "None"), ([2, 3.0, 7], "3.0")],
    )
    def test_non_integer_id_rejected_before_counting(self, ids, bad):
        model = NGramModel(5, order=1, alpha=0.0)
        model.observe([1, 2])
        with pytest.raises(ValueError, match=rf"token id {re.escape(bad)} is not an integer"):
            model.observe(ids)
        assert np.array_equal(model.next_distribution([]), [0, 1, 0, 0, 0])
        assert np.array_equal(model.next_distribution([2]), [0.2] * 5)

    def test_numpy_integer_ids_counted(self):
        model = NGramModel(5, order=1, alpha=0.0)
        model.observe(np.array([1, 2], dtype=np.int32))
        model.observe([np.int64(1), np.uint8(2)])
        assert np.array_equal(model.next_distribution([]), [0, 1, 0, 0, 0])
        assert np.array_equal(model.next_distribution([1]), [0, 0, 1, 0, 0])

    def test_bool_ids_counted_as_the_ids_they_index(self):
        # True indexes id 1 and False id 0, as in decode and the range check
        model = NGramModel(5, order=1, alpha=0.0)
        model.observe([True, 2])
        assert np.array_equal(model.next_distribution([]), [0, 1, 0, 0, 0])
        assert np.array_equal(model.next_distribution([1]), [0, 0, 1, 0, 0])
        model = NGramModel(5, order=1, alpha=0.0)
        model.observe([3, False])
        assert np.array_equal(model.next_distribution([3]), [1, 0, 0, 0, 0])


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

    def test_unknown_field_refused(self, tmp_path):
        # a misspelled "rows" would otherwise leave only the default row
        vocab = byte_vocab()
        uniform = [1.0 / len(vocab)] * len(vocab)
        row = {"suffix_b64": "YQ==", "probs": uniform}
        for doc, message in [
            ({"row": [row], "default": uniform}, "unknown field 'row'"),
            ({"rows": [dict(row, weight=1)], "default": uniform}, "rows[0]: unknown field 'weight'"),
        ]:
            with pytest.raises(ValueError) as caught:
                ScriptedModel.from_json_dict(vocab, doc)
            assert str(caught.value) == message
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"row": [row], "default": uniform}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unknown field 'row'$"):
            load_scripted_model(str(path), vocab)

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

    def test_rows_are_read_only_copies(self):
        vocab = byte_vocab()
        default = np.full(len(vocab), 1.0 / len(vocab))
        row = np.zeros(len(vocab))
        row[ord("x")] = 1.0
        model = ScriptedModel(vocab, [(b"a", row)], default)
        assert model.default is not default
        default[:] = 0.0
        row[:] = 0.0
        after_a, other = model.next_distribution([ord("a")]), model.next_distribution([])
        assert after_a[ord("x")] == 1.0
        assert np.array_equal(other, np.full(len(vocab), 1.0 / len(vocab)))
        for out in (after_a, other):
            assert not out.flags.writeable
            with pytest.raises(ValueError):
                out[0] = 1.0


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

    def test_vocab_size_mismatch_rejected(self, trained_vocab, trained_trie):
        provider = NGramModel(vocab_size=7, order=1, alpha=0.1)
        with pytest.raises(ValueError, match="vocab size"):
            generate(provider, trained_vocab, b"x", SamplerConfig())
        with pytest.raises(ValueError, match="vocab size 7 != vocabulary size"):
            aligned_generate(
                provider, trained_vocab, trained_trie, MaskCache(trained_trie, 0), b"x",
                AlignConfig(), SamplerConfig(),
            )

    def test_result_json_round_trip(self, trained_vocab, ngram_provider):
        cfg = SamplerConfig(mode="greedy", max_new_tokens=4)
        result = generate(ngram_provider, trained_vocab, b"def ", cfg)
        doc = json.loads(json.dumps(result.to_json_dict()))
        assert set(doc) == {
            "prompt_b64", "output_b64", "token_ids", "alignment_steps", "mask_sizes", "timings_us",
        }
        assert base64.b64decode(doc["prompt_b64"], validate=True) == result.prompt
        assert base64.b64decode(doc["output_b64"], validate=True) == result.output
        assert doc["token_ids"] == result.token_ids
        assert doc["alignment_steps"] == result.alignment_steps == 0
        assert doc["mask_sizes"] == result.mask_sizes


class TestStopIndex:
    def test_earliest_occurrence(self):
        assert first_stop_index(b"abcabc", (b"ca", b"bc")) == 1

    def test_no_occurrence(self):
        assert first_stop_index(b"abc", (b"zz",)) is None

    def test_empty_stop_ignored(self):
        assert first_stop_index(b"abc", (b"",)) is None


class ScriptedSequence:
    """Provider that emits ``ids`` in order, one-hot, whatever the context."""

    def __init__(self, vocab_size, ids):
        self.vocab_size = vocab_size
        self._ids = iter(ids)

    def next_distribution(self, context):
        dist = np.zeros(self.vocab_size)
        dist[next(self._ids)] = 1.0
        return dist


def reference_stop_index(tokens, ids, generated, stops, max_new_tokens):
    """Truncation index from a full-buffer scan before each step."""
    buf = bytearray(generated)
    for step in range(max_new_tokens + 1):
        stop_at = first_stop_index(bytes(buf), stops)
        if stop_at is not None or step == max_new_tokens:
            return stop_at
        buf += tokens[ids[step]]


class TestFreePhaseStops:
    TOKENS = [b"a", b"b", b"c", b"ab", b"bc", b"cab", b"\n", b"abc"]

    def run(self, ids, stops, generated=b"", max_new_tokens=None):
        vocab = Vocabulary(self.TOKENS)
        n = len(ids) if max_new_tokens is None else max_new_tokens
        cfg = SamplerConfig(mode="greedy", max_new_tokens=n, stop_sequences=stops)
        buf = bytearray(generated)
        got = run_free_phase(
            ScriptedSequence(len(vocab), ids), vocab, [], buf, cfg, make_rng(0)
        )
        assert got == reference_stop_index(self.TOKENS, ids, generated, cfg.stop_sequences, n)
        return got, bytes(buf)

    def ids(self, *tokens):
        return [self.TOKENS.index(t) for t in tokens]

    def test_stop_straddles_two_tokens(self):
        got, buf = self.run(self.ids(b"c", b"cab", b"c", b"a"), (b"bc",))
        assert (got, buf) == (3, b"ccabc")

    def test_stop_inside_overshoot_needs_no_provider_call(self):
        got, buf = self.run([], (b"bc",), generated=b"abca", max_new_tokens=5)
        assert (got, buf) == (1, b"abca")

    def test_later_listed_stop_that_occurs_earlier_wins(self):
        got, _ = self.run(self.ids(b"c", b"abc", b"a"), (b"bc", b"cab"))
        assert got == 0
        got, _ = self.run(self.ids(b"a", b"abc", b"a"), (b"bca", b"ab", b"aab"))
        assert got == 0

    def test_long_stop_ending_in_a_later_token(self):
        got, _ = self.run(self.ids(b"a", b"b", b"c", b"c", b"a", b"b"), (b"a\n", b"bccab"))
        assert got == 1

    def test_two_hundred_tokens_match_full_scan(self):
        rng = np.random.default_rng(7)
        stop_sets = [(), (b"",), (b"\n",), (b"cc", b"bab"), (b"abcab", b"ccc", b"\n\n")]
        for trial in range(40):
            ids = rng.integers(0, len(self.TOKENS), 200).tolist()
            got, buf = self.run(ids, stop_sets[trial % len(stop_sets)])
            if got is None:
                assert len(buf) == sum(len(self.TOKENS[i]) for i in ids)
