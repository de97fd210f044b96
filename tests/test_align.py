import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from tokalign import (
    AlignConfig,
    AlignmentContractError,
    DeadEndError,
    EmptyMaskError,
    MaskCache,
    SamplerConfig,
    ScriptedModel,
    Vocabulary,
    advance,
    aligned_generate,
    backtrack_split,
    build_ngram_model,
    build_trie,
    encode,
    decode,
    fixtures,
    generate,
    load_vocabulary,
    make_rng,
    mask_distribution,
    sample,
)
from tokalign.decoding import ConfigError

from conftest import byte_vocab


def densify(ids, probs, size):
    # the sparse (ids, probs) step result as a length-V vector
    dense = np.zeros(size)
    dense[ids] = probs
    return dense


class TestBacktrackSplit:
    def test_space_prefix_pair(self):
        vocab = byte_vocab(extra=[b" like"])
        ids = encode(vocab, b"I like")
        context, prefix = backtrack_split(ids, vocab, 1)
        assert [vocab.tokens[i] for i in context] == [b"I"]
        assert prefix == b" like"

    def test_indentation_triple_backtracks_fully(self):
        vocab = byte_vocab(extra=[b"   ", b" x"])
        ids = encode(vocab, b"    x=")
        assert [vocab.tokens[i] for i in ids] == [b"   ", b" x", b"="]
        context, prefix = backtrack_split(ids, vocab, 3)
        assert context == []
        assert prefix == b"    x="

    def test_b_zero_rejected(self):
        vocab = byte_vocab()
        # both raise the one ConfigError (a ValueError) naming the field
        with pytest.raises(ConfigError) as split_error:
            backtrack_split([1, 2], vocab, 0)
        with pytest.raises(ConfigError) as config_error:
            AlignConfig(backtrack_tokens=0)
        assert split_error.value.field == config_error.value.field == "backtrack_tokens"

    def test_b_clamped_to_length(self):
        vocab = byte_vocab()
        context, prefix = backtrack_split([ord("h"), ord("i")], vocab, 10)
        assert context == []
        assert prefix == b"hi"

    def test_consistency_invariant(self, trained_vocab, code_texts):
        rng = make_rng(2)
        for _ in range(100):
            doc = code_texts[int(rng.integers(len(code_texts)))]
            cut = int(rng.integers(1, len(doc)))
            prompt = doc[:cut]
            ids = encode(trained_vocab, prompt)
            for b in (1, 2, 3, 5):
                context, prefix = backtrack_split(ids, trained_vocab, b)
                assert decode(trained_vocab, context) + prefix == prompt

    def test_empty_ids_rejected(self, trained_vocab):
        with pytest.raises(ValueError):
            backtrack_split([], trained_vocab, 3)


def masked(dist, trie, cache, prefix):
    # one alignment step's mask: the compatible ids, then their renormalized probabilities
    ids = trie.matching_tokens(prefix) if cache is None else cache.lookup(trie, prefix)
    return ids, mask_distribution(dist, ids)


class TestAlignStep:
    def _vocab(self):
        return Vocabulary([b"re", b"turn", b"return", b"x"])

    def test_uniform_renormalized_over_compatible(self):
        vocab = self._vocab()
        trie = build_trie(vocab)
        dist = np.full(4, 0.25)
        ids, probs = masked(dist, trie, None, b"re")
        assert ids.tolist() == [0, 2]
        assert np.allclose(densify(ids, probs, 4), [0.5, 0.0, 0.5, 0.0])

    def test_cached_mask_transparent(self, trained_vocab, trained_trie):
        dist = np.full(len(trained_vocab), 1.0 / len(trained_vocab))
        cache = MaskCache(trained_trie)
        cache.lookup(trained_trie, b" ")
        warm_ids, warm = masked(dist, trained_trie, cache, b" ")
        cold_ids, cold = masked(dist, trained_trie, MaskCache(trained_trie, capacity=0), b" ")
        assert np.array_equal(warm_ids, cold_ids)
        assert np.array_equal(warm, cold)

    def test_zero_mass_on_mask_goes_uniform(self):
        vocab = self._vocab()
        trie = build_trie(vocab)
        dist = np.array([0.0, 0.6, 0.0, 0.4])  # all mass on incompatible tokens
        ids, probs = masked(dist, trie, None, b"re")
        assert ids.tolist() == [0, 2]
        assert np.allclose(densify(ids, probs, 4), [0.5, 0.0, 0.5, 0.0])


class TestAdvance:
    def test_overshoot_empties_prefix(self):
        vocab = Vocabulary([b"re", b"turn", b"return", b"x"])
        assert advance(b"re", vocab.id_of(b"return"), vocab) == b""

    def test_partial_consumption(self):
        vocab = Vocabulary([b"    ", b"   ", b" "])
        assert advance(b"    ", vocab.id_of(b"   "), vocab) == b" "

    def test_exact_consumption(self):
        vocab = Vocabulary([b"x", b"y"])
        assert advance(b"x", vocab.id_of(b"x"), vocab) == b""

    def test_incompatible_token_is_contract_error(self):
        vocab = Vocabulary([b"x", b"y"])
        with pytest.raises(AlignmentContractError):
            advance(b"x", vocab.id_of(b"y"), vocab)

    def test_special_token_is_contract_error(self):
        vocab = Vocabulary([b"x", b"x!"], specials=[1])
        with pytest.raises(AlignmentContractError):
            advance(b"x", 1, vocab)

    def test_prefix_shrinks_every_step(self, trained_vocab, trained_trie):
        rng = make_rng(4)
        prefix = b"    return value"
        while prefix:
            candidates = trained_trie.matching_tokens(prefix)
            chosen = int(candidates[int(rng.integers(len(candidates)))])
            before = len(prefix)
            prefix = advance(prefix, chosen, trained_vocab)
            assert len(prefix) < before


class TestAlignedGenerate:
    def test_demo_fixture_recovers_return(self, demo_vocab, demo_model):
        trie = build_trie(demo_vocab)
        cache = MaskCache(trie)
        cfg = SamplerConfig(mode="greedy", max_new_tokens=6)
        result = aligned_generate(
            demo_model, demo_vocab, trie, cache, fixtures.DEMO_PROMPT, AlignConfig(), cfg
        )
        assert result.output.startswith(fixtures.DEMO_PROMPT + b"turn")
        assert b"\n    return" in result.output
        plain = generate(demo_model, demo_vocab, fixtures.DEMO_PROMPT, cfg)
        assert not plain.output.startswith(fixtures.DEMO_PROMPT + b"turn")

    def test_boundary_prompt_preserved(self, trained_vocab, ngram_provider, trained_trie):
        # control case: prompt ends exactly at a token boundary
        doc = b"def get_total(items):\n    total = 0\n"
        ids = encode(trained_vocab, doc)
        prompt = decode(trained_vocab, ids[:8])
        cache = MaskCache(trained_trie)
        cfg = SamplerConfig(mode="greedy", max_new_tokens=8)
        result = aligned_generate(
            ngram_provider, trained_vocab, trained_trie, cache, prompt, AlignConfig(), cfg
        )
        assert result.output.startswith(prompt)

    def test_ngram_disagreement_on_space_prompt(self):
        # A provider trained on "I like tea": plain decoding of the prompt
        # "I " sees the out-of-distribution pair (I, space) while alignment
        # backtracks and recovers " like".
        vocab = byte_vocab(extra=[b" like", b" tea"])
        provider = build_ngram_model([b"I like tea"], vocab, order=1, alpha=0.0)
        trie = build_trie(vocab)
        cache = MaskCache(trie)
        cfg = SamplerConfig(mode="greedy", max_new_tokens=2)
        aligned = aligned_generate(
            provider, vocab, trie, cache, b"I ", AlignConfig(backtrack_tokens=1), cfg
        )
        plain = generate(provider, vocab, b"I ", cfg)
        assert aligned.output.startswith(b"I like")
        assert plain.output != aligned.output

    def test_result_bookkeeping(self, demo_vocab, demo_model):
        trie = build_trie(demo_vocab)
        cache = MaskCache(trie)
        cfg = SamplerConfig(mode="greedy", max_new_tokens=3)
        result = aligned_generate(
            demo_model, demo_vocab, trie, cache, fixtures.DEMO_PROMPT, AlignConfig(), cfg
        )
        assert result.alignment_steps == len(result.mask_sizes) == 1
        assert result.mask_sizes[0] == 2  # {newline, indented return}
        assert result.timings_us["alignment"] > 0
        doc = result.to_json_dict()
        assert set(doc["timings_us"]) == {"alignment", "free", "per_lookup_max"}

    def test_empty_prompt_rejected(self, trained_vocab, ngram_provider, trained_trie):
        with pytest.raises(ValueError):
            aligned_generate(
                ngram_provider, trained_vocab, trained_trie, MaskCache(trained_trie, 0), b"",
                AlignConfig(), SamplerConfig(),
            )

    def test_stop_sequence_in_surplus_bytes(self, demo_vocab):
        # the aligned step overshoots with "turn ..." tokens; a stop on "turn"
        # must halt before any free-phase output
        model = fixtures.build_demo_model(demo_vocab)
        trie = build_trie(demo_vocab)
        cfg = SamplerConfig(mode="greedy", max_new_tokens=6, stop_sequences=(b"turn",))
        result = aligned_generate(
            model, demo_vocab, trie, MaskCache(trie, 0), fixtures.DEMO_PROMPT, AlignConfig(), cfg
        )
        assert result.output == fixtures.DEMO_PROMPT

    def test_mask_cardinality_zero_dead_end_error_policy(self):
        vocab = Vocabulary([b"a", b"ac", b"acd", b"cd"])
        trie = build_trie(vocab)
        forcing = np.zeros(4)
        forcing[vocab.id_of(b"ac")] = 1.0
        provider = ScriptedModel(vocab, [], forcing)
        cfg = SamplerConfig(mode="greedy", max_new_tokens=2)
        # "ac" leaves the prefix "d", which no token starts or is a prefix of
        assert len(trie.matching_tokens(b"d")) == 0
        with pytest.raises(DeadEndError) as caught:
            aligned_generate(
                provider, vocab, trie, MaskCache(trie, 0), b"acd",
                AlignConfig(backtrack_tokens=1), cfg,
            )
        assert caught.value.prefix == b"d"
        assert caught.value.context == [vocab.id_of(b"ac")]
        assert caught.value.steps_taken == 1

    def test_no_dead_ends_with_full_byte_coverage(self, trained_vocab, ngram_provider, trained_trie):
        assert trained_vocab.has_all_byte_tokens()
        rng = make_rng(55)
        cache = MaskCache(trained_trie)
        cfg = SamplerConfig(mode="greedy", max_new_tokens=4)
        prompt_pool = b"".join(
            t for t in (b"def x():\n", b"\xff\xfe partial", b"    re", b"{};")
        )
        for _ in range(50):
            start = int(rng.integers(0, len(prompt_pool) - 2))
            end = int(rng.integers(start + 1, len(prompt_pool)))
            result = aligned_generate(
                ngram_provider, trained_vocab, trained_trie, cache,
                prompt_pool[start:end], AlignConfig(), cfg,
            )
            assert result.output.startswith(prompt_pool[start:end])


class TestMaskBeforeSample:
    def test_greedy_equals_conditional_argmax_exhaustive(self):
        # every distribution on a 0.25 grid over a 4-token vocabulary,
        # every prefix: masked greedy == argmax restricted to compatible set
        vocab = Vocabulary([b"a", b"ab", b"b", b"ba"])
        trie = build_trie(vocab)
        cfg = SamplerConfig(mode="greedy")
        grid = [i * 0.25 for i in range(5)]
        for probs in itertools.product(grid, repeat=4):
            if abs(sum(probs) - 1.0) > 1e-9:
                continue
            dist = np.array(probs)
            for prefix in (b"a", b"ab", b"b", b"baa"):
                ids, probs = masked(dist, trie, None, prefix)
                chosen = ids[sample(probs, cfg, make_rng(0))]
                compatible = trie.matching_tokens(prefix)
                expected = compatible[np.argmax(dist[compatible])]
                assert chosen == expected

    def test_nucleus_sees_exact_conditional(self):
        # masking then renormalizing equals the provider distribution
        # conditioned on the compatible set
        vocab = Vocabulary([b"a", b"ab", b"abc", b"b", b"bc"])
        trie = build_trie(vocab)
        rng = make_rng(9)
        for _ in range(200):
            raw = rng.random(5)
            dist = raw / raw.sum()
            for prefix in (b"a", b"ab", b"b", b"bc", b"abcd"):
                mask = np.isin(np.arange(5), trie.matching_tokens(prefix))
                dense = densify(*masked(dist, trie, None, prefix), 5)
                conditional = np.where(mask, dist, 0.0)
                conditional /= conditional.sum()
                assert np.allclose(dense, conditional)

    def test_mask_distribution_rejects_empty_mask(self):
        with pytest.raises(EmptyMaskError):
            mask_distribution(np.array([0.5, 0.5]), np.array([], dtype=np.int64))


class TestSafetyBound:
    def test_runaway_alignment_aborts(self, monkeypatch):
        # a broken invariant: advance that never consumes the prefix
        vocab = Vocabulary([b"a", b"b"])
        trie = build_trie(vocab)
        uniform = np.full(2, 0.5)
        provider = ScriptedModel(vocab, [], uniform)
        cfg = SamplerConfig(mode="greedy", max_new_tokens=1)

        import tokalign.align as align_module

        monkeypatch.setattr(align_module, "advance", lambda prefix, chosen, vocab_arg: prefix)
        with pytest.raises(align_module.AlignmentError, match="exceeded"):
            align_module.aligned_generate(
                provider, vocab, trie, MaskCache(trie, 0), b"ab", AlignConfig(backtrack_tokens=1),
                cfg,
            )

    def test_long_single_token_prefix_completes(self):
        # the demo's first line is one 59-byte token, so backtracking leaves
        # an empty context; the table's default row is flat over the
        # compatible tokens, so greedy takes the mask's first id, a single byte,
        # and alignment consumes the prefix one byte per step
        vocab = load_vocabulary(fixtures.data_path(fixtures.DEMO_VOCAB_FILE))
        with open(fixtures.data_path(fixtures.DEMO_TABLE_FILE)) as fh:
            provider = ScriptedModel.from_json_dict(vocab, json.load(fh))
        trie = build_trie(vocab)
        prompt = b"# write a function to get three maximum numbers from a list"
        ids = encode(vocab, prompt)
        _, prefix = backtrack_split(ids, vocab, AlignConfig().backtrack_tokens)
        cfg = SamplerConfig(mode="greedy", max_new_tokens=2)
        result = aligned_generate(
            provider, vocab, trie, MaskCache(trie), prompt, AlignConfig(), cfg
        )
        assert result.output.startswith(prompt)
        assert 0 < result.alignment_steps <= len(prefix)


class TestAlwaysOnChecks:
    def test_lost_prompt_raises_alignment_error(self, monkeypatch):
        vocab = Vocabulary([b"a", b"b"])
        trie = build_trie(vocab)
        provider = ScriptedModel(vocab, [], np.full(2, 0.5))
        cfg = SamplerConfig(mode="greedy", max_new_tokens=1)

        import tokalign.align as align_module

        real_split = align_module.backtrack_split

        def forgetful_split(ids, vocab_arg, backtrack_tokens):
            context, prefix = real_split(ids, vocab_arg, backtrack_tokens)
            return context, prefix[1:]

        monkeypatch.setattr(align_module, "backtrack_split", forgetful_split)
        with pytest.raises(align_module.AlignmentError, match="lost prompt"):
            align_module.aligned_generate(
                provider, vocab, trie, MaskCache(trie, 0), b"ab", AlignConfig(backtrack_tokens=2),
                cfg,
            )

    def test_contract_checked_once_per_provider_call(
        self, monkeypatch, trained_vocab, ngram_provider, trained_trie
    ):
        import tokalign.align as align_module
        import tokalign.decoding as decoding_module

        calls = {"provider": 0, "check": 0}
        real_check = decoding_module.check_distribution

        def counting_check(dist, size):
            calls["check"] += 1
            return real_check(dist, size)

        monkeypatch.setattr(align_module, "check_distribution", counting_check)
        monkeypatch.setattr(decoding_module, "check_distribution", counting_check)

        class CountingProvider:
            vocab_size = ngram_provider.vocab_size

            def next_distribution(self, context):
                calls["provider"] += 1
                return ngram_provider.next_distribution(context)

        forced_steps = 0
        for mode in ("greedy", "nucleus"):
            cfg = SamplerConfig(mode=mode, top_p=0.9, seed=3, max_new_tokens=5)
            result = aligned_generate(
                CountingProvider(), trained_vocab, trained_trie, MaskCache(trained_trie, 0),
                b"def get_total(items):\n    re", AlignConfig(), cfg,
            )
            assert result.alignment_steps > 0
            # a forced step (one compatible id) asks the provider nothing
            forced = result.mask_sizes.count(1)
            assert calls["check"] == calls["provider"] == result.alignment_steps - forced + 5
            calls.update(provider=0, check=0)
            forced_steps += forced
        assert forced_steps > 0

    def test_wrong_length_provider_output_is_value_error(self):
        vocab = Vocabulary([b"a", b"b", b"ab"])
        trie = build_trie(vocab)
        cfg = SamplerConfig(mode="greedy", max_new_tokens=2)
        for row in ([1.0], [0.0, 0.0, 0.0, 1.0]):

            class WrongLength:
                vocab_size = 3

                def next_distribution(self, context, row=row):
                    return np.array(row)

            with pytest.raises(ValueError, match="shape"):
                aligned_generate(
                    WrongLength(), vocab, trie, MaskCache(trie, 0), b"ab",
                    AlignConfig(backtrack_tokens=1), cfg,
                )
            with pytest.raises(ValueError, match="shape"):
                generate(WrongLength(), vocab, b"ab", cfg)

    def test_provider_contract_enforced_under_optimize_flag(self):
        # a negative entry that still sums to 1 must raise ValueError in
        # both phases even when assert statements are compiled away
        script = textwrap.dedent(
            """
            import numpy as np
            from tokalign import (
                AlignConfig, MaskCache, SamplerConfig, Vocabulary, aligned_generate, build_trie,
                generate,
            )

            if __debug__:
                raise SystemExit("not running under -O")
            vocab = Vocabulary([b"a", b"b"])

            class Negative:
                vocab_size = 2

                def next_distribution(self, context):
                    return np.array([1.5, -0.5])

            cfg = SamplerConfig(mode="greedy", max_new_tokens=2)
            trie = build_trie(vocab)
            runs = {
                "aligned": lambda: aligned_generate(
                    Negative(), vocab, trie, MaskCache(trie, 0), b"ab",
                    AlignConfig(backtrack_tokens=1), cfg,
                ),
                "plain": lambda: generate(Negative(), vocab, b"ab", cfg),
            }
            for name, run in runs.items():
                try:
                    run()
                except ValueError:
                    print(name, "ValueError")
                else:
                    print(name, "accepted")
            """
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["aligned", "ValueError", "plain", "ValueError"]


class ReadOnlyRows:
    """Provider handing out the same read-only Zipf rows, picked by the last id."""

    def __init__(self, vocab_size, rows=4):
        rng = np.random.default_rng(0)
        zipf = np.arange(1, vocab_size + 1, dtype=np.float64) ** -1.1
        zipf /= zipf.sum()
        self.vocab_size = vocab_size
        self.rows = [zipf[rng.permutation(vocab_size)] for _ in range(rows)]
        self.saved = [row.copy() for row in self.rows]
        for row in self.rows:
            row.setflags(write=False)

    def next_distribution(self, context):
        return self.rows[context[-1] % len(self.rows) if context else 0]


class TestProviderVectorsNeverWritten:
    CONFIGS = {
        "greedy": SamplerConfig(mode="greedy", max_new_tokens=8),
        "nucleus": SamplerConfig(mode="nucleus", top_p=0.9, seed=5, max_new_tokens=8),
        "nucleus-tempered-stop": SamplerConfig(
            mode="nucleus", top_p=0.9, temperature=0.7, seed=5, max_new_tokens=8,
            stop_sequences=(b"\n", b" "),
        ),
    }

    @pytest.mark.parametrize("mode", sorted(CONFIGS))
    def test_read_only_rows(self, mode, trained_vocab, trained_trie):
        from tokalign.bench import make_synthetic_vocabulary

        synthetic = make_synthetic_vocabulary(5000)
        cases = [
            (trained_vocab, trained_trie, b"def get_total(items):\n    re"),
            (synthetic, build_trie(synthetic), b"the quick brown fo"),
        ]
        cfg = self.CONFIGS[mode]
        for vocab, trie, prompt in cases:
            provider = ReadOnlyRows(len(vocab))
            aligned = aligned_generate(
                provider, vocab, trie, MaskCache(trie), prompt, AlignConfig(), cfg
            )
            plain = generate(provider, vocab, prompt, cfg)
            assert aligned.output.startswith(prompt) and plain.output.startswith(prompt)
            assert all(np.array_equal(r, s) for r, s in zip(provider.rows, provider.saved))
