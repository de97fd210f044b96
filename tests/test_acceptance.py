"""Acceptance suite: one test per shipped behavioral criterion.

Each test enforces its criterion at the stated tolerance and prints a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to
see them live).  Thresholds are frozen here, not computed at run time.
"""

import base64
import itertools
import json
import os

import numpy as np
import pytest

from tokalign import (
    AlignConfig,
    MaskCache,
    PretokenizeOptions,
    SamplerConfig,
    ScriptedModel,
    Vocabulary,
    aligned_generate,
    build_ngram_model,
    build_trie,
    decode,
    edit_similarity,
    encode,
    first_token_accuracy,
    fixtures,
    generate,
    generate_dataset,
    levenshtein,
    load_vocabulary,
    make_rng,
    pass_at_k,
    rouge_l,
    train_tiny_bpe,
)
from tokalign.bench import bench_alignment_steps, boundary_prompts
from tokalign.cli import main as cli_main

TRAIN_OPTIONS = PretokenizeOptions(space_prefix=True, group_whitespace=True)


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    return fixtures.build_code_corpus()


@pytest.fixture(scope="module")
def texts(corpus):
    return [t for _, t in corpus]


@pytest.fixture(scope="module")
def assets(texts):
    vocab = train_tiny_bpe(texts, 512, TRAIN_OPTIONS)
    provider = build_ngram_model(texts, vocab, order=3, alpha=0.1)
    trie = build_trie(vocab)
    return vocab, provider, trie


def _random_vocab(rng, size):
    tokens = set()
    while len(tokens) < size:
        length = int(rng.integers(1, 8))
        tokens.add(bytes(rng.integers(97, 102, size=length, dtype="uint8")))
    return Vocabulary(sorted(tokens))


def test_criterion_1_trie_oracle_equivalence():
    """>=100 random vocabularies (V up to 2000) x 100 prefixes, bit-exact."""
    rng = make_rng(101)
    checked = 0
    for v in range(100):
        size = int(rng.integers(50, 2001)) if v else 2000
        vocab = _random_vocab(rng, size)
        trie = build_trie(vocab)
        tokens = vocab.tokens
        for _ in range(100):
            if rng.random() < 0.5:
                base = tokens[int(rng.integers(len(tokens)))]
                extra = bytes(rng.integers(97, 102, size=rng.integers(0, 3), dtype="uint8"))
                prefix = base + extra
            else:
                prefix = bytes(rng.integers(97, 102, size=rng.integers(0, 9), dtype="uint8"))
            got = set(trie.matching_tokens(prefix).tolist())
            want = {
                i
                for i, t in enumerate(tokens)
                if t.startswith(prefix) or prefix.startswith(t)
            }
            assert got == want, (size, prefix)
            checked += 1
    _report("criterion 1: trie oracle equivalence", True, f"{checked} queries")


def _randomized_runs(texts, capacity, seed=1234, total=1002):
    rng = make_rng(seed)
    outputs = []
    per_vocab = total // 3
    for size in (400, 512, 640):
        vocab = train_tiny_bpe(texts, size, TRAIN_OPTIONS)
        assert vocab.has_all_byte_tokens()
        provider = build_ngram_model(texts, vocab, order=3, alpha=0.1)
        trie = build_trie(vocab)
        cache = MaskCache(trie, capacity=capacity)
        for _ in range(per_vocab):
            doc = texts[int(rng.integers(len(texts)))]
            cut = int(rng.integers(1, len(doc)))
            prompt = doc[:cut]
            b = int(rng.integers(1, 4))
            mode = "greedy" if rng.random() < 0.5 else "nucleus"
            cfg = SamplerConfig(
                mode=mode, top_p=0.9, temperature=1.0,
                seed=int(rng.integers(2 ** 31)), max_new_tokens=8,
            )
            result = aligned_generate(
                provider, vocab, trie, cache, prompt, AlignConfig(backtrack_tokens=b), cfg
            )
            ids = encode(vocab, prompt)
            initial_prefix = decode(vocab, ids[-min(b, len(ids)):])
            outputs.append(
                (prompt, result.output, result.alignment_steps, len(initial_prefix))
            )
    return outputs


@pytest.fixture(scope="module")
def randomized_runs(texts):
    return _randomized_runs(texts, capacity=1024)


def test_criterion_2_prompt_preservation(randomized_runs):
    """>=1000 randomized aligned generations: output startswith prompt.

    A dead end raises while the runs are built, so it fails this test too.
    """
    assert len(randomized_runs) >= 1000
    mismatched = sum(
        1 for prompt, output, _, _ in randomized_runs if not output.startswith(prompt)
    )
    _report(
        "criterion 2: prompt preservation",
        mismatched == 0,
        f"{len(randomized_runs)} runs, {mismatched} mismatches",
    )


def test_criterion_3_termination_and_step_mode(randomized_runs, corpus, assets):
    """Steps never exceed the prefix length; boundary-prompt step mode == 3."""
    bound_ok = all(
        steps <= prefix_len for _, _, steps, prefix_len in randomized_runs
    )
    vocab, provider, _ = assets
    prompts = boundary_prompts(corpus, vocab, count=300, seed=11)
    histogram = bench_alignment_steps(provider, vocab, prompts, backtrack_tokens=3)
    _report(
        "criterion 3: termination bound and step mode",
        bound_ok and histogram["mode"] == 3,
        f"mode={histogram['mode']}, histogram={histogram['histogram']}",
    )


def test_criterion_4_bundled_completion_demo():
    """The bundled demo: aligned recovers 'return', plain decoding degenerates."""
    vocab = load_vocabulary(fixtures.data_path(fixtures.DEMO_VOCAB_FILE))
    with open(fixtures.data_path(fixtures.DEMO_TABLE_FILE)) as fh:
        provider = ScriptedModel.from_json_dict(vocab, json.load(fh))
    trie = build_trie(vocab)
    cache = MaskCache(trie)
    cfg = SamplerConfig(mode="greedy", max_new_tokens=6)
    prompt = fixtures.DEMO_PROMPT
    aligned = aligned_generate(provider, vocab, trie, cache, prompt, AlignConfig(), cfg)
    plain = generate(provider, vocab, prompt, cfg)
    aligned_ok = aligned.output.startswith(prompt + b"turn")
    plain_ok = plain.output.startswith(prompt + b" = []") and not plain.output.startswith(
        prompt + b"turn"
    )
    _report(
        "criterion 4: completion demo fixture",
        aligned_ok and plain_ok,
        f"aligned={aligned.output[len(prompt):][:18]!r}, plain={plain.output[len(prompt):][:18]!r}",
    )


def test_criterion_5_directional_improvement(corpus, assets):
    """Aligned first-token accuracy beats unaligned on all five scenario
    datasets; the two arms stay within 2 points on every baseline dataset."""
    vocab, provider, trie = assets
    cache = MaskCache(trie)
    cfg = SamplerConfig(mode="greedy", max_new_tokens=16)
    align_cfg = AlignConfig(backtrack_tokens=3)
    details = []
    ok = True
    from tokalign import SCENARIOS

    for scenario in SCENARIOS:
        examples, _ = generate_dataset(corpus, scenario, seed=7)
        scores = {False: {"aligned": [], "unaligned": []},
                  True: {"aligned": [], "unaligned": []}}
        for ex in examples:
            for use_baseline in (False, True):
                prompt = ex.baseline_prompt if use_baseline else ex.prompt
                if not prompt:
                    continue
                if use_baseline:
                    reference = ex.prompt[len(ex.baseline_prompt):] + ex.ground_truth
                else:
                    reference = ex.ground_truth
                aligned = aligned_generate(
                    provider, vocab, trie, cache, prompt, align_cfg, cfg
                )
                plain = generate(provider, vocab, prompt, cfg)
                scores[use_baseline]["aligned"].append(
                    first_token_accuracy(aligned.output[len(prompt):], reference, vocab)
                )
                scores[use_baseline]["unaligned"].append(
                    first_token_accuracy(plain.output[len(prompt):], reference, vocab)
                )
        fta_aligned = float(np.mean(scores[False]["aligned"]))
        fta_plain = float(np.mean(scores[False]["unaligned"]))
        base_delta = abs(
            float(np.mean(scores[True]["aligned"])) - float(np.mean(scores[True]["unaligned"]))
        )
        scenario_ok = fta_aligned > fta_plain and base_delta < 0.02
        ok = ok and scenario_ok
        details.append(
            f"{scenario}: {fta_aligned:.2f}>{fta_plain:.2f}, base|d|={base_delta * 100:.1f}pt"
        )
    _report("criterion 5: directional improvement", ok, "; ".join(details))


def test_criterion_6_pass_at_k_exhaustive():
    """pass@k equals subset enumeration for all n<=12, exact to 1e-12."""
    worst = 0.0
    for n in range(1, 13):
        for c in range(n + 1):
            for k in range(1, n + 1):
                outcomes = [1] * c + [0] * (n - c)
                subsets = list(itertools.combinations(range(n), k))
                expected = sum(
                    1 for s in subsets if any(outcomes[i] for i in s)
                ) / len(subsets)
                worst = max(worst, abs(pass_at_k(n, c, k) - expected))
    specific = abs(pass_at_k(5, 2, 3) - 0.9)
    _report(
        "criterion 6: pass@k estimator",
        worst <= 1e-12 and specific <= 1e-12,
        f"max abs error {worst:.2e}",
    )


def test_criterion_7_metric_oracles():
    """ES matches a reference DP on 1000 random pairs; rouge-l matches
    enumeration on word lists of length <= 8.  Exact."""
    rng = make_rng(707)

    def dp_reference(a, b):
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(len(a) + 1):
            table[i][0] = i
        for j in range(len(b) + 1):
            table[0][j] = j
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                table[i][j] = min(
                    table[i - 1][j] + 1,
                    table[i][j - 1] + 1,
                    table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                )
        return table[len(a)][len(b)]

    for _ in range(1000):
        a = bytes(rng.integers(97, 103, size=rng.integers(0, 25), dtype="uint8"))
        b = bytes(rng.integers(97, 103, size=rng.integers(0, 25), dtype="uint8"))
        distance = dp_reference(a, b)
        assert levenshtein(a, b) == distance
        longest = max(len(a), len(b))
        expected = 1.0 if longest == 0 else 1.0 - distance / longest
        assert edit_similarity(a, b) == expected

    words = [b"aa", b"bb", b"cc", b"dd", b"ee"]
    for _ in range(300):
        a = [words[i] for i in rng.integers(0, 5, size=rng.integers(0, 9))]
        b = [words[i] for i in rng.integers(0, 5, size=rng.integers(0, 9))]
        lcs = 0
        for r in range(min(len(a), len(b)), 0, -1):
            found = False
            for combo in itertools.combinations(a, r):
                it = iter(b)
                if all(w in it for w in combo):
                    found = True
                    break
            if found:
                lcs = r
                break
        got = rouge_l(b" ".join(a), b" ".join(b))
        if not a or not b or lcs == 0:
            assert got == 0.0
        else:
            p, rr = lcs / len(a), lcs / len(b)
            assert got == 2 * p * rr / (p + rr)
    _report("criterion 7: metric oracles", True, "1000 ES pairs, 300 rouge pairs")


def test_criterion_8_mask_cache_transparency(texts, randomized_runs):
    """Cache capacities 0, 1, 1024 produce byte-identical generations."""
    reference = [(p, o) for p, o, _, _ in randomized_runs]
    ok = True
    for capacity in (0, 1):
        other = [(p, o) for p, o, _, _ in _randomized_runs(texts, capacity=capacity)]
        ok = ok and other == reference
    _report("criterion 8: mask-cache transparency", ok, "capacities 0/1/1024")


def test_criterion_9_lookup_latency(tmp_path):
    """50k vocabulary: trie median < 1 ms and < naive median; cached <= trie.

    Set TOKALIGN_RELAX_LATENCY=1 to downgrade the absolute <1 ms bound to
    report-only on slow machines; the orderings always remain asserted.
    """
    out = tmp_path / "bench.json"
    code = cli_main([
        "bench", "--vocab-size", "50000", "--queries", "10000", "--warmup", "1000",
        "--naive-queries", "200", "--skip-steps", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    lookup = json.loads(out.read_text())["lookup"]
    trie_p50 = lookup["trie_us"]["p50"]
    naive_p50 = lookup["naive_us"]["p50"]
    cached_p50 = lookup["cached_single_space_us"]["p50"]
    orderings = trie_p50 < naive_p50 and cached_p50 <= trie_p50
    under_ms = trie_p50 < 1000.0
    detail = f"trie={trie_p50:.1f}us naive={naive_p50:.1f}us cached={cached_p50:.2f}us"
    if os.environ.get("TOKALIGN_RELAX_LATENCY") == "1" and not under_ms:
        print(f"NOTE criterion 9: <1ms bound relaxed on this machine [{detail}]")
        under_ms = True
    _report("criterion 9: lookup latency", orderings and under_ms, detail)


def test_criterion_10_seeded_determinism(tmp_path):
    """Every seeded pipeline is bit-reproducible across consecutive runs."""
    prompts = tmp_path / "p.jsonl"
    prompts.write_text(
        json.dumps(
            {"id": "d", "prompt_b64": base64.b64encode(fixtures.DEMO_PROMPT).decode()}
        )
        + "\n"
    )
    runs = {"a": {}, "b": {}}
    for tag in runs:
        base = tmp_path / tag
        base.mkdir()
        vocab_path = base / "v.json"
        assert cli_main([
            "vocab", "train", "--corpus", "bundled:code",
            "--target-size", "400", "--out", str(vocab_path),
        ]) == 0
        assert cli_main([
            "gen-dataset", "--corpus", "bundled:code", "--scenario", "subword",
            "--seed", "7", "--out", str(base / "ds.jsonl"),
        ]) == 0
        assert cli_main([
            "align", "--vocab", "bundled:demo-vocab",
            "--provider", "scripted:bundled:demo-table",
            "--prompt-file", str(prompts), "--mode", "nucleus", "--top-p", "0.95",
            "--temperature", "1.1", "--seed", "5", "--max-new-tokens", "8",
            "--out", str(base / "gen.jsonl"),
        ]) == 0
        assert cli_main([
            "eval", "--dataset", str(base / "ds.jsonl"), "--vocab", str(vocab_path),
            "--provider", "ngram:bundled:code", "--metrics", "fta,em,es",
            "--seed", "5", "--max-new-tokens", "8", "--out", str(base / "report.json"),
        ]) == 0
        for name in ("v.json", "ds.jsonl", "gen.jsonl", "report.json"):
            runs[tag][name] = (base / name).read_bytes()
    mismatches = [n for n in runs["a"] if runs["a"][n] != runs["b"][n]]
    _report(
        "criterion 10: seeded determinism",
        not mismatches,
        "vocab train, gen-dataset, align, eval" if not mismatches else str(mismatches),
    )
