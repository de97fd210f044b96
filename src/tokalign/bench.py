"""Micro-benchmarks: index lookup vs naive scan vs cached masks, and
alignment step-count statistics over boundary-aligned prompts.

Lookup cost depends on prefix length, so results report percentiles,
not just means.  The naive comparator is the obvious linear scan over
the vocabulary; it is measured on a smaller query sample because a
single 50k-token scan costs milliseconds.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from .align import AlignConfig, aligned_generate
from .decoding import LogitsProvider, SamplerConfig, make_rng
from .trie import ByteTrie, MaskCache, build_trie
from .vocab import ConfigError, Vocabulary, decode, encode

_WORD_BYTES = b"abcdefghijklmnopqrstuvwxyz"
_WHITESPACE_TOKENS = [
    b"  ", b"    ", b"        ", b"\n", b"\n ", b"\n  ", b"\n   ",
    b"\n    ", b"\n\n", b"\t", b"\t\t", b"\n\t",
]


# The range rules of the benchmark's counts.  ``tokalign bench`` calls them
# before it reads a corpus or builds a vocabulary; the functions that take
# the values call them again.


def check_synthetic_size(size: int) -> None:
    if size < 256:
        raise ConfigError("size", f"{size} tokens cannot hold the 256 single bytes")


def check_lookup_counts(queries: int, warmup: int, naive_queries: int) -> None:
    if queries < 1:
        raise ConfigError("queries", f"need at least 1 timed query, got {queries}")
    if naive_queries < 1:
        raise ConfigError("naive_queries", f"need at least 1 naive query, got {naive_queries}")
    if warmup < 0:
        raise ConfigError("warmup", f"warm-up count must be >= 0, got {warmup}")


def check_prompt_count(count: int) -> None:
    if count < 1:
        raise ConfigError("count", f"need at least 1 prompt, got {count}")


def make_synthetic_vocabulary(size: int, seed: int = 0) -> Vocabulary:
    """Deterministic wordlike vocabulary of ``size`` tokens.

    All 256 single-byte tokens, some whitespace-run tokens, then
    pseudo-random lowercase words, roughly half space-prefixed, with
    lengths between 2 and 12 bytes.  Greedy-match encoding (no merges).
    """
    check_synthetic_size(size)
    rng = make_rng(seed)
    tokens: list[bytes] = [bytes([i]) for i in range(256)]
    seen = set(tokens)
    for ws in _WHITESPACE_TOKENS:
        if len(tokens) >= size:
            break
        if ws not in seen:
            tokens.append(ws)
            seen.add(ws)
    while len(tokens) < size:
        length = int(rng.integers(2, 13))
        word = bytes(_WORD_BYTES[i] for i in rng.integers(0, 26, size=length))
        if rng.random() < 0.5:
            word = b" " + word
        if word not in seen:
            tokens.append(word)
            seen.add(word)
    return Vocabulary(tokens)


def naive_matching_ids(vocab: Vocabulary, prefix: bytes) -> list[int]:
    """Linear scan: every non-special token that starts with the prefix or is one of its prefixes."""
    return [
        i
        for i in vocab.non_special_ids()
        if vocab.tokens[i].startswith(prefix) or prefix.startswith(vocab.tokens[i])
    ]


def _query_prefixes(vocab: Vocabulary, count: int, seed: int) -> list[bytes]:
    # Alignment-prefix-shaped workload: the joined bytes of 1..3 random tokens.
    rng = make_rng(seed)
    ids = vocab.non_special_ids()
    queries = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        picks = rng.integers(0, len(ids), size=n)
        queries.append(b"".join(vocab.tokens[ids[int(p)]] for p in picks))
    return queries


def _percentiles(samples_us: list[float]) -> dict:
    arr = np.asarray(samples_us)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "p99": float(np.percentile(arr, 99)),
        "mean": float(arr.mean()),
        "count": len(samples_us),
    }


def _time_calls(fn, first, args) -> list[float]:
    """Microseconds of each ``fn(first, arg)`` call, one per ``arg``, in order."""
    samples_us = []
    for arg in args:
        t0 = time.perf_counter_ns()
        fn(first, arg)
        samples_us.append((time.perf_counter_ns() - t0) / 1000.0)
    return samples_us


def bench_lookup(
    vocab: Vocabulary,
    queries: int = 10_000,
    warmup: int = 1_000,
    naive_queries: int = 200,
    seed: int = 0,
) -> dict:
    """Per-query latency of index lookup, naive scan, and cached single-space mask."""
    check_lookup_counts(queries, warmup, naive_queries)
    trie = build_trie(vocab)
    prefixes = _query_prefixes(vocab, queries + warmup, seed)

    _time_calls(ByteTrie.matching_tokens, trie, prefixes[:warmup])
    trie_us = _time_calls(ByteTrie.matching_tokens, trie, prefixes[warmup:])
    naive_us = _time_calls(naive_matching_ids, vocab, prefixes[warmup : warmup + naive_queries])
    cache = MaskCache(trie)
    cache.lookup(trie, b" ")  # warm (pre-seeded already)
    cached_us = _time_calls(cache.lookup, trie, [b" "] * queries)

    return {
        "vocab_size": len(vocab),
        "queries": queries,
        "warmup": warmup,
        "trie_us": _percentiles(trie_us),
        "naive_us": _percentiles(naive_us),
        "cached_single_space_us": _percentiles(cached_us),
    }


def boundary_prompts(
    corpus: list[tuple[str, bytes]],
    vocab: Vocabulary,
    count: int,
    seed: int = 0,
    min_tokens: int = 6,
) -> list[bytes]:
    """Prompts guaranteed to end at a token boundary: truncated encodings.

    A ValueError names the token minimum when no drawn document is long
    enough to cut.
    """
    check_prompt_count(count)
    rng = make_rng(seed)
    prompts = []
    docs = [text for _, text in corpus if text]
    attempts = 0
    while docs and len(prompts) < count and attempts < count * 20:
        attempts += 1
        ids = encode(vocab, docs[int(rng.integers(len(docs)))])
        if len(ids) <= min_tokens + 1:
            continue
        cut = int(rng.integers(min_tokens, len(ids)))
        prompts.append(decode(vocab, ids[:cut]))
    if not prompts:
        raise ValueError(
            f"no document encodes to more than {min_tokens + 1} tokens, "
            "the least a boundary prompt needs"
        )
    return prompts


def bench_alignment_steps(
    provider: LogitsProvider,
    vocab: Vocabulary,
    prompts: list[bytes],
    backtrack_tokens: int = 3,
) -> dict:
    """Histogram of constrained-decoding step counts over the given prompts."""
    trie = build_trie(vocab)
    cache = MaskCache(trie)
    align_cfg = AlignConfig(backtrack_tokens=backtrack_tokens)
    sampler = SamplerConfig(mode="greedy", max_new_tokens=0)
    histogram: Counter[int] = Counter()
    for prompt in prompts:
        result = aligned_generate(provider, vocab, trie, cache, prompt, align_cfg, sampler)
        histogram[result.alignment_steps] += 1
    mode = max(histogram.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    return {
        "backtrack_tokens": backtrack_tokens,
        "prompts": len(prompts),
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
        "mode": mode,
    }
