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
from .trie import MaskCache, build_trie
from .vocab import Vocabulary, decode, encode

_WORD_BYTES = b"abcdefghijklmnopqrstuvwxyz"
_WHITESPACE_TOKENS = [
    b"  ", b"    ", b"        ", b"\n", b"\n ", b"\n  ", b"\n   ",
    b"\n    ", b"\n\n", b"\t", b"\t\t", b"\n\t",
]


def make_synthetic_vocabulary(size: int, seed: int = 0) -> Vocabulary:
    """Deterministic wordlike vocabulary of ``size`` tokens.

    All 256 single-byte tokens, some whitespace-run tokens, then
    pseudo-random lowercase words, roughly half space-prefixed, with
    lengths between 2 and 12 bytes.  Greedy-match encoding (no merges).
    """
    if size < 256:
        raise ValueError("size must be >= 256")
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


def bench_lookup(
    vocab: Vocabulary,
    queries: int = 10_000,
    warmup: int = 1_000,
    naive_queries: int = 200,
    seed: int = 0,
) -> dict:
    """Per-query latency of index lookup, naive scan, and cached single-space mask."""
    trie = build_trie(vocab)
    prefixes = _query_prefixes(vocab, queries + warmup, seed)

    for p in prefixes[:warmup]:
        trie.matching_tokens(p)
    trie_us = []
    for p in prefixes[warmup:]:
        t0 = time.perf_counter_ns()
        trie.matching_tokens(p)
        trie_us.append((time.perf_counter_ns() - t0) / 1000.0)

    naive_us = []
    for p in prefixes[warmup : warmup + naive_queries]:
        t0 = time.perf_counter_ns()
        naive_matching_ids(vocab, p)
        naive_us.append((time.perf_counter_ns() - t0) / 1000.0)

    cache = MaskCache(trie)
    cache.lookup(trie, b" ")  # warm (pre-seeded already)
    cached_us = []
    for _ in range(len(prefixes) - warmup):
        t0 = time.perf_counter_ns()
        cache.lookup(trie, b" ")
        cached_us.append((time.perf_counter_ns() - t0) / 1000.0)

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
    """Prompts guaranteed to end at a token boundary: truncated encodings."""
    rng = make_rng(seed)
    prompts = []
    docs = [text for _, text in corpus if text]
    attempts = 0
    while len(prompts) < count and attempts < count * 20:
        attempts += 1
        ids = encode(vocab, docs[int(rng.integers(len(docs)))])
        if len(ids) <= min_tokens + 1:
            continue
        cut = int(rng.integers(min_tokens, len(ids)))
        prompts.append(decode(vocab, ids[:cut]))
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
