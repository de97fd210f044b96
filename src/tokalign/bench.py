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
    lengths between 2 and 12 bytes, each kept the first time it is
    drawn.  Greedy-match encoding (no merges).

    A word is the draws of ``rng = make_rng(seed)``: its length
    ``rng.integers(2, 13)``, its letters ``rng.integers(0, 26,
    size=length)``, and a leading space when ``rng.random() < 0.5``.
    They are read straight off the generator's raw 64-bit outputs by the
    rule NumPy applies to them:

    - a 32-bit draw takes the low half of the next output and leaves its
      high half pending; the next 32-bit draw takes the pending half;
    - ``random()`` takes one whole output, and a pending half stays
      pending across it; it is below 0.5 when the output is below 2**63;
    - a draw in [0, n) from a 32-bit ``x`` is ``(x * n) >> 32``, redrawn
      while ``(x * n) mod 2**32 < 2**32 mod n`` (below 4 for n = 11,
      below 22 for n = 26).

    So the tokens equal those of the ``integers``/``random`` calls, as
    ``tests/test_synthetic_vocabulary.py`` checks.
    """
    check_synthetic_size(size)
    words = _words(make_rng(seed).bit_generator.random_raw)
    tokens: list[bytes] = [bytes([i]) for i in range(256)]
    seen = set(tokens)
    for ws in _WHITESPACE_TOKENS:
        if len(tokens) >= size:
            break
        if ws not in seen:
            tokens.append(ws)
            seen.add(ws)
    while len(tokens) < size:
        word = next(words)
        if word not in seen:
            tokens.append(word)
            seen.add(word)
    words.close()  # free the last chunk before the index arrays are built
    return Vocabulary(tokens)


# Raw outputs read per chunk: small, so the per-half temporaries stay small.
_CHUNK = 4096
_LOW = np.uint64(0xFFFFFFFF)
_LETTERS = np.frombuffer(_WORD_BYTES, dtype=np.uint8)


def _bounded(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each 32-bit ``x``'s draw in [0, n), and whether NumPy redraws it instead."""
    m = x * np.uint64(n)
    return m >> np.uint64(32), (m & _LOW) < np.uint64((1 << 32) % n)


def _words(random_raw, chunk: int = _CHUNK):
    """The synthetic words, endlessly, from ``random_raw(count)``'s 64-bit outputs.

    Each chunk of outputs is split into halves in draw order, and every
    half's length draw and letter are computed once.  Without a redraw a
    word's letters are then one run of halves, right after its length
    half or, when that was the pending half, from the next output on,
    so the loop over words only moves the cursor.  A word that touches a
    half some draw would redraw goes through :func:`_drawn_word`.
    """
    raw = np.empty(0, dtype=np.uint64)
    p, pend = 0, -1  # the next whole output; the pending half's index, or -1
    while True:
        # carry the unread tail, the pending half's output included
        start = p if pend < 0 else pend >> 1
        raw = np.concatenate((raw[start:], random_raw(chunk)))
        p -= start
        if pend >= 0:
            pend -= 2 * start
        halves = np.stack((raw & _LOW, raw >> np.uint64(32)), axis=1).ravel()
        length_draws, length_redrawn = _bounded(halves, 11)
        letter_draws, letter_redrawn = _bounded(halves, 26)
        lengths = length_draws.tolist()
        letters = _LETTERS[letter_draws].tobytes()
        flagged = np.flatnonzero(length_redrawn | letter_redrawn).tolist()
        flagged.append(len(halves))
        spaced = (raw < np.uint64(1 << 63)).tolist()
        f = 0
        n = len(raw)
        while p < n:
            if pend < 0:
                first = 2 * p  # the length half
                s = first + 1  # the first letter half
            else:
                first = pend
                s = 2 * p
            e = s + 2 + lengths[first]  # one past the last letter half
            if (e + 1) >> 1 >= n:
                break  # the word runs past the chunk
            while flagged[f] < first:
                f += 1
            if flagged[f] < e:
                word, p, pend, tail = _drawn_word(raw.tolist(), p, pend, random_raw, chunk)
                raw = np.asarray(tail, dtype=np.uint64)
                yield word
                break
            word = letters[s:e]
            p = (e + 1) >> 1
            pend = e if e & 1 else -1
            if spaced[p]:
                word = b" " + word
            p += 1
            yield word


def _drawn_word(raw: list[int], p: int, pend: int, random_raw, chunk: int):
    """One word by NumPy's per-draw rule, from the cursor ``p``, ``pend`` of :func:`_words`.

    Returns the word, the cursor after it and ``raw``, extended by more
    ``random_raw(chunk)`` outputs when the redraws run past its end.
    """

    def output() -> int:
        if p == len(raw):
            raw.extend(random_raw(chunk).tolist())
        return raw[p]

    def draw(n: int) -> int:
        nonlocal p, pend
        while True:
            if pend < 0:
                x = output() & 0xFFFFFFFF
                pend = 2 * p + 1
                p += 1
            else:
                x = raw[pend >> 1] >> 32
                pend = -1
            m = x * n
            if m & 0xFFFFFFFF >= (1 << 32) % n:
                return m >> 32

    length = 2 + draw(11)
    word = bytes(_WORD_BYTES[draw(26)] for _ in range(length))
    if output() < 1 << 63:
        word = b" " + word
    return word, p + 1, pend, raw


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
    cache.lookup(b" ")  # warm: the first lookup stores the mask
    cached_us = _time_calls(MaskCache.lookup, cache, [b" "] * queries)

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
