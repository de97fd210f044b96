"""Workload definitions: the system under test, its set-up, and seeded prompts.

A workload fixes the vocabulary, the provider and the sampler.  Only the
prompts (and, for nucleus sampling, each prompt's sampler seed) depend on
the ``--seed`` argument; the vocabulary and provider are the same in every
run, as a deployed model would be.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from tokalign import (
    AlignConfig,
    MaskCache,
    PretokenizeOptions,
    SamplerConfig,
    backtrack_split,
    build_ngram_model,
    build_trie,
    encode,
    fixtures,
    scenarios,
    train_tiny_bpe,
)
from tokalign.bench import make_synthetic_vocabulary

# The default backtrack of 3 tokens, as `tokalign eval` uses it.
ALIGN_CFG = AlignConfig(backtrack_tokens=3)
CACHE_CAPACITY = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    vocab: str  # "bpe" (trained on the bundled code corpus) | "synthetic"
    vocab_size: int
    mode: str  # "greedy" | "nucleus"
    max_new_tokens: int
    setup_reps: int
    # Synthetic prompts only: how many, and how many distinct tails they
    # share (0 = every tail distinct).
    prompts: int = 0
    tail_pool: int = 0
    # Bundled-corpus prompts only: truncate the dataset (0 = keep all).
    max_prompts: int = 0
    # Size of the sort in the machine-speed reference, and the reference's
    # nominal time in ms (see run.Reference).
    reference_sort: int = 1024
    reference_ms: float = 0.1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("code512-eval", "bpe", 512, "greedy", 16, setup_reps=7),
        # Free nucleus draws, each an argsort of 50k floats, dominate here.
        Workload("synth50k-nucleus-hot", "synthetic", 50_000, "nucleus", 2,
                 setup_reps=3, prompts=192, tail_pool=96,
                 reference_sort=16384, reference_ms=1.5),
        Workload("synth50k-greedy-cold", "synthetic", 50_000, "greedy", 1,
                 setup_reps=3, prompts=2000, tail_pool=0),
    )
}


class FixedCostProvider:
    """Provider whose own cost is one index: it returns a precomputed row.

    At construction it builds ``rows`` Zipf-shaped distributions.  Each
    ranks the ids longest token first, in a seeded order within a length:
    a trained model prefers the long tokens of a canonical tokenization
    over byte-level pieces, so alignment takes a few steps, not one per
    prefix byte.  Every entry is positive, so a nucleus cut keeps a
    realistic set instead of a handful of ids.  A call picks the row by
    the last context id, so timings show tokalign's overhead rather than
    a model's.
    """

    def __init__(self, vocab, rows: int = 32, exponent: float = 1.1, seed: int = 0):
        rng = np.random.default_rng(seed)
        size = len(vocab)
        lengths = np.asarray([len(t) for t in vocab.tokens])
        zipf = np.arange(1, size + 1, dtype=np.float64) ** -exponent
        zipf /= zipf.sum()
        table = np.empty((rows, size), dtype=np.float64)
        for r in range(rows):
            table[r, np.lexsort((rng.random(size), -lengths))] = zipf
        table.setflags(write=False)
        self.vocab_size = size
        self._rows = list(table)

    def next_distribution(self, context) -> np.ndarray:
        if not context:
            return self._rows[0]
        return self._rows[context[-1] % len(self._rows)]


@dataclass
class System:
    vocab: object
    trie: object
    cache: MaskCache
    provider: object


def build_system(spec: Workload, corpus: list[tuple[str, bytes]] | None) -> tuple[System, dict]:
    """Build vocabulary, trie, mask cache and provider; return them with each part's seconds."""
    clock = time.perf_counter
    t0 = clock()
    if spec.vocab == "bpe":
        texts = [text for _, text in corpus]
        options = PretokenizeOptions(space_prefix=True, group_whitespace=True)
        vocab = train_tiny_bpe(texts, spec.vocab_size, options)
    else:
        vocab = make_synthetic_vocabulary(spec.vocab_size)
    t1 = clock()
    trie = build_trie(vocab)
    t2 = clock()
    cache = MaskCache(trie, CACHE_CAPACITY)
    t3 = clock()
    if spec.vocab == "bpe":
        provider = build_ngram_model(texts, vocab, order=3, alpha=0.1)
    else:
        provider = FixedCostProvider(vocab)
    t4 = clock()
    parts = {"vocab_s": t1 - t0, "trie_s": t2 - t1, "cache_s": t3 - t2, "provider_s": t4 - t3}
    return System(vocab, trie, cache, provider), parts


@dataclass(frozen=True)
class Prompt:
    text: bytes
    sampler: SamplerConfig
    # What backtracking leaves: the kept context length and the alignment
    # prefix.  Used only to check and describe results, never sent.
    context_len: int
    prefix: bytes


def _prompt_texts(spec: Workload, seed: int, corpus, vocab) -> list[bytes]:
    if spec.vocab == "bpe":
        texts = []
        for scenario in scenarios.SCENARIOS:
            examples, _ = scenarios.generate_dataset(corpus, scenario, seed, per_doc=4)
            texts.extend(ex.prompt for ex in examples if ex.prompt)
        return texts[: spec.max_prompts] if spec.max_prompts else texts
    return _synthetic_prompts(spec, seed, vocab)


def _synthetic_prompts(spec: Workload, seed: int, vocab) -> list[bytes]:
    """Random word heads, then a newline-led tail that ends inside a word.

    The synthetic vocabulary has no token that spans a newline after a
    word byte, so a prompt's last tokens, and so its alignment prefixes,
    depend only on its tail.  Sharing tails across prompts therefore
    bounds the number of distinct prefixes; distinct tails make them
    unbounded.
    """
    rng = np.random.default_rng(seed)
    words = [t for t in vocab.tokens[256:] if t.lstrip(b" ").isalpha()]

    def phrase(lo: int, hi: int) -> bytes:
        return b"".join(words[int(k)] for k in rng.integers(0, len(words), int(rng.integers(lo, hi))))

    def tail() -> bytes:
        cut_word = words[int(rng.integers(len(words)))]
        return b"\n" + phrase(2, 5) + cut_word[: int(rng.integers(1, len(cut_word)))]

    pool: list[bytes] = []
    seen: set[bytes] = set()
    while len(pool) < (spec.tail_pool or spec.prompts):
        t = tail()
        if t not in seen:
            seen.add(t)
            pool.append(t)
    if spec.tail_pool:
        return [phrase(4, 13) + pool[int(rng.integers(len(pool)))] for _ in range(spec.prompts)]
    return [phrase(4, 13) + t for t in pool]


def make_prompts(spec: Workload, seed: int, corpus, vocab) -> list[Prompt]:
    texts = _prompt_texts(spec, seed, corpus, vocab)
    seeds = np.random.default_rng([seed, 1]).integers(0, 2**63, size=len(texts))
    prompts = []
    for text, sampler_seed in zip(texts, seeds):
        sampler = SamplerConfig(
            mode=spec.mode,
            top_p=0.9 if spec.mode == "nucleus" else 1.0,
            seed=int(sampler_seed),
            max_new_tokens=spec.max_new_tokens,
        )
        context, prefix = backtrack_split(encode(vocab, text), vocab, ALIGN_CFG.backtrack_tokens)
        prompts.append(Prompt(text, sampler, len(context), prefix))
    return prompts


def load_inputs(spec: Workload):
    """The bundled corpus for the trained-vocabulary workload, else None."""
    if spec.vocab != "bpe":
        return None
    return scenarios.load_corpus(fixtures.data_path("code_corpus.jsonl"))
