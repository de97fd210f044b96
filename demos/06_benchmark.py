"""
Lookup latency and alignment step counts
========================================

Masking every decoding step is only viable if the compatibility query
is far cheaper than the model call.  On a 50k-token vocabulary the index
answers in microseconds where a linear scan takes milliseconds, and the
cache answers a key it has seen (here the single space) in fractions of
a microsecond.

The second half measures how many constrained steps alignment takes on
prompts that end exactly at token boundaries: the count concentrates at
the backtrack depth.
"""

from tokalign import PretokenizeOptions, build_ngram_model, fixtures, train_tiny_bpe
from tokalign.bench import (
    bench_alignment_steps,
    bench_lookup,
    boundary_prompts,
    make_synthetic_vocabulary,
)

vocab = make_synthetic_vocabulary(50_000, seed=0)
print(f"synthetic vocabulary: {len(vocab)} tokens")
lookup = bench_lookup(vocab, queries=5_000, warmup=500, naive_queries=50, seed=0)
for key in ("trie_us", "naive_us", "cached_single_space_us"):
    p = lookup[key]
    print(f"{key:>24}: p50={p['p50']:9.2f}us  p90={p['p90']:9.2f}us  p99={p['p99']:9.2f}us")

corpus = fixtures.build_code_corpus()
texts = [t for _, t in corpus]
trained = train_tiny_bpe(texts, 512, PretokenizeOptions(space_prefix=True, group_whitespace=True))
provider = build_ngram_model(texts, trained, order=3, alpha=0.1)
prompts = boundary_prompts(corpus, trained, count=200, seed=11)
steps = bench_alignment_steps(provider, trained, prompts, backtrack_tokens=3)
print(f"\nalignment steps over {steps['prompts']} boundary prompts (backtrack=3):")
print("histogram:", steps["histogram"], "mode:", steps["mode"])
