"""Every layer the benchmark traces is reached by a real request.

``e2ebench/spans.py`` wraps tokalign's module-level names.  If the
package stops calling one of them, the traced run records no span for
it and its per-layer metric silently reads 0.  This runs one aligned and
one plain request under the tracer and checks that each arm records
every span it should.
"""

import importlib.util
from pathlib import Path

from tokalign import (
    AlignConfig,
    MaskCache,
    SamplerConfig,
    aligned_generate,
    build_trie,
    fixtures,
    generate,
)

SPANS = Path(__file__).resolve().parent.parent / "e2ebench" / "spans.py"

PLAIN = {
    "vocab.encode",
    "decoding.provider",
    "decoding.check_distribution",
    "decoding.run_free_phase",
    "decoding.sample_free",
}
ALIGNED = PLAIN | {
    "align.backtrack_split",
    "trie.lookup",
    "trie.matching_tokens",
    "align.mask_distribution",
    "decoding.sample_align",
    "align.advance",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("e2ebench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_arm_records_every_traced_layer(demo_vocab, demo_model):
    spans = load_spans()
    tracer = spans.Tracer()
    provider = spans.TracedProvider(demo_model, tracer)
    trie = build_trie(demo_vocab)
    cfg = SamplerConfig(mode="greedy", max_new_tokens=4)
    with spans.installed(tracer):
        tracer.request = 0
        # capacity 0 sends every lookup on to the index
        aligned = aligned_generate(
            provider, demo_vocab, trie, MaskCache(trie, 0), fixtures.DEMO_PROMPT,
            AlignConfig(), cfg,
        )
        tracer.request = 1
        generate(provider, demo_vocab, fixtures.DEMO_PROMPT, cfg)
    assert aligned.alignment_steps > 0
    # a forced step (one compatible id) calls neither the provider nor the
    # sampler, so the request needs a step with a choice to reach them
    assert any(size > 1 for size in aligned.mask_sizes), aligned.mask_sizes
    recorded = [
        {name for name, request in zip(tracer.names, tracer.requests) if request == r}
        for r in (0, 1)
    ]
    assert ALIGNED <= recorded[0], sorted(ALIGNED - recorded[0])
    assert PLAIN <= recorded[1], sorted(PLAIN - recorded[1])
