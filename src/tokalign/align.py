"""Prompt backtracking and prefix-masked decoding.

A prompt that ends mid-token is out-of-distribution for the model.  The
fix: drop the last B tokens from the model context, keep their bytes as
an *alignment prefix*, and constrain decoding so every sampled token
either starts with the remaining prefix or is itself a prefix of it.
Each accepted token consumes its bytes from the prefix; once the prefix
is empty, unconstrained decoding takes over.  The emitted bytes then
reproduce the prompt exactly and continue from a tokenization the model
has actually seen.

The alignment loop in :func:`aligned_generate` keeps the context ids and
the leftover prefix.  While it runs, ``decode(context) + prefix`` equals
the prompt, and every step shrinks ``prefix``; the step that empties it
may add surplus bytes past the prompt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .decoding import (
    ConfigError,
    GenerationResult,
    LogitsProvider,
    SamplerConfig,
    check_distribution,
    make_rng,
    run_free_phase,
    sample,
)
from .trie import ByteTrie, MaskCache, TokenMask
from .vocab import Vocabulary, decode, encode

# NumPy's ``add.reduce`` adds at most this many float64 values left to
# right (longer arrays pairwise), so a Python left fold gives its bits
# only this far (tests/test_dense_reference.py checks it).
_ORDERED_SUM_MAX = 7


class AlignmentError(RuntimeError):
    """Base class for alignment failures."""


class EmptyMaskError(AlignmentError):
    """:func:`mask_distribution` was given no compatible ids."""

    def __init__(self):
        super().__init__("the compatible-id array is empty")


class DeadEndError(AlignmentError):
    """No token fits the leftover prefix, so alignment cannot continue.

    An earlier step took a token whose leftover bytes no token covers,
    which only a vocabulary lacking some single-byte token allows.  Other
    earlier choices, the backtracked tokens for one, would have completed.
    """

    def __init__(self, prefix: bytes, context: list[int], steps_taken: int):
        super().__init__(
            f"alignment dead end: prefix {prefix!r} matches no token "
            f"after {steps_taken} steps (context length {len(context)})"
        )
        self.prefix = prefix
        self.context = context
        self.steps_taken = steps_taken


class AlignmentContractError(AlignmentError):
    """A caller advanced with a token outside the compatibility mask."""


@dataclass
class AlignConfig:
    """Backtracking parameters.

    ``backtrack_tokens`` defaults to 3; one token often under-backtracks
    past multi-token artifacts like space-prefixed words.
    """

    backtrack_tokens: int = 3

    def __post_init__(self):
        if self.backtrack_tokens < 1:
            raise ConfigError("backtrack_tokens", "backtrack_tokens must be >= 1")


def backtrack_split(
    ids: list[int], vocab: Vocabulary, backtrack_tokens: int
) -> tuple[list[int], bytes]:
    """Split ids into (context, alignment-prefix bytes of the last B tokens).

    B is clamped to the sequence length, so short prompts degrade to a
    full backtrack with empty context.
    """
    if backtrack_tokens < 1:
        raise ConfigError("backtrack_tokens", "backtrack_tokens must be >= 1")
    if not ids:
        raise ValueError("cannot backtrack an empty token sequence")
    b = min(backtrack_tokens, len(ids))
    return list(ids[:-b]), decode(vocab, ids[-b:])


def mask_distribution(dist: np.ndarray, ids: TokenMask) -> np.ndarray:
    """Probabilities of the compatible ``ids``, renormalized over them.

    Position ``k`` of the result belongs to token ``ids[k]``; everything
    outside ``ids`` is implicitly zero.  When the model assigns zero mass
    to every compatible token, the result is uniform over the compatible
    set: alignment promises a prompt-consistent continuation whenever one
    exists, even under toy providers that emit hard zeros.
    """
    n = len(ids)
    if n == 0:
        raise EmptyMaskError()
    subset = dist[ids]
    if n <= _ORDERED_SUM_MAX and subset.dtype.type is np.float64:
        # the sum NumPy would take, without its call overhead
        total = 0.0
        for x in subset.tolist():
            total += x
    else:
        total = np.add.reduce(subset)
    if total > 0.0:
        return subset / total
    return np.full(n, 1.0 / n)


def advance(prefix: bytes, chosen: int, vocab: Vocabulary) -> bytes:
    """The prefix left after the chosen token consumes its bytes.

    A token longer than the prefix empties it; the surplus bytes are
    ordinary generated output.
    """
    token = vocab.token_bytes(chosen)
    if vocab.is_special(chosen) or not (token.startswith(prefix) or prefix.startswith(token)):
        raise AlignmentContractError(
            f"token {chosen} ({token!r}) is not compatible with prefix {prefix!r}"
        )
    return prefix[len(token):]


def aligned_generate(
    provider: LogitsProvider,
    vocab: Vocabulary,
    trie: ByteTrie,
    cache: MaskCache,
    prompt: bytes,
    align_cfg: AlignConfig,
    sampler_cfg: SamplerConfig,
) -> GenerationResult:
    """Full pipeline: encode, backtrack, masked decoding, then free decoding.

    Every alignment step takes its compatible ids from
    ``cache.lookup(trie, prefix)``; ``MaskCache(trie, 0)`` stores nothing,
    so each lookup then queries the index.  A step whose mask holds one id
    is forced: it takes that id without calling the provider or checking
    a row, and in nucleus mode still takes the one ``rng.random()`` a
    draw would, so outputs are those of a loop that asks every step.
    """
    prompt = bytes(prompt)
    if provider.vocab_size != len(vocab):
        raise ValueError(
            f"provider vocab size {provider.vocab_size} != vocabulary size {len(vocab)}"
        )
    context, prefix = backtrack_split(encode(vocab, prompt), vocab, align_cfg.backtrack_tokens)
    # Loop state: context, prefix and the step count len(mask_sizes).
    # While the loop runs, decode(context) + prefix == prompt, and every
    # step shrinks prefix, so len(prefix) bounds the step count.
    max_steps = len(prefix)
    rng = make_rng(sampler_cfg.seed)
    mask_sizes: list[int] = []
    per_lookup_max_ns = 0
    # Per-request constants; the module-level helpers stay global lookups
    # made at call time, so a wrapper installed on the module sees every call.
    next_distribution = provider.next_distribution
    size = len(vocab)
    nucleus = sampler_cfg.mode == "nucleus"
    clock = time.perf_counter_ns

    t_align = clock()
    while prefix:
        if len(mask_sizes) >= max_steps:
            raise AlignmentError(
                f"alignment exceeded {max_steps} steps without consuming the prefix"
            )
        t_step = clock()
        ids = cache.lookup(trie, prefix)
        step_ns = clock() - t_step
        if len(ids) == 0:
            raise DeadEndError(prefix, context, len(mask_sizes))
        if len(ids) == 1:
            # a forced step: the draw is decided, so the provider is not
            # asked; a nucleus draw would still have taken one number
            if nucleus:
                rng.random()
            chosen = ids.item(0)
        else:
            dist = check_distribution(next_distribution(context), size)
            t_mask = clock()
            probs = mask_distribution(dist, ids)
            step_ns += clock() - t_mask
            chosen = ids.item(sample(probs, sampler_cfg, rng))
        if step_ns > per_lookup_max_ns:
            per_lookup_max_ns = step_ns
        mask_sizes.append(len(ids))
        prefix = advance(prefix, chosen, vocab)
        context.append(chosen)
    alignment_us = (clock() - t_align) / 1000.0

    produced = decode(vocab, context)
    if not produced.startswith(prompt):
        raise AlignmentError("alignment lost prompt bytes")
    generated = bytearray(produced[len(prompt):])

    t_free = time.perf_counter_ns()
    stop_at = run_free_phase(provider, vocab, context, generated, sampler_cfg, rng)
    free_us = (time.perf_counter_ns() - t_free) / 1000.0

    out = bytes(generated) if stop_at is None else bytes(generated[:stop_at])
    return GenerationResult(
        prompt=prompt,
        output=prompt + out,
        token_ids=context,
        mask_sizes=mask_sizes,
        timings_us={
            "alignment": alignment_us,
            "free": free_us,
            "per_lookup_max": per_lookup_max_ns / 1000.0,
        },
    )

