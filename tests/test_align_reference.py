"""The alignment loop against the earlier step-API loop.

The reference below is the loop ``aligned_generate`` used to run: an
``AlignmentState`` dataclass, an ``align_step`` that masks one
distribution and turns an empty mask into ``EmptyMaskError``, and an
``advance`` that returns a new state with a copied context.  On random
greedy longest-match and ``train_tiny_bpe`` vocabularies, each with and
without all 256 single bytes and with or without special tokens (some
with the bytes of ordinary tokens), random prompts (invalid UTF-8 included),
B from 1 to 4 and greedy or nucleus draws, the loop must produce the
same output, token ids, step count and mask sizes, or raise the same
error with the same message and, for a dead end, the same prefix,
context and step count.  Random dead ends are rare, so one is pinned
as an explicit example.  The reference asks the provider on every
step; the loop skips a forced step (one compatible id), so it makes one
provider call fewer per such step.

Prompts are never empty: the reference rejected the empty prompt with a
message of its own, which ``test_align.py`` covers.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from tokalign import (
    AlignConfig,
    AlignmentContractError,
    AlignmentError,
    DeadEndError,
    EmptyMaskError,
    MaskCache,
    PretokenizeOptions,
    SamplerConfig,
    Vocabulary,
    aligned_generate,
    backtrack_split,
    build_trie,
    decode,
    encode,
    make_rng,
    mask_distribution,
    train_tiny_bpe,
)
from tokalign.decoding import check_distribution, run_free_phase, sample

PINNED = settings(max_examples=150, deadline=None, database=None)
# "\xc3\xa9" is UTF-8 for an accented e; "\xff" and a lone "\x80" never are
ALPHABET = b"ab \n\xc3\xa9\xff\x80"
ALL_BYTES = [bytes([b]) for b in range(256)]


@dataclass
class ReferenceState:
    context: list[int]
    prefix: bytes
    steps_taken: int = 0


def reference_align_step(state, dist, trie, cache):
    if not state.prefix:
        raise ValueError("alignment prefix is already empty")
    ids = trie.matching_tokens(state.prefix) if cache is None else cache.lookup(state.prefix)
    if len(ids) == 0:
        raise EmptyMaskError()
    return ids, mask_distribution(dist, ids)


def reference_advance(state, chosen, vocab):
    token = vocab.token_bytes(chosen)
    if vocab.is_special(chosen) or not (
        token.startswith(state.prefix) or state.prefix.startswith(token)
    ):
        raise AlignmentContractError(
            f"token {chosen} ({token!r}) is not compatible with prefix {state.prefix!r}"
        )
    consumed = min(len(token), len(state.prefix))
    return ReferenceState(
        context=state.context + [chosen],
        prefix=state.prefix[consumed:],
        steps_taken=state.steps_taken + 1,
    )


def reference_aligned_generate(provider, vocab, trie, cache, prompt, align_cfg, sampler_cfg):
    prompt = bytes(prompt)
    if not prompt:
        raise ValueError("prompt must be non-empty")
    if provider.vocab_size != len(vocab):
        raise ValueError(
            f"provider vocab size {provider.vocab_size} != vocabulary size {len(vocab)}"
        )
    ids = encode(vocab, prompt)
    context, prefix = backtrack_split(ids, vocab, align_cfg.backtrack_tokens)
    state = ReferenceState(context=context, prefix=prefix)
    max_steps = len(prefix)
    rng = make_rng(sampler_cfg.seed)
    mask_sizes = []
    while state.prefix:
        if state.steps_taken >= max_steps:
            raise AlignmentError(
                f"alignment exceeded {max_steps} steps without consuming the prefix"
            )
        dist = np.asarray(provider.next_distribution(state.context), dtype=np.float64)
        check_distribution(dist, len(vocab))
        try:
            ids, probs = reference_align_step(state, dist, trie, cache)
        except EmptyMaskError:
            raise DeadEndError(state.prefix, state.context, state.steps_taken) from None
        mask_sizes.append(len(ids))
        chosen = int(ids[sample(probs, sampler_cfg, rng)])
        state = reference_advance(state, chosen, vocab)

    produced = decode(vocab, state.context)
    if not produced.startswith(prompt):
        raise AlignmentError("alignment lost prompt bytes")
    generated = bytearray(produced[len(prompt):])
    stop_at = run_free_phase(provider, vocab, state.context, generated, sampler_cfg, rng)
    out = bytes(generated) if stop_at is None else bytes(generated[:stop_at])
    return SimpleNamespace(
        prompt=prompt,
        output=prompt + out,
        token_ids=state.context,
        alignment_steps=state.steps_taken,
        mask_sizes=mask_sizes,
    )


class HashedRows:
    """Deterministic provider: each row depends only on the last two context ids."""

    def __init__(self, vocab_size, seed_, zero_fraction):
        self.vocab_size = vocab_size
        self.seed = seed_
        self.zero_fraction = zero_fraction

    def next_distribution(self, context):
        rng = np.random.default_rng([self.seed, *context[-2:]])
        row = rng.random(self.vocab_size)
        row[rng.random(self.vocab_size) < self.zero_fraction] = 0.0
        if row.sum() == 0.0:
            row[int(rng.integers(self.vocab_size))] = 1.0
        return row / row.sum()


class Counting:
    """Counts the calls made to a provider."""

    def __init__(self, provider):
        self.vocab_size = provider.vocab_size
        self.calls = 0
        self._provider = provider

    def next_distribution(self, context):
        self.calls += 1
        return self._provider.next_distribution(context)


alphabet_bytes = st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=3).map(bytes)


# Special tokens: an end marker, and bytes that ordinary tokens and
# prompts also hold, which alignment must still never pick.
specials_lists = st.lists(
    st.one_of(st.just(b"<eos>"), st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=3).map(bytes)),
    max_size=2, unique=True,
)


@st.composite
def greedy_vocabularies(draw):
    # Tokens with a proper-prefix token, over letters that may lack a
    # single-byte token: alignment can then take the shorter token and
    # strand a byte that no token covers, a dead end.
    letters = draw(st.lists(st.sampled_from(ALPHABET), min_size=3, max_size=5, unique=True))
    tokens = {bytes([b]) for b in draw(st.sets(st.sampled_from(letters)))}
    for word in draw(st.sets(st.lists(st.sampled_from(letters), min_size=2, max_size=3).map(bytes),
                             min_size=1, max_size=5)):
        tokens |= {word, word[: draw(st.integers(1, len(word) - 1))]}
    if draw(st.booleans()):
        tokens |= set(ALL_BYTES)
    entries = [(t, False) for t in sorted(tokens)] + [(t, True) for t in draw(specials_lists)]
    entries = draw(st.permutations(entries))
    return Vocabulary([t for t, _ in entries], specials=[i for i, (_, sp) in enumerate(entries) if sp])


@st.composite
def bpe_vocabularies(draw):
    docs = draw(st.lists(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=24).map(bytes),
                         min_size=1, max_size=3))
    options = PretokenizeOptions(space_prefix=draw(st.booleans()), group_whitespace=draw(st.booleans()))
    specials = draw(specials_lists)
    trained = train_tiny_bpe(docs, 256 + len(specials) + draw(st.integers(0, 16)), options, specials)
    if draw(st.booleans()):
        return trained
    # no merge holds a byte the corpus never uses, so those can go
    unused = sorted(set(range(256)) - set(b"".join(docs)))
    dropped = set(draw(st.lists(st.sampled_from(unused), max_size=8)))
    tokens = [t for i, t in enumerate(trained.tokens)
              if trained.is_special(i) or len(t) > 1 or t[0] not in dropped]
    # the specials stay the last ids
    specials_ids = range(len(tokens) - len(specials), len(tokens))
    return Vocabulary(tokens, merges=trained.merges, specials=specials_ids, pretokenize=options)


@st.composite
def cases(draw):
    """A vocabulary and a prompt of its tokens and random bytes, never empty."""
    vocab = draw(st.one_of(greedy_vocabularies(), bpe_vocabularies()))
    tokens = [t for t in vocab.tokens if set(t) <= set(ALPHABET)]
    piece = st.one_of(st.sampled_from(tokens), alphabet_bytes) if tokens else alphabet_bytes
    return vocab, b"".join(draw(st.lists(piece, min_size=1, max_size=8)))


samplers = st.builds(
    SamplerConfig,
    mode=st.sampled_from(["greedy", "nucleus"]),
    top_p=st.sampled_from([0.3, 0.9, 1.0]),
    temperature=st.sampled_from([0.7, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    max_new_tokens=st.integers(0, 3),
)


def run(generate, vocab, provider, capacity, prompt, align_cfg, sampler_cfg):
    trie = build_trie(vocab)
    cache = MaskCache(trie, capacity)
    try:
        return generate(provider, vocab, trie, cache, prompt, align_cfg, sampler_cfg)
    except (ValueError, AlignmentError) as exc:
        return exc


# greedy takes "ac" from {a, ac, acd} under seed 1, stranding "d"
DEAD_END = (Vocabulary([b"a", b"ac", b"acd", b"cd"]), b"acd")


@seed(240308688)
@PINNED
@given(
    case=cases(),
    backtrack=st.integers(1, 4),
    sampler_cfg=samplers,
    provider_seed=st.integers(0, 2**32 - 1),
    zero_fraction=st.sampled_from([0.0, 0.5, 0.95]),
    capacity=st.sampled_from([0, 2]),
)
@example(
    case=DEAD_END, backtrack=1, sampler_cfg=SamplerConfig(mode="greedy"),
    provider_seed=1, zero_fraction=0.0, capacity=0,
)
def test_loop_matches_step_api_reference(
    case, backtrack, sampler_cfg, provider_seed, zero_fraction, capacity
):
    vocab, prompt = case
    rows = HashedRows(len(vocab), provider_seed, zero_fraction)
    reference_provider, provider = Counting(rows), Counting(rows)
    align_cfg = AlignConfig(backtrack_tokens=backtrack)
    expected = run(
        reference_aligned_generate, vocab, reference_provider, capacity, prompt, align_cfg, sampler_cfg
    )
    got = run(aligned_generate, vocab, provider, capacity, prompt, align_cfg, sampler_cfg)
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        if isinstance(expected, DeadEndError):
            assert (got.prefix, got.context, got.steps_taken) == (
                expected.prefix, expected.context, expected.steps_taken
            )
        return
    assert not isinstance(got, Exception), got
    assert got.output == expected.output
    assert got.token_ids == expected.token_ids
    assert got.alignment_steps == expected.alignment_steps
    assert got.mask_sizes == expected.mask_sizes
    assert provider.calls == reference_provider.calls - expected.mask_sizes.count(1)
