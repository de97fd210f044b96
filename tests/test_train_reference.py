"""The incremental BPE trainer against the full-recount loop it replaced.

``reference_train`` below is the earlier ``train_tiny_bpe`` loop: every
merge recounts every pair of every distinct chunk, picks the pair with
the key ``(-count, left + right, left)`` and rewrites every chunk.  The
incremental trainer must give the same tokens, merges, specials and
pretokenize options on random corpora drawn from small alphabets (runs
such as ``aaaa`` hold overlapping pairs; ``ab``, ``bc`` and ``abc`` put
``ab`` + ``c`` and ``a`` + ``bc`` in competition), under all four
``PretokenizeOptions``, with specials, and with targets past the point
where the corpus runs out of pairs.  On the bundled code corpus the
saved files must be byte-identical.
"""

from collections import Counter

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from tokalign import PretokenizeOptions, Vocabulary, save_vocabulary, train_tiny_bpe
from tokalign.vocab import pretokenize

from conftest import TRAIN_OPTIONS

PINNED = settings(max_examples=300, deadline=None, database=None)
ALL_OPTIONS = [PretokenizeOptions(s, g) for s in (False, True) for g in (False, True)]
ALPHABETS = [b"ab", b"abc", b"a ", b"ab \n", b"ab\t_.", b"\xff\x80a"]
PIECES = [b"aaaa", b"ab", b"bc", b"abc", b" ab", b"  ", b"\n    "]
SPECIALS = [b"<eos>", b"a", b"ab", b"\xff\n"]


def reference_apply_merge(parts, pair):
    merged = pair[0] + pair[1]
    out = []
    i = 0
    while i < len(parts):
        if i + 1 < len(parts) and parts[i] == pair[0] and parts[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(parts[i])
            i += 1
    return tuple(out)


def reference_train(corpus, target_size, options=PretokenizeOptions(), specials=()):
    chunk_counts = Counter()
    for doc in corpus:
        for chunk in pretokenize(bytes(doc), options):
            chunk_counts[tuple(bytes([b]) for b in chunk)] += 1

    tokens = [bytes([i]) for i in range(256)]
    token_set = set(tokens)
    merges = []
    n_regular = target_size - len(specials)

    while len(tokens) < n_regular:
        pair_counts = Counter()
        for parts, cnt in chunk_counts.items():
            for a, b in zip(parts, parts[1:]):
                pair_counts[(a, b)] += cnt
        if not pair_counts:
            break
        best = min(
            pair_counts.items(),
            key=lambda kv: (-kv[1], kv[0][0] + kv[0][1], kv[0][0]),
        )[0]
        merges.append(best)
        merged = best[0] + best[1]
        if merged not in token_set:
            tokens.append(merged)
            token_set.add(merged)
        next_counts = Counter()
        for parts, cnt in chunk_counts.items():
            next_counts[reference_apply_merge(parts, best)] += cnt
        chunk_counts = next_counts

    n_regular_actual = len(tokens)
    tokens.extend(bytes(s) for s in specials)
    special_ids = range(n_regular_actual, n_regular_actual + len(specials))
    return Vocabulary(tokens, merges=merges, specials=special_ids, pretokenize=options)


def assert_same_vocabulary(got, want):
    assert got.tokens == want.tokens
    assert got.merges == want.merges
    assert got.specials == want.specials
    assert got.pretokenize == want.pretokenize


@st.composite
def corpora(draw):
    # single bytes of one alphabet mixed with the pieces; "|" ends a document
    alphabet = draw(st.sampled_from(ALPHABETS))
    pieces = PIECES + [bytes((b,)) for b in alphabet] * 3 + [b"|"]
    text = draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=40).map(b"".join))
    docs = text.split(b"|")
    assume(any(docs))
    return docs


@seed(240308688)
@PINNED
@given(
    docs=corpora(),
    options=st.sampled_from(ALL_OPTIONS),
    specials=st.lists(st.sampled_from(SPECIALS), max_size=2),
    extra=st.integers(min_value=0, max_value=60),
)
@example(docs=[b"aaaa aaa aaaaa"], options=ALL_OPTIONS[0], specials=[], extra=60)
@example(docs=[b"ab ab bc bc abc abc"], options=ALL_OPTIONS[3], specials=[b"ab"], extra=9)
def test_incremental_trainer_equals_full_recount(docs, options, specials, extra):
    target = 256 + len(specials) + extra
    assert_same_vocabulary(
        train_tiny_bpe(docs, target, options, specials),
        reference_train(docs, target, options, specials),
    )


@pytest.mark.parametrize("target", [300, 400, 512])
def test_bundled_corpus_saves_byte_identical(tmp_path, code_texts, target):
    got, want = tmp_path / "incremental.json", tmp_path / "reference.json"
    save_vocabulary(train_tiny_bpe(code_texts, target, TRAIN_OPTIONS), str(got))
    save_vocabulary(reference_train(code_texts, target, TRAIN_OPTIONS), str(want))
    assert got.read_bytes() == want.read_bytes()
