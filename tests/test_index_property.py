"""The sorted-token index and the mask cache against the linear-scan oracle.

Vocabularies are drawn over a small alphabet holding the extreme bytes
``0x00`` and ``0xff`` (and ``0xfe``, whose successor is ``0xff``), so the
run boundaries hit the edge cases of ``succ(P)``: the empty prefix,
all-``0xff`` prefixes and prefixes ending in ``0xff``.  Every answer must
equal ``bench.naive_matching_ids`` put in bytewise token order, the
index's own order, as a read-only int64 array, fresh or through a cache
that evicts.  An answer with no proper-prefix token is a view of the
index's ids (an empty one holds no memory to share).
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tokalign import MaskCache, Vocabulary, build_trie
from tokalign.bench import naive_matching_ids

PINNED = settings(max_examples=200, deadline=None, database=None)
ALPHABET = b"\x00\x01ab\xfe\xff"
EDGE_PREFIXES = [b"", b"\xff", b"\xff\xff", b"\xff\xff\xff", b"a\xff", b"\xfe\xff", b"\x00"]
CAPACITIES = (0, 1, 2)

short_bytes = st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=5).map(bytes)


@st.composite
def vocabularies(draw):
    tokens = draw(st.sets(short_bytes, min_size=1, max_size=40))
    if draw(st.booleans()):
        tokens |= {bytes([b]) for b in range(256)}
    tokens = draw(st.permutations(sorted(tokens)))
    specials = draw(st.sets(st.integers(0, len(tokens) - 1), max_size=len(tokens) - 1))
    return Vocabulary(tokens, specials=sorted(specials))


@st.composite
def prefixes(draw, vocab):
    """Edge cases, random alphabet strings, and cuts and extensions of tokens."""
    tokens = vocab.tokens
    drawn = list(EDGE_PREFIXES)
    drawn += draw(st.lists(st.lists(st.sampled_from(ALPHABET), max_size=7).map(bytes), max_size=20))
    for _ in range(draw(st.integers(0, 10))):
        token = tokens[draw(st.integers(0, len(tokens) - 1))]
        cut = draw(st.integers(0, len(token)))
        tail = draw(st.lists(st.sampled_from(ALPHABET), max_size=3).map(bytes))
        drawn.append(token[:cut] + tail)
    return drawn


def check_against_oracle(vocab, queries):
    trie = build_trie(vocab)
    fresh = []
    for prefix in queries:
        ids = trie.matching_tokens(prefix)
        assert ids.dtype == np.int64
        assert not ids.flags.writeable
        expected = sorted(naive_matching_ids(vocab, prefix), key=vocab.tokens.__getitem__)
        assert ids.tolist() == expected
        if expected and not any(len(vocab.tokens[i]) < len(prefix) for i in expected):
            assert np.shares_memory(ids, trie._ids)
        fresh.append(ids)
    # Twice through, so repeats hit while small capacities keep evicting.
    for capacity in CAPACITIES:
        cache = MaskCache(trie, capacity=capacity)
        for prefix, expected in zip(queries + queries, fresh + fresh):
            got = cache.lookup(trie, prefix)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert np.array_equal(got, expected)
            assert len(cache) <= capacity


@seed(240308688)
@PINNED
@given(data=st.data(), vocab=vocabularies())
def test_random_vocabulary_matches_oracle(data, vocab):
    check_against_oracle(vocab, data.draw(prefixes(vocab)))


@seed(240308688)
@settings(PINNED, max_examples=60)
@given(data=st.data())
def test_trained_vocabulary_matches_oracle(data, trained_vocab):
    queries = data.draw(prefixes(trained_vocab))
    queries += data.draw(st.lists(st.binary(max_size=6), max_size=10))
    check_against_oracle(trained_vocab, queries)


@seed(240308688)
@settings(PINNED, max_examples=60)
@given(data=st.data(), vocab=vocabularies())
def test_cache_holds_only_what_lookups_asked_for(data, vocab):
    # a new cache is empty and only a lookup stores a mask, so the entries
    # are the distinct keys looked up, up to the capacity
    trie = build_trie(vocab)
    keys = data.draw(prefixes(vocab))
    queries = data.draw(st.lists(st.sampled_from(keys), max_size=40))
    for capacity in (0, 1, 8):
        cache = MaskCache(trie, capacity=capacity)
        for prefix in queries:
            assert np.array_equal(cache.lookup(trie, prefix), trie.matching_tokens(prefix))
        assert cache.hits + cache.misses == len(queries)
        assert len(cache) == min(capacity, len(set(queries)))
