"""The sorted-token index, and everything that reads it, against linear references.

Vocabularies are drawn over a small alphabet holding the extreme bytes
``0x00`` and ``0xff`` (and ``0xfe``, whose successor is ``0xff``), so the
run boundaries hit the edge cases of ``succ(P)``: the empty prefix,
all-``0xff`` prefixes and prefixes ending in ``0xff``.  Every answer must
equal ``bench.naive_matching_ids`` put in bytewise token order, the
index's own order, as a read-only int64 array, fresh or through a cache
that evicts.  An answer with no proper-prefix token is a view of the
index's ids (an empty one holds no memory to share).

The vocabulary's other readers of the index are held to plain-dict
references: greedy ``encode`` (ids, or the ``EncodingError`` offset) to
a linear longest-match scan, ``id_of`` and ``has_all_byte_tokens`` to a
bytes -> id dict of the non-special tokens, BPE ``encode`` with an empty
chunk memo to a merge loop over byte parts, and validation to one pass
in id order.  Those vocabularies come from ``train_tiny_bpe`` with
specials, one of which may repeat a non-special token's bytes, and some
lose single-byte tokens their corpus never uses.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tokalign import (
    EncodingError,
    MaskCache,
    PretokenizeOptions,
    Vocabulary,
    VocabularyError,
    VocabularyValidationError,
    build_trie,
    encode,
    train_tiny_bpe,
)
from tokalign.bench import naive_matching_ids
from tokalign.vocab import pretokenize

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
            got = cache.lookup(prefix)
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
            assert np.array_equal(cache.lookup(prefix), trie.matching_tokens(prefix))
        assert cache.hits + cache.misses == len(queries)
        assert len(cache) == min(capacity, len(set(queries)))


# ---------------------------------------------------------------------------
# encode, id_of, has_all_byte_tokens and validation


CORPUS_ALPHABET = b"ab_ \n\xfe\xff"
# bytes a corpus may not hold; the vocabulary may then lack them
SPARE_BYTES = b"z\x00\x01"


@st.composite
def trained_vocabularies(draw):
    """A ``train_tiny_bpe`` vocabulary with specials, maybe short of some single bytes."""
    docs = draw(st.lists(st.lists(st.sampled_from(CORPUS_ALPHABET), min_size=1, max_size=16).map(bytes),
                         min_size=1, max_size=3))
    options = PretokenizeOptions(space_prefix=draw(st.booleans()), group_whitespace=draw(st.booleans()))
    # a repeat of a single byte or of a pair the corpus holds, which a merge may have made
    doc = docs[0]
    cut = draw(st.integers(0, len(doc) - 1))
    repeat = doc[cut : cut + draw(st.integers(1, 2))]
    # b"z" may be a special whose single byte has no non-special token
    specials = draw(st.lists(st.sampled_from([repeat, b"<s>", b"\xff", b"z"]), max_size=3, unique=True))
    trained = train_tiny_bpe(docs, 256 + len(specials) + draw(st.integers(0, 16)), options, specials)
    dropped = draw(st.sets(st.sampled_from(sorted(set(SPARE_BYTES) - set(b"".join(docs))))))
    kept = [i for i, t in enumerate(trained.tokens) if i in trained.specials or len(t) > 1 or t[0] not in dropped]
    tokens = [trained.tokens[i] for i in kept]
    specials = [n for n, i in enumerate(kept) if i in trained.specials]
    return Vocabulary(tokens, merges=trained.merges, specials=specials, pretokenize=options)


def queries_for(draw, vocab):
    """Random bytes over the alphabets, every token (specials too), and joins of tokens."""
    alphabet = st.sampled_from(CORPUS_ALPHABET + SPARE_BYTES)
    drawn = draw(st.lists(st.lists(alphabet, max_size=8).map(bytes), max_size=10))
    tokens = st.sampled_from(vocab.tokens)
    drawn += draw(st.lists(st.lists(st.one_of(tokens, st.lists(alphabet, max_size=2).map(bytes)),
                                    max_size=5).map(b"".join), max_size=10))
    return drawn + list(vocab.tokens)


def id_table(vocab):
    return {t: i for i, t in enumerate(vocab.tokens) if i not in vocab.specials}


def longest_match_reference(table, text):
    """Greedy ids by trying every length at each position, longest first; or the bad offset."""
    ids = []
    pos = 0
    while pos < len(text):
        length = next((n for n in range(len(text) - pos, 0, -1) if text[pos : pos + n] in table), 0)
        if not length:
            return pos
        ids.append(table[text[pos : pos + length]])
        pos += length
    return ids


def merge_loop_reference(vocab, table, text):
    """BPE ids from a merge loop over byte parts and a bytes -> id dict; or the bad offset."""
    rank = {pair: r for r, pair in enumerate(vocab.merges)}
    chunks = [text] if vocab.pretokenize is None else pretokenize(text, vocab.pretokenize)
    ids = []
    offset = 0
    for chunk in chunks:
        parts = [bytes((b,)) for b in chunk]
        missing = [k for k, part in enumerate(parts) if part not in table]
        if missing:
            return offset + missing[0]
        while True:
            ranked = [(rank[pair], k) for k, pair in enumerate(zip(parts, parts[1:])) if pair in rank]
            if not ranked:
                break
            _, k = min(ranked)  # the lowest rank, leftmost first
            parts[k : k + 2] = [parts[k] + parts[k + 1]]
        ids += [table[part] for part in parts]
        offset += len(chunk)
    return ids


def encoded(vocab, text):
    try:
        return encode(vocab, text)
    except EncodingError as exc:
        return exc.offset


def check_lookups(vocab, table, queries):
    for query in queries:
        if query in table:
            assert vocab.id_of(query) == table[query]
        else:
            with pytest.raises(VocabularyError, match="no non-special token with bytes"):
                vocab.id_of(query)
    assert vocab.has_all_byte_tokens() == all(bytes((b,)) in table for b in range(256))


@seed(240308688)
@settings(PINNED, max_examples=100)
@given(data=st.data())
def test_greedy_encode_and_lookups_match_references(data):
    for vocab in (data.draw(vocabularies()), data.draw(trained_vocabularies())):
        greedy = Vocabulary(vocab.tokens, specials=vocab.specials)
        queries = queries_for(data.draw, greedy)
        table = id_table(greedy)
        for text in queries:
            assert encoded(greedy, text) == longest_match_reference(table, text)
        check_lookups(greedy, table, queries)


@seed(240308688)
@settings(PINNED, max_examples=100)
@given(data=st.data())
def test_bpe_encode_and_lookups_match_references(data):
    vocab = data.draw(trained_vocabularies())
    if data.draw(st.booleans()):
        vocab = Vocabulary(vocab.tokens, merges=vocab.merges, specials=vocab.specials)
    queries = queries_for(data.draw, vocab)
    table = id_table(vocab)
    for text in queries:
        vocab._chunk_ids = {}
        assert encoded(vocab, text) == merge_loop_reference(vocab, table, text)
    check_lookups(vocab, table, queries)


def validation_reference(tokens, specials):
    """The first invalid token in one pass in id order, as its message; None if all are valid."""
    seen = {}
    for i, t in enumerate(tokens):
        if not t:
            return f"token {i} has empty byte sequence"
        if i in specials:
            continue
        if t in seen:
            return f"duplicate byte sequence for tokens {seen[t]} and {i}: {t!r}"
        seen[t] = i
    return None


@seed(240308688)
@settings(PINNED, max_examples=200)
@given(
    tokens=st.lists(st.lists(st.sampled_from(b"ab\xff"), max_size=2).map(bytes), min_size=1, max_size=12),
    data=st.data(),
)
def test_validation_reports_the_first_bad_token_in_id_order(tokens, data):
    specials = data.draw(st.sets(st.integers(0, len(tokens) - 1)))
    message = validation_reference(tokens, specials)
    if message is None:
        vocab = Vocabulary(tokens, specials=specials)
        check_lookups(vocab, id_table(vocab), tokens)
        return
    with pytest.raises(VocabularyValidationError) as caught:
        Vocabulary(tokens, specials=specials)
    assert str(caught.value) == message
