"""The encode chunk memo and the n-gram row memo against memo-free references.

Vocabularies are trained by ``train_tiny_bpe`` on random corpora, then
lose some single-byte tokens the corpus never uses, so texts drawn over a
wider alphabet (invalid UTF-8 included) hit uncoverable bytes.  The memo
a trained vocabulary starts with must be the one that a fresh copy
builds by encoding the training corpus once.  Texts are
joined from a small pool of pieces, so chunks repeat.  Each memo is also
run with a tiny bound, so answers are checked before and after it fills.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tokalign import EncodingError, NGramModel, PretokenizeOptions, Vocabulary, encode, train_tiny_bpe
from tokalign import decoding as decoding_module
from tokalign import vocab as vocab_module
from tokalign.vocab import _bpe_chunk, pretokenize

PINNED = settings(max_examples=40, deadline=None, database=None)
CORPUS_ALPHABET = b"ab_ \n\t.\xc3\xa9"
# bytes the corpus never holds, valid UTF-8 or not
EXTRA_BYTES = b"z(\xff\x80\xc3"
PIECE_ALPHABET = CORPUS_ALPHABET + EXTRA_BYTES


@st.composite
def vocabularies(draw):
    docs = draw(st.lists(st.lists(st.sampled_from(CORPUS_ALPHABET), min_size=1, max_size=24).map(bytes),
                         min_size=1, max_size=4))
    options = PretokenizeOptions(space_prefix=draw(st.booleans()), group_whitespace=draw(st.booleans()))
    trained = train_tiny_bpe(docs, 256 + draw(st.integers(0, 24)), options)
    used = set(b"".join(docs))
    dropped = draw(st.sets(st.sampled_from(sorted(set(EXTRA_BYTES) - used))))
    tokens = [t for t in trained.tokens if len(t) > 1 or t[0] not in dropped]
    return Vocabulary(tokens, merges=trained.merges, pretokenize=options), docs


@st.composite
def texts(draw, docs):
    pool = draw(st.lists(st.lists(st.sampled_from(PIECE_ALPHABET), min_size=1, max_size=6).map(bytes),
                         min_size=1, max_size=6))
    pool += docs
    joined = st.lists(st.sampled_from(pool), max_size=8).map(b"".join)
    return draw(st.lists(joined, min_size=1, max_size=12))


def reference_encode(vocab, text):
    """Ids per pretokenized chunk without any memo, or the EncodingError offset."""
    ids = []
    offset = 0
    try:
        for chunk in pretokenize(text, vocab.pretokenize):
            ids += _bpe_chunk(vocab, chunk, offset)
            offset += len(chunk)
    except EncodingError as exc:
        return exc.offset
    return ids


def memo_encode(vocab, text):
    try:
        return encode(vocab, text)
    except EncodingError as exc:
        return exc.offset


def check_encodes(vocab, queries, bound):
    expected = [reference_encode(vocab, text) for text in queries]
    # twice through: the second pass repeats every chunk, and errors repeat
    for text, want in zip(queries + queries, expected + expected):
        assert memo_encode(vocab, text) == want
        assert len(vocab._chunk_ids) <= bound
    for chunk, ids in vocab._chunk_ids.items():
        assert ids == _bpe_chunk(vocab, chunk, 0)


@seed(240308688)
@PINNED
@given(data=st.data())
def test_memoized_encode_matches_reference(data):
    vocab, docs = data.draw(vocabularies())
    queries = data.draw(texts(docs))
    check_encodes(vocab, queries, vocab_module._CHUNK_MEMO_ENTRIES)


@seed(240308688)
@PINNED
@given(data=st.data(), bound=st.integers(0, 3))
def test_encode_past_memo_bound_matches_reference(data, bound):
    vocab, docs = data.draw(vocabularies())
    queries = data.draw(texts(docs))
    with mock.patch.object(vocab_module, "_CHUNK_MEMO_ENTRIES", bound):
        check_encodes(vocab, queries, bound)


@seed(240308688)
@settings(PINNED, max_examples=150)
@given(
    docs=st.lists(st.lists(st.sampled_from(CORPUS_ALPHABET), max_size=24).map(bytes),
                  min_size=1, max_size=4).filter(any),
    space_prefix=st.booleans(),
    group_whitespace=st.booleans(),
    specials=st.lists(st.sampled_from([b"<eos>", b"a", b" a"]), max_size=2, unique=True),
    merges=st.integers(0, 24),
    bound=st.one_of(st.none(), st.integers(0, 3)),
)
def test_trained_memo_is_the_encode_once_memo(docs, space_prefix, group_whitespace, specials,
                                              merges, bound):
    # the trainer fills the memo; encoding the training documents once fills the same one
    options = PretokenizeOptions(space_prefix=space_prefix, group_whitespace=group_whitespace)
    if bound is None:
        bound = vocab_module._CHUNK_MEMO_ENTRIES
    with mock.patch.object(vocab_module, "_CHUNK_MEMO_ENTRIES", bound):
        trained = train_tiny_bpe(docs, 256 + len(specials) + merges, options, specials)
        fresh = Vocabulary(trained.tokens, merges=trained.merges, specials=trained.specials,
                           pretokenize=trained.pretokenize)
        assert fresh._chunk_ids == {}
        for doc in docs:
            encode(fresh, doc)
    assert list(trained._chunk_ids.items()) == list(fresh._chunk_ids.items())


def test_uncoverable_byte_offset_repeats():
    vocab = train_tiny_bpe([b"ab ab ab"], 258, PretokenizeOptions(space_prefix=True))
    vocab = Vocabulary([t for t in vocab.tokens if t != b"z"], merges=vocab.merges,
                       pretokenize=vocab.pretokenize)
    for _ in range(3):
        with pytest.raises(EncodingError) as info:
            encode(vocab, b"ab abz ab")
        assert info.value.offset == 5
    assert b" abz" not in vocab._chunk_ids
    assert vocab._chunk_ids[b"ab"] == encode(vocab, b"ab")


# ---------------------------------------------------------------------------
# n-gram rows


def fresh_row(sequences, vocab_size, order, alpha, context):
    """The provider row computed from scratch from the observed sequences."""
    counts = Counter()
    for ids in sequences:
        padded = (-1,) * order + tuple(ids)
        for i in range(order, len(padded)):
            counts[padded[i - order : i], padded[i]] += 1
    key = ((-1,) * order + tuple(context))[-order:]
    seen = {token: n for (ctx, token), n in counts.items() if ctx == key}
    if not seen:
        return np.full(vocab_size, 1.0 / vocab_size)
    dist = np.full(vocab_size, alpha, dtype=np.float64)
    for token, n in seen.items():
        dist[token] += n
    return dist / dist.sum()


@st.composite
def ngram_cases(draw):
    vocab_size = draw(st.integers(1, 9))
    token = st.integers(0, vocab_size - 1)
    order = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from([0.0, 0.1, 1.0, 1e-300]))
    sequences = draw(st.lists(st.lists(token, max_size=10), min_size=1, max_size=4))
    later = draw(st.lists(token, max_size=10))
    contexts = draw(st.lists(st.lists(token, max_size=5), min_size=1, max_size=15))
    # contexts cut from the observed sequences are seen ones
    contexts += [ids[:cut] for ids in sequences for cut in range(len(ids) + 1)]
    return vocab_size, order, alpha, sequences, later, contexts


def check_rows(model, sequences, contexts):
    for context in contexts + contexts:
        row = model.next_distribution(context)
        assert not row.flags.writeable
        assert np.array_equal(
            row, fresh_row(sequences, model.vocab_size, model.order, model.alpha, context)
        )


@seed(240308688)
@settings(PINNED, max_examples=100)
@given(case=ngram_cases(), budget_rows=st.sampled_from([None, 0, 1, 2]))
def test_ngram_rows_match_fresh_computation(case, budget_rows):
    vocab_size, order, alpha, sequences, later, contexts = case
    budget = decoding_module._ROW_MEMO_BYTES if budget_rows is None else budget_rows * 8 * vocab_size
    with mock.patch.object(decoding_module, "_ROW_MEMO_BYTES", budget):
        model = NGramModel(vocab_size, order, alpha)
    for ids in sequences:
        model.observe(ids)
    check_rows(model, sequences, contexts)
    assert len(model._rows) <= budget // (8 * vocab_size)
    # counts observed after the rows were queried reach later rows
    model.observe(later)
    check_rows(model, sequences + [later], contexts + [later[:cut] for cut in range(len(later) + 1)])
