"""The per-token shortcuts against the plain code they stand in for.

``decode`` joins the token bytes in one call when every id is in range,
``mask_distribution`` adds a handful of values as Python floats, and
``NGramModel`` builds its context key inline.  Each must give exactly
what the plain version gives: the same bytes or the same error offset,
the same bits, the same row object.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tokalign import EncodingError, NGramModel, Vocabulary, decode, mask_distribution
from tokalign.decoding import _LEFT_FOLD_MAX

PINNED = settings(max_examples=100, deadline=None, database=None)
VOCAB = Vocabulary([b"a", b"bc", b"\x00\xff", b" def", b"\n"], specials=[4])


def reference_decode(vocab, ids):
    """``decode`` before the join: one id at a time, naming the first bad offset."""
    out = bytearray()
    for pos, i in enumerate(ids):
        if not 0 <= i < len(vocab.tokens):
            raise EncodingError(f"unknown token id {i}", pos)
        out += vocab.tokens[i]
    return bytes(out)


def outcome(fn, *args):
    try:
        return fn(*args)
    except EncodingError as exc:
        return ("error", str(exc), exc.offset)


@seed(240308688)
@PINNED
@given(ids=st.lists(st.integers(-3, len(VOCAB) + 2), max_size=12))
def test_decode_join_matches_the_per_id_loop(ids):
    assert outcome(decode, VOCAB, ids) == outcome(reference_decode, VOCAB, ids)


@seed(240308688)
@PINNED
@given(
    values=st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-300, 0.1, 1.0 / 3])),
        min_size=_LEFT_FOLD_MAX + 3, max_size=40,
    ),
    data=st.data(),
)
def test_small_mask_sum_is_numpys_bit_for_bit(values, data):
    dist = np.asarray(values, dtype=np.float64)
    k = data.draw(st.integers(1, _LEFT_FOLD_MAX))
    ids = np.asarray(sorted(data.draw(st.sets(st.integers(0, len(dist) - 1), min_size=k,
                                             max_size=k))), dtype=np.int64)
    subset = dist[ids]
    total = subset.sum()
    expected = subset / total if total > 0.0 else np.full(len(ids), 1.0 / len(ids))
    got = mask_distribution(dist, ids)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def reference_key(model, context):
    """``NGramModel``'s key before it was built inline."""
    if len(context) >= model.order:
        return tuple(context[-model.order:])
    return (model._BEFORE_START,) * (model.order - len(context)) + tuple(context)


@seed(240308688)
@PINNED
@given(
    order=st.integers(1, 4),
    docs=st.lists(st.lists(st.integers(0, 5), max_size=10), min_size=1, max_size=4),
    contexts=st.lists(st.lists(st.integers(0, 5), max_size=7), min_size=1, max_size=8),
)
def test_ngram_returns_the_row_of_the_padded_key(order, docs, contexts):
    model = NGramModel(6, order, 0.5)
    for doc in docs:
        model.observe(doc)
    for context in contexts:
        row = model.next_distribution(context)
        key = reference_key(model, context)
        assert row is (model._rows[key] if key in model._counts else model._uniform)
        # the memoised row comes back on the next call with the same key
        assert model.next_distribution(list(context)) is row
