"""The per-token shortcuts against the plain code they stand in for.

``decode`` joins the token bytes in one call when every id is in range,
``mask_distribution`` adds a handful of values as Python floats,
``NGramModel`` builds its context key inline, and ``check_distribution``
accepts a plainly valid row in one fast pass.  Each must give exactly
what the plain version gives: the same bytes or the same error offset,
the same bits, the same row object, the same verdict and message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tokalign import EncodingError, NGramModel, Vocabulary, decode, mask_distribution
from tokalign.decoding import _LEFT_FOLD_MAX, DIST_SUM_TOLERANCE, check_distribution

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


def reference_check(dist, size):
    """``check_distribution``'s scans before the fast pass: ``min``, then ``sum``."""
    if dist.shape != (size,):
        raise ValueError(f"distribution must have shape ({size},), got {dist.shape}")
    if not dist.min() >= 0.0:
        raise ValueError("distribution has negative or NaN entries")
    total = float(dist.sum())
    if abs(total - 1.0) > DIST_SUM_TOLERANCE:
        raise ValueError(f"distribution sums to {total}, not 1")


def check_outcome(check, dist, size):
    try:
        check(dist, size)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc), str(exc)
    return None


class Subclass(np.ndarray):
    pass


FLAWS = {
    "negative zero": -0.0,
    "subnormal": 5e-324,
    "large subnormal": 2.2e-308,
    "inf": math.inf,
    "-inf": -math.inf,
    "nan": math.nan,
    "-nan": math.copysign(math.nan, -1.0),
    "tiny negative": -5e-324,
    "small negative": -1e-300,
}
LAYOUTS = ("owned", "read-only", "bytes", "subclass", "strided")


def band(n):
    """The fast pass's rounding band for ``n`` terms, as the README states it."""
    return 2.0 * n * 2.0**-52 * (1.0 + DIST_SUM_TOLERANCE)


@st.composite
def rows(draw):
    """A row summing to 1 or near an edge of either test, with at most one flaw."""
    n = draw(st.one_of(st.sampled_from([1, 2, 7, 8, 64, 4097, 50_000, 70_000]),
                       st.integers(1, 70_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "random", "sparse"]))
    if shape == "uniform":
        row = np.ones(n)
    else:
        row = rng.random(n)
        if shape == "sparse":
            row[rng.random(n) < 0.9] = 0.0
    big = int(rng.integers(n))
    row[big] = max(row.sum(), 1.0)  # one entry near half the mass, so ulps of it move the sum
    edge = DIST_SUM_TOLERANCE * draw(st.sampled_from([0.0, 1.0, 0.5, 2.0]))
    if draw(st.booleans()):
        edge = DIST_SUM_TOLERANCE - band(n)
    target = 1.0 + draw(st.sampled_from([1.0, -1.0])) * edge
    row *= target / row.sum()
    # land on the target as numpy sums, then step a few ulps off it
    row[big] += target - row.sum()
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        row[big] = np.nextafter(row[big], math.copysign(math.inf, steps))
    flaw = draw(st.one_of(st.none(), st.sampled_from(sorted(FLAWS))))
    if flaw is not None:
        row[int(rng.integers(n))] = FLAWS[flaw]
    layout = draw(st.sampled_from(LAYOUTS))
    if layout == "read-only":
        row.setflags(write=False)
    elif layout == "bytes":
        row = np.frombuffer(row.tobytes(), dtype=np.float64)
    elif layout == "subclass":
        row = row.view(Subclass)
    elif layout == "strided":
        wide = np.zeros(2 * n)
        wide[::2] = row
        row = wide[::2]
    return row


@seed(240308688)
@settings(max_examples=150, deadline=None, database=None)
@given(row=rows())
def test_fast_check_gives_the_two_scans_verdict(row):
    size = len(row)
    assert check_outcome(check_distribution, row, size) == check_outcome(reference_check, row, size)


@pytest.mark.parametrize("n", [8, 64, 4097, 50_000])
@pytest.mark.parametrize("shape", ["uniform", "random"])
def test_rows_stepped_across_the_tolerance_edge_give_the_two_scans_verdict(n, shape):
    # the dot product and the pairwise sum round differently, so near the
    # edge they can fall on either side of it; the scans must decide there
    base = np.ones(n) if shape == "uniform" else np.random.default_rng(n).random(n)
    for target in (1.0 + DIST_SUM_TOLERANCE, 1.0 - DIST_SUM_TOLERANCE):
        row = base * (target / base.sum())
        row[n // 2] += target - row.sum()
        for _ in range(12):
            row[n // 2] = np.nextafter(row[n // 2], -math.inf)
        for _ in range(25):
            assert check_outcome(check_distribution, row, n) == check_outcome(reference_check, row, n)
            row[n // 2] = np.nextafter(row[n // 2], math.inf)
