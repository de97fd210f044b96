"""The sparse alignment step and the sort-free nucleus draw against dense references.

The reference functions below are dense implementations: a length-V
boolean mask applied with ``np.where``, and a nucleus keep set and draw
built from a stable descending argsort over every id, the draw walking
the kept ids in that order.  The sparse path must make exactly the same
draws, at chosen values of ``u`` and seeded ones, and leave the
generator in the same state, for small vectors (a full value sort) and
large ones (a sort of the values at or above a threshold whose estimated
tail mass, from every 64th value, leaves ``top_p`` above it).  A draw at
``u`` just below 1 lands on the last kept id of positive weight, so it
pins the kept mass.
"""

import functools
import operator
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tokalign import EmptyMaskError, MaskCache, SamplerConfig, build_trie, make_rng
from tokalign import mask_distribution, sample
from tokalign.bench import make_synthetic_vocabulary
from tokalign.align import _ORDERED_SUM_MAX
from tokalign.decoding import _SAMPLE_STRIDE, _apply_temperature, _nucleus_cut

from conftest import EDGE_DRAWS, FixedDraw

PINNED = settings(max_examples=400, deadline=None, database=None)
TOP_PS = (0.15, 0.5, 0.9, 1.0)
TEMPERATURES = (0.5, 1.0, 2.0)


def reference_mask_distribution(dist, mask):
    masked = np.where(mask, dist, 0.0)
    total = masked.sum()
    if total > 0.0:
        return masked / total
    n = int(np.count_nonzero(mask))
    if n == 0:
        raise EmptyMaskError()
    uniform = np.zeros_like(masked, dtype=np.float64)
    uniform[mask] = 1.0 / n
    return uniform


def reference_keep_set(dist, top_p, temperature=1.0):
    w = _apply_temperature(dist, temperature)
    order = np.argsort(-w, kind="stable")
    cum = np.cumsum(w[order])
    cut = int(np.searchsorted(cum, top_p, side="left"))
    cut = min(cut, len(order) - 1)
    return np.sort(order[: cut + 1])


def reference_sample(dist, cfg, rng):
    if cfg.mode == "greedy":
        return int(np.argmax(dist))
    w = _apply_temperature(dist, cfg.temperature)
    order = np.argsort(-w, kind="stable")
    fold = np.cumsum(w[order])
    cut = min(int(np.searchsorted(fold, cfg.top_p, side="left")), len(order) - 1)
    if not fold[cut] > 0.0:
        raise ValueError("cannot sample from an all-zero distribution")
    u = rng.random()
    k = min(int(np.searchsorted(fold, u * fold[cut], side="right")), cut)
    return int(order[k])


# Weights drawn from a small pool make ties and hard zeros common.
POOL = [0.0, 0.0, 0.1, 0.25, 1 / 3, 1.0, 2.0]
weight = st.one_of(st.sampled_from(POOL), st.floats(0.0, 1.0))


@st.composite
def distributions(draw, max_size=40):
    w = np.array(draw(st.lists(weight, min_size=1, max_size=max_size)), dtype=np.float64)
    if w.sum() == 0.0:
        w[draw(st.integers(0, len(w) - 1))] = 1.0
    return w / w.sum()


@st.composite
def masks(draw, size):
    kind = draw(st.sampled_from(["empty", "one", "all", "random"]))
    mask = np.zeros(size, dtype=bool)
    if kind == "one":
        mask[draw(st.integers(0, size - 1))] = True
    elif kind == "all":
        mask[:] = True
    elif kind == "random":
        mask[:] = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return mask


def sampler(mode, top_p, temperature, seed_):
    return SamplerConfig(mode=mode, top_p=top_p, temperature=temperature, seed=seed_)


def draw_and_sorts(dist, cfg, rng):
    """``sample(dist, cfg, rng)``, and the size of each array ``ndarray.sort`` sorted in it."""
    sizes = []

    def profile(frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None), np.ndarray):
            if arg.__name__ == "sort":
                sizes.append(arg.__self__.size)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        drawn = sample(dist, cfg, rng)
    finally:
        sys.setprofile(previous)
    return drawn, sizes


def assert_edge_draws_like_reference(dist, top_p, temperature=1.0):
    # the same kept mass, hence the same cut, and the same draw order
    cfg = sampler("nucleus", top_p, temperature, 0)
    for u in EDGE_DRAWS:
        assert sample(dist, cfg, FixedDraw(u)) == reference_sample(dist, cfg, FixedDraw(u))


@seed(240308688)
@PINNED
@given(
    dist=distributions(),
    top_p=st.sampled_from(TOP_PS),
    temperature=st.sampled_from(TEMPERATURES),
)
def test_keep_set_equals_argsort_reference(dist, top_p, temperature):
    assert_edge_draws_like_reference(dist, top_p, temperature)


@seed(240308688)
@PINNED
@given(
    data=st.data(),
    dist=distributions(),
    mode=st.sampled_from(["greedy", "nucleus"]),
    top_p=st.sampled_from(TOP_PS),
    temperature=st.sampled_from(TEMPERATURES),
    seed_=st.integers(0, 2**32 - 1),
)
def test_sparse_step_draws_like_dense_reference(data, dist, mode, top_p, temperature, seed_):
    mask = data.draw(masks(len(dist)))
    ids = np.flatnonzero(mask)
    if not mask.any():
        with pytest.raises(EmptyMaskError):
            mask_distribution(dist, ids)
        with pytest.raises(EmptyMaskError):
            reference_mask_distribution(dist, mask)
        return
    dense = reference_mask_distribution(dist, mask)
    probs = mask_distribution(dist, ids)
    # gathered sums may differ from the dense pairwise sum in the last bit
    assert np.allclose(probs, dense[ids], rtol=1e-12, atol=0.0)
    assert not dense[~mask].any()
    cfg = sampler(mode, top_p, temperature, seed_)
    for _ in range(3):
        rng_dense, rng_sparse = make_rng(seed_), make_rng(seed_)
        want = reference_sample(dense, cfg, rng_dense)
        got = int(ids[sample(probs, cfg, rng_sparse)])
        assert got == want
        assert rng_sparse.random() == rng_dense.random()
        seed_ += 1


def zipf(n, exponent, g):
    w = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return g.permutation(w / w.sum())


@st.composite
def large_distributions(draw):
    """5k-20k entries: the tie-and-zero pool, all equal, 1% nonzero, a
    smoothing floor under a few spikes, or Zipf (rounded: ties and zeros)."""
    kind = draw(st.sampled_from(["pool", "flat", "sparse", "floor", "zipf", "zipf-rounded"]))
    n = draw(st.integers(5_000, 20_000))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "pool":
        w = g.choice(POOL, n)
        uniform = g.random(n) < 0.5
        w[uniform] = g.random(int(uniform.sum()))
    elif kind == "flat":
        w = np.ones(n)
    elif kind == "sparse":
        w = np.zeros(n)
        w[g.choice(n, n // 100, replace=False)] = g.random(n // 100) + 1e-3
    elif kind == "floor":
        w = np.full(n, 0.1)
        w[g.choice(n, 50, replace=False)] += g.integers(1, 200, 50)
    else:
        w = zipf(n, g.uniform(0.8, 2.0), g)
        if kind == "zipf-rounded":
            w = np.round(w, int(g.integers(4, 7)))
    return w / w.sum()


@seed(240308688)
@settings(max_examples=60, deadline=None, database=None)
@given(
    dist=large_distributions(),
    top_p=st.sampled_from(TOP_PS),
    temperature=st.sampled_from((1.0, 0.5)),
    seed_=st.integers(0, 2**32 - 1),
)
def test_large_vectors_equal_argsort_reference(dist, top_p, temperature, seed_):
    assert_edge_draws_like_reference(dist, top_p, temperature)
    cfg = sampler("nucleus", top_p, temperature, seed_)
    rng_dense, rng_sparse = make_rng(seed_), make_rng(seed_)
    assert sample(dist, cfg, rng_sparse) == reference_sample(dist, cfg, rng_dense)
    assert rng_sparse.random() == rng_dense.random()


def vector_50k(kind):
    g = np.random.default_rng(7)
    n = 50_000
    if kind == "zipf":
        return zipf(n, 1.1, g)
    if kind == "flat":
        w = g.uniform(0.9, 1.1, n)
    elif kind == "equal":
        w = np.ones(n)
    elif kind == "floor":
        w = np.full(n, 0.1)
        w[g.choice(n, 50, replace=False)] += g.integers(1, 200, 50)
    else:
        w = np.zeros(n)
        w[g.choice(n, 500, replace=False)] = g.random(500) + 1e-3
    return w / w.sum()


@pytest.mark.parametrize(
    "kind, top_p, selects",
    [
        ("zipf", 0.9, True),
        ("zipf", 0.99, False),
        ("zipf", 1.0, False),
        ("flat", 0.9, False),
        ("flat", 1.0, False),
        ("equal", 0.9, False),
        ("floor", 0.9, False),
        ("sparse", 0.9, True),
    ],
)
def test_candidate_selection_only_where_it_pays(kind, top_p, selects):
    # at top_p 0.99 the Zipf vector's threshold leaves most ids above it,
    # top_p 1 cuts near the last positive value, a flat vector needs most
    # ids to hold 0.9, and a run of equal values at the threshold selects
    # every id: each sorts every value, and sorts it once; the sparse
    # vector's 500 nonzero values hold the mass, so only nonzero values are
    # sorted (below top_p 1 the stride sample is sorted first)
    dist = vector_50k(kind)
    assert (_nucleus_cut(dist, top_p)[0] is not None) == selects
    cfg = sampler("nucleus", top_p, 1.0, 11)
    rng_dense, rng_sparse = make_rng(11), make_rng(11)
    drawn, sorts = draw_and_sorts(dist, cfg, rng_sparse)
    assert drawn == reference_sample(dist, cfg, rng_dense)
    assert sorts[:-1] == ([len(dist[::_SAMPLE_STRIDE])] if top_p < 1.0 else [])
    assert (sorts[-1] < len(dist)) == selects
    assert rng_sparse.random() == rng_dense.random()
    assert_edge_draws_like_reference(dist, top_p)


def test_candidates_whose_running_sum_falls_short():
    # few of this sparse vector's nonzero values are sampled, so at any
    # top_p below 1 the threshold is the smallest of them; top_p equal to
    # the selection's pairwise sum, which exceeds its running sum in the
    # last bit, selects the same values, the cut lies past them, so the
    # draw sorts the selection and then every value
    g = np.random.default_rng(3)
    w = np.zeros(8192)
    w[g.choice(len(w), 300, replace=False)] = g.random(300) + 1e-3
    dist = w / w.sum()
    ids, vals = _nucleus_cut(dist, 0.5)[:2]
    top_p = float(vals.sum())
    assert ids is not None and np.cumsum(np.sort(vals)[::-1])[-1] < top_p
    cfg = sampler("nucleus", top_p, 1.0, 0)
    drawn, sorts = draw_and_sorts(dist, cfg, FixedDraw(0.5))
    assert drawn == reference_sample(dist, cfg, FixedDraw(0.5))
    assert sorts == [len(dist[::_SAMPLE_STRIDE]), len(ids), len(dist)]
    assert_edge_draws_like_reference(dist, top_p)


def test_candidates_that_fall_short_sort_every_value():
    # every 64th value sits just above a band of the others that holds most
    # of the mass, so the threshold is the smallest sampled value, and the
    # values at or above it (the sampled ones and 40 spikes) hold less than
    # top_p: the draw sorts them and then every value
    g = np.random.default_rng(5)
    w = g.uniform(0.5, 0.9, 8192)
    w[::_SAMPLE_STRIDE] = g.uniform(1.0, 1.1, len(w[::_SAMPLE_STRIDE]))
    w[g.choice(len(w), 40, replace=False)] += 50.0
    dist = w / w.sum()
    top_p = 0.9
    first = dist >= dist[::_SAMPLE_STRIDE].min()
    assert dist[first].sum() < top_p
    assert np.count_nonzero(first) < len(dist) // 2
    assert _nucleus_cut(dist, top_p)[0] is None
    cfg = sampler("nucleus", top_p, 1.0, 0)
    drawn, sorts = draw_and_sorts(dist, cfg, FixedDraw(0.5))
    assert drawn == reference_sample(dist, cfg, FixedDraw(0.5))
    assert sorts == [len(dist[::_SAMPLE_STRIDE]), np.count_nonzero(first), len(dist)]
    assert_edge_draws_like_reference(dist, top_p)
    for s in range(20):
        rng_dense, rng_sparse = make_rng(s), make_rng(s)
        assert sample(dist, cfg, rng_sparse) == reference_sample(dist, cfg, rng_dense)
        assert rng_sparse.random() == rng_dense.random()


@pytest.fixture(scope="module")
def ranked_rows():
    """A Zipf-1.1 row over a 50k synthetic vocabulary, ranked longest token
    first in a seeded order within a length, as e2ebench's FixedCostProvider
    ranks its rows: unmasked, and gathered by the mask of b" " and renormalised."""
    vocab = make_synthetic_vocabulary(50_000)
    lengths = np.array([len(t) for t in vocab.tokens])
    zipf_ranks = np.arange(1, len(vocab) + 1, dtype=np.float64) ** -1.1
    row = np.empty(len(vocab))
    row[np.lexsort((np.random.default_rng(10).random(len(vocab)), -lengths))] = zipf_ranks
    row /= row.sum()
    mask = MaskCache(build_trie(vocab), 1).lookup(b" ")
    assert 20_000 < len(mask) < 30_000
    return {"masked": mask_distribution(row, mask), "unmasked": row}


@pytest.mark.parametrize("top_p", [0.8, 0.9, 0.95])
@pytest.mark.parametrize("kind", ["masked", "unmasked"])
def test_selection_holds_on_heavy_tailed_rows(ranked_rows, kind, top_p):
    # the mask of b" " holds every longest token and about half of each
    # shorter length, so the masked row keeps a heavy tail; a threshold at
    # 95% of 1 - top_p with no back-off selected too few values here (the
    # masked row at 0.8 and 0.9, the unmasked one at 0.8), and such a draw
    # sorted every value; the draw sorts only the selection, once
    dist = ranked_rows[kind]
    cfg = sampler("nucleus", top_p, 1.0, 0)
    drawn, sorts = draw_and_sorts(dist, cfg, FixedDraw(0.5))
    assert drawn == reference_sample(dist, cfg, FixedDraw(0.5))
    assert len(sorts) == 2 and sorts[0] == len(dist[::_SAMPLE_STRIDE])
    assert sorts[1] <= len(dist) // 2
    assert_edge_draws_like_reference(dist, top_p)
    for s in range(20):
        rng_dense, rng_sparse = make_rng(s), make_rng(s)
        assert sample(dist, cfg, rng_sparse) == reference_sample(dist, cfg, rng_dense)
        assert rng_sparse.random() == rng_dense.random()


def test_candidates_stay_near_the_keep_set():
    # the tail-mass threshold selects at most 1.25 times the keep set of a
    # 50k Zipf-1.1 vector at top_p 0.9 (an upper quartile would select 1.80 times)
    dist = vector_50k("zipf")
    ids = _nucleus_cut(dist, 0.9)[0]
    kept = reference_keep_set(dist, 0.9)
    assert len(kept) <= len(ids) <= 1.25 * len(kept)


@seed(240308688)
@PINNED
@given(st.lists(weight, min_size=1, max_size=_ORDERED_SUM_MAX))
def test_numpy_adds_few_values_left_to_right(values):
    # `mask_distribution` reproduces NumPy's sum of a small mask with plain
    # float additions; that holds only while NumPy adds this few values in
    # order (longer arrays are summed pairwise)
    fold = functools.reduce(operator.add, values)
    assert np.add.reduce(np.array(values)) == fold
    assert np.cumsum(values)[-1] == fold


@pytest.mark.parametrize("n", [2, 8, 32, 33, 5000])
def test_draw_exactly_on_a_cumulative_boundary(n):
    # u equal to a running sum selects the next id, as searchsorted(side="right") does
    dist = np.full(n, 1.0 / n)
    cfg = sampler("nucleus", 1.0, 1.0, 0)
    for u in (0.0, 1.0 / n, 0.5):
        assert sample(dist, cfg, FixedDraw(u)) == reference_sample(dist, cfg, FixedDraw(u))


def test_top_p_one_round_off_reaches_zero_probability_ids():
    # ten 0.1s sum to 0.9999999999999999 < 1.0, so the cut runs past the
    # last positive entry into the zero-probability ids, which are still
    # never drawn
    short = np.array([0.0, 0.1, 0.0] + [0.1] * 9 + [0.0])
    long = np.zeros(40)
    long[3::4] = 0.1
    cfg = sampler("nucleus", 1.0, 1.0, 0)
    for dist in (short, long):
        assert np.cumsum(np.sort(dist)[::-1])[-1] < 1.0
        assert len(reference_keep_set(dist, 1.0)) == len(dist)
        assert_edge_draws_like_reference(dist, 1.0)
        assert all(dist[sample(dist, cfg, FixedDraw(i / 64))] > 0.0 for i in range(64))


def test_zero_mass_on_mask_falls_back_to_uniform():
    dist = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
    mask = np.array([True, False, True, False, True])
    ids = np.flatnonzero(mask)
    probs = mask_distribution(dist, ids)
    assert np.array_equal(probs, reference_mask_distribution(dist, mask)[ids])
    for mode in ("greedy", "nucleus"):
        cfg = sampler(mode, 0.5, 1.0, 5)
        for s in range(20):
            want = reference_sample(reference_mask_distribution(dist, mask), cfg, make_rng(s))
            assert int(ids[sample(probs, cfg, make_rng(s))]) == want


@pytest.mark.parametrize("size", [7, 1_000, 6_000])
def test_each_kept_id_gets_its_share_of_the_unit_interval(size):
    # u swept over a grid of [0, 1): a kept id is drawn for a share of the
    # grid within one step of its weight over the kept mass, and an id
    # outside the keep set is never drawn (ties and zeros in each vector;
    # 6,000 weights sort only the candidates)
    g = np.random.default_rng(size)
    if size == 7:
        w = np.array([0.25, 0.0, 0.1, 0.25, 0.0, 0.3, 0.1])
    else:
        w = g.choice([0.0, 0.0, 0.001, 0.001, 0.002], size)
        w[g.choice(size, 40, replace=False)] = g.choice([0.5, 0.5, 1.0, 1.0, 2.0], 40)
    dist = w / w.sum()
    top_p = 0.9
    assert (_nucleus_cut(dist, top_p)[0] is not None) == (size > 4096)
    kept = reference_keep_set(dist, top_p)
    steps = 1 << 15
    cfg = sampler("nucleus", top_p, 1.0, 0)
    drawn = [sample(dist, cfg, FixedDraw(i / steps)) for i in range(steps)]
    counts = np.bincount(drawn, minlength=size)
    assert counts.sum() == counts[kept].sum() == steps
    shares = counts[kept] / steps
    assert np.all(np.abs(shares - dist[kept] / dist[kept].sum()) <= 1 / steps)
