"""The sparse alignment step and the sort-free nucleus draw against dense references.

The reference functions below are the earlier dense implementations: a
length-V boolean mask applied with ``np.where``, and a nucleus keep set
built from a stable descending argsort over every id.  The sparse path
must keep exactly the same ids and make exactly the same seeded draws.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tokalign import (
    EmptyMaskError,
    SamplerConfig,
    make_rng,
    mask_distribution,
    nucleus_keep_set,
    sample,
)
from tokalign.decoding import _apply_temperature

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
        raise EmptyMaskError(b"")
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
    kept = reference_keep_set(dist, cfg.top_p, cfg.temperature)
    w = _apply_temperature(dist, cfg.temperature)
    probs = w[kept]
    cum = np.cumsum(probs / probs.sum())
    u = rng.random()
    idx = min(int(np.searchsorted(cum, u, side="right")), len(kept) - 1)
    return int(kept[idx])


# Weights drawn from a small pool make ties and hard zeros common.
weight = st.one_of(st.sampled_from([0.0, 0.0, 0.1, 0.25, 1 / 3, 1.0, 2.0]), st.floats(0.0, 1.0))


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


@seed(240308688)
@PINNED
@given(
    dist=distributions(),
    top_p=st.sampled_from(TOP_PS),
    temperature=st.sampled_from(TEMPERATURES),
)
def test_keep_set_equals_argsort_reference(dist, top_p, temperature):
    assert np.array_equal(
        nucleus_keep_set(dist, top_p, temperature),
        reference_keep_set(dist, top_p, temperature),
    )


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
        seed_ += 1


def test_top_p_one_round_off_reaches_zero_probability_ids():
    # ten 0.1s sum to 0.9999999999999999 < 1.0, so the cut runs past the
    # last positive entry and the zero-probability ids are kept too
    dist = np.array([0.0, 0.1, 0.0] + [0.1] * 9 + [0.0])
    assert np.cumsum(np.sort(dist)[::-1])[-1] < 1.0
    kept = nucleus_keep_set(dist, 1.0)
    assert np.array_equal(kept, reference_keep_set(dist, 1.0))
    assert kept.tolist() == list(range(13))


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
