"""Logits providers, samplers, and the unconstrained generation loop.

Providers return full probability vectors (not logits): masking and
renormalization downstream are then unambiguous.  All stochasticity
lives in the sampler, which draws from an explicit seeded generator
(NumPy PCG64) via inverse-CDF over the kept set in descending weight
order, ties in position order, so identical seeds reproduce identical
outputs byte for byte.  A greedy draw takes the first maximum, so ties
go to the first position.  A position is a token id in a provider row;
in a masked row it is a place in the mask, whose ids come in the index's
order (``trie.TokenMask``).

Per-token code calls ndarray methods (``argmax``, ``sort``, ``cumsum``,
``searchsorted``, ``nonzero``) rather than the ``np.*`` functions that
forward to them: the same C kernels with the same arguments, so draws
are bit-identical, without the 1 to 1.6 µs a wrapper adds to each call.

A nucleus draw never sorts ids; :func:`sample` alone reads its cut,
and no function returns the kept set.  Each of its two regimes keeps
the ids a stable descending argsort over every id keeps, and draws in
that order: one sort of the values, one descending running sum, and the
cut and the drawn rank both read off that sum.  The drawn rank's value,
counted among its ties in position order, gives the id.

- up to 4096 weights, or ``top_p`` 1: one sort of every value;
- more: a sort of only the values at or above a threshold read off
  every 64th value.  Summed from the bottom, that sorted sample
  estimates the mass below each sampled value; the threshold steps 12
  sampled values back from the largest one that leaves less than
  ``1 - top_p`` below it, never onto a zero.  The values at or above it
  are the largest values with all their ties, so their running sums are
  the first running sums of the full descending order.  When they are
  most of the vector (a flat one at a high ``top_p``, or a long run of
  equal values at the threshold) or their running sum misses ``top_p``,
  every value is sorted.
"""

from __future__ import annotations

import base64
import functools
import math
import time
import weakref
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

import numpy as np

from .vocab import (
    ConfigError, Vocabulary, _refuse_unknown_fields, decode, encode, json_field, json_is, parse_json
)

DIST_SUM_TOLERANCE = 1e-6


class LogitsProvider(Protocol):
    """Anything that maps a token-id context to a next-token distribution.

    tokalign never writes into a vector a provider returns, so a provider
    may hand out the same read-only array on every call.  Every returned
    vector is checked (:func:`check_distribution`); a float64 row built
    by ``np.frombuffer`` over a ``bytes`` object is scanned only the
    first time it is returned, so a provider that hands out the same
    such rows again and again pays the full check once per row.  A
    greedy draw finds such a row's first maximum once too.  An
    alignment step whose mask holds one id does not call the provider:
    its draw is decided.

    The ``context`` list is valid only during the call: tokalign appends
    the chosen id to that same list afterwards, so a provider that keeps
    the context must copy it.
    """

    vocab_size: int

    def next_distribution(self, context: Sequence[int]) -> np.ndarray: ...


class _PassedRow(weakref.KeyedRef):
    """A weak reference to a row that passed, keyed by its id, with its greedy pick.

    ``pick`` is the row's first maximum, None until a greedy draw reads it.
    """

    __slots__ = ("pick",)

    def __new__(cls, row: np.ndarray):
        return super().__new__(cls, row, _forget_row, id(row))

    def __init__(self, row: np.ndarray):
        super().__init__(row, _forget_row, id(row))
        self.pick: int | None = None


# Rows that passed both scans of check_distribution: a weak reference to
# each, by id.  Only exact float64 ndarrays with strides (8,) whose base
# is a ``bytes`` object are kept: bytes never change and NumPy refuses to
# make such an array writeable, so a kept row's values, and so its first
# maximum, are the values that passed.  Its dtype, strides and shape can
# still be reassigned in place, so every call tests them again.  An entry
# goes when its row is freed.  Sharing the memo between callers changes
# no verdict or draw, only how often a row is scanned.
_PASSED_ROWS: dict[int, _PassedRow] = {}
_FLOAT64 = np.dtype(np.float64)
_ROW_STRIDES = (_FLOAT64.itemsize,)


def _forget_row(ref: _PassedRow) -> None:
    """Drop a freed row's entry, unless the id already names a newer row."""
    if _PASSED_ROWS.get(ref.key) is ref:
        del _PASSED_ROWS[ref.key]


def check_distribution(dist, size: int) -> np.ndarray:
    """Enforce the provider contract on one provider output, and return it as float64.

    The contract: shape ``(size,)``, no negative or NaN entries, sum 1
    within 1e-6.  Callers run it once on every provider output and use
    the row it returns.  ``min`` propagates NaN and ``sum`` propagates
    inf, so two passes catch both.  Input that is not an ndarray is
    converted to float64 first; an array of another dtype must pass as it
    is and as the float64 copy returned, the values the sampler reads.
    A contiguous float64 row that passes ``min`` with a dot product with
    ones within 1e-6 of 1 less a rounding band skips ``sum``; any other
    row gets both scans.  A float64 row over immutable ``bytes`` memory
    that has passed is not checked again: a later call with that same
    object re-checks only its identity, dtype, strides and shape.  Every
    other input is checked on every call, and the verdict and message are
    always the two scans'.
    """
    if not isinstance(dist, np.ndarray):
        dist = np.asarray(dist, dtype=np.float64)
    ref = _PASSED_ROWS.get(id(dist))
    if (
        ref is not None
        and ref() is dist
        and dist.dtype is _FLOAT64
        and dist.strides == _ROW_STRIDES
        and dist.shape == (size,)
    ):
        return dist
    _scan_distribution(dist, size)
    if dist.dtype is not _FLOAT64:
        dist = np.asarray(dist, dtype=np.float64)
        _scan_distribution(dist, size)
    elif (
        type(dist) is np.ndarray
        and type(dist.base) is bytes
        and dist.strides == _ROW_STRIDES
    ):
        _PASSED_ROWS[id(dist)] = _PassedRow(dist)
    return dist


# Twice the float64 unit roundoff 2**-53: an over-estimate with room for
# the rounding of the band itself.
_UNIT_ROUNDOFF = 2.0**-52


@functools.lru_cache(maxsize=1)
def _ones_and_limit(size: int) -> tuple[np.ndarray, float]:
    """A read-only ones vector of ``size`` entries, and the fast acceptance limit.

    Only the last size is kept: a 50k-entry vector takes 400 kB.  Summed
    in any order, ``size`` non-negative terms with exact total S come out
    within ``(size - 1) * 2**-53 * S`` of it, to first order (Higham,
    2002, §4.2).  Two such sums of one row, the dot product and ``sum``'s
    pairwise sum, therefore differ by less than ``band = 2 * size *
    _UNIT_ROUNDOFF * (1 + 1e-6)`` wherever S is within 1e-6 of 1, so a dot
    product within ``1e-6 - band`` of 1 means ``sum`` is within 1e-6 of 1.
    """
    ones = np.ones(size)
    ones.setflags(write=False)
    band = 2.0 * size * _UNIT_ROUNDOFF * (1.0 + DIST_SUM_TOLERANCE)
    return ones, DIST_SUM_TOLERANCE - band


def _scan_distribution(dist: np.ndarray, size: int) -> None:
    """The two full scans of :func:`check_distribution`, ``sum`` maybe skipped.

    Every row gets ``min``.  A contiguous float64 row that passes it with
    a dot product with ones within ``1e-6 - band`` of 1 (see
    :func:`_ones_and_limit`; an inf makes it inf) would pass ``sum`` too,
    so it skips that scan.  Every other row, near the tolerance edge
    included, gets both scans, so a rejection's message is always theirs.
    """
    if dist.shape != (size,):
        raise ValueError(f"distribution must have shape ({size},), got {dist.shape}")
    near_one = False
    if type(dist) is np.ndarray and dist.dtype is _FLOAT64 and dist.strides == _ROW_STRIDES:
        ones, limit = _ones_and_limit(size)
        # the dot product first: on 50k-entry rows not yet in cache, that
        # order took 20.3-22.5 µs per check, min first 23.1-25.6 µs (README)
        near_one = abs(dist.dot(ones) - 1.0) <= limit
    if not dist.min() >= 0.0:
        raise ValueError("distribution has negative or NaN entries")
    if near_one:
        return
    total = float(dist.sum())
    if abs(total - 1.0) > DIST_SUM_TOLERANCE:
        raise ValueError(f"distribution sums to {total}, not 1")


@dataclass
class SamplerConfig:
    mode: str = "greedy"  # "greedy" | "nucleus"
    top_p: float = 1.0
    temperature: float = 1.0
    seed: int = 0
    max_new_tokens: int = 64
    stop_sequences: tuple[bytes, ...] = ()

    def __post_init__(self):
        if self.mode not in ("greedy", "nucleus"):
            raise ConfigError("mode", f"unknown sampler mode {self.mode!r}")
        if self.mode == "nucleus":
            if not 0.0 < self.top_p <= 1.0:
                raise ConfigError("top_p", "nucleus sampling requires top_p in (0, 1]")
            if not 0.0 < self.temperature < math.inf:  # NaN fails this too
                raise ConfigError(
                    "temperature",
                    f"nucleus sampling requires a finite temperature > 0, got {self.temperature}",
                )
        if self.max_new_tokens < 0:
            raise ConfigError("max_new_tokens", "max_new_tokens must be >= 0")
        _check_seed(self.seed)
        self.stop_sequences = tuple(bytes(s) for s in self.stop_sequences)


def _check_seed(seed: int) -> None:
    """The seed rule of :func:`make_rng`, for callers that fail before any work."""
    if seed < 0:
        raise ConfigError("seed", f"seed must be >= 0, got {seed}")


def make_rng(seed: int) -> np.random.Generator:
    """The pinned generator: PCG64 seeded with a non-negative integer."""
    _check_seed(seed)
    return np.random.Generator(np.random.PCG64(seed))


# Up to this many entries a nucleus draw sorts every value: below it
# sorting only the candidates saves little.
_FULL_SORT_MAX = 4096
# Every this-many-th value is sorted and summed from the bottom to
# estimate the mass below each sampled value.
_SAMPLE_STRIDE = 64
# The threshold steps back this many sampled values from the estimate, so
# that the selection holds top_p on masked rows too (README "Sparse masks").
_BACK_OFF = 12


def _nucleus_cut(w: np.ndarray, top_p: float) -> tuple:
    """The sort, running sum and cut a nucleus draw of ``w`` reads: ``(ids, vals, top, fold, cut)``.

    ``vals`` is ``w[ids]``, or ``w`` when ``ids`` is None; ``top`` is
    ``vals`` ascending, ``fold`` its running sum from the largest value,
    and ``cut`` the first index of ``fold`` at or above ``top_p`` (the
    last index when none is).  ``ids`` first holds the ascending positions
    at or above the module docstring's threshold, whose estimate takes the
    total to be 1, as the provider contract and :func:`_apply_temperature`
    give.  Exactness never rests on that estimate: when those positions
    are more than half of ``w``, or their running sum misses ``top_p``,
    every value is sorted.
    """
    n = len(w)
    ids = None
    if n > _FULL_SORT_MAX and top_p < 1.0:
        sample = w[::_SAMPLE_STRIDE].copy()
        sample.sort()
        under = int(sample.cumsum().searchsorted((1.0 - top_p) / _SAMPLE_STRIDE))
        at = max(under - _BACK_OFF, int(sample.searchsorted(0.0, side="right")))
        ids = (w >= sample[min(at, len(sample) - 1)]).nonzero()[0]
        if len(ids) > n // 2:
            ids = None
    while True:
        vals = w if ids is None else w[ids]
        top = vals.copy()
        top.sort()
        fold = top[::-1].cumsum()
        cut = int(fold.searchsorted(top_p, side="left"))
        if cut < len(top) or ids is None:
            return ids, vals, top, fold, min(cut, len(top) - 1)
        ids = None


def _apply_temperature(dist: np.ndarray, temperature: float) -> np.ndarray:
    """``dist ** (1 / temperature)`` renormalized; T = 1 returns ``dist`` itself.

    The weights are ``exp((log(p) - log(p_max)) / T)``, so the largest is
    exactly 1 and no temperature, however low, underflows a valid row to
    all zeros.  Zero probabilities stay zero; an all-zero row stays all
    zero, for the draw to reject.
    """
    if temperature == 1.0:
        return dist
    w = np.zeros_like(dist, dtype=np.float64)
    positive = dist > 0
    if positive.any():
        logs = np.log(dist[positive])
        w[positive] = np.exp((logs - logs.max()) / temperature)
        w /= w.sum()
    return w


def sample(dist: np.ndarray, cfg: SamplerConfig, rng: np.random.Generator) -> int:
    """Draw one index of ``dist`` under the configured policy.

    ``dist`` is trusted to meet the provider contract (see
    :func:`check_distribution`); only an empty or all-zero vector is rejected.
    A greedy draw over a row that :func:`check_distribution` remembers
    (float64 over ``bytes``, with its strides unchanged) finds the row's
    first maximum once and reads it from the memo on later draws.
    A nucleus draw takes exactly one ``rng.random()``, ``u``, and walks
    the kept set in the order the cut sorted it, descending weight with
    ties in position order: it returns the first kept position whose
    running sum exceeds ``u`` times the kept mass.
    """
    if type(dist) is not np.ndarray or dist.dtype is not _FLOAT64:
        dist = np.asarray(dist, dtype=np.float64)
    if cfg.mode == "greedy":
        ref = _PASSED_ROWS.get(id(dist))
        if ref is not None and ref() is dist and dist.strides == _ROW_STRIDES:
            # it passed, so it sums to 1 and its maximum is positive
            if ref.pick is None:
                ref.pick = int(dist.argmax())
            return ref.pick
        if dist.size == 0:
            raise ValueError("cannot sample from an empty distribution")
        best = int(dist.argmax())
        if not dist.item(best) > 0.0:
            raise ValueError("cannot sample from an all-zero distribution")
        return best
    if dist.size == 0:
        raise ValueError("cannot sample from an empty distribution")
    w = _apply_temperature(dist, cfg.temperature)
    ids, vals, top, fold, cut = _nucleus_cut(w, cfg.top_p)
    # the fold starts at a maximum, so zero kept mass means an all-zero vector
    total = fold.item(cut)
    if not total > 0.0:
        raise ValueError("cannot sample from an all-zero distribution")
    k = min(int(fold.searchsorted(rng.random() * total, side="right")), cut)
    # the k-th largest value, then its place among its ties: skip those above it
    v = top.item(-1 - k)
    pos = (vals == v).nonzero()[0][k - len(top) + int(top.searchsorted(v, side="right"))]
    return int(pos if ids is None else ids[pos])


# ---------------------------------------------------------------------------
# Generation results


@dataclass
class GenerationResult:
    """One completed generation session.

    ``output`` always begins with the prompt bytes and may be truncated
    at the first stop-sequence occurrence; ``token_ids`` lists every
    token the session emitted, untruncated.  ``mask_sizes`` holds one
    compatible-id count per alignment step, so ``alignment_steps`` is
    its length; a count of 1 marks a forced step, which made no provider
    call.  ``timings_us`` holds the wall-clock microseconds of the
    alignment phase and of the free phase.
    """

    prompt: bytes
    output: bytes
    token_ids: list[int]
    mask_sizes: list[int] = field(default_factory=list)
    timings_us: dict = field(default_factory=dict)

    @property
    def alignment_steps(self) -> int:
        return len(self.mask_sizes)

    def to_json_dict(self) -> dict:
        return {
            "prompt_b64": base64.b64encode(self.prompt).decode("ascii"),
            "output_b64": base64.b64encode(self.output).decode("ascii"),
            "token_ids": list(self.token_ids),
            "alignment_steps": self.alignment_steps,
            "mask_sizes": list(self.mask_sizes),
            "timings_us": dict(self.timings_us),
        }


def first_stop_index(data: bytes, stop_sequences: Sequence[bytes]) -> int | None:
    """Byte index of the earliest stop-sequence occurrence, or None."""
    best: int | None = None
    for stop in stop_sequences:
        if not stop:
            continue
        j = data.find(stop)
        if j != -1 and (best is None or j < best):
            best = j
    return best


def run_free_phase(
    provider: LogitsProvider,
    vocab: Vocabulary,
    context: list[int],
    generated: bytearray,
    cfg: SamplerConfig,
    rng: np.random.Generator,
) -> int | None:
    """Sample unconstrained until max_new_tokens or a stop sequence appears.

    Mutates ``context`` and ``generated`` in place; ``generated`` holds the
    bytes past the original prompt (it may be non-empty on entry when
    alignment overshot).  Returns the truncation index into ``generated``
    when a stop sequence fired, else None.
    """
    # Per-request constants; check_distribution and sample stay global
    # lookups made at call time, so a wrapper installed on the module
    # sees every call.
    next_distribution = provider.next_distribution
    size = len(vocab)
    tokens = vocab.tokens
    stops = cfg.stop_sequences
    for _ in range(cfg.max_new_tokens):
        stop_at = first_stop_index(generated, stops) if stops else None
        if stop_at is not None:
            return stop_at
        dist = check_distribution(next_distribution(context), size)
        chosen = sample(dist, cfg, rng)
        context.append(chosen)
        generated += tokens[chosen]
    return first_stop_index(generated, stops) if stops else None


def generate(
    provider: LogitsProvider,
    vocab: Vocabulary,
    prompt: bytes,
    cfg: SamplerConfig,
) -> GenerationResult:
    """Plain completion: encode the prompt as-is, no backtracking, and sample."""
    if provider.vocab_size != len(vocab):
        raise ValueError(
            f"provider vocab size {provider.vocab_size} != vocabulary size {len(vocab)}"
        )
    context = encode(vocab, prompt)
    generated = bytearray()
    rng = make_rng(cfg.seed)
    t0 = time.perf_counter_ns()
    stop_at = run_free_phase(provider, vocab, context, generated, cfg, rng)
    free_us = (time.perf_counter_ns() - t0) / 1000.0
    out = bytes(generated) if stop_at is None else bytes(generated[:stop_at])
    return GenerationResult(
        prompt=bytes(prompt),
        output=bytes(prompt) + out,
        token_ids=context,
        timings_us={"alignment": 0.0, "free": free_us},
    )


# ---------------------------------------------------------------------------
# Desk-scale providers


# Bytes of seen-context rows an n-gram model keeps (83 rows at 50k ids).
_ROW_MEMO_BYTES = 32 << 20


def check_ngram_config(order: int, alpha: float) -> None:
    """The range rules of :class:`NGramModel`, for callers that fail before any work."""
    if order < 1:
        raise ConfigError("order", f"n-gram order must be >= 1, got {order}")
    if not 0.0 <= alpha < math.inf:  # NaN fails this too
        raise ConfigError("alpha", f"smoothing alpha must be finite and >= 0, got {alpha}")


class NGramModel:
    """Seeded-corpus n-gram provider with add-alpha smoothing.

    ``order`` is the context length in tokens.  Contexts shorter than the
    order are left-padded with a before-start sentinel, which training
    also counts, so sequence-initial transitions are modeled instead of
    falling off a cliff.  Genuinely unseen contexts back off to the
    uniform distribution over the vocabulary.

    :meth:`observe` counts a sequence's (order + 1)-grams in one
    ``Counter`` pass and adds each to its context's plain dict of next-id
    counts.  It raises ValueError, naming the first id that is not an
    integer (NumPy integers are integers) or else the first id outside
    ``0..vocab_size-1``, before it counts anything of that sequence.  A
    ``bool`` id counts as the id it indexes (``True`` is 1).

    Every returned row is read-only.  Unseen contexts share one uniform
    row.  A seen context's row is built on first use and kept while the
    kept rows fit in ``_ROW_MEMO_BYTES``; past that, rows are built per
    call.  :meth:`observe` drops the kept rows.  The uniform row and the
    kept rows live in ``bytes`` (see :func:`_frozen_row`), so each is
    scanned by :func:`check_distribution` once; a row built per call is
    only flagged read-only, costs no extra copy, and is scanned each time.
    """

    _BEFORE_START = -1

    def __init__(self, vocab_size: int, order: int, alpha: float):
        check_ngram_config(order, alpha)
        self.vocab_size = vocab_size
        self.order = order
        self.alpha = alpha
        self._counts: dict[tuple[int, ...], dict[int, int]] = {}
        self._uniform = _frozen_row(np.full(vocab_size, 1.0 / vocab_size))
        self._rows: dict[tuple[int, ...], np.ndarray] = {}
        self._row_capacity = _ROW_MEMO_BYTES // self._uniform.nbytes

    def observe(self, ids: Sequence[int]) -> None:
        ids = tuple(ids)
        try:
            array("q", ids)  # one C-level pass that every id is an integer
        except TypeError:
            bad = next(i for i in ids if not hasattr(type(i), "__index__"))
            raise ValueError(f"token id {bad!r} is not an integer") from None
        except OverflowError:
            pass  # too large for int64, so the range check below names it
        if ids and (min(ids) < 0 or max(ids) >= self.vocab_size):
            bad = next(i for i in ids if not 0 <= i < self.vocab_size)
            raise ValueError(f"token id {bad} is outside 0..{self.vocab_size - 1}")
        k = self.order
        padded = (self._BEFORE_START,) * k + ids
        counts = self._counts
        for gram, n in Counter(zip(*(padded[j:] for j in range(k + 1)))).items():
            ctx, nxt = gram[:k], gram[k]
            seen = counts.get(ctx)
            if seen is None:
                counts[ctx] = {nxt: n}
            else:
                seen[nxt] = seen.get(nxt, 0) + n
        self._rows.clear()

    def next_distribution(self, context: Sequence[int]) -> np.ndarray:
        order = self.order
        if len(context) >= order:
            key = tuple(context[-order:])
        else:
            key = (self._BEFORE_START,) * (order - len(context)) + tuple(context)
        row = self._rows.get(key)
        if row is not None:
            return row
        counter = self._counts.get(key)
        if counter is None:
            return self._uniform
        dist = np.full(self.vocab_size, self.alpha, dtype=np.float64)
        # the keys as one int64 array, so a bool key counts as the id it indexes
        dist[np.fromiter(counter, np.int64, len(counter))] += list(counter.values())
        dist /= dist.sum()
        if len(self._rows) < self._row_capacity:
            dist = self._rows[key] = _frozen_row(dist)
        else:
            dist.setflags(write=False)
        return dist


def build_ngram_model(
    corpus: Iterable[bytes],
    vocab: Vocabulary,
    order: int,
    alpha: float,
) -> NGramModel:
    """Count token transitions of the encoded corpus, one document at a time."""
    model = NGramModel(len(vocab), order, alpha)
    seen_any = False
    for doc in corpus:
        seen_any = True
        model.observe(encode(vocab, bytes(doc)))
    if not seen_any:
        raise ValueError("n-gram corpus is empty")
    return model


class ScriptedModel:
    """Deterministic provider driven by a byte-suffix lookup table.

    The row whose suffix is the longest match against the decoded context
    wins; the mandatory default row covers everything else.  Rows are
    copies of the arrays passed in over ``bytes`` (see :func:`_frozen_row`).
    """

    def __init__(
        self,
        vocab: Vocabulary,
        rows: Sequence[tuple[bytes, np.ndarray]],
        default: np.ndarray,
    ):
        if default is None:
            raise ValueError("scripted model requires a default row")
        self.vocab = vocab
        self.vocab_size = len(vocab)
        self.default = _frozen_row(default)
        check_distribution(self.default, self.vocab_size)
        seen: set[bytes] = set()
        prepared: list[tuple[bytes, np.ndarray]] = []
        for suffix, probs in rows:
            suffix = bytes(suffix)
            if suffix in seen:
                raise ValueError(f"duplicate scripted suffix {suffix!r}")
            seen.add(suffix)
            arr = _frozen_row(probs)
            check_distribution(arr, self.vocab_size)
            prepared.append((suffix, arr))
        # longest suffix first so the first match wins
        self._rows = sorted(prepared, key=lambda r: len(r[0]), reverse=True)

    def next_distribution(self, context: Sequence[int]) -> np.ndarray:
        text = decode(self.vocab, context)
        for suffix, probs in self._rows:
            if text.endswith(suffix):
                return probs
        return self.default

    @classmethod
    def from_json_dict(cls, vocab: Vocabulary, doc: dict) -> "ScriptedModel":
        if not isinstance(doc, dict):
            raise ValueError(f"expected an object, got {type(doc).__name__}")
        _refuse_unknown_fields(doc, ("rows", "default"))
        if "default" not in doc:
            raise ValueError("scripted model file is missing the default row")
        rows = []
        for n, row in enumerate(json_field(doc, "rows", list) if "rows" in doc else []):
            if not isinstance(row, dict):
                raise ValueError(f"rows[{n}]: expected an object, got {type(row).__name__}")
            _refuse_unknown_fields(row, ("suffix_b64", "probs"), f"rows[{n}]")
            suffix = base64.b64decode(json_field(row, "suffix_b64", str), validate=True)
            rows.append((suffix, _float_row(json_field(row, "probs", list), f"rows[{n}]")))
        return cls(vocab, rows, _float_row(json_field(doc, "default", list), "default"))


def load_scripted_model(path: str, vocab: Vocabulary) -> ScriptedModel:
    """Read a scripted table file; an error in its contents names ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return ScriptedModel.from_json_dict(vocab, parse_json(fh.read()))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _frozen_row(values) -> np.ndarray:
    """A float64 copy of ``values`` over a ``bytes`` object, of the same shape.

    Bytes are immutable and NumPy refuses to make an array over them
    writeable, so the copy never changes and :func:`check_distribution`
    scans it only the first time.  This is ``np.frombuffer`` that keeps
    the shape, so a row of the wrong shape still fails on its shape.
    """
    row = np.asarray(values, dtype=np.float64)
    return np.ndarray(row.shape, dtype=np.float64, buffer=row.tobytes())


def _float_row(values: list, where: str) -> np.ndarray:
    if not all(json_is(v, (int, float)) for v in values):
        raise ValueError(f"{where}: probabilities must be numbers")
    return np.asarray(values, dtype=np.float64)
