"""The remembered provider-contract check against the two scans it replaced.

``check_distribution`` scans a row once and remembers it when the row is
a float64 array over a ``bytes`` object, whose values can never change.
These tests hold it to the two-scan check kept below as the reference:
the same verdict and message on every call, whatever memory a row lives
in, however often it is checked, and whether or not its memory is
rewritten between checks.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tokalign import (
    AlignConfig,
    MaskCache,
    SamplerConfig,
    Vocabulary,
    aligned_generate,
    build_ngram_model,
    build_trie,
    generate,
)
from tokalign import decoding as decoding_module
from tokalign.decoding import DIST_SUM_TOLERANCE, _frozen_row, check_distribution

SIZE = 6
KINDS = ("bytes", "bytearray", "memoryview", "owned", "owned-read-only")


def reference_check(dist, size):
    """``check_distribution`` before rows were remembered: both scans on every call."""
    if dist.shape != (size,):
        raise ValueError(f"distribution must have shape ({size},), got {dist.shape}")
    if not dist.min() >= 0.0:
        raise ValueError("distribution has negative or NaN entries")
    total = float(dist.sum())
    if abs(total - 1.0) > DIST_SUM_TOLERANCE:
        raise ValueError(f"distribution sums to {total}, not 1")


def verdict(check, dist, size):
    """None when ``check`` accepts, else its error message."""
    try:
        check(dist, size)
    except ValueError as exc:
        return str(exc)
    return None


def remembered(row):
    ref = decoding_module._PASSED_ROWS.get(id(row))
    return ref is not None and ref() is row


@pytest.fixture()
def scans(monkeypatch):
    """The rows given the two full scans, in call order."""
    scanned = []
    real_scan = decoding_module._scan_distribution

    def counting_scan(dist, size):
        scanned.append(dist)
        real_scan(dist, size)

    monkeypatch.setattr(decoding_module, "_scan_distribution", counting_scan)
    return scanned


@st.composite
def vectors(draw):
    """A distribution, often of the wrong size or with one flaw."""
    n = draw(st.sampled_from([SIZE, SIZE, SIZE, SIZE - 1, SIZE + 1]))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    values = [w / total for w in weights] if total > 0.0 else [1.0 / n] * n
    flaw = draw(st.sampled_from(["none", "none", "negative", "nan", "inf", "off"]))
    i = draw(st.integers(0, n - 1))
    if flaw == "negative":
        values[i] = -draw(st.floats(1e-12, 1.0))
    elif flaw == "nan":
        values[i] = math.nan
    elif flaw == "inf":
        values[i] = draw(st.sampled_from([math.inf, -math.inf]))
    elif flaw == "off":
        values[i] += draw(st.sampled_from([2e-6, -2e-6, 0.5]))
    return values


def build(values, kind):
    raw = np.array(values, dtype=np.float64).tobytes()
    if kind == "bytes":
        return np.frombuffer(raw, dtype=np.float64)
    if kind == "bytearray":
        return np.frombuffer(bytearray(raw), dtype=np.float64)
    if kind == "memoryview":
        return np.frombuffer(memoryview(raw), dtype=np.float64)
    row = np.array(values, dtype=np.float64)
    if kind == "owned-read-only":
        row.setflags(write=False)
    return row


def rewrite(row, values, kind):
    """Write ``values`` into ``row``'s memory where that memory can be written."""
    if kind in ("bytes", "memoryview") or len(values) != len(row):
        return
    if kind == "owned-read-only":
        row.setflags(write=True)
    row[:] = values
    if kind == "owned-read-only":
        row.setflags(write=False)


@seed(240308688)
@settings(max_examples=150, deadline=None, database=None)
@given(
    first=vectors(),
    later=st.lists(st.tuples(vectors(), st.sampled_from([SIZE, SIZE, SIZE + 1])), min_size=2, max_size=4),
    kind=st.sampled_from(KINDS),
)
def test_same_verdict_as_two_scans(first, later, kind):
    row = build(first, kind)
    checks = [(None, SIZE)] + later
    for values, size in checks:
        if values is not None:
            rewrite(row, values, kind)
        assert verdict(check_distribution, row, size) == verdict(reference_check, row, size)
        # only rows over bytes are kept: no other memory is known never to change
        assert not remembered(row) or kind == "bytes"
    if kind == "bytes" and verdict(reference_check, row, SIZE) is None:
        assert remembered(row)


@pytest.mark.parametrize("memory", ["bytearray", "read-only view"])
@pytest.mark.parametrize("arm", ["aligned", "plain"])
def test_refilled_buffer_rejected_on_the_call_it_turns_bad(memory, arm):
    vocab = Vocabulary([b"a", b"b", b"ab"])

    class Refilling:
        """Returns one row every call, refilled with NaN before the second."""

        vocab_size = 3

        def __init__(self):
            self.calls = 0
            if memory == "bytearray":
                self.buffer = np.frombuffer(bytearray(np.full(3, 1 / 3).tobytes()), dtype=np.float64)
                self.row = self.buffer
            else:
                self.buffer = np.full(3, 1 / 3)
                self.row = self.buffer.view()
                self.row.setflags(write=False)

        def next_distribution(self, context):
            self.calls += 1
            if self.calls == 2:
                self.buffer[1] = np.nan
            return self.row

    provider = Refilling()
    cfg = SamplerConfig(mode="greedy", max_new_tokens=4)
    with pytest.raises(ValueError, match="negative or NaN"):
        if arm == "aligned":
            trie = build_trie(vocab)
            aligned_generate(
                provider, vocab, trie, MaskCache(trie, 0), b"a", AlignConfig(backtrack_tokens=1), cfg
            )
        else:
            generate(provider, vocab, b"a", cfg)
    assert provider.calls == 2


@pytest.mark.parametrize(
    "attribute, value, message",
    [("shape", (2, 2), "shape"), ("dtype", np.int64, "sums to"), ("dtype", np.float32, "shape")],
)
def test_reassigned_shape_or_dtype_scanned_again(attribute, value, message):
    row = _frozen_row([0.7, 0.1, 0.1, 0.1])
    check_distribution(row, 4)
    assert remembered(row)
    setattr(row, attribute, value)
    expected = verdict(reference_check, row, 4)
    assert expected is not None and message in expected
    assert verdict(check_distribution, row, 4) == expected


def test_reassigned_strides_scanned_again():
    row = _frozen_row([0.7, 0.1, 0.1, 0.1])
    check_distribution(row, 4)
    assert remembered(row)
    with warnings.catch_warnings():
        # assigning strides is deprecated since NumPy 2.4
        warnings.simplefilter("ignore", DeprecationWarning)
        row.strides = (0,)
    assert row.tolist() == [0.7] * 4
    expected = verdict(reference_check, row, 4)
    assert expected is not None and "sums to" in expected
    assert verdict(check_distribution, row, 4) == expected


def test_subclass_over_bytes_scanned_every_call():
    class ReportsNaNAfterFirstMin(np.ndarray):
        seen = 0

        def min(self, *args, **kwargs):
            ReportsNaNAfterFirstMin.seen += 1
            return super().min(*args, **kwargs) if ReportsNaNAfterFirstMin.seen == 1 else np.nan

    row = ReportsNaNAfterFirstMin((4,), dtype=np.float64, buffer=np.full(4, 0.25).tobytes())
    assert type(row.base) is bytes
    check_distribution(row, 4)
    with pytest.raises(ValueError, match="negative or NaN"):
        check_distribution(row, 4)


def test_rows_built_past_the_ngram_memo_never_remembered(scans, trained_vocab, code_texts):
    model = build_ngram_model(code_texts[:3], trained_vocab, order=2, alpha=0.1)
    model._row_capacity = 0
    context = next(list(key) for key in model._counts if model._BEFORE_START not in key)
    rows = [model.next_distribution(context) for _ in range(3)]
    assert len({id(r) for r in rows}) == 3
    for row in rows:
        # built per call: owned, read-only memory, not copied into bytes
        assert row.flags.owndata and not row.flags.writeable
        for _ in range(2):
            check_distribution(row, len(trained_vocab))
        assert not remembered(row)
    assert len(scans) == 6


def test_one_scan_per_distinct_row(scans, trained_vocab, trained_trie, code_texts):
    # a fresh model: its rows are new objects that no other test has checked
    model = build_ngram_model(code_texts, trained_vocab, order=3, alpha=0.1)
    returned = []

    class Recording:
        vocab_size = model.vocab_size

        def next_distribution(self, context):
            row = model.next_distribution(context)
            returned.append(row)
            return row

    prompts = [text[: 20 + 7 * i] for i, text in enumerate(code_texts[:6])]
    configs = [
        SamplerConfig(mode="greedy", max_new_tokens=8),
        SamplerConfig(mode="nucleus", top_p=0.9, seed=5, max_new_tokens=8),
    ]

    def one_pass():
        outputs = []
        for prompt in prompts:
            for cfg in configs:
                outputs.append(aligned_generate(
                    Recording(), trained_vocab, trained_trie, MaskCache(trained_trie, 0), prompt,
                    AlignConfig(), cfg,
                ).output)
                outputs.append(generate(Recording(), trained_vocab, prompt, cfg).output)
        return outputs

    first = one_pass()
    distinct = {id(row) for row in returned}
    assert len(returned) > 2 * len(distinct)
    assert sorted(id(row) for row in scans) == sorted(distinct)
    scans.clear()
    assert one_pass() == first
    assert scans == []
