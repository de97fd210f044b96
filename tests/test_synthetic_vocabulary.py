"""The synthetic vocabulary read off raw generator outputs, against the per-call loop.

``make_synthetic_vocabulary`` reads its words straight off PCG64's raw
64-bit outputs until a chunk of them holds a draw NumPy would redraw;
it then builds the tokens again with the per-call loop.  The reference
below is that loop, written out here, which makes three ``Generator``
calls per word; both must give the same tokens.  A redraw comes only
about once in 10**8 halves, so crafted raw outputs place redrawn halves
where the chunked reader must notice them, a per-draw model of NumPy's
rule says which words read them and what each word must be, and a
reader cut short stands in for one that met a redraw.
"""

import hashlib
import itertools

import numpy as np
import pytest

from tokalign import Vocabulary, bench
from tokalign.bench import (
    _WHITESPACE_TOKENS,
    _WORD_BYTES,
    _words,
    check_synthetic_size,
    make_synthetic_vocabulary,
)
from tokalign.decoding import make_rng
from tokalign.vocab import ConfigError


def reference_make_synthetic_vocabulary(size: int, seed: int = 0) -> Vocabulary:
    check_synthetic_size(size)
    rng = make_rng(seed)
    tokens: list[bytes] = [bytes([i]) for i in range(256)]
    seen = set(tokens)
    for ws in _WHITESPACE_TOKENS:
        if len(tokens) >= size:
            break
        if ws not in seen:
            tokens.append(ws)
            seen.add(ws)
    while len(tokens) < size:
        length = int(rng.integers(2, 13))
        word = bytes(_WORD_BYTES[i] for i in rng.integers(0, 26, size=length))
        if rng.random() < 0.5:
            word = b" " + word
        if word not in seen:
            tokens.append(word)
            seen.add(word)
    return Vocabulary(tokens)


def digest(tokens) -> str:
    return hashlib.sha256(b"".join(bytes([len(t)]) + t for t in tokens)).hexdigest()


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
@pytest.mark.parametrize("size", [256, 260, 268, 269, 300, 5_000])
def test_equals_the_per_call_loop(size, seed):
    assert make_synthetic_vocabulary(size, seed).tokens == (
        reference_make_synthetic_vocabulary(size, seed).tokens
    )


def test_50k_seed_0_digest():
    # the vocabulary of the 50k benchmark workloads, `tokalign bench` and
    # demo 06, as the per-call loop built it
    vocab = make_synthetic_vocabulary(50_000)
    assert len(vocab.tokens) == 50_000
    assert digest(vocab.tokens) == (
        "77c90010bb5baa95289cc8ac3358d393612877e5357727962beee5b11b3293ab"
    )


def test_size_and_seed_checks_kept():
    with pytest.raises(ConfigError, match="256 single bytes"):
        make_synthetic_vocabulary(255)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        make_synthetic_vocabulary(300, -1)


class PerDrawRule:
    """NumPy's rule, one draw at a time, over a list of raw outputs.

    ``uses`` maps each half index (output ``h // 2``, low half when
    ``h`` is even) a 32-bit draw read to ``(role, pending)``: role
    "length", "letter" or "redrawn", and whether it was the pending half.
    """

    def __init__(self, raw):
        self.raw = raw
        self.p = 0
        self.pending = None
        self.uses = {}

    def _half(self):
        pending = self.pending is not None
        if pending:
            h, self.pending = self.pending, None
        else:
            h = 2 * self.p
            self.pending = h + 1
            self.p += 1
        out = self.raw[h // 2]
        return h, (out >> 32 if h % 2 else out & 0xFFFFFFFF), pending

    def _bounded(self, n, role):
        while True:
            h, x, pending = self._half()
            m = x * n
            if m % 2**32 >= 2**32 % n:
                self.uses[h] = (role, pending)
                return m >> 32
            self.uses[h] = ("redrawn", pending)

    def word(self):
        length = 2 + self._bounded(11, "length")
        word = bytes(_WORD_BYTES[self._bounded(26, "letter")] for _ in range(length))
        spaced = self.raw[self.p] < 2**63
        self.p += 1
        return b" " + word if spaced else word


def serve(raw):
    """A ``random_raw`` stand-in that hands out ``raw`` in order."""
    pos = 0

    def random_raw(count):
        nonlocal pos
        out = np.array(raw[pos:pos + count], dtype=np.uint64)
        assert len(out) == count, "crafted stream ran out"
        pos += count
        return out

    return random_raw


def fast_words(raw, count, chunk):
    """The raw reader's first ``count`` words, or all it yields when it ends first."""
    return list(itertools.islice(_words(serve(raw), chunk), count))


def rule_words(raw, count):
    rule = PerDrawRule(raw)
    return [rule.word() for _ in range(count)], rule.uses


def assert_stops_before_the_redraw(raw, want):
    """The reader yields the rule's words, and none from the first that reads a redrawn half."""
    rule = PerDrawRule(raw)
    first = -1  # the index of the first word that reads a redrawn half
    while not any(role == "redrawn" for role, _ in rule.uses.values()):
        rule.word()
        first += 1
    got = fast_words(raw, len(want), CHUNK)
    assert len(got) <= first
    assert got == want[:len(got)]


@pytest.mark.parametrize("seed", [0, 3, 2**40])
def test_per_draw_rule_is_numpys(seed):
    # the model the crafted cases compare against makes the Generator's draws
    raw = make_rng(seed).bit_generator.random_raw(4_000).tolist()
    rng = make_rng(seed)
    want = []
    for _ in range(400):
        length = int(rng.integers(2, 13))
        word = bytes(_WORD_BYTES[i] for i in rng.integers(0, 26, size=length))
        want.append(b" " + word if rng.random() < 0.5 else word)
    assert rule_words(raw, 400)[0] == want
    assert fast_words(raw, 400, 64) == want


CHUNK = 16
STREAM = make_rng(5).bit_generator.random_raw(2_000).tolist()
_, USES = rule_words(STREAM, 100)


def zero_half(raw, h):
    out = list(raw)
    out[h // 2] &= 0xFFFFFFFF if h % 2 else 0xFFFFFFFF << 32
    return out


def place(kind):
    """The first half of the crafted stream's words that fits ``kind``."""
    last_halves = {2 * CHUNK * j - 1 for j in range(1, 20)}
    for h in sorted(USES):
        role, pending = USES[h]
        if h < 2 * CHUNK:
            continue  # past the first chunk, so the tail carry is in play
        if kind == "length" and role == "length" and not pending:
            return h
        if kind == "mid-word" and role == "letter" and USES.get(h - 1, ("",))[0] == "letter":
            return h
        if kind == "chunk-last-half" and role == "letter" and h in last_halves:
            return h
        if (kind == "pending-across-chunks" and role == "length" and pending
                and h // 2 // CHUNK < (h // 2 + 2) // CHUNK):
            # a half left pending across random(), in one chunk; its word's
            # letters start in the next
            return h
    raise AssertionError(f"no {kind} half in the stream")


@pytest.mark.parametrize("kind", ["length", "mid-word", "chunk-last-half", "pending-across-chunks"])
def test_redrawn_half(kind):
    # a zero half gives x = 0, which both draws redraw
    h = place(kind)
    raw = zero_half(STREAM, h)
    want, uses = rule_words(raw, 100)
    assert uses[h][0] == "redrawn"
    assert_stops_before_the_redraw(raw, want)


@pytest.mark.parametrize("run", [4, 40])
def test_zero_outputs_in_a_row(run):
    # whole zero outputs: one word's redraws run across several outputs and,
    # for 40, past the outputs read so far
    h = place("chunk-last-half")
    raw = list(STREAM)
    raw[h // 2 - 1:h // 2 - 1 + run] = [0] * run
    want, uses = rule_words(raw, 100)
    assert sum(role == "redrawn" for role, _ in uses.values()) >= 2 * run
    assert_stops_before_the_redraw(raw, want)


@pytest.mark.parametrize("words", [0, 1, 300])
def test_rebuilt_by_the_calls_when_the_reader_ends(monkeypatch, words):
    # the raw reader ends where it meets a redraw; here it ends after `words`
    reader = bench._words
    monkeypatch.setattr(bench, "_words", lambda raw: itertools.islice(reader(raw), words))
    for size, seed in [(300, 0), (5_000, 7)]:
        assert make_synthetic_vocabulary(size, seed).tokens == (
            reference_make_synthetic_vocabulary(size, seed).tokens
        )
