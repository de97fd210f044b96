import gc
import importlib.util
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from tokalign import MaskCache, Vocabulary, build_trie
from tokalign.bench import make_synthetic_vocabulary
from tokalign.decoding import make_rng
from tokalign.trie import TrieError

from conftest import byte_vocab


def oracle_ids(vocab, prefix):
    # the two startswith conditions, straight off a linear scan
    return {
        i
        for i in vocab.non_special_ids()
        if vocab.tokens[i].startswith(prefix) or prefix.startswith(vocab.tokens[i])
    }


def mask_ids(ids):
    return set(ids.tolist())


class ReferenceLRU:
    """The mask cache as an ``OrderedDict`` LRU with its own counters."""

    def __init__(self, trie, capacity):
        self.trie = trie
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.store = OrderedDict()

    def lookup(self, prefix):
        if prefix in self.store:
            self.hits += 1
            self.store.move_to_end(prefix)
            return self.store[prefix]
        self.misses += 1
        mask = self.trie.matching_tokens(prefix)
        if self.capacity > 0:
            self.store[prefix] = mask
            if len(self.store) > self.capacity:
                self.store.popitem(last=False)
        return mask


def random_vocab(rng, size):
    tokens = set()
    while len(tokens) < size:
        length = int(rng.integers(1, 7))
        tokens.add(bytes(rng.integers(97, 101, size=length, dtype="uint8")))
    return Vocabulary(sorted(tokens))


class TestBuild:
    def test_hand_constructed_nodes(self):
        vocab = Vocabulary([b"a", b"ab", b"abc", b"b"])
        trie = build_trie(vocab)
        assert trie.node_count == 4
        assert trie.matching_tokens(b"").tolist() == [0, 1, 2, 3]
        assert trie.matching_tokens(b"a").tolist() == [0, 1, 2]
        assert trie.matching_tokens(b"ab").tolist() == [0, 1, 2]
        assert trie.matching_tokens(b"abc").tolist() == [0, 1, 2]
        assert trie.matching_tokens(b"abcd").tolist() == [0, 1, 2]
        assert trie.matching_tokens(b"abd").tolist() == [0, 1]
        assert trie.matching_tokens(b"b").tolist() == [3]
        assert trie.matching_tokens(b"ba").tolist() == [3]
        assert trie.matching_tokens(b"c").tolist() == []

    def test_all_special_vocabulary_rejected(self):
        vocab = Vocabulary([b"x"], specials=[0])
        with pytest.raises(TrieError):
            build_trie(vocab)

    def test_single_byte_vocab_depth_one(self):
        vocab = Vocabulary([bytes([i]) for i in range(256)])
        trie = build_trie(vocab)
        assert trie.node_count == 256
        assert trie.matching_tokens(b"").tolist() == list(range(256))
        for i in range(256):
            assert trie.matching_tokens(bytes([i])).tolist() == [i]
            assert trie.matching_tokens(bytes([i, 0xFF, 0])).tolist() == [i]

    def test_retained_bytes_per_entry(self):
        # The vocabulary keeps its token tuple and the index: a token
        # reference, an int64 id and a C-int parent position, about 29 bytes
        # per token; a bytes -> id dict would add 50 or more.  The trie is a
        # view of that index and keeps nothing per token.
        tokens = make_synthetic_vocabulary(5000).tokens
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            vocab = Vocabulary(tokens)
            built = tracemalloc.get_traced_memory()[0]
            trie = build_trie(vocab)
            viewed = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (built - before) / trie.node_count < 40
        assert viewed - built < 2000

    def test_build_deterministic(self, trained_vocab):
        t1 = build_trie(trained_vocab)
        t2 = build_trie(trained_vocab)
        prefix = b"    re"
        assert np.array_equal(t1.matching_tokens(prefix), t2.matching_tokens(prefix))


class TestMatching:
    def test_two_way_condition(self):
        vocab = Vocabulary([b"a", b"ab", b"abc", b"b"])
        trie = build_trie(vocab)
        assert mask_ids(trie.matching_tokens(b"ab")) == {0, 1, 2}
        assert mask_ids(trie.matching_tokens(b"ab")) == oracle_ids(vocab, b"ab")

    def test_empty_prefix_selects_all_non_special(self):
        vocab = byte_vocab(extra=[b"<eos>"], specials=[256])
        trie = build_trie(vocab)
        assert mask_ids(trie.matching_tokens(b"")) == set(range(256))

    def test_partial_word_reaches_full_token(self):
        vocab = byte_vocab(extra=[b"return", b"turn"])
        trie = build_trie(vocab)
        ids = mask_ids(trie.matching_tokens(b"re"))
        assert vocab.id_of(b"return") in ids
        assert vocab.id_of(b"turn") not in ids

    def test_fall_off_keeps_collected_prefix_tokens(self):
        vocab = Vocabulary([b"a", b"ab", b"abc"])
        trie = build_trie(vocab)
        # walk dies at 'z'; "a" and "ab" were collected on the way
        assert mask_ids(trie.matching_tokens(b"abz")) == {0, 1}
        assert mask_ids(trie.matching_tokens(b"zz")) == set()

    def test_specials_never_set(self, trained_vocab):
        vocab = byte_vocab(extra=[b" x"], specials=[255])
        trie = build_trie(vocab)
        for prefix in (b"", b" ", b"\xff"):
            assert 255 not in mask_ids(trie.matching_tokens(prefix))

    def test_oracle_equivalence_randomized(self):
        rng = make_rng(17)
        for _ in range(20):
            vocab = random_vocab(rng, int(rng.integers(10, 200)))
            trie = build_trie(vocab)
            for _ in range(30):
                prefix = bytes(rng.integers(97, 101, size=rng.integers(0, 8), dtype="uint8"))
                assert mask_ids(trie.matching_tokens(prefix)) == oracle_ids(vocab, prefix)

    def test_ids_in_index_order_int64_read_only(self, trained_vocab, trained_trie):
        for prefix in (b"", b" ", b"    re", b"re", b"\xff", b"zzzz"):
            ids = trained_trie.matching_tokens(prefix)
            assert ids.dtype == np.int64
            assert not ids.flags.writeable
            tokens = [trained_vocab.tokens[i] for i in ids.tolist()]
            assert all(a < b for a, b in zip(tokens, tokens[1:]))  # bytewise, no repeats

    def test_monotonicity_on_extension(self):
        rng = make_rng(23)
        vocab = random_vocab(rng, 150)
        trie = build_trie(vocab)
        for _ in range(200):
            p1 = bytes(rng.integers(97, 101, size=rng.integers(0, 5), dtype="uint8"))
            p2 = p1 + bytes(rng.integers(97, 101, size=rng.integers(1, 4), dtype="uint8"))
            m1, m2 = trie.matching_tokens(p1), trie.matching_tokens(p2)
            assert mask_ids(m2) <= mask_ids(m1)


class TestMaskCache:
    def test_repeat_query_hits(self, trained_trie):
        cache = MaskCache(trained_trie)
        first = cache.lookup(b"  x")
        hits_before = cache.hits
        second = cache.lookup(b"  x")
        assert cache.hits == hits_before + 1
        assert np.array_equal(first, second)

    def test_new_cache_is_empty_until_lookup(self, trained_trie):
        cache = MaskCache(trained_trie)
        assert len(cache) == 0
        first = cache.lookup(b" ")
        assert cache.hits == 0 and cache.misses == 1 and len(cache) == 1
        assert cache.lookup(b" ") is first
        assert cache.hits == 1 and cache.misses == 1

    def test_cached_equals_fresh_randomized(self, trained_trie):
        rng = make_rng(7)
        cache = MaskCache(trained_trie, capacity=64)
        for _ in range(2000):
            prefix = bytes(rng.integers(0, 256, size=rng.integers(0, 6), dtype="uint8"))
            assert np.array_equal(
                cache.lookup(prefix),
                trained_trie.matching_tokens(prefix),
            )

    def test_lru_eviction(self, trained_trie):
        cache = MaskCache(trained_trie, capacity=2)
        cache.lookup(b"a")
        cache.lookup(b"b")  # evicts nothing: "a" + "b"
        assert len(cache) == 2
        cache.lookup(b" ")  # evicts "a", the least recently used
        assert cache.misses == 3
        cache.lookup(b"b")
        assert cache.hits == 1 and len(cache) == 2
        cache.lookup(b"a")
        assert cache.misses == 4  # "a" was evicted

    def test_capacity_zero_stores_nothing(self, trained_trie):
        cache = MaskCache(trained_trie, capacity=0)
        cache.lookup(b" ")
        cache.lookup(b" ")
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 2

    def test_transparency_across_capacities(self, trained_trie):
        rng = make_rng(31)
        prefixes = [
            bytes(rng.integers(0, 256, size=rng.integers(0, 5), dtype="uint8"))
            for _ in range(200)
        ]
        baseline = [trained_trie.matching_tokens(p) for p in prefixes]
        for capacity in (0, 1, 1024):
            cache = MaskCache(trained_trie, capacity=capacity)
            for p, expected in zip(prefixes, baseline):
                assert np.array_equal(cache.lookup(p), expected)

    @pytest.mark.parametrize("capacity", [0, 1, 2, 7, 64])
    def test_matches_the_reference_lru(self, trained_trie, capacity):
        rng = make_rng(capacity)
        pool = [b"", b" ", b"  ", b"a", b"ab", b"de", b"x", b"\n", b"(", b"re", b" r", b"\xff"]
        cache, reference = MaskCache(trained_trie, capacity), ReferenceLRU(trained_trie, capacity)
        missed = {}
        for step in range(600):
            # one lookup in three is two random bytes, mostly a new key
            if step % 3:
                prefix = pool[rng.integers(0, len(pool))]
            else:
                prefix = bytes(rng.integers(0, 256, 2, "uint8"))
            hits = reference.hits
            want, got = reference.lookup(prefix), cache.lookup(prefix)
            assert np.array_equal(got, want)
            if reference.hits > hits:
                assert got is missed[prefix]  # a hit returns the array its miss did
            else:
                missed[prefix] = got
            assert (cache.hits, cache.misses, len(cache)) == (
                reference.hits, reference.misses, len(reference.store)
            )
        assert cache.stats() == {
            "hits": reference.hits, "misses": reference.misses, "entries": len(reference.store)
        }

    def test_a_cache_built_before_tracing_records_index_misses(self, trained_trie):
        path = Path(__file__).resolve().parent.parent / "e2ebench" / "spans.py"
        spec = importlib.util.spec_from_file_location("e2ebench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        cache = MaskCache(trained_trie)
        cache.lookup(b" ")
        tracer = spans.Tracer()
        with spans.installed(tracer):
            cache.lookup(b" ")  # a hit: the index is not queried
            cache.lookup(b"de")
        assert tracer.names == ["trie.lookup", "trie.lookup", "trie.matching_tokens"]
        assert tracer.parents == [-1, -1, 1]
