"""Byte trie over a vocabulary, compatibility masks, and a mask cache.

The trie answers one question fast: given a byte prefix ``P``, which
tokens either *start with* ``P`` or *are a prefix of* ``P``?  The answer
comes back as the ascending array of compatible token ids, so applying
it to a probability vector costs O(number of compatible tokens), not
O(vocabulary size).

Token ids are stored in byte-lexicographic order in one flat array;
every trie node keeps the half-open range of that array covered by its
subtree, so fetching "all tokens below this node" is two integers, not
a subtree walk.
"""

from __future__ import annotations

import struct
from collections import OrderedDict

import numpy as np

from .vocab import Vocabulary

# A TokenMask is a read-only, strictly ascending int64 ndarray of the token
# ids compatible with the query prefix.  Special tokens never appear.
TokenMask = np.ndarray

TRIE_MAGIC = b"BTRI"
TRIE_FORMAT_VERSION = 1


class TrieError(ValueError):
    pass


class _Node:
    __slots__ = ("children", "end_id", "lo", "hi")

    def __init__(self):
        self.children: dict[int, _Node] = {}
        self.end_id: int | None = None
        self.lo = 0
        self.hi = 0


class ByteTrie:
    """Immutable prefix tree over the non-special vocabulary.

    Build once, share freely across threads; queries never mutate.
    """

    def __init__(self, vocab: Vocabulary):
        entries = [(vocab.tokens[i], i) for i in vocab.non_special_ids()]
        if not entries:
            raise TrieError("vocabulary has no non-special tokens; matching is impossible")
        entries.sort()
        self.vocab_size = len(vocab)
        self._sorted_ids = np.array([i for _, i in entries], dtype=np.int64)
        self.root = _Node()
        self.node_count = 1
        for position, (token, token_id) in enumerate(entries):
            node = self.root
            node.hi = position + 1
            for b in token:
                child = node.children.get(b)
                if child is None:
                    child = _Node()
                    child.lo = position
                    node.children[b] = child
                    self.node_count += 1
                child.hi = position + 1
                node = child
            node.end_id = token_id
        if __debug__:
            self.check_structure(vocab)

    def matching_tokens(self, prefix: bytes) -> TokenMask:
        """Ascending ids of tokens t with ``t.startswith(prefix) or prefix.startswith(t)``.

        Cost: at most ``len(prefix)`` node hops plus one sort of the
        subtree range.  An empty array is a legal result; callers decide
        what a dead end means.
        """
        exact: list[int] = []  # tokens that are proper prefixes of ``prefix``
        node = self.root
        for b in prefix:
            node = node.children.get(b)
            if node is None:
                ids = np.array(sorted(exact), dtype=np.int64)
                break
            if node.end_id is not None:
                exact.append(node.end_id)
        else:
            if node.end_id is not None:
                exact.pop()  # the prefix itself lies in its own subtree range
            subtree = self._sorted_ids[node.lo : node.hi]
            ids = np.sort(np.concatenate((np.array(exact, dtype=np.int64), subtree)))
        ids.setflags(write=False)
        return ids

    def _walk_exact(self, token: bytes) -> int | None:
        node = self.root
        for b in token:
            node = node.children.get(b)
            if node is None:
                return None
        return node.end_id

    def check_structure(self, vocab: Vocabulary) -> None:
        """Verify the leaf-path multiset against the vocabulary (build-time audit)."""
        ids = vocab.non_special_ids()
        if len(self._sorted_ids) != len(ids):
            raise TrieError("trie token count does not match vocabulary")
        for i in ids:
            if self._walk_exact(vocab.tokens[i]) != i:
                raise TrieError(f"token {i} ({vocab.tokens[i]!r}) missing from trie")


def build_trie(vocab: Vocabulary) -> ByteTrie:
    """Build the byte trie for ``vocab`` (deterministic; excludes specials)."""
    return ByteTrie(vocab)


def matching_tokens(trie: ByteTrie, prefix: bytes) -> TokenMask:
    return trie.matching_tokens(prefix)


class MaskCache:
    """Bounded LRU cache of compatible-id arrays keyed by prefix bytes.

    Pre-seeded with the single-space mask, the hot key in completion
    workloads.  Purely an accelerator: hits are bit-identical to fresh
    trie queries, and capacity 0 disables storage entirely.  Not
    internally synchronized; concurrent writers must serialize.
    """

    def __init__(self, trie: ByteTrie, capacity: int = 1024):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._store: OrderedDict[bytes, TokenMask] = OrderedDict()
        if capacity > 0:
            self._insert(b" ", trie.matching_tokens(b" "))

    def _insert(self, key: bytes, mask: TokenMask) -> None:
        self._store[key] = mask
        self._store.move_to_end(key)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)

    def lookup(self, trie: ByteTrie, prefix: bytes) -> TokenMask:
        prefix = bytes(prefix)
        cached = self._store.get(prefix)
        if cached is not None:
            self.hits += 1
            self._store.move_to_end(prefix)
            return cached
        self.misses += 1
        mask = trie.matching_tokens(prefix)
        if self.capacity > 0:
            self._insert(prefix, mask)
        return mask

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._store)}


def cached_mask(cache: MaskCache | None, trie: ByteTrie, prefix: bytes) -> TokenMask:
    """Same ids as :func:`matching_tokens`; records a hit or miss when cached."""
    if cache is None:
        return trie.matching_tokens(prefix)
    return cache.lookup(trie, prefix)


# ---------------------------------------------------------------------------
# Binary serialization (internal format, little-endian, versioned)
#
#   magic "BTRI" | u16 version | u32 vocab_size | u32 entry_count
#   entry: u32 token_id | u32 byte_length | bytes
#
# Entries are the non-special tokens; loading rebuilds the trie in one
# pass without re-parsing or re-validating a vocabulary file.


def save_trie(trie: ByteTrie, path: str, vocab: Vocabulary) -> None:
    with open(path, "wb") as fh:
        fh.write(TRIE_MAGIC)
        fh.write(struct.pack("<HII", TRIE_FORMAT_VERSION, trie.vocab_size, len(trie._sorted_ids)))
        for i in vocab.non_special_ids():
            token = vocab.tokens[i]
            fh.write(struct.pack("<II", i, len(token)))
            fh.write(token)


def load_trie(path: str) -> ByteTrie:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != TRIE_MAGIC:
            raise TrieError(f"{path}: bad magic {magic!r}")
        version, vocab_size, count = struct.unpack("<HII", fh.read(10))
        if version != TRIE_FORMAT_VERSION:
            raise TrieError(f"{path}: unsupported format version {version}")
        tokens: list[bytes | None] = [None] * vocab_size
        non_special = set()
        for _ in range(count):
            token_id, length = struct.unpack("<II", fh.read(8))
            tokens[token_id] = fh.read(length)
            non_special.add(token_id)
    # Absent ids were specials; give them placeholder bytes so the
    # Vocabulary constructor accepts them (the trie never touches them).
    specials = [i for i in range(vocab_size) if i not in non_special]
    filled = [t if t is not None else b"\x00special\x00" + str(i).encode() for i, t in enumerate(tokens)]
    return ByteTrie(Vocabulary(filled, specials=specials))
