"""Sorted-token index over a vocabulary, compatibility masks, and a mask cache.

The index answers one question fast: given a byte prefix ``P``, which
tokens either *start with* ``P`` or *are a prefix of* ``P``?  The answer
comes back as an array of the compatible token ids (a ``TokenMask``,
below), so applying it to a probability vector costs O(number of
compatible tokens), not O(vocabulary size).

The non-special tokens are kept sorted bytewise.  The tokens that start
with ``P`` then form one contiguous run, found by two bisections.  The
tokens that are proper prefixes of ``P`` all sort before that run; each
token records the position of its longest proper-prefix token
(``parent``), so they are found by following that chain from the token
just before the run.

The index belongs to the :class:`~tokalign.vocab.Vocabulary`, which
builds it once and also encodes and looks up ids through it.  A
:class:`ByteTrie` is a view of it: it sorts nothing and copies nothing.
The index is three flat structures, one entry per token in sorted
order: the list of token bytes (shared with the vocabulary's tuple), a
read-only int64 array of their ids, and the ``parent`` positions in a
machine-int ``array``, about 20 bytes per entry.  The module and class
keep their trie names.
"""

from __future__ import annotations

import functools
from bisect import bisect_left

import numpy as np

from .vocab import Vocabulary

# A TokenMask is a read-only int64 ndarray of the compatible token ids, each
# once, in the index's bytewise token order: that order decides only greedy
# ties and the order a nucleus draw walks the mask.  Specials never appear.
TokenMask = np.ndarray


class TrieError(ValueError):
    pass


class ByteTrie:
    """Mask queries over a vocabulary's sorted-token index.

    A view of the index of ``self.vocab``, so building one costs nothing
    per token.  Share freely across threads; queries never mutate.
    """

    def __init__(self, vocab: Vocabulary):
        if not vocab._index_tokens:
            raise TrieError("vocabulary has no non-special tokens; matching is impossible")
        self.vocab = vocab
        self._tokens = vocab._index_tokens
        self._ids = vocab._index_ids
        self._parent = vocab._index_parent

    @property
    def node_count(self) -> int:
        """Index entries, one per non-special token (e2ebench's ``trie.nodes``)."""
        return len(self._tokens)

    def matching_tokens(self, prefix: bytes) -> TokenMask:
        """Ids of tokens t with ``t.startswith(prefix) or prefix.startswith(t)``, in index order.

        Cost: at most two bisections and a walk up the prefix chain of
        one token.  With no proper prefix of ``prefix`` in the index the
        mask is a view of the index's ids, not a copy.  An empty array is
        a legal result; callers decide what a dead end means.
        """
        tokens, parent, id_at = self._tokens, self._parent, self._ids.item
        lo = hi = bisect_left(tokens, prefix)
        if lo < len(tokens) and tokens[lo].startswith(prefix):
            # The run ends at the first token >= succ(prefix): trailing 0xff
            # bytes stripped, then the last byte incremented.  Nothing is left
            # to increment for an empty or all-0xff prefix: the run reaches the end.
            stem = prefix.rstrip(b"\xff")
            if stem:
                hi = bisect_left(tokens, stem[:-1] + bytes((stem[-1] + 1,)), lo + 1)
            else:
                hi = len(tokens)
        # Every proper prefix of ``prefix`` sorts before it, so the longest
        # one is in the prefix chain of the last token before the run; the
        # chain runs longest first, and a shorter prefix sorts first.
        exact: list[int] = []
        j = lo - 1
        while j >= 0 and not prefix.startswith(tokens[j]):
            j = parent[j]
        while j >= 0:
            exact.append(id_at(j))
            j = parent[j]
        run = self._ids[lo:hi]
        if not exact:
            return run
        ids = np.concatenate((exact[::-1], run), dtype=np.int64)
        ids.setflags(write=False)
        return ids


def build_trie(vocab: Vocabulary) -> ByteTrie:
    """``ByteTrie(vocab)``: a view of the index ``vocab`` built, so nothing is built here."""
    return ByteTrie(vocab)


class MaskCache:
    """Bounded LRU cache of the masks of one index, keyed by prefix bytes.

    It serves ``self.trie``, the index it is built over: a new cache is
    empty, and only :meth:`lookup` stores a mask, from that index.  A hit
    returns the very array its miss did; capacity 0 stores nothing.  The
    store is a ``functools.lru_cache``, consistent under concurrent lookups,
    though two threads that miss one prefix at once may both query the index.
    """

    def __init__(self, trie: ByteTrie, capacity: int = 1024):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.trie = trie
        # matching_tokens is looked up at each miss, not bound here, so a
        # wrapper installed on ByteTrie after the cache is built sees every miss
        self._masks = functools.lru_cache(capacity)(lambda prefix: trie.matching_tokens(prefix))

    def lookup(self, prefix: bytes) -> TokenMask:
        if type(prefix) is not bytes:
            prefix = bytes(prefix)
        return self._masks(prefix)

    hits = property(lambda self: self._masks.cache_info().hits)
    misses = property(lambda self: self._masks.cache_info().misses)

    def __len__(self) -> int:
        return self._masks.cache_info().currsize

    def stats(self) -> dict:
        info = self._masks.cache_info()
        return {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
