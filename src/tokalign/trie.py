"""Sorted-token index over a vocabulary, compatibility masks, and a mask cache.

The index answers one question fast: given a byte prefix ``P``, which
tokens either *start with* ``P`` or *are a prefix of* ``P``?  The answer
comes back as the ascending array of compatible token ids, so applying
it to a probability vector costs O(number of compatible tokens), not
O(vocabulary size).

The non-special tokens are kept sorted bytewise.  The tokens that start
with ``P`` then form one contiguous run, found by two bisections.  The
tokens that are proper prefixes of ``P`` all sort before that run; each
token records the position of its longest proper-prefix token
(``parent``), so they are found by following that chain from the token
just before the run.  The module and class keep their trie names.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict

import numpy as np

from .vocab import Vocabulary

# A TokenMask is a read-only, strictly ascending int64 ndarray of the token
# ids compatible with the query prefix.  Special tokens never appear.
TokenMask = np.ndarray


class TrieError(ValueError):
    pass


class ByteTrie:
    """Immutable sorted-token index over the non-special vocabulary.

    Build once, share freely across threads; queries never mutate.
    """

    def __init__(self, vocab: Vocabulary):
        entries = sorted((vocab.tokens[i], i) for i in vocab.non_special_ids())
        if not entries:
            raise TrieError("vocabulary has no non-special tokens; matching is impossible")
        self._tokens = [token for token, _ in entries]
        self._id_list = [token_id for _, token_id in entries]
        self._ids = np.array(self._id_list, dtype=np.int64)
        self._ids.setflags(write=False)
        # parent[j]: position of the longest token that is a proper prefix of
        # token j, or -1.  The stack holds the prefix chain of the last token;
        # every token sorting between a prefix q and a token starting with q
        # also starts with q, so q stays on the stack until it is needed.
        self._parent = parent = [-1] * len(entries)
        stack: list[int] = []
        for j, token in enumerate(self._tokens):
            while stack and not token.startswith(self._tokens[stack[-1]]):
                stack.pop()
            if stack:
                parent[j] = stack[-1]
            stack.append(j)

    @property
    def node_count(self) -> int:
        """Number of index entries, one per non-special token.

        Named for the trie this index replaced; ``e2ebench/run.py``
        still reports it as ``trie.nodes``.
        """
        return len(self._tokens)

    def matching_tokens(self, prefix: bytes) -> TokenMask:
        """Ascending ids of tokens t with ``t.startswith(prefix) or prefix.startswith(t)``.

        Cost: at most two bisections, a walk up the prefix chain of one
        token, and one sort of the run of tokens starting with
        ``prefix``.  An empty array is a legal result; callers decide
        what a dead end means.
        """
        tokens, parent, id_list = self._tokens, self._parent, self._id_list
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
        # one is in the prefix chain of the last token before the run.
        exact: list[int] = []
        j = lo - 1
        while j >= 0 and not prefix.startswith(tokens[j]):
            j = parent[j]
        while j >= 0:
            exact.append(id_list[j])
            j = parent[j]
        if lo == hi:
            exact.sort()
            ids = np.array(exact, dtype=np.int64)
        else:
            ids = np.concatenate((np.array(exact, dtype=np.int64), self._ids[lo:hi]))
            ids.sort()
        ids.setflags(write=False)
        return ids


def build_trie(vocab: Vocabulary) -> ByteTrie:
    """Build the token index for ``vocab`` (deterministic; excludes specials)."""
    return ByteTrie(vocab)


class MaskCache:
    """Bounded LRU cache of compatible-id arrays keyed by prefix bytes.

    Pre-seeded with the single-space mask, the hot key in completion
    workloads.  Purely an accelerator: hits are bit-identical to fresh
    index queries, and capacity 0 disables storage entirely.  Not
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
        if type(prefix) is not bytes:
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
