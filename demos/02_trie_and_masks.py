"""
The token index and compatibility masks
=======================================

The index (built by ``build_trie``) answers: which tokens are
compatible with a partial-token prefix?  A token is compatible when it
starts with the prefix, or when it is itself a prefix of it (a shorter
token that consumes part of the bytes).  Answers come back as arrays of
token ids in the index's bytewise token order (shorter proper prefixes
first), so masking a probability distribution touches only the
compatible entries.  A mask cache starts empty and keeps the masks its
lookups fetched.
"""

import numpy as np

from tokalign import MaskCache, Vocabulary, build_trie

vocab = Vocabulary([bytes([i]) for i in range(256)] + [b"re", b"ret", b"return", b"read", b"turn"])
trie = build_trie(vocab)

for prefix in (b"re", b"ret", b"retu", b"x"):
    ids = trie.matching_tokens(prefix)
    names = [vocab.tokens[i] for i in ids if len(vocab.tokens[i]) > 1]
    single = sum(1 for i in ids if len(vocab.tokens[i]) == 1)
    print(f"prefix {prefix!r}: {len(ids)} tokens ({single} single-byte), multi: {names}")

# the mask cache keeps hot prefixes around: a prefix's first lookup
# misses and stores its mask, and later lookups hit
cache = MaskCache(trie, capacity=1024)
cache.lookup(trie, b" ")
cache.lookup(trie, b" ")
cache.lookup(trie, b"re")
cache.lookup(trie, b"re")
print("\ncache stats after four lookups:", cache.stats())

# transparency: a cached mask is always bit-identical to a fresh query
fresh = trie.matching_tokens(b"re")
hit = cache.lookup(trie, b"re")
print("cached == fresh:", bool(np.array_equal(fresh, hit)))
