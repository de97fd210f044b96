"""In-memory span recording around the calls into tokalign's layers.

Only the traced run installs these wrappers, and it removes them when it
ends.  Each span records (name, start, end, parent, request id); the
parent is the span that was open when the call began, so self time is a
span's duration minus its children's.  Spans are written out once, when
the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from tokalign import align, decoding, trie


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.request = -1
        self._open = [-1]

    def wrap(self, name: str, fn):
        names, starts, ends, parents, requests, open_ = (
            self.names, self.starts, self.ends, self.parents, self.requests, self._open
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(open_[-1])
            requests.append(self.request)
            ends.append(0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return traced

    def arrays(self) -> dict:
        """Spans as arrays, with each span's self time in nanoseconds."""
        names = sorted(set(self.names))
        code = {n: k for k, n in enumerate(names)}
        start = np.asarray(self.starts, dtype=np.int64)
        end = np.asarray(self.ends, dtype=np.int64)
        parent = np.asarray(self.parents, dtype=np.int64)
        duration = end - start
        children = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], duration[has_parent])
        return {
            "names": np.asarray(names),
            "name": np.asarray([code[n] for n in self.names], dtype=np.int16),
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "request": np.asarray(self.requests, dtype=np.int64),
            "self_ns": duration - children,
        }


class TracedProvider:
    """Wraps a provider so each next_distribution call is a span."""

    def __init__(self, provider, tracer: Tracer):
        self.vocab_size = provider.vocab_size
        self.next_distribution = tracer.wrap("decoding.provider", provider.next_distribution)


@contextmanager
def installed(tracer: Tracer):
    """Route tokalign's module-level calls through span wrappers, then restore them.

    ``sample`` is wrapped under two names: ``aligned_generate`` calls it
    through the ``align`` module for alignment draws, and
    ``run_free_phase`` through ``decoding`` for free draws.
    """
    targets = [
        (align, "encode", "vocab.encode"),
        (decoding, "encode", "vocab.encode"),
        (align, "backtrack_split", "align.backtrack_split"),
        (align, "mask_distribution", "align.mask_distribution"),
        (align, "advance", "align.advance"),
        (align, "sample", "decoding.sample_align"),
        (decoding, "sample", "decoding.sample_free"),
        (align, "run_free_phase", "decoding.run_free_phase"),
        (decoding, "run_free_phase", "decoding.run_free_phase"),
        (align, "check_distribution", "decoding.check_distribution"),
        (decoding, "check_distribution", "decoding.check_distribution"),
        (trie.MaskCache, "lookup", "trie.lookup"),
        (trie.ByteTrie, "matching_tokens", "trie.matching_tokens"),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

