"""Byte-level subword vocabularies.

A :class:`Vocabulary` maps dense integer token ids to non-empty byte
sequences, optionally carries BPE merge rules, and marks some ids as
special (excluded from prompt matching).  Everything in this package
works on raw bytes, never on decoded characters, so partial UTF-8
sequences are first-class values.

The module also ships a tiny BPE trainer good enough to produce test
vocabularies exhibiting the tokenization artifacts the rest of the
package is built around: space-prefixed word tokens (`` like``) and
multi-whitespace tokens (``    ``).
"""

from __future__ import annotations

import base64
import heapq
import json
import re
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

VOCAB_FILE_VERSION = 1

# Byte classes: whitespace, word (ASCII letters, digits and underscore, and
# every byte >= 0x80, so a multi-byte character stays whole) and other.
# Pretokenizing and the scenario cut patterns are both built from them.
WHITESPACE_BYTES = b" \n\t"
WORD_BYTES = bytes(b for b in range(256) if bytes((b,)).isalnum() or b == 0x5F or b >= 0x80)


def byte_class(members: bytes, negate: bool = False) -> bytes:
    """A regex class that matches one byte of ``members``, or with ``negate`` one byte outside it."""
    return (b"[^" if negate else b"[") + re.escape(members) + b"]"


class VocabularyError(ValueError):
    """Base class for vocabulary problems."""


class VocabularyFormatError(VocabularyError):
    """The vocabulary file is malformed (bad JSON, missing/extra fields)."""


class VocabularyValidationError(VocabularyError):
    """The vocabulary violates an invariant (duplicate bytes, sparse ids, ...)."""


class ConfigError(ValueError):
    """A configuration value is out of range; ``field`` names the field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class EncodingError(ValueError):
    """Text cannot be encoded, or ids cannot be decoded.

    ``offset`` is the byte offset (encode) or sequence position (decode)
    of the offending item.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class Vocabulary:
    """Immutable token-id <-> byte-sequence mapping.

    Token ids are dense integers ``0..len(vocab)-1``.  Byte sequences are
    unique across non-special tokens; special tokens (end-of-sequence
    markers and the like) are excluded from encoding and from prefix
    matching, so their surface bytes may overlap anything.

    ``pretokenize`` records the chunking rules the vocabulary was trained
    with; when set, encoding applies merges within chunks (the behavior
    of real byte-level BPE deployments, and what makes space-prefix and
    indentation tokens canonical).  When None, merges apply globally.

    Construction builds one sorted-token index over the non-special
    tokens: their bytes in bytewise order, a read-only int64 array of
    their ids, and for each the position of its longest proper-prefix
    token.  Greedy encoding, :meth:`id_of` and the compatibility masks of
    :class:`~tokalign.trie.ByteTrie` (a view of this index) all read it;
    there is no bytes -> id dict.  BPE encoding reads the single-byte ids
    from a 256-entry table and carries each part's id through the merge
    loop, one merged id per merge rank.

    A vocabulary with merges and ``pretokenize`` memoizes the ids of each
    chunk it encodes successfully, up to ``_CHUNK_MEMO_ENTRIES`` chunks;
    chunk ids depend only on the chunk and the immutable merge table.
    The memo starts empty, except in a vocabulary that
    :func:`train_tiny_bpe` returns: that one starts with the ids of its
    distinct training chunks, in the order they first appear in the
    corpus, up to the same bound, which is the memo encoding the training
    corpus once would leave.
    """

    def __init__(
        self,
        tokens: Sequence[bytes],
        merges: Sequence[tuple[bytes, bytes]] | None = None,
        specials: Iterable[int] = (),
        pretokenize: "PretokenizeOptions | None" = None,
    ):
        self.tokens: tuple[bytes, ...] = tuple(bytes(t) for t in tokens)
        self.merges: tuple[tuple[bytes, bytes], ...] | None = (
            None if merges is None else tuple((bytes(a), bytes(b)) for a, b in merges)
        )
        self.specials: frozenset[int] = frozenset(specials)
        self.pretokenize = pretokenize
        self._build_index()
        self._max_token_len = max(map(len, self._index_tokens), default=0)
        if self.merges is not None:
            self._build_merge_tables()
        self._chunk_ids: dict[bytes, list[int]] = {}

    def _build_index(self) -> None:
        """Sort the non-special tokens into the index, checking the token table.

        Of an empty token and a repeated non-special byte sequence, the
        one at the lower id is reported, as one pass in id order would.
        """
        tokens = self.tokens
        if not tokens:
            raise VocabularyValidationError("vocabulary has no tokens")
        # ids in bytewise token order, sorted by key: no (bytes, id) pair per token;
        # the sort is stable, so equal tokens stay in id order
        order = sorted(self.non_special_ids(), key=tokens.__getitem__)
        self._index_tokens = index = [tokens[i] for i in order]
        # parent[j]: position of the longest token that is a proper prefix of
        # token j, or -1.  Every token sorting between a prefix q and a token
        # starting with q also starts with q, so that longest prefix is on the
        # prefix chain of token j - 1 (it, its parent, its parent's parent...).
        self._index_parent = parent = array("i", [-1]) * len(index)
        repeats: list[int] = []
        k = -1
        for j, token in enumerate(index):
            while k >= 0 and not token.startswith(index[k]):
                k = parent[k]
            if k >= 0 and k == j - 1 and token == index[k]:
                repeats.append(j)
            parent[j] = k
            k = j
        first_empty = len(tokens) if all(tokens) else tokens.index(b"")
        if repeats:
            # the lowest repeating id is the second of its run, after the run's first
            j = min(repeats, key=order.__getitem__)
            if order[j] < first_empty:
                raise VocabularyValidationError(
                    f"duplicate byte sequence for tokens {order[j - 1]} and {order[j]}: {index[j]!r}"
                )
        if first_empty < len(tokens):
            raise VocabularyValidationError(f"token {first_empty} has empty byte sequence")
        for i in self.specials:
            if not 0 <= i < len(tokens):
                raise VocabularyValidationError(f"special id {i} out of range")
        self._index_ids = np.array(order, dtype=np.int64)
        self._index_ids.setflags(write=False)

    def _build_merge_tables(self) -> None:
        """The BPE tables, from one pass over the tokens; the first bad merge raises.

        ``_byte_ids`` holds each byte's single-byte token id (-1 when there
        is none), ``_merge_rank`` maps (left id, right id) to the merge's
        rank, and ``_merge_ids`` each rank's merged token id.
        """
        merges = self.merges
        singles = [bytes((b,)) for b in range(256)]
        wanted = [part for a, b in merges for part in (a, b, a + b)]
        ids = dict.fromkeys(singles + wanted, -1)
        specials = self.specials
        for i, t in enumerate(self.tokens):
            if t in ids and i not in specials:
                ids[t] = i
        for r, (left, right) in enumerate(merges):
            for side, name in ((left, "left"), (right, "right")):
                if ids[side] < 0:
                    raise VocabularyValidationError(
                        f"merge {r}: {name} side {side!r} is not a token"
                    )
            if ids[left + right] < 0:
                raise VocabularyValidationError(
                    f"merge {r}: merged sequence {(left + right)!r} is not a token"
                )
        self._byte_ids = [ids[b] for b in singles]
        self._merge_rank = {(ids[a], ids[b]): r for r, (a, b) in enumerate(merges)}
        self._merge_ids = [ids[a + b] for a, b in merges]

    def __len__(self) -> int:
        return len(self.tokens)

    def token_bytes(self, token_id: int) -> bytes:
        if not 0 <= token_id < len(self.tokens):
            raise VocabularyError(f"unknown token id {token_id}")
        return self.tokens[token_id]

    def id_of(self, token: bytes) -> int:
        """Id of a non-special token by its exact bytes."""
        j = self._find(bytes(token))
        if j < 0:
            raise VocabularyError(f"no non-special token with bytes {token!r}")
        return self._index_ids.item(j)

    def _find(self, token: bytes) -> int:
        """Index position of the non-special token with exactly these bytes, or -1."""
        index = self._index_tokens
        j = bisect_left(index, token)
        return j if j < len(index) and index[j] == token else -1

    def non_special_ids(self) -> list[int]:
        return [i for i in range(len(self.tokens)) if i not in self.specials]

    def is_special(self, token_id: int) -> bool:
        return token_id in self.specials

    def has_all_byte_tokens(self) -> bool:
        """True when every one of the 256 single-byte tokens is present."""
        return all(self._find(bytes((b,))) >= 0 for b in range(256))


def decode(vocab: Vocabulary, ids: Sequence[int]) -> bytes:
    """Concatenate the byte sequences of ``ids``, in order.

    An id that is not an integer or is outside ``0..len(vocab)-1`` raises
    :class:`EncodingError` with its position as the offset.
    """
    tokens = vocab.tokens
    try:
        if len(ids) == 0 or min(ids) >= 0:
            return b"".join([tokens[i] for i in ids])
    except (IndexError, TypeError):
        pass  # the loop below names the first bad id's offset
    out = bytearray()
    for pos, i in enumerate(ids):
        if not hasattr(type(i), "__index__"):
            raise EncodingError(f"token id {i!r} is not an integer", pos)
        if not 0 <= i < len(tokens):
            raise EncodingError(f"unknown token id {i}", pos)
        out += tokens[i]
    return bytes(out)


def encode(vocab: Vocabulary, text: bytes) -> list[int]:
    """Tokenize ``text`` into ids whose decode equals ``text`` exactly.

    With merge rules present this is standard BPE encoding: split into
    single bytes, then repeatedly apply the lowest-rank applicable merge,
    leftmost occurrence first.  Without merges, greedy longest-match
    left-to-right over the non-special tokens.
    """
    text = bytes(text)
    if not text:
        return []
    if vocab.merges is not None:
        return _encode_bpe(vocab, text)
    return _encode_greedy(vocab, text)


def _encode_greedy(vocab: Vocabulary, text: bytes) -> list[int]:
    index, parent, id_at = vocab._index_tokens, vocab._index_parent, vocab._index_ids.item
    max_len = vocab._max_token_len
    ids: list[int] = []
    pos = 0
    n = len(text)
    while pos < n:
        # The longest token that ``head`` starts with is the last token <= head,
        # or else the nearest one on that token's prefix chain.
        head = text[pos : pos + max_len]
        j = bisect_right(index, head) - 1
        while j >= 0 and not head.startswith(index[j]):
            j = parent[j]
        if j < 0:
            raise EncodingError(f"byte 0x{text[pos]:02x} not coverable", pos)
        ids.append(id_at(j))
        pos += len(index[j])
    return ids


# Chunks whose ids a vocabulary memoizes; later new chunks are encoded per call.
_CHUNK_MEMO_ENTRIES = 1 << 14


def _encode_bpe(vocab: Vocabulary, text: bytes) -> list[int]:
    if vocab.pretokenize is None:
        return _bpe_chunk(vocab, text, 0)
    memo = vocab._chunk_ids
    ids: list[int] = []
    offset = 0
    for chunk in pretokenize(text, vocab.pretokenize):
        chunk_ids = memo.get(chunk)
        if chunk_ids is None:
            # a failure raises here, so only successful encodes are kept
            chunk_ids = _bpe_chunk(vocab, chunk, offset)
            if len(memo) < _CHUNK_MEMO_ENTRIES:
                memo[chunk] = chunk_ids
        ids.extend(chunk_ids)
        offset += len(chunk)
    return ids


def _bpe_chunk(vocab: Vocabulary, text: bytes, base_offset: int) -> list[int]:
    ids = list(map(vocab._byte_ids.__getitem__, text))
    if -1 in ids:
        offset = ids.index(-1)
        raise EncodingError(f"byte 0x{text[offset]:02x} not coverable", base_offset + offset)
    rank = vocab._merge_rank
    merged = vocab._merge_ids
    while len(ids) > 1:
        best_rank = None
        best_i = -1
        for i in range(len(ids) - 1):
            r = rank.get((ids[i], ids[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_i = i
        if best_rank is None:
            break
        ids[best_i : best_i + 2] = (merged[best_rank],)
    return ids


# ---------------------------------------------------------------------------
# File format


def _entry_to_bytes(entry: object, where: str, known=("text", "bytes_b64")) -> bytes:
    if not isinstance(entry, dict):
        raise VocabularyFormatError(f"{where}: expected an object, got {type(entry).__name__}")
    _refuse_unknown_fields(entry, known, where, VocabularyFormatError)
    has_text = "text" in entry
    has_b64 = "bytes_b64" in entry
    if has_text == has_b64:
        raise VocabularyFormatError(f"{where}: exactly one of 'text'/'bytes_b64' required")
    if has_text:
        value = entry["text"]
        if not isinstance(value, str):
            raise VocabularyFormatError(f"{where}: 'text' must be a string")
        return value.encode("utf-8")
    value = entry["bytes_b64"]
    if not isinstance(value, str):
        raise VocabularyFormatError(f"{where}: 'bytes_b64' must be a string")
    try:
        return base64.b64decode(value, validate=True)
    except Exception as exc:
        raise VocabularyFormatError(f"{where}: invalid base64: {exc}") from None


def _bytes_to_entry(data: bytes) -> dict:
    # Canonical form: plain text whenever the bytes are valid UTF-8.
    try:
        return {"text": data.decode("utf-8", errors="strict")}
    except UnicodeDecodeError:
        return {"bytes_b64": base64.b64encode(data).decode("ascii")}


def load_vocabulary(path: str) -> Vocabulary:
    """Load a vocabulary from its JSON file format."""
    with open(path, "rb") as fh:
        try:
            doc = parse_json(fh.read())
        except json.JSONDecodeError as exc:
            raise VocabularyFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from None
        except ValueError as exc:  # bytes that do not decode, or nesting past the parser
            raise VocabularyFormatError(f"{path}: {exc}") from None
    return vocabulary_from_dict(doc, where=path)


def parse_json(text: str | bytes) -> object:
    """``json.loads``, except that nesting too deep to parse is a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def json_is(value: object, kind: type | tuple[type, ...]) -> bool:
    """``isinstance(value, kind)``, except that JSON true/false are never numbers."""
    # true/false load as bool, a subclass of int
    return isinstance(value, kind) and not isinstance(value, bool)


_VOCAB_FIELDS = ("version", "tokens", "merges", "pretokenize", "specials")


def vocabulary_from_dict(doc: object, where: str = "<vocabulary>") -> Vocabulary:
    if not isinstance(doc, dict):
        raise VocabularyFormatError(f"{where}: top level must be an object")
    _refuse_unknown_fields(doc, _VOCAB_FIELDS, where, VocabularyFormatError)
    if not json_is(doc.get("version"), int) or doc["version"] != VOCAB_FILE_VERSION:
        raise VocabularyFormatError(f"{where}: field 'version' must be {VOCAB_FILE_VERSION}")
    raw_tokens = doc.get("tokens")
    if not isinstance(raw_tokens, list):
        raise VocabularyFormatError(f"{where}: field 'tokens' must be an array")
    by_id: dict[int, bytes] = {}
    for n, entry in enumerate(raw_tokens):
        field = f"{where}: tokens[{n}]"
        data = _entry_to_bytes(entry, field, ("id", "text", "bytes_b64"))
        token_id = entry.get("id")
        if not json_is(token_id, int):
            raise VocabularyFormatError(f"{field}: integer 'id' required")
        if token_id in by_id:
            raise VocabularyValidationError(f"{field}: duplicate id {token_id}")
        by_id[token_id] = data
    if sorted(by_id) != list(range(len(by_id))):
        raise VocabularyValidationError(f"{where}: token ids are not dense 0..V-1")
    tokens = [by_id[i] for i in range(len(by_id))]

    merges = None
    if "merges" in doc and doc["merges"] is not None:
        raw_merges = doc["merges"]
        if not isinstance(raw_merges, list):
            raise VocabularyFormatError(f"{where}: field 'merges' must be an array")
        merges = []
        for n, pair in enumerate(raw_merges):
            field = f"{where}: merges[{n}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise VocabularyFormatError(f"{field}: expected a 2-element array")
            merges.append((_entry_to_bytes(pair[0], field), _entry_to_bytes(pair[1], field)))

    specials = doc.get("specials", [])
    if not isinstance(specials, list) or not all(json_is(i, int) for i in specials):
        raise VocabularyFormatError(f"{where}: field 'specials' must be an array of ids")

    options = None
    if doc.get("pretokenize") is not None:
        raw = doc["pretokenize"]
        if not isinstance(raw, dict):
            raise VocabularyFormatError(f"{where}: field 'pretokenize' must be an object")
        for key, value in raw.items():
            if key not in ("space_prefix", "group_whitespace") or not isinstance(value, bool):
                raise VocabularyFormatError(
                    f"{where}: pretokenize takes only boolean 'space_prefix' and 'group_whitespace'"
                )
        options = PretokenizeOptions(
            space_prefix=raw.get("space_prefix", False),
            group_whitespace=raw.get("group_whitespace", False),
        )
    return Vocabulary(tokens, merges=merges, specials=specials, pretokenize=options)


def vocabulary_to_dict(vocab: Vocabulary) -> dict:
    doc: dict = {
        "version": VOCAB_FILE_VERSION,
        "tokens": [
            {"id": i, **_bytes_to_entry(t)} for i, t in enumerate(vocab.tokens)
        ],
    }
    if vocab.merges is not None:
        doc["merges"] = [
            [_bytes_to_entry(a), _bytes_to_entry(b)] for a, b in vocab.merges
        ]
    if vocab.pretokenize is not None:
        doc["pretokenize"] = {
            "space_prefix": vocab.pretokenize.space_prefix,
            "group_whitespace": vocab.pretokenize.group_whitespace,
        }
    doc["specials"] = sorted(vocab.specials)
    return doc


def save_vocabulary(vocab: Vocabulary, path: str) -> None:
    """Write the canonical JSON form (text entries wherever bytes are valid UTF-8)."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(vocabulary_to_dict(vocab), fh, indent=1, ensure_ascii=True)
        fh.write("\n")


def read_json_lines(
    fh: Iterable[bytes | str],
    name: str,
    convert: Callable[[dict, int], object],
    encoding: str = "utf-8",
) -> Iterator:
    """Yield ``convert(doc, index)`` for each non-blank JSON line of ``fh``.

    ``index`` counts lines from 0.  A line of bytes is decoded on its own
    with ``encoding`` (a text line is taken as it is), so a byte that does
    not decode is reported on its own line.  A line that does not decode,
    is not a JSON object, or that ``convert`` rejects with a ValueError,
    raises a ValueError that names ``name`` and the line number.
    """
    for index, line in enumerate(fh):
        try:
            if isinstance(line, bytes):
                line = line.decode(encoding)
            line = line.strip()
            if not line:
                continue
            doc = parse_json(line)
            if not isinstance(doc, dict):
                raise ValueError(f"expected an object, got {type(doc).__name__}")
            item = convert(doc, index)
        except ValueError as exc:
            raise ValueError(f"{name}: line {index + 1}: {exc}") from exc
        yield item


def write_json_lines(path: str, docs: Iterable[dict]) -> None:
    """Write each of ``docs`` to ``path`` as one sorted-key ASCII JSON line."""
    with open(path, "w", encoding="ascii") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def write_json(path: str | TextIO, doc: object) -> None:
    """Write ``doc`` to a path or stream as ASCII JSON: indent 1, sorted keys, a final newline."""
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if isinstance(path, str):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        path.write(text)


def json_field(doc: dict, key: str, kind: type | tuple[type, ...]):
    """``doc[key]``; a ValueError when it is missing or not of type ``kind``."""
    if key not in doc:
        raise ValueError(f"missing field {key!r}")
    value = doc[key]
    if not json_is(value, kind):
        raise ValueError(f"field {key!r} has the wrong type {type(value).__name__}")
    return value


def _refuse_unknown_fields(
    doc: dict, known: tuple[str, ...], where: str = "", error: type[ValueError] = ValueError
) -> None:
    """Refuse a key of ``doc`` outside ``known``: a misspelled field would load as if absent.

    Raises ``error`` naming the first such key, after ``where`` when given.
    """
    for key in doc:
        if key not in known:
            raise error(f"{where}: unknown field {key!r}" if where else f"unknown field {key!r}")


# ---------------------------------------------------------------------------
# Tiny BPE training


@dataclass(frozen=True)
class PretokenizeOptions:
    """Chunking rules applied before pair counting.

    ``space_prefix``: the last space of a whitespace run sticks to the
    word or punctuation run after it, so `` like``-style tokens can form.
    ``group_whitespace``: runs of space/newline/tab stay in one chunk, so
    multi-whitespace tokens can form; when off, whitespace-only chunks
    are split into single bytes and never merge.  A space that joined the
    next run stays there either way.  Earlier versions split `` like``
    into single bytes when ``space_prefix`` was on and grouping off;
    chunks changed only for that pair of options, so vocabularies trained
    with it encode differently now.
    """

    space_prefix: bool = False
    group_whitespace: bool = False


# A chunk is a run of one byte class.  With space_prefix the lookahead
# leaves a whitespace run's last space, when a non-whitespace byte follows
# it, to the next chunk.
_WORD, _WS = byte_class(WORD_BYTES), byte_class(WHITESPACE_BYTES)
_OTHER = byte_class(WORD_BYTES + WHITESPACE_BYTES, negate=True)
_CHUNK_PATTERNS = {
    False: re.compile(b"%s+|%s+|%s+" % (_WORD, _OTHER, _WS)),
    True: re.compile(
        b"%s+(?= %s)| ?%s+| ?%s+|%s+"
        % (_WS, byte_class(WHITESPACE_BYTES, negate=True), _WORD, _OTHER, _WS)
    ),
}


def pretokenize(text: bytes, options: PretokenizeOptions) -> list[bytes]:
    """Split ``text`` into chunks; merges never cross chunk boundaries.

    One precompiled pattern per ``space_prefix`` value finds every chunk
    in a single ``findall``; only ungrouped whitespace is then split into
    single bytes in Python.
    """
    chunks = _CHUNK_PATTERNS[options.space_prefix].findall(text)
    if options.group_whitespace:
        return chunks
    out: list[bytes] = []
    for chunk in chunks:
        # only whitespace-only chunks end in whitespace
        if chunk[-1] in WHITESPACE_BYTES:
            out.extend(bytes((b,)) for b in chunk)
        else:
            out.append(chunk)
    return out


def check_target_size(target_size: int, special_count: int = 0) -> None:
    """The size rule of :func:`train_tiny_bpe`, for callers that fail before any work."""
    if target_size < 256 + special_count:
        raise ConfigError(
            "target_size",
            f"{target_size} tokens cannot hold the 256 single bytes plus {special_count} specials",
        )


def train_tiny_bpe(
    corpus: Iterable[bytes],
    target_size: int,
    options: PretokenizeOptions = PretokenizeOptions(),
    specials: Sequence[bytes] = (),
) -> Vocabulary:
    """Train a byte-level BPE vocabulary of ``target_size`` tokens.

    Starts from the 256 single-byte tokens and repeatedly merges the most
    frequent adjacent pair within pretokenized chunks; each merge's bytes
    become the next token.  Ties break on the lexicographically smallest
    merged byte sequence, so training is fully deterministic.  Stops early
    if the corpus runs out of mergeable pairs.

    Cost: the pairs of the D distinct chunks are counted once, O(total
    bytes of the distinct chunks), and each pair is indexed to the chunks
    that hold it.  A merge then rewrites, in place, only the chunks indexed
    under its pair.  At each merge site it moves the counts of the site's
    two neighbour pairs to the pairs they become, and indexes the chunk
    under those new pairs only: they are the only pairs a merge creates,
    and every pair that survives it was indexed when it was created.  An
    index entry for a pair that a later merge consumed is stale; its chunk
    holds no site and is left alone.  The next pair comes from a heap
    keyed ``(-count, left + right)``; an entry whose count no longer
    matches is stale and skipped.  So a merge costs the parts of the
    chunks holding its pair plus O(log H) per changed pair count (H heap
    entries), not a pass over every chunk.

    The returned vocabulary's chunk memo starts filled: each distinct
    training chunk, in the order it first appears in the corpus and up to
    ``_CHUNK_MEMO_ENTRIES`` of them, maps to the ids of its final parts.
    That is the memo the vocabulary would hold after encoding ``corpus``
    once, because merges were applied in rank order at every site,
    leftmost first, as encoding applies them (a merge only creates pairs
    that hold its new token, and those rank later).  So encoding the
    training corpus again, as building an n-gram provider from it does,
    runs no BPE merging.
    """
    check_target_size(target_size, len(specials))
    documents = [bytes(d) for d in corpus]
    if not documents or all(len(d) == 0 for d in documents):
        raise VocabularyError("training corpus is empty")

    chunk_counts: Counter[bytes] = Counter()
    for doc in documents:
        chunk_counts.update(pretokenize(doc, options))
    # distinct chunks never collide: their parts always concatenate to the chunk
    words: list[list[bytes]] = [[bytes((b,)) for b in c] for c in chunk_counts]
    freqs: list[int] = list(chunk_counts.values())
    pair_counts: dict[tuple[bytes, bytes], int] = {}
    where: dict[tuple[bytes, bytes], set[int]] = {}
    for w, parts in enumerate(words):
        freq = freqs[w]
        for pair in zip(parts, parts[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
            where.setdefault(pair, set()).add(w)
    heap = [(-n, a + b, (a, b)) for (a, b), n in pair_counts.items()]
    heapq.heapify(heap)

    # A merge never adds a part boundary, so whole-part occurrences of any bytes split alike:
    # no two live pairs share merged bytes, and a popped pair's bytes are not yet a token.
    merges: list[tuple[bytes, bytes]] = []
    n_merges = target_size - len(specials) - 256
    while len(merges) < n_merges and heap:
        neg, merged, best = heapq.heappop(heap)
        if pair_counts.get(best) != -neg:
            continue  # stale: the count changed after this entry was pushed
        merges.append(best)
        left, right = best
        delta: dict[tuple[bytes, bytes], int] = {}
        # a merge only lengthens parts, so ``best`` never occurs again
        for w in where.pop(best):
            parts = words[w]
            freq = freqs[w]
            # leftmost sites first; each rewrite leaves parts[:i + 1] final
            i = 0
            while i < len(parts) - 1:
                if parts[i] != left or parts[i + 1] != right:
                    i += 1
                    continue
                delta[best] = delta.get(best, 0) - freq
                if i:
                    old, new = (parts[i - 1], left), (parts[i - 1], merged)
                    delta[old] = delta.get(old, 0) - freq
                    delta[new] = delta.get(new, 0) + freq
                    where.setdefault(new, set()).add(w)
                if i + 2 < len(parts):
                    old, new = (right, parts[i + 2]), (merged, parts[i + 2])
                    delta[old] = delta.get(old, 0) - freq
                    delta[new] = delta.get(new, 0) + freq
                    where.setdefault(new, set()).add(w)
                parts[i : i + 2] = (merged,)
                i += 1
        for pair, change in delta.items():
            if change:
                n = pair_counts.get(pair, 0) + change
                if n:
                    pair_counts[pair] = n
                    heapq.heappush(heap, (-n, pair[0] + pair[1], pair))
                else:
                    del pair_counts[pair]

    tokens = [bytes([i]) for i in range(256)] + [a + b for a, b in merges]
    # every final part is one of these tokens; a special's bytes may repeat one
    part_ids = {t: i for i, t in enumerate(tokens)}
    special_ids = range(len(tokens), len(tokens) + len(specials))
    tokens.extend(bytes(s) for s in specials)
    vocab = Vocabulary(tokens, merges=merges, specials=special_ids, pretokenize=options)
    # the memo encoding the corpus once would leave (see the docstring)
    vocab._chunk_ids = {
        chunk: [part_ids[p] for p in parts]
        for chunk, parts in zip(islice(chunk_counts, _CHUNK_MEMO_ENTRIES), words)
    }
    return vocab
