import base64
import json

import numpy as np
import pytest

from tokalign import (
    EncodingError,
    PretokenizeOptions,
    Vocabulary,
    VocabularyError,
    VocabularyFormatError,
    VocabularyValidationError,
    decode,
    encode,
    load_vocabulary,
    save_vocabulary,
    train_tiny_bpe,
)
from tokalign import decoding
from tokalign.vocab import ConfigError, pretokenize, vocabulary_from_dict, vocabulary_to_dict
from tokalign.decoding import make_rng

from conftest import TRAIN_OPTIONS, byte_vocab


def greedy_reference(tokens: list[bytes], text: bytes) -> list[bytes]:
    # independent greedy longest-match: try tokens sorted by length, longest first
    by_length = sorted(tokens, key=len, reverse=True)
    out = []
    pos = 0
    while pos < len(text):
        for tok in by_length:
            if text.startswith(tok, pos):
                out.append(tok)
                pos += len(tok)
                break
        else:
            raise AssertionError("reference: uncoverable")
    return out


class TestConstruction:
    def test_minimal_vocabulary(self):
        vocab = Vocabulary([b"a", b"b", b"ab"])
        assert len(vocab) == 3
        assert vocab.id_of(b"ab") == 2

    def test_minimal_vocabulary_from_file_dict(self):
        doc = {
            "version": 1,
            "tokens": [
                {"id": 0, "text": "a"},
                {"id": 1, "text": "b"},
                {"id": 2, "text": "ab"},
            ],
        }
        vocab = vocabulary_from_dict(doc)
        assert len(vocab) == 3

    def test_duplicate_byte_sequence_rejected(self):
        doc = {
            "version": 1,
            "tokens": [{"id": 0, "text": "x"}, {"id": 1, "text": "x"}],
        }
        with pytest.raises(VocabularyValidationError):
            vocabulary_from_dict(doc)

    def test_non_utf8_token_via_base64(self):
        # 0xE2 0x96 is an incomplete UTF-8 sequence; "4pY=" is its base64
        # form (verified against the stdlib codec below)
        raw = bytes([0xE2, 0x96])
        assert base64.b64encode(raw).decode("ascii") == "4pY="
        doc = {
            "version": 1,
            "tokens": [{"id": i, "text": chr(97 + i)} for i in range(5)]
            + [{"id": 5, "bytes_b64": "4pY="}],
        }
        vocab = vocabulary_from_dict(doc)
        assert vocab.tokens[5] == raw

    def test_empty_token_rejected(self):
        with pytest.raises(VocabularyValidationError):
            Vocabulary([b"a", b""])

    @pytest.mark.parametrize(
        "tokens, specials, message",
        [
            ([b"x", b"a", b"a", b""], [], "duplicate byte sequence for tokens 1 and 2: b'a'"),
            ([b"x", b"", b"a", b"a"], [], "token 1 has empty byte sequence"),
            # the repeat that sorts last has the lower id
            ([b"b", b"a", b"b", b"a", b""], [], "duplicate byte sequence for tokens 0 and 2: b'b'"),
            ([b"c", b"c", b"c", b""], [], "duplicate byte sequence for tokens 0 and 1: b'c'"),
            # a special never repeats a token, but an empty one is still empty
            ([b"a", b"a", b"a", b""], [1], "duplicate byte sequence for tokens 0 and 2: b'a'"),
            ([b"a", b"", b"a"], [1], "token 1 has empty byte sequence"),
        ],
    )
    def test_empty_and_duplicate_tokens_lower_id_reported(self, tokens, specials, message):
        with pytest.raises(VocabularyValidationError) as caught:
            Vocabulary(tokens, specials=specials)
        assert str(caught.value) == message

    def test_sparse_ids_rejected(self):
        doc = {"version": 1, "tokens": [{"id": 0, "text": "a"}, {"id": 2, "text": "b"}]}
        with pytest.raises(VocabularyValidationError):
            vocabulary_from_dict(doc)

    def test_merge_sides_must_be_tokens(self):
        with pytest.raises(VocabularyValidationError):
            Vocabulary([b"a", b"b", b"ab"], merges=[(b"a", b"c")])
        with pytest.raises(VocabularyValidationError):
            Vocabulary([b"a", b"b"], merges=[(b"a", b"b")])  # merged "ab" missing

    def test_specials_may_share_bytes(self):
        vocab = Vocabulary([b"a", b"b", b"a"], specials=[2])
        assert vocab.is_special(2)
        assert vocab.id_of(b"a") == 0


class TestFileFormat:
    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1,\n "tokens": [,]}')
        with pytest.raises(VocabularyFormatError, match="line"):
            load_vocabulary(str(path))

    def test_version_checked(self):
        with pytest.raises(VocabularyFormatError, match="version"):
            vocabulary_from_dict({"version": 2, "tokens": []})

    def test_entry_needs_exactly_one_encoding(self):
        doc = {"version": 1, "tokens": [{"id": 0, "text": "a", "bytes_b64": "YQ=="}]}
        with pytest.raises(VocabularyFormatError, match="exactly one"):
            vocabulary_from_dict(doc)

    def test_unknown_field_refused(self):
        # a misspelled "merges" would otherwise load a BPE vocabulary as a greedy one
        tokens = [{"id": 0, "text": "a"}, {"id": 1, "text": "b"}, {"id": 2, "text": "ab"}]
        pair = [{"text": "a"}, {"text": "b"}]
        vocab = vocabulary_from_dict({"version": 1, "tokens": tokens, "merges": [pair]})
        assert vocab.merges == ((b"a", b"b"),)
        for doc, message in [
            ({"version": 1, "tokens": tokens, "merge": [pair]}, "<vocabulary>: unknown field 'merge'"),
            (
                {"version": 1, "tokens": tokens[:2] + [{"id": 2, "text": "ab", "rank": 0}]},
                "<vocabulary>: tokens[2]: unknown field 'rank'",
            ),
            (
                {"version": 1, "tokens": tokens, "merges": [[{"text": "a", "id": 0}, {"text": "b"}]]},
                "<vocabulary>: merges[0]: unknown field 'id'",
            ),
        ]:
            with pytest.raises(VocabularyFormatError) as caught:
                vocabulary_from_dict(doc)
            assert str(caught.value) == message

    def test_save_load_round_trip(self, tmp_path, trained_vocab):
        path = tmp_path / "v.json"
        save_vocabulary(trained_vocab, str(path))
        loaded = load_vocabulary(str(path))
        assert loaded.tokens == trained_vocab.tokens
        assert loaded.merges == trained_vocab.merges
        assert loaded.specials == trained_vocab.specials
        assert loaded.pretokenize == trained_vocab.pretokenize

    def test_canonical_file_round_trips_byte_exact(self, tmp_path):
        vocab = byte_vocab(extra=[b" like", b"I\xff\xfe"])
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_vocabulary(vocab, str(first))
        save_vocabulary(load_vocabulary(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_dict_form_is_json_serializable(self, trained_vocab):
        json.dumps(vocabulary_to_dict(trained_vocab))


class TestEncodeDecode:
    def test_space_prefix_pair(self):
        # "I like" covered by tokens I and " like" comes out as two tokens
        vocab = byte_vocab(extra=[b" like"])
        ids = encode(vocab, b"I like")
        assert [vocab.tokens[i] for i in ids] == [b"I", b" like"]
        assert decode(vocab, ids) == b"I like"

    def test_merges_without_pretokenize_cross_chunks(self):
        # a file with merges and no pretokenize field loads with pretokenize
        # None, and its merges then apply across what would be chunk boundaries
        doc = vocabulary_to_dict(
            byte_vocab(extra=[b"a ", b"a b"], merges=[(b"a", b" "), (b"a ", b"b")])
        )
        assert "pretokenize" not in doc
        vocab = vocabulary_from_dict(doc)
        assert vocab.pretokenize is None
        assert [vocab.tokens[i] for i in encode(vocab, b"a ba")] == [b"a b", b"a"]
        chunked = Vocabulary(vocab.tokens, vocab.merges, pretokenize=PretokenizeOptions(space_prefix=True))
        assert [chunked.tokens[i] for i in encode(chunked, b"a ba")] == [b"a", b" ", b"b", b"a"]

    def test_encode_empty(self, trained_vocab):
        assert encode(trained_vocab, b"") == []

    def test_decode_empty(self, trained_vocab):
        assert decode(trained_vocab, []) == b""

    def test_greedy_longest_match(self):
        vocab = Vocabulary([b"a", b"b", b"aa"])
        ids = encode(vocab, b"aab")
        assert [vocab.tokens[i] for i in ids] == [b"aa", b"b"]
        assert [vocab.tokens[i] for i in ids] == greedy_reference(list(vocab.tokens), b"aab")

    def test_greedy_matches_reference_on_random_strings(self):
        vocab = byte_vocab(extra=[b"ab", b"abc", b"bc", b"ccc", b" a"])
        rng = make_rng(5)
        alphabet = b"abc "
        for _ in range(200):
            text = bytes(alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 30)))
            got = [vocab.tokens[i] for i in encode(vocab, text)]
            assert got == greedy_reference(list(vocab.tokens), text)

    def test_uncoverable_byte_reports_offset(self):
        vocab = Vocabulary([b"a", b"b"])
        with pytest.raises(EncodingError) as err:
            encode(vocab, b"abz")
        assert err.value.offset == 2

    def test_decode_unknown_id_reports_position(self, trained_vocab):
        with pytest.raises(EncodingError) as err:
            decode(trained_vocab, [0, 10 ** 6])
        assert err.value.offset == 1

    @pytest.mark.parametrize("bad", [1.0, np.float64(1.0), "x", None])
    @pytest.mark.parametrize("before", [[], [0, 3]])
    def test_decode_non_integer_id_reports_position(self, trained_vocab, before, bad):
        with pytest.raises(EncodingError, match="is not an integer") as err:
            decode(trained_vocab, [*before, bad, 1])
        assert err.value.offset == len(before)

    def test_round_trip_random_byte_strings(self, trained_vocab):
        rng = make_rng(99)
        for _ in range(1000):
            length = int(rng.integers(0, 60))
            text = bytes(rng.integers(0, 256, size=length, dtype="uint8"))
            assert decode(trained_vocab, encode(trained_vocab, text)) == text

    def test_encode_deterministic(self, trained_vocab, code_texts):
        for text in code_texts[:5]:
            assert encode(trained_vocab, text) == encode(trained_vocab, text)

    def test_specials_never_emitted(self):
        vocab = byte_vocab(extra=[b"<eos>"], specials=[256])
        ids = encode(vocab, b"<eos>")
        assert 256 not in ids
        assert decode(vocab, ids) == b"<eos>"


class TestPretokenize:
    def test_space_prefix_moves_one_space(self):
        opts = PretokenizeOptions(space_prefix=True, group_whitespace=True)
        assert pretokenize(b"a    x=", opts) == [b"a", b"   ", b" x", b"="]

    def test_partition_property(self):
        rng = make_rng(3)
        alphabet = b"ab c\n\t_1."
        for space_prefix in (False, True):
            for group in (False, True):
                opts = PretokenizeOptions(space_prefix, group)
                for _ in range(100):
                    text = bytes(
                        alphabet[i] for i in rng.integers(0, len(alphabet), size=rng.integers(0, 40))
                    )
                    assert b"".join(pretokenize(text, opts)) == text

    def test_whitespace_split_when_grouping_off(self):
        opts = PretokenizeOptions(space_prefix=False, group_whitespace=False)
        assert pretokenize(b"a  b", opts) == [b"a", b" ", b" ", b"b"]

    def test_space_prefix_kept_when_grouping_off(self, code_texts):
        opts = PretokenizeOptions(space_prefix=True, group_whitespace=False)
        assert pretokenize(b"a like", opts) == [b"a", b" like"]
        assert pretokenize(b"a  =\n", opts) == [b"a", b" ", b" =", b"\n"]
        trained = train_tiny_bpe(code_texts, 400, opts)
        assert any(t[:1] == b" " and t[1:2].isalpha() for t in trained.tokens)


class TestTraining:
    def test_whitespace_token_emerges(self, trained_vocab):
        # the corpus is indented code: multi-space tokens must form
        assert any(
            len(tok) >= 2 and all(b == 0x20 for b in tok) for tok in trained_vocab.tokens
        )

    def test_space_prefixed_word_emerges(self, trained_vocab):
        assert any(
            tok.startswith(b" ") and len(tok) > 2 and tok[1:].isalpha()
            for tok in trained_vocab.tokens
        )

    def test_base_alphabet_only(self):
        vocab = train_tiny_bpe([b"xy"], 256)
        assert len(vocab) == 256
        assert list(vocab.tokens) == [bytes([i]) for i in range(256)]
        assert vocab.merges == ()

    def test_single_merge_is_most_frequent_pair(self):
        corpus = [b"ab ab ab"]
        vocab = train_tiny_bpe(corpus, 257)
        # independent pair count over pretokenized chunks
        counts = {}
        for chunk in pretokenize(corpus[0], PretokenizeOptions()):
            parts = [bytes([b]) for b in chunk]
            for left, right in zip(parts, parts[1:]):
                counts[(left, right)] = counts.get((left, right), 0) + 1
        best = max(counts, key=counts.get)
        assert best == (b"a", b"b")
        assert vocab.merges == ((b"a", b"b"),)
        assert vocab.tokens[256] == b"ab"

    def test_all_single_bytes_present(self, trained_vocab):
        assert trained_vocab.has_all_byte_tokens()

    def test_empty_corpus_rejected(self):
        with pytest.raises(VocabularyError):
            train_tiny_bpe([], 300)
        with pytest.raises(VocabularyError):
            train_tiny_bpe([b""], 300)

    def test_target_below_alphabet_rejected(self):
        # a value out of range, not bad data: a ConfigError naming the field
        with pytest.raises(ConfigError) as bare:
            train_tiny_bpe([b"ab"], 255)
        with pytest.raises(ConfigError) as with_specials:
            train_tiny_bpe([b"ab"], 257, specials=[b"<a>", b"<b>"])
        assert bare.value.field == with_specials.value.field == "target_size"
        assert decoding.ConfigError is ConfigError  # one class for every range rule

    def test_empty_special_rejected_before_pretokenizing(self, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("pretokenized before the specials were checked")

        monkeypatch.setattr("tokalign.vocab.pretokenize", not_reached)
        with pytest.raises(ConfigError) as empty:
            train_tiny_bpe([b"ab"], 300, specials=[b"<a>", b""])
        assert empty.value.field == "special"

    def test_repeated_special_rejected_before_pretokenizing(self, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("pretokenized before the specials were checked")

        monkeypatch.setattr("tokalign.vocab.pretokenize", not_reached)
        with pytest.raises(ConfigError, match="listed twice") as repeated:
            train_tiny_bpe([b"ab"], 300, specials=[b"<a>", b"<b>", b"<a>"])
        assert repeated.value.field == "special"

    def test_specials_appended_with_ids_at_end(self, code_texts):
        vocab = train_tiny_bpe(code_texts[:5], 300, TRAIN_OPTIONS, specials=[b"<eos>"])
        assert vocab.is_special(len(vocab) - 1)
        assert vocab.tokens[-1] == b"<eos>"

    def test_retraining_is_byte_identical(self, tmp_path, code_texts):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_vocabulary(train_tiny_bpe(code_texts, 400, TRAIN_OPTIONS), str(a))
        save_vocabulary(train_tiny_bpe(code_texts, 400, TRAIN_OPTIONS), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_trained_vocab_round_trips_corpus(self, trained_vocab, code_texts):
        for text in code_texts:
            assert decode(trained_vocab, encode(trained_vocab, text)) == text
