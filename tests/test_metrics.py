import itertools
from functools import lru_cache
from math import comb

import numpy as np
import pytest

from tokalign import (
    EvalRecord,
    edit_similarity,
    exact_match,
    first_token_accuracy,
    levenshtein,
    make_rng,
    pass_at_k,
    rouge_l,
    score_records,
)
from tokalign.metrics import ALL_METRICS, FUZZY_N, _lcs_length, score_record, write_report_csv

from conftest import byte_vocab


def levenshtein_oracle(a: bytes, b: bytes) -> int:
    # independent full-matrix recursion with memoization
    @lru_cache(maxsize=None)
    def dp(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            dp(i - 1, j) + 1,
            dp(i, j - 1) + 1,
            dp(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return dp(len(a), len(b))


def lcs_oracle(a: list, b: list) -> int:
    # longest common subsequence by enumerating subsequences of the shorter side
    if len(a) > len(b):
        a, b = b, a
    best = 0
    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(a, r):
            it = iter(b)
            if all(word in it for word in combo):
                return r
    return best


def subset_pass_oracle(n: int, c: int, k: int) -> float:
    # mean over all k-subsets of "contains at least one correct sample"
    outcomes = [1] * c + [0] * (n - c)
    subsets = list(itertools.combinations(range(n), k))
    hits = sum(1 for s in subsets if any(outcomes[i] for i in s))
    return hits / len(subsets)


def pass_at_k_exhaustive(n: int, c: int, k: int) -> float:
    """Reference form via binomial coefficients (exact for small n)."""
    return 1.0 - comb(n - c, k) / comb(n, k) if n - c >= k else 1.0


class TestExactMatch:
    def test_identity(self):
        assert exact_match(b"Paris", [b"Paris", b"paris"]) == 1

    def test_trim_rule(self):
        assert exact_match(b" Paris ", [b"Paris"]) == 1

    def test_punctuation_differs(self):
        assert exact_match(b"Paris,", [b"Paris"]) == 0

    def test_no_case_folding(self):
        assert exact_match(b"PARIS", [b"Paris"]) == 0


class TestEditSimilarity:
    def test_identity(self):
        assert edit_similarity(b"abc", b"abc") == 1.0

    def test_kitten_sitting(self):
        assert levenshtein(b"kitten", b"sitting") == 3
        assert edit_similarity(b"kitten", b"sitting") == pytest.approx(1 - 3 / 7)

    def test_empty_vs_nonempty(self):
        assert edit_similarity(b"", b"ab") == 0.0

    def test_empty_vs_empty(self):
        assert edit_similarity(b"", b"") == 1.0

    def test_reference_list_takes_max(self):
        assert edit_similarity(b"cat", [b"dog", b"cat"]) == 1.0

    def test_symmetry_range_identity(self):
        rng = make_rng(61)
        for _ in range(300):
            a = bytes(rng.integers(97, 102, size=rng.integers(0, 12), dtype="uint8"))
            b = bytes(rng.integers(97, 102, size=rng.integers(0, 12), dtype="uint8"))
            es = edit_similarity(a, b)
            assert 0.0 <= es <= 1.0
            assert es == edit_similarity(b, a)
            assert edit_similarity(a, a) == 1.0

    def test_against_oracle(self):
        rng = make_rng(67)
        for _ in range(200):
            a = bytes(rng.integers(97, 103, size=rng.integers(0, 16), dtype="uint8"))
            b = bytes(rng.integers(97, 103, size=rng.integers(0, 16), dtype="uint8"))
            assert levenshtein(a, b) == levenshtein_oracle(a, b)
        for _ in range(100):
            a = bytes(rng.integers(0, 256, size=rng.integers(0, 16), dtype="uint8"))
            b = bytes(rng.integers(0, 256, size=rng.integers(0, 16), dtype="uint8"))
            assert levenshtein(a, b) == levenshtein_oracle(a, b)


class TestFirstToken:
    def test_shared_first_word(self, trained_vocab):
        assert first_token_accuracy(b"turn over", b"turn around", trained_vocab) == 1

    def test_both_empty(self, trained_vocab):
        assert first_token_accuracy(b"", b"", trained_vocab) == 1

    def test_one_empty(self, trained_vocab):
        assert first_token_accuracy(b"", b"x", trained_vocab) == 0
        assert first_token_accuracy(b"x", b"", trained_vocab) == 0

    def test_hand_traced_fixture(self):
        # greedy matching: "return..." starts with token "return", "ret..."
        # with token "ret": different first ids
        vocab = byte_vocab(extra=[b"return", b"ret"])
        assert first_token_accuracy(b"return x", b"ret x", vocab) == 0
        assert first_token_accuracy(b"return x", b"return y", vocab) == 1


class TestRougeL:
    def test_identity(self):
        assert rouge_l(b"the cat sat", b"the cat sat") == 1.0

    def test_partial(self):
        # LCS("a b c", "a c") = 2; P=2/3, R=1, F1=0.8
        assert rouge_l(b"a b c", b"a c") == pytest.approx(0.8)

    def test_disjoint(self):
        assert rouge_l(b"x", b"y") == 0.0

    def test_whitespace_runs_collapse(self):
        assert rouge_l(b"a  b \t c", b"a b c") == 1.0

    def test_empty_sides(self):
        assert rouge_l(b"", b"a") == 0.0
        assert rouge_l(b"a", b"") == 0.0

    def test_against_enumeration_oracle(self):
        rng = make_rng(71)
        words = [b"aa", b"bb", b"cc", b"dd"]
        for _ in range(150):
            a = [words[i] for i in rng.integers(0, 4, size=rng.integers(0, 8))]
            b = [words[i] for i in rng.integers(0, 4, size=rng.integers(0, 8))]
            got = rouge_l(b" ".join(a), b" ".join(b))
            lcs = lcs_oracle(a, b)
            assert _lcs_length(a, b) == lcs
            if not a or not b or lcs == 0:
                assert got == 0.0
            else:
                p, r = lcs / len(a), lcs / len(b)
                assert got == pytest.approx(2 * p * r / (p + r))


def fuzzy_scores(gen: bytes, ref: bytes) -> tuple[float, float]:
    record = EvalRecord("e", gen, [ref], "aligned")
    scores = score_record(record, ("fuzzy_es_50", "fuzzy_rouge_50"), None)
    return scores["fuzzy_es_50"], scores["fuzzy_rouge_50"]


class TestFuzzyFirstN:
    # the fuzzy metrics score the first FUZZY_N words of each side
    WORDS = [b"w%d" % (i % 7) for i in range(FUZZY_N + 10)]

    def test_identical_long_texts(self):
        text = b" ".join(self.WORDS)
        assert fuzzy_scores(text, text) == (1.0, 1.0)

    def test_shorter_than_n_compared_in_full(self):
        short = b" ".join(self.WORDS[:3])
        long = b" ".join([b"x", *self.WORDS[1:]])
        first_n = b" ".join([b"x", *self.WORDS[1:FUZZY_N]])
        assert fuzzy_scores(short, long) == (
            edit_similarity(short, first_n), rouge_l(short, first_n)
        )

    def test_truncation_at_n(self):
        # the texts differ at index 2 and after index FUZZY_N - 1; only index 2 counts
        gen = self.WORDS[:FUZZY_N] + [b"tail"]
        ref = self.WORDS[:2] + [b"x"] + self.WORDS[3:FUZZY_N] + [b"other", b"words"]
        es, rl = fuzzy_scores(b" ".join(gen), b" ".join(ref))
        assert es == edit_similarity(b" ".join(gen[:FUZZY_N]), b" ".join(ref[:FUZZY_N]))
        assert rl == rouge_l(b" ".join(gen[:FUZZY_N]), b" ".join(ref[:FUZZY_N]))
        assert es < 1.0 and rl < 1.0

    def test_kept_words_rejoined_by_single_spaces(self):
        spaced = b"  \n\t".join(self.WORDS)
        assert fuzzy_scores(spaced, b" ".join(self.WORDS)) == (1.0, 1.0)
        assert edit_similarity(spaced, b" ".join(self.WORDS)) < 1.0


class TestPassAtK:
    def test_trivial_one(self):
        assert pass_at_k(1, 1, 1) == 1.0

    def test_half(self):
        assert pass_at_k(2, 1, 1) == pytest.approx(0.5)

    def test_five_two_three(self):
        # 1 - C(3,3)/C(5,3) = 1 - 1/10
        assert pass_at_k(5, 2, 3) == pytest.approx(0.9)
        assert subset_pass_oracle(5, 2, 3) == pytest.approx(0.9)

    def test_zero_correct(self):
        assert pass_at_k(10, 0, 5) == 0.0

    def test_not_enough_incorrect(self):
        assert pass_at_k(5, 3, 4) == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pass_at_k(3, 4, 1)
        with pytest.raises(ValueError):
            pass_at_k(3, 1, 0)
        with pytest.raises(ValueError):
            pass_at_k(3, 1, 4)
        with pytest.raises(ValueError):
            pass_at_k(3, -1, 1)

    def test_matches_subset_enumeration_small(self):
        for n in range(1, 9):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    expected = subset_pass_oracle(n, c, k)
                    assert pass_at_k(n, c, k) == pytest.approx(expected, abs=1e-12)
                    assert pass_at_k_exhaustive(n, c, k) == pytest.approx(expected, abs=1e-12)


class TestReports:
    def _records(self):
        return [
            EvalRecord("e1", b"alpha beta", [b"alpha beta"], "aligned"),
            EvalRecord("e1", b"alpha", [b"alpha beta"], "unaligned"),
            EvalRecord("e2", b"gamma", [b"gamma"], "aligned"),
            EvalRecord("e2", b"delta", [b"gamma"], "unaligned"),
        ]

    def test_aggregates_are_means(self, trained_vocab):
        report = score_records(self._records(), vocab=trained_vocab, scenario="toy")
        assert report.metrics == ALL_METRICS
        for arm in ("aligned", "unaligned"):
            rows = [r for r in report.per_example if r["arm"] == arm]
            for metric in ALL_METRICS:
                mean = float(np.mean([r[metric] for r in rows]))
                assert abs(report.aggregates[arm][metric] - mean) < 1e-9
        # the word-level metrics reach their functions unchanged
        for record, row in zip(self._records(), report.per_example):
            assert row["rouge_l"] == rouge_l(record.generated, record.references)
            gen, ref = (
                b" ".join(text.split()[:FUZZY_N]) for text in (record.generated, *record.references)
            )
            assert row["fuzzy_es_50"] == edit_similarity(gen, ref)
            assert row["fuzzy_rouge_50"] == rouge_l(gen, ref)

    def test_deltas_present_with_both_arms(self, trained_vocab):
        report = score_records(self._records(), ("em",), trained_vocab)
        assert report.deltas["em"] == report.aggregates["aligned"]["em"] - (
            report.aggregates["unaligned"]["em"]
        )

    def test_fta_requires_vocab(self):
        with pytest.raises(ValueError, match="vocabulary"):
            score_record(self._records()[0], ("fta",), None)

    def test_references_required(self):
        with pytest.raises(ValueError):
            EvalRecord("x", b"a", [], "aligned")

    def test_unknown_metric_rejected(self, trained_vocab):
        with pytest.raises(ValueError, match="unknown metric"):
            score_record(self._records()[0], ("bleu",), trained_vocab)

    def test_json_round_trip(self):
        rec = EvalRecord("e9", b"\xff raw", [b"a", b"b"], "aligned")
        assert EvalRecord.from_json_dict(rec.to_json_dict()) == rec

    def test_jsonl_file_round_trip(self, tmp_path):
        from tokalign import read_eval_records, write_eval_records

        records = self._records()
        path = tmp_path / "records.jsonl"
        write_eval_records(str(path), records)
        assert read_eval_records(str(path)) == records

    def test_arm_validated(self):
        with pytest.raises(ValueError, match="arm"):
            EvalRecord("x", b"a", [b"a"], "middle")

    def test_csv_shape(self, tmp_path, trained_vocab):
        report = score_records(self._records(), ("em", "es"), trained_vocab, scenario="toy")
        path = tmp_path / "r.csv"
        write_report_csv(report, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scenario,arm,metric,value"
        assert len(lines) == 1 + 2 * 2
        assert all(line.startswith("toy,") for line in lines[1:])
