"""Scoring for paired with/without-alignment evaluation.

All metrics are pure functions over byte strings.  Words are
whitespace-delimited with punctuation attached; exact match trims ASCII
whitespace at both ends (leading-space artifacts are precisely what
alignment manipulates) but never folds case.  Against a reference list,
similarity metrics take the most favorable reference.
"""

from __future__ import annotations

import base64
import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .vocab import (
    ConfigError,
    Vocabulary,
    _refuse_unknown_fields,
    encode,
    json_field,
    read_json_lines,
    write_json_lines,
)


def levenshtein(a: bytes, b: bytes) -> int:
    """Single-character edit distance (insert/delete/substitute), two-row DP."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            )
        previous = current
    return previous[len(b)]


def _as_ref_list(refs: bytes | Sequence[bytes]) -> list[bytes]:
    if isinstance(refs, (bytes, bytearray)):
        return [bytes(refs)]
    out = [bytes(r) for r in refs]
    if not out:
        raise ValueError("reference list is empty")
    return out


def exact_match(gen: bytes, refs: bytes | Sequence[bytes]) -> int:
    """1 iff the whitespace-trimmed generation equals any trimmed reference."""
    g = bytes(gen).strip()
    return int(any(g == r.strip() for r in _as_ref_list(refs)))


def edit_similarity(gen: bytes, refs: bytes | Sequence[bytes]) -> float:
    """1 - levenshtein/max(len); 1.0 for empty-vs-empty; max over references."""
    g = bytes(gen)

    def one(r: bytes) -> float:
        longest = max(len(g), len(r))
        if longest == 0:
            return 1.0
        return 1.0 - levenshtein(g, r) / longest

    return max(one(r) for r in _as_ref_list(refs))


def first_token_accuracy(gen: bytes, ref: bytes, vocab: Vocabulary) -> int:
    """1 iff the first token id of the generation matches the reference's."""
    gen, ref = bytes(gen), bytes(ref)
    if not gen or not ref:
        return int(not gen and not ref)
    return int(encode(vocab, gen)[0] == encode(vocab, ref)[0])


def _words(data: bytes) -> list[bytes]:
    return bytes(data).split()


def _lcs_length(a: list[bytes], b: list[bytes]) -> int:
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for wa in a:
        current = [0] * (len(b) + 1)
        for j, wb in enumerate(b, start=1):
            if wa == wb:
                current[j] = previous[j - 1] + 1
            else:
                current[j] = max(previous[j], current[j - 1])
        previous = current
    return previous[len(b)]


def rouge_l(gen: bytes, refs: bytes | Sequence[bytes]) -> float:
    """Word-level longest-common-subsequence F1; 0 when either side is empty."""
    gen_words = _words(gen)

    def one(ref: bytes) -> float:
        ref_words = _words(ref)
        if not gen_words or not ref_words:
            return 0.0
        lcs = _lcs_length(gen_words, ref_words)
        if lcs == 0:
            return 0.0
        precision = lcs / len(gen_words)
        recall = lcs / len(ref_words)
        return 2 * precision * recall / (precision + recall)

    return max(one(r) for r in _as_ref_list(refs))


def _first_words(data: bytes, n: int) -> bytes:
    """The first ``n`` words (all of them, when fewer), rejoined by single spaces."""
    return b" ".join(_words(data)[:n])


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased pass@k from n samples with c correct: 1 - C(n-c,k)/C(n,k).

    Computed in product form for numerical stability.
    """
    if not 0 <= c <= n:
        raise ValueError(f"need 0 <= c <= n, got c={c}, n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n - c < k:
        return 1.0
    product = 1.0
    for i in range(n - c + 1, n + 1):
        product *= 1.0 - k / i
    return 1.0 - product


# ---------------------------------------------------------------------------
# Evaluation records and reports


ALL_METRICS = ("em", "es", "fta", "rouge_l", "fuzzy_es_50", "fuzzy_rouge_50")
FUZZY_N = 50


@dataclass
class EvalRecord:
    """One scored generation: continuation only, prompt already stripped."""

    example_id: str
    generated: bytes
    references: list[bytes]
    arm: str  # "aligned" | "unaligned"

    def __post_init__(self):
        if not self.references:
            raise ValueError("references must be non-empty")
        if self.arm not in ("aligned", "unaligned"):
            raise ValueError(f"unknown arm {self.arm!r}")
        self.generated = bytes(self.generated)
        self.references = [bytes(r) for r in self.references]

    def to_json_dict(self) -> dict:
        return {
            "example_id": self.example_id,
            "generated_b64": base64.b64encode(self.generated).decode("ascii"),
            "references_b64": [base64.b64encode(r).decode("ascii") for r in self.references],
            "arm": self.arm,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EvalRecord":
        _refuse_unknown_fields(doc, ("example_id", "generated_b64", "references_b64", "arm"))
        references = json_field(doc, "references_b64", list)
        if not all(isinstance(r, str) for r in references):
            raise ValueError("field 'references_b64' must hold strings")
        return cls(
            example_id=str(json_field(doc, "example_id", (str, int))),
            generated=base64.b64decode(json_field(doc, "generated_b64", str), validate=True),
            references=[base64.b64decode(r, validate=True) for r in references],
            arm=json_field(doc, "arm", str),
        )


def write_eval_records(path: str, records: Sequence[EvalRecord]) -> None:
    write_json_lines(path, (record.to_json_dict() for record in records))


def read_eval_records(path: str) -> list[EvalRecord]:
    with open(path, "rb") as fh:
        return list(
            read_json_lines(fh, path, lambda doc, _: EvalRecord.from_json_dict(doc), "ascii")
        )


def check_metrics(names: Sequence[str]) -> None:
    """A ConfigError naming the first of ``names`` that is not in ``ALL_METRICS``."""
    for name in names:
        if name not in ALL_METRICS:
            raise ConfigError("metrics", f"unknown metric {name!r} (have {', '.join(ALL_METRICS)})")


def score_record(record: EvalRecord, metrics: Sequence[str], vocab: Vocabulary | None) -> dict:
    check_metrics(metrics)
    scores: dict[str, float] = {}
    for metric in metrics:
        if metric == "em":
            scores[metric] = float(exact_match(record.generated, record.references))
        elif metric == "es":
            scores[metric] = edit_similarity(record.generated, record.references)
        elif metric == "fta":
            if vocab is None:
                raise ValueError("first-token accuracy requires a vocabulary")
            scores[metric] = float(
                max(first_token_accuracy(record.generated, r, vocab) for r in record.references)
            )
        elif metric == "rouge_l":
            scores[metric] = rouge_l(record.generated, record.references)
        else:  # fuzzy_es_50 or fuzzy_rouge_50: the measure alone, on truncated texts
            measure = edit_similarity if metric == "fuzzy_es_50" else rouge_l
            scores[metric] = measure(
                _first_words(record.generated, FUZZY_N),
                [_first_words(r, FUZZY_N) for r in record.references],
            )
    return scores


@dataclass
class ScoreReport:
    """Per-arm aggregates (means), per-example breakdown, and arm deltas."""

    scenario: str
    metrics: tuple[str, ...]
    per_example: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    deltas: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "metrics": list(self.metrics),
            "aggregates": self.aggregates,
            "deltas": self.deltas,
            "metadata": self.metadata,
            "per_example": self.per_example,
        }


def score_records(
    records: Sequence[EvalRecord],
    metrics: Sequence[str] = ALL_METRICS,
    vocab: Vocabulary | None = None,
    scenario: str = "",
) -> ScoreReport:
    """Score every record and aggregate per arm (arithmetic means)."""
    report = ScoreReport(
        scenario=scenario,
        metrics=tuple(metrics),
        metadata={
            "es_reference_policy": "max",
            "exact_match_normalization": "ascii-whitespace-trim",
            "fuzzy_n": FUZZY_N,
        },
    )
    by_arm: dict[str, dict[str, list[float]]] = {}
    for record in records:
        scores = score_record(record, metrics, vocab)
        report.per_example.append(
            {"example_id": record.example_id, "arm": record.arm, **scores}
        )
        arm_scores = by_arm.setdefault(record.arm, {m: [] for m in metrics})
        for m, v in scores.items():
            arm_scores[m].append(v)
    for arm, columns in by_arm.items():
        report.aggregates[arm] = {m: float(np.mean(vals)) for m, vals in columns.items()}
    if "aligned" in report.aggregates and "unaligned" in report.aggregates:
        report.deltas = {
            m: report.aggregates["aligned"][m] - report.aggregates["unaligned"][m]
            for m in metrics
        }
    return report


def write_report_csv(report: ScoreReport, path: str) -> None:
    """Flat (scenario, arm, metric, value) table: UTF-8, fields quoted as ``csv`` does."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario", "arm", "metric", "value"])
        for arm in sorted(report.aggregates):
            for metric in report.metrics:
                value = report.aggregates[arm][metric]
                writer.writerow([report.scenario, arm, metric, f"{value:.6f}"])
