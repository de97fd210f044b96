"""The pair runner's summary: medians, wins, bounds and the claimed-gain rule."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

LOWER = {"name": "req_ms_p50", "unit": "ms", "better": "lower", "bound": 0.15}
HIGHER = {"name": "tok_per_s", "unit": "tokens/s", "better": "higher", "bound": 0.15}


def runs(name, parent, change):
    def result(value):
        return {"metrics": {name: {"value": value, "unit": "-"}}}

    return {"parent": [result(v) for v in parent], "change": [result(v) for v in change]}


def test_seeds_parse_ranges_and_lists():
    assert bench_pairs.parse_seeds("1401-1404") == [1401, 1402, 1403, 1404]
    assert bench_pairs.parse_seeds("5,7-8") == [5, 7, 8]


def test_wins_follow_the_metric_direction():
    seeds = list(range(10))
    parent = [1.0 + 0.01 * k for k in range(10)]
    change = [v * 0.9 for v in parent[:9]] + [parent[9]]  # one tie
    lower = bench_pairs.summarise_metric(LOWER, seeds, runs("req_ms_p50", parent, change))
    assert (lower["wins"], lower["losses"]) == (9, 0)
    assert lower["change_rel"] == pytest.approx(change[4] / parent[4] - 1.0, rel=0.02)
    assert lower["within_bound"]
    higher = bench_pairs.summarise_metric(HIGHER, seeds, runs("tok_per_s", parent, change))
    assert (higher["wins"], higher["losses"]) == (0, 9)
    assert higher["within_bound"]  # 10% worse, bound 15%


def test_claim_needs_nine_wins_and_a_gap_past_the_parent_iqr():
    seeds = list(range(10))
    parent = [1.0 + 0.01 * k for k in range(10)]
    clear = bench_pairs.summarise_metric(
        LOWER, seeds, runs("req_ms_p50", parent, [v - 0.2 for v in parent])
    )
    assert bench_pairs.judge_claim("w", "req_ms_p50", clear)["met"]
    # every pair won, but by less than the parent's own spread
    narrow = bench_pairs.summarise_metric(
        LOWER, seeds, runs("req_ms_p50", parent, [v - 0.001 for v in parent])
    )
    assert narrow["wins"] == 10
    assert not bench_pairs.judge_claim("w", "req_ms_p50", narrow)["met"]
