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


def test_setup_parts_are_medians_per_run_then_quartiles_per_arm():
    def result(builds):
        parts = [dict(zip(bench_pairs.SETUP_PARTS, values)) for values in builds]
        # the benchmark stores the whole build's times beside the parts
        for build in parts:
            build.update(setup_s=1.0, setup_s_scaled=2.0)
        return {"record": {"setup_parts_s": parts}}

    runs = {
        "parent": [result([(0.5, 0.1 * k, 0.0, 0.2), (0.7, 0.3, 0.0, 0.2), (0.6, 0.2, 0.0, 0.2)])
                   for k in range(5)],
        "change": [result([(0.6, 0.05, 0.0, 0.2)]) for _ in range(5)],
    }
    parts = bench_pairs.summarise_setup_parts(runs)
    assert set(parts) == {"vocab_s", "trie_s", "cache_s", "provider_s"}
    assert parts["vocab_s"]["parent"]["median"] == pytest.approx(0.6)
    # per-run trie medians 0.2, 0.2, 0.2, 0.3, 0.3 (k = 0..4)
    assert parts["trie_s"]["parent"] == pytest.approx(
        {"median": 0.2, "q1": 0.2, "q3": 0.3, "iqr": 0.1}
    )
    assert parts["trie_s"]["change"]["median"] == pytest.approx(0.05)
    assert parts["trie_s"]["change"]["iqr"] == 0.0


def test_gate_lines_show_each_metric_and_the_claim():
    seeds = list(range(10))
    parent = [1.0 + 0.01 * k for k in range(10)]
    summary = {"end_to_end": {
        "req_ms_p50": bench_pairs.summarise_metric(
            LOWER, seeds, runs("req_ms_p50", parent, [v - 0.2 for v in parent])),
        "tok_per_s": bench_pairs.summarise_metric(
            HIGHER, seeds, runs("tok_per_s", parent, [v * 0.8 for v in parent])),
    }}
    lines = bench_pairs.gate_lines("w", summary)
    assert len(lines) == 2
    assert lines[0].startswith("w req_ms_p50: parent 1.045 change 0.845 ms, change_rel -19.14%")
    assert "wins 10 losses 0, within_bound True (bound 15%)" in lines[0]
    # 20% fewer tokens per second breaches the 15% bound
    assert "change_rel -20.00%, wins 0 losses 10, within_bound False" in lines[1]
    entry = summary["end_to_end"]["req_ms_p50"]
    claim = bench_pairs.judge_claim("w", "req_ms_p50", entry)
    assert bench_pairs.claim_line(claim, entry) == (
        "claim w/req_ms_p50: met (wins 10 of 10, median gap 0.2 vs parent IQR 0.045)"
    )
    entry = summary["end_to_end"]["tok_per_s"]
    claim = bench_pairs.judge_claim("w", "tok_per_s", entry)
    assert bench_pairs.claim_line(claim, entry).startswith("claim w/tok_per_s: NOT met (wins 0 of 10")


def test_setup_part_lines_show_both_medians_and_change_rel():
    def arms(parent, change):
        return {"parent": {"median": parent}, "change": {"median": change}}

    summary = {"setup_parts_s": {"vocab_s": arms(0.006, 0.0045), "trie_s": arms(0.0004, 0.0004),
                                 "cache_s": arms(0.0, 0.0), "provider_s": arms(0.003, 0.0027)}}
    assert bench_pairs.setup_part_lines("w", summary) == [
        "w setup part vocab_s: parent 0.006 change 0.0045 s, change_rel -25.00%",
        "w setup part trie_s: parent 0.0004 change 0.0004 s, change_rel +0.00%",
        "w setup part cache_s: parent 0 change 0 s, change_rel n/a",
        "w setup part provider_s: parent 0.003 change 0.0027 s, change_rel -10.00%",
    ]


def test_digest_line_counts_equal_pairs_per_arm():
    def result(aligned, plain):
        return {"record": {"digests": {"aligned": aligned, "plain": plain}}}

    runs = {
        "parent": [result("a", "p"), result("a", "p"), result("a", "p")],
        "change": [result("a", "p"), result("x", "p"), result("y", "p")],
    }
    assert bench_pairs.digest_line("w", runs) == (
        "w digests equal to parent: aligned 1 of 3, plain 3 of 3"
    )
