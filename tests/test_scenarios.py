import json

import pytest

from tokalign import (
    DatasetError,
    SCENARIOS,
    fixtures,
    generate_dataset,
    validate_example,
)
from tokalign.scenarios import (
    ScenarioExample,
    _make_example,
    eligible_positions,
    load_corpus,
    read_dataset,
    write_dataset,
)


def assert_valid(ex):
    problems = validate_example(ex)
    assert not problems, problems


def example_at(scenario, source, offset, source_id=""):
    """The example cut at ``offset``, which must be an eligible position."""
    assert offset in eligible_positions(scenario, source)
    return _make_example(scenario, source, source_id, offset)


def draws(corpus, scenario, seed, per_doc):
    """Up to ``per_doc`` distinct cuts from every document that has a cut point."""
    return generate_dataset(corpus, scenario, seed, per_doc)[0]


def assert_no_cut_point(scenario, source):
    assert eligible_positions(scenario, source) == []
    with pytest.raises(DatasetError, match="0 eligible"):
        generate_dataset([("doc", source)], scenario, seed=0)


class TestSubword:
    def test_cut_inside_range(self):
        source = b"for i in range(len(l)):"
        offset = source.index(b"range") + 4  # after "rang"
        ex = example_at("subword", source, offset)
        assert ex.prompt.endswith(b"for i in rang")
        assert ex.baseline_prompt == b"for i in"
        assert ex.ground_truth == b"e(len(l)):"
        assert_valid(ex)

    def test_minimal_word(self):
        ex = example_at("subword", b"ab", 1)
        assert ex.prompt == b"a"
        assert ex.baseline_prompt == b""
        assert_valid(ex)

    def test_random_cuts_validate(self, code_corpus):
        for ex in draws(code_corpus, "subword", seed=13, per_doc=10):
            assert ex.prompt[-1:].isalnum() or ex.prompt[-1:] == b"_"
            assert_valid(ex)

    def test_no_eligible_word(self):
        assert_no_cut_point("subword", b"a b c !")


class TestPunctuation:
    def test_brace_run(self):
        source = b"x = {};"
        for offset in (source.index(b"{") + 1, source.index(b"{") + 2):
            ex = example_at("punctuation", source, offset)
            assert ex.prompt.endswith(b"{") or ex.prompt.endswith(b"{}")
            assert_valid(ex)

    def test_double_equals(self):
        source = b"if x==1:"
        ex = example_at("punctuation", source, source.index(b"==") + 1)
        assert ex.prompt == b"if x="
        assert ex.baseline_prompt == b"if x"
        assert_valid(ex)

    def test_no_adjacent_punctuation(self):
        assert_no_cut_point("punctuation", b"plain words only.")

    def test_random_cuts_validate(self, code_corpus):
        for ex in draws(code_corpus, "punctuation", seed=29, per_doc=10):
            assert_valid(ex)


class TestSpacePrefixSep:
    def test_mid_line_separator(self):
        source = b"\n    return value"
        ex = example_at("prefix_sep", source, source.index(b"value"))
        assert ex.prompt.endswith(b"return ")
        assert ex.baseline_prompt.endswith(b"return")
        assert_valid(ex)

    def test_single_line(self):
        ex = example_at("prefix_sep", b"a b", 2)
        assert ex.prompt == b"a "
        assert_valid(ex)

    def test_indentation_never_eligible(self):
        #  the only spaces are line-leading: no cut position exists
        assert_no_cut_point("prefix_sep", b"\n    value\n        other")

    def test_random_cuts_validate(self, code_corpus):
        for ex in draws(code_corpus, "prefix_sep", seed=37, per_doc=6):
            line = ex.prompt[ex.prompt.rfind(b"\n") + 1 :]
            assert line.strip()  # final line never all-whitespace
            assert_valid(ex)


class TestSpacePrefixIndent:
    def test_four_space_indent(self):
        source = b"\n    return value"
        ex = example_at("prefix_indent", source, 5)
        assert ex.prompt == b"\n    "
        assert ex.ground_truth == b"return value"
        assert_valid(ex)

    def test_tab_indent(self):
        source = b"x\n\treturn"
        ex = example_at("prefix_indent", source, 3)
        assert ex.prompt == b"x\n\t"
        assert_valid(ex)

    def test_blank_line_not_eligible(self):
        assert eligible_positions("prefix_indent", b"a\n    \n") == []

    def test_random_cuts_validate(self, code_corpus):
        for ex in draws(code_corpus, "prefix_indent", seed=41, per_doc=6):
            next_byte = ex.ground_truth[:1]
            assert next_byte not in (b" ", b"\n", b"\t")
            assert_valid(ex)


class TestContiguousSpace:
    def test_cut_inside_indent_run(self):
        source = b"  if True:\n    pass"
        positions = eligible_positions("contiguous_space", source)
        assert source.index(b"if") - 1 in positions
        ex = example_at("contiguous_space", source, 1)
        assert ex.prompt == b" "
        assert_valid(ex)

    def test_double_newline(self):
        ex = example_at("contiguous_space", b"a\n\nb", 2)
        assert ex.prompt == b"a\n"
        assert ex.ground_truth == b"\nb"
        assert_valid(ex)

    def test_random_cuts_validate(self, code_corpus):
        ws = (b" ", b"\n", b"\t")
        for ex in draws(code_corpus, "contiguous_space", seed=43, per_doc=6):
            assert ex.prompt[-1:] in ws and ex.ground_truth[:1] in ws
            assert_valid(ex)


class TestReconstruction:
    def test_prompt_plus_truth_is_source(self, code_corpus):
        texts = dict(code_corpus[:10])
        for scenario in SCENARIOS:
            for ex in draws(code_corpus[:10], scenario, seed=47, per_doc=1):
                assert ex.prompt + ex.ground_truth == texts[ex.source_id]
                assert ex.cut_offset == len(ex.prompt)


class TestGenerateDataset:
    def test_deterministic_files(self, tmp_path, code_corpus):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            examples, stats = generate_dataset(code_corpus, "subword", seed=7)
            path = tmp_path / name
            write_dataset(str(path), examples, stats)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (tmp_path / "a.jsonl.stats.json").read_bytes() == (
            tmp_path / "b.jsonl.stats.json"
        ).read_bytes()

    def test_bundled_corpus_subword_dataset(self, code_corpus):
        examples, stats = generate_dataset(code_corpus, "subword", seed=7, per_doc=1)
        assert stats["emitted"] == 50
        assert stats["skipped"] == 0
        for ex in examples:
            assert_valid(ex)

    def test_prose_has_no_punctuation_runs(self):
        prose = fixtures.build_prose_corpus()
        with pytest.raises(DatasetError, match="0 eligible"):
            generate_dataset(prose, "punctuation", seed=1)

    def test_per_doc_multiple_distinct(self, code_corpus):
        examples, _ = generate_dataset(code_corpus[:3], "subword", seed=5, per_doc=4)
        by_doc = {}
        for ex in examples:
            by_doc.setdefault(ex.source_id, []).append(ex.cut_offset)
        for offsets in by_doc.values():
            assert len(offsets) == len(set(offsets)) == 4

    def test_round_trip_jsonl(self, tmp_path, code_corpus):
        examples, stats = generate_dataset(code_corpus, "prefix_indent", seed=3)
        path = tmp_path / "d.jsonl"
        write_dataset(str(path), examples, stats)
        back = read_dataset(str(path))
        assert back == examples

    def test_non_utf8_source_survives_jsonl(self, tmp_path):
        source = b"alpha \xff\xfebeta gamma"
        [ex] = draws([("raw", source)], "subword", seed=0, per_doc=1)
        path = tmp_path / "raw.jsonl"
        write_dataset(str(path), [ex])
        assert read_dataset(str(path))[0] == ex


class TestCorpusLoading:
    def test_jsonl_corpus(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "d1", "text": "hello world"}) + "\n")
        docs = load_corpus(str(path))
        assert docs == [("d1", b"hello world")]

    def test_directory_corpus(self, tmp_path):
        (tmp_path / "one.txt").write_bytes(b"alpha")
        (tmp_path / "two.txt").write_bytes(b"beta")
        docs = load_corpus(str(tmp_path))
        assert docs == [("one.txt", b"alpha"), ("two.txt", b"beta")]

    def test_bundled_files_match_builders(self, tmp_path):
        fixtures.write_bundled_data(str(tmp_path))
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted([
            fixtures.CODE_CORPUS_FILE, fixtures.PROSE_CORPUS_FILE,
            fixtures.DEMO_VOCAB_FILE, fixtures.DEMO_TABLE_FILE,
        ])
        for name in written:
            with open(fixtures.data_path(name), "rb") as fh:
                assert (tmp_path / name).read_bytes() == fh.read(), name


class TestValidators:
    def test_validator_flags_bad_examples(self):
        good = example_at("subword", b"hello world", 3)
        tampered = ScenarioExample(
            scenario=good.scenario,
            source_id=good.source_id,
            prompt=good.prompt + b" ",
            baseline_prompt=good.baseline_prompt,
            ground_truth=good.ground_truth,
            cut_offset=good.cut_offset,
        )
        assert validate_example(tampered)
        # (scenario, prompt, baseline, ground truth, the problem it must name)
        cases = [
            ("subword", b"", b"", b"a", "prompt is empty"),
            ("subword", b"a", b"", b"", "ground truth is empty"),
            ("subword", b"a ", b"", b"b", "not strictly inside a word"),
            ("punctuation", b"a=", b"a", b"b", "not strictly inside a punctuation run"),
            ("prefix_sep", b"a", b"", b"b", "does not end with a separator space"),
            ("prefix_sep", b"x\n  ", b"x", b"y", "line-leading indentation"),
            ("prefix_sep", b"x\n  ", b"x", b"y", "final line of the prompt is all whitespace"),
            ("prefix_indent", b"a\n  ", b"a", b" b", "byte after the cut is whitespace"),
            ("prefix_indent", b"a b", b"a", b"c", "does not end with newline plus indentation"),
            ("contiguous_space", b"a ", b"a", b"b", "not strictly inside a whitespace run"),
            ("mystery", b"ab", b"", b"c", "unknown scenario 'mystery'"),
            ("subword", b"ab", b"ab", b"c", "baseline is not a strict prefix"),
            ("subword", b"x ab", b"x ", b"c", "baseline ends with untrimmed whitespace"),
            ("subword", b"abc", b"a", b"d", "baseline ends inside a word"),
        ]
        for scenario, prompt, baseline, truth, problem in cases:
            ex = ScenarioExample(scenario, "x", prompt, baseline, truth, len(prompt))
            assert any(problem in p for p in validate_example(ex)), (prompt, problem)
        shifted = ScenarioExample("subword", "x", b"ab", b"", b"c", 1)
        assert validate_example(shifted) == ["cut_offset does not equal the prompt length"]

    def test_every_scenario_has_finder(self, code_corpus):
        _, text = code_corpus[0]
        for scenario in SCENARIOS:
            assert isinstance(eligible_positions(scenario, text), list)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            eligible_positions("mystery", b"abc")
