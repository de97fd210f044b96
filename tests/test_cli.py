import base64
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tokalign import (
    AlignConfig,
    EvalRecord,
    MaskCache,
    SamplerConfig,
    ScenarioExample,
    Vocabulary,
    aligned_generate,
    build_ngram_model,
    build_trie,
    fixtures,
    generate,
    load_vocabulary,
    read_eval_records,
    save_vocabulary,
    scenarios,
    write_eval_records,
)
from tokalign import bench as bench_mod
from tokalign.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def drop_first_prefix_byte(split):
    context, prefix = split
    return context, prefix[1:]


@pytest.fixture(scope="module")
def demo_paths():
    return {
        "vocab": fixtures.data_path(fixtures.DEMO_VOCAB_FILE),
        "table": fixtures.data_path(fixtures.DEMO_TABLE_FILE),
    }


@pytest.fixture()
def demo_prompt_file(tmp_path):
    path = tmp_path / "prompts.jsonl"
    record = {"id": "demo", "prompt_b64": base64.b64encode(fixtures.DEMO_PROMPT).decode()}
    path.write_text(json.dumps(record) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def subword_dataset(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("dataset") / "subword.jsonl")
    corpus = scenarios.load_corpus(fixtures.resolve_bundled("bundled:code"))
    examples, stats = scenarios.generate_dataset(corpus, "subword", 0, 1)
    scenarios.write_dataset(path, examples, stats)
    return path


def read_results(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestAlign:
    def test_demo_fixture_both_arms(self, capsys, tmp_path, demo_paths, demo_prompt_file):
        out_aligned = tmp_path / "aligned.jsonl"
        code, _, _ = run(
            capsys, "align", "--vocab", demo_paths["vocab"],
            "--provider", f"scripted:{demo_paths['table']}",
            "--prompt-file", demo_prompt_file,
            "--max-new-tokens", "6", "--out", str(out_aligned),
        )
        assert code == 0
        result = read_results(out_aligned)[0]
        output = base64.b64decode(result["output_b64"])
        assert output.startswith(fixtures.DEMO_PROMPT + b"turn")
        assert result["alignment_steps"] == 1

        out_plain = tmp_path / "plain.jsonl"
        code, _, _ = run(
            capsys, "align", "--vocab", demo_paths["vocab"],
            "--provider", f"scripted:{demo_paths['table']}",
            "--prompt-file", demo_prompt_file,
            "--max-new-tokens", "6", "--no-align", "--out", str(out_plain),
        )
        assert code == 0
        plain = base64.b64decode(read_results(out_plain)[0]["output_b64"])
        assert not plain.startswith(fixtures.DEMO_PROMPT + b"turn")
        assert plain.startswith(fixtures.DEMO_PROMPT + b" = []")

    @pytest.mark.parametrize("command", ["align --no-align", "eval --arm unaligned"])
    def test_plain_arm_alone_builds_no_index(
        self, capsys, monkeypatch, tmp_path, demo_paths, demo_prompt_file, subword_dataset, command
    ):
        import tokalign.cli as cli_module

        def not_reached(vocab):
            raise AssertionError("the plain arm built an index")

        monkeypatch.setattr(cli_module, "build_trie", not_reached)
        provider = ["--vocab", demo_paths["vocab"], "--provider", f"scripted:{demo_paths['table']}"]
        if command.startswith("align"):
            argv = ["align", *provider, "--prompt-file", demo_prompt_file, "--no-align"]
        else:
            argv = ["eval", "--dataset", subword_dataset, *provider, "--arm", "unaligned"]
        code, _, err = run(capsys, *argv, "--max-new-tokens", "2", "--out", str(tmp_path / "o"))
        assert code == 0, err

    def test_backtrack_one_and_three_preserve_prompt(self, capsys, tmp_path, demo_paths, demo_prompt_file):
        for b in ("1", "3"):
            out = tmp_path / f"b{b}.jsonl"
            code, _, _ = run(
                capsys, "align", "--vocab", demo_paths["vocab"],
                "--provider", f"scripted:{demo_paths['table']}",
                "--prompt-file", demo_prompt_file,
                "--backtrack", b, "--max-new-tokens", "4", "--out", str(out),
            )
            assert code == 0
            output = base64.b64decode(read_results(out)[0]["output_b64"])
            assert output.startswith(fixtures.DEMO_PROMPT)

    def test_bundled_resolution(self, capsys, tmp_path, demo_prompt_file):
        out = tmp_path / "r.jsonl"
        code, _, _ = run(
            capsys, "align", "--vocab", "bundled:demo-vocab",
            "--provider", "scripted:bundled:demo-table",
            "--prompt-file", demo_prompt_file, "--max-new-tokens", "2",
            "--out", str(out),
        )
        assert code == 0

    def test_prompts_from_stdin(self, capsys, monkeypatch, tmp_path, demo_paths):
        import io

        record = json.dumps(
            {"id": "s", "prompt_b64": base64.b64encode(fixtures.DEMO_PROMPT).decode()}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(record + "\n"))
        out = tmp_path / "stdin.jsonl"
        code, _, _ = run(
            capsys, "align", "--vocab", demo_paths["vocab"],
            "--provider", f"scripted:{demo_paths['table']}",
            "--max-new-tokens", "2", "--out", str(out),
        )
        assert code == 0
        assert read_results(out)[0]["id"] == "s"

    def test_low_temperature_nucleus_completes(self, capsys, monkeypatch):
        # at T = 0.001 every exp(log(p) / T) of an n-gram row underflows to
        # zero; the row must still be drawn from, not refused as all zero
        prompt = b"def f(x):\n    re"
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"text": prompt.decode()})))
        code, out, err = run(
            capsys, "align", "--vocab", "bundled:demo-vocab",
            "--provider", "ngram:bundled:code", "--mode", "nucleus",
            "--temperature", "0.001", "--max-new-tokens", "4",
        )
        assert code == 0, err
        assert base64.b64decode(json.loads(out)["output_b64"]).startswith(prompt)

    def test_timings_flag_adds_wall_clock_fields(self, capsys, tmp_path, demo_paths, demo_prompt_file):
        out = tmp_path / "t.jsonl"
        code, _, _ = run(
            capsys, "align", "--vocab", demo_paths["vocab"],
            "--provider", f"scripted:{demo_paths['table']}",
            "--prompt-file", demo_prompt_file, "--max-new-tokens", "2",
            "--timings", "--out", str(out),
        )
        assert code == 0
        assert "timings_us" in read_results(out)[0]
        no_timings = tmp_path / "nt.jsonl"
        run(
            capsys, "align", "--vocab", demo_paths["vocab"],
            "--provider", f"scripted:{demo_paths['table']}",
            "--prompt-file", demo_prompt_file, "--max-new-tokens", "2",
            "--out", str(no_timings),
        )
        assert "timings_us" not in read_results(no_timings)[0]

    def test_missing_prompt_file_leaves_out_untouched(self, capsys, tmp_path, demo_paths):
        # the prompt file is opened before --out, so a failed run keeps its bytes
        out = tmp_path / "res.jsonl"
        out.write_bytes(b'{"id": "earlier"}\n')
        code, _, err = run(
            capsys, "align", "--vocab", demo_paths["vocab"],
            "--provider", f"scripted:{demo_paths['table']}",
            "--prompt-file", str(tmp_path / "missing.jsonl"), "--out", str(out),
        )
        assert code == 2
        assert "missing.jsonl" in err
        assert out.read_bytes() == b'{"id": "earlier"}\n'

    @pytest.mark.parametrize("destination", ["out", "stdout"])
    @pytest.mark.parametrize(
        "second_line, exit_code",
        [(b'{"text": "\xff"}\n', 2), (b'{"text": "acd"}\n', 3)],
        ids=["undecodable", "dead-end"],
    )
    def test_failed_later_prompt_writes_nothing(
        self, capsys, tmp_path, second_line, exit_code, destination
    ):
        # the first prompt completes; the second is bad data or a dead end
        vocab = Vocabulary([b"a", b"ac", b"acd", b"cd"])
        save_vocabulary(vocab, str(tmp_path / "v.json"))
        forcing = [0.0] * 4
        forcing[vocab.id_of(b"ac")] = 1.0
        (tmp_path / "t.json").write_text(json.dumps({"rows": [], "default": forcing}))
        prompts = tmp_path / "p.jsonl"
        prompts.write_bytes(b'{"text": "a"}\n' + second_line)
        out = tmp_path / "o.jsonl"
        out.write_bytes(b'{"id": "earlier"}\n')
        argv = ["align", "--vocab", str(tmp_path / "v.json"),
                "--provider", f"scripted:{tmp_path / 't.json'}",
                "--prompt-file", str(prompts), "--backtrack", "1", "--max-new-tokens", "2"]
        if destination == "out":
            argv += ["--out", str(out)]
        code, stdout, err = run(capsys, *argv)
        assert code == exit_code, err
        assert stdout == ""
        assert out.read_bytes() == b'{"id": "earlier"}\n'

    @pytest.mark.parametrize("spelling", ["same", "dot"])
    def test_out_naming_the_prompt_file_is_one(
        self, capsys, tmp_path, demo_paths, demo_prompt_file, spelling
    ):
        # results written over their own prompts would leave no copy of them
        before = (tmp_path / "prompts.jsonl").read_bytes()
        out = demo_prompt_file if spelling == "same" else f"{tmp_path}/./prompts.jsonl"
        code, stdout, err = run(
            capsys, "align", "--vocab", demo_paths["vocab"],
            "--provider", f"scripted:{demo_paths['table']}",
            "--prompt-file", demo_prompt_file, "--out", out,
        )
        assert code == 1
        assert stdout == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "argument --out: " in errors[0]
        assert (tmp_path / "prompts.jsonl").read_bytes() == before

    @pytest.mark.parametrize("stdin", ["out", "other"])
    def test_out_naming_stdin_is_one(self, tmp_path, demo_paths, demo_prompt_file, stdin):
        # stdin needs a file descriptor, so the command runs in its own process
        out = tmp_path / "q.jsonl"
        if stdin == "out":
            out.write_bytes((tmp_path / "prompts.jsonl").read_bytes())
        else:
            out.write_bytes(b'{"id": "earlier"}\n')
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        before = out.read_bytes()
        with open(out if stdin == "out" else demo_prompt_file, "rb") as prompts:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from tokalign.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "align", "--vocab", demo_paths["vocab"],
                 "--provider", f"scripted:{demo_paths['table']}", "--out", str(out)],
                stdin=prompts, capture_output=True, text=True, env=env, timeout=120, check=False,
            )
        if stdin == "other":
            # another file on stdin is read as usual
            assert proc.returncode == 0, proc.stderr
            assert [r["id"] for r in read_results(out)] == ["demo"]
            return
        assert proc.returncode == 1
        assert proc.stdout == ""
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and "argument --out: " in errors[0]
        assert out.read_bytes() == before


def reader_argv(kind, path, demo_paths, demo_prompt_file):
    """A command that reads ``path`` with the reader named by ``kind``."""
    table = f"scripted:{demo_paths['table']}"
    return {
        "prompts": ["align", "--vocab", demo_paths["vocab"], "--provider", table,
                    "--prompt-file", str(path)],
        "table": ["align", "--vocab", demo_paths["vocab"], "--provider", f"scripted:{path}",
                  "--prompt-file", demo_prompt_file],
        "dataset": ["validate", "--dataset", str(path)],
        "records": ["score", "--records", str(path), "--metrics", "em"],
        "corpus": ["align", "--vocab", demo_paths["vocab"], "--provider", f"ngram:{path}",
                   "--prompt-file", demo_prompt_file],
    }[kind]


def valid_reader_doc(kind, demo_paths):
    """One document that the reader named by ``kind`` accepts."""
    def b64(data):
        return base64.b64encode(data).decode("ascii")

    if kind == "table":
        with open(demo_paths["table"]) as fh:
            return json.load(fh)
    return {
        "prompts": {"prompt_b64": b64(b"return")},
        "dataset": dict(VALID_EXAMPLE),
        "records": dict(VALID_RECORD),
        "corpus": {"text_b64": b64(b"return x\n")},
    }[kind]


VALID_EXAMPLE = ScenarioExample("subword", "s", b"retu", b"retu", b"rn x", 4).to_json_dict()
VALID_RECORD = EvalRecord("e", b"return", [b"return"], "aligned").to_json_dict()
# a one-hot demo-table row written with true and false; as numbers it would load
BOOLEAN_ROW = [True] + [False] * (len(fixtures.build_demo_vocabulary()) - 1)


def assert_one_error_line(capsys, argv, path):
    code, _, err = run(capsys, *argv)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tokalign: error: ")
    assert str(path) in lines[0]


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        code = main(["align"])  # missing --vocab
        capsys.readouterr()
        assert code == 1

    def test_data_error_is_two(self, capsys, tmp_path, demo_prompt_file):
        missing = str(tmp_path / "nope.json")
        code, _, err = run(
            capsys, "align", "--vocab", missing, "--provider", "scripted:x.json",
            "--prompt-file", demo_prompt_file,
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("value", ["\\x", "\\x4", "\\u20ac", "\\N{NO SUCH NAME}"])
    @pytest.mark.parametrize("command", ["align", "eval", "vocab train"])
    def test_bad_escape_in_flag_is_one(
        self, capsys, tmp_path, demo_paths, demo_prompt_file, command, value
    ):
        # a malformed escape, or one past \xff, is a bad flag value, not bad data
        provider = ["--vocab", demo_paths["vocab"], "--provider", f"scripted:{demo_paths['table']}"]
        if command == "align":
            argv = ["align", *provider, "--prompt-file", demo_prompt_file, "--stop", value]
        elif command == "eval":
            dataset = str(tmp_path / "subword.jsonl")
            run(capsys, "gen-dataset", "--corpus", "bundled:code", "--scenario", "subword",
                "--out", dataset)
            argv = ["eval", "--dataset", dataset, *provider, "--stop", value]
        else:
            argv = ["vocab", "train", "--corpus", "bundled:code", "--target-size", "300",
                    "--out", str(tmp_path / "v.json"), "--special", value]
        flag = argv[-2]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: bad escape" in errors[0]

    @pytest.mark.parametrize(
        "command, values",
        [
            (command, values)
            for command in ("align", "eval")
            for values in (
                ["--backtrack", "0"],
                ["--max-new-tokens", "-1"],
                ["--mode", "nucleus", "--top-p", "1.5"],
                ["--mode", "nucleus", "--temperature", "0"],
                ["--top-p", "abc"],
            )
        ] + [
            ("bench", ["--backtrack", "0"]),
            ("bench", ["--train-size", "100"]),
            ("vocab train", ["--target-size", "100"]),
        ] + [
            (command, ["--seed", "-1"]) for command in ("align", "eval", "gen-dataset")
        ] + [
            ("gen-dataset", ["--per-doc", "0"]),
            ("align", ["--provider", "ngram:bundled:code", "--ngram-order", "0"]),
            ("eval", ["--provider", "ngram:bundled:code", "--ngram-alpha", "-1"]),
            ("bench", ["--ngram-order", "0"]),
            ("bench", ["--ngram-alpha", "-1"]),
            ("bench", ["--prompts", "0"]),
            ("bench", ["--queries", "0"]),
            ("bench", ["--naive-queries", "0"]),
            ("bench", ["--warmup", "-5"]),
            ("bench", ["--vocab-size", "100"]),
            ("eval", ["--metrics", "bogus"]),
            ("bench", ["--seed", "-1"]),
        ] + [
            (command, ["--mode", "nucleus", "--temperature", value])
            for command in ("align", "eval")
            for value in ("nan", "inf")
        ] + [
            ("vocab train", ["--target-size", "300", "--special", ""]),
            ("eval", ["--metrics", "em,em"]),
            ("vocab train", ["--target-size", "300", "--special", "<a>", "--special", "<a>"]),
        ],
    )
    def test_flag_value_out_of_range_is_one(
        self, capsys, tmp_path, demo_paths, demo_prompt_file, subword_dataset, command, values
    ):
        # the range rules of the configs and of the library functions that
        # take the values reject these as usage errors, naming the flag
        provider = ["--vocab", demo_paths["vocab"], "--provider", f"scripted:{demo_paths['table']}"]
        flag = values[-2]
        if command == "align":
            argv = ["align", *provider, "--prompt-file", demo_prompt_file]
        elif command == "eval":
            argv = ["eval", "--dataset", subword_dataset, *provider]
        elif command == "gen-dataset":
            argv = ["gen-dataset", "--corpus", "bundled:code", "--scenario", "all",
                    "--out-dir", str(tmp_path)]
        elif command == "bench" and flag in ("--queries", "--naive-queries", "--warmup",
                                              "--vocab-size", "--seed"):
            argv = ["bench", "--skip-steps", "--vocab-size", "300"]
        elif command == "bench":
            argv = ["bench", "--skip-lookup"]
        else:
            argv = ["vocab", "train", "--corpus", "bundled:code", "--out", str(tmp_path / "v.json")]
        code, out, err = run(capsys, *argv, *values)
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: " in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("align", ["--ngram-order", "0"]),
            ("align", ["--ngram-alpha", "-1"]),
            ("eval", ["--ngram-order", "0"]),
            ("eval", ["--ngram-alpha", "-1"]),
            ("vocab train", ["--target-size", "100"]),
            ("align", ["--temperature", "nan", "--mode", "nucleus"]),
            ("vocab train", ["--special", "", "--target-size", "300"]),
            ("vocab train", ["--special", "<a>", "--special", "<a>", "--target-size", "300"]),
        ],
        ids=["align-order", "align-alpha", "eval-order", "eval-alpha", "vocab-train-size",
             "align-temperature", "vocab-train-special", "vocab-train-repeated-special"],
    )
    def test_bad_value_fails_before_any_file_is_read(self, capsys, monkeypatch, command, flags):
        import tokalign.cli as cli_module

        def not_reached(*args, **kwargs):
            raise AssertionError(f"{command} read a file before {flags[0]} was checked")

        for name in ("load_corpus", "read_dataset", "read_text_docs"):
            monkeypatch.setattr(cli_module.scenarios, name, not_reached)
        monkeypatch.setattr(cli_module, "load_vocabulary", not_reached)
        argv = {
            "align": ["align", "--vocab", "v.json", "--provider", "ngram:c.jsonl"],
            "eval": ["eval", "--dataset", "d.jsonl", "--vocab", "v.json",
                     "--provider", "ngram:c.jsonl"],
            "vocab train": ["vocab", "train", "--corpus", "c.jsonl", "--out", "v.json"],
        }[command]
        code, out, err = run(capsys, *argv, *flags)
        assert code == 1
        assert out == ""
        assert f"argument {flags[0]}: " in err

    def test_escapes_in_flags_still_parse(self, capsys, tmp_path, demo_paths, demo_prompt_file):
        path = tmp_path / "v.json"
        code, _, _ = run(
            capsys, "vocab", "train", "--corpus", "bundled:code", "--target-size", "300",
            "--out", str(path), "--special", "<\\xff\\n>", "--special", "\u20ac",
        )
        assert code == 0
        vocab = load_vocabulary(str(path))
        assert {b"<\xff\n>", "\u20ac".encode()} <= {vocab.tokens[i] for i in vocab.specials}

        out = tmp_path / "aligned.jsonl"
        code, _, _ = run(
            capsys, "align", "--vocab", demo_paths["vocab"],
            "--provider", f"scripted:{demo_paths['table']}", "--prompt-file", demo_prompt_file,
            "--max-new-tokens", "6", "--stop", "\\x75rn", "--out", str(out),
        )
        assert code == 0
        # the aligned continuation starts "turn"; the stop "urn" cuts it after "t"
        assert base64.b64decode(read_results(out)[0]["output_b64"]) == fixtures.DEMO_PROMPT + b"t"

    @pytest.mark.parametrize(
        "kind, content",
        [
            ("prompts", "[1, 2]"),
            ("prompts", '"abc"'),
            ("prompts", '{"text": 5}'),
            ("prompts", '{"prompt_b64": 5}'),
            ("table", '{"rows": ["x"], "default": []}'),
            ("table", '{"rows": 5, "default": []}'),
            ("dataset", "[1]"),
            ("dataset", '"x"'),
            ("records", "[1]"),
            ("records", '{"example_id": "e", "generated_b64": "", "references_b64": 5, '
                        '"arm": "aligned"}'),
            ("corpus", "[1]"),
            ("corpus", '{"text": 5}'),
            # an unknown key, and an id that is neither a string nor an integer
            ("prompts", '{"prompt_b46": "eg==", "text": "w"}'),
            ("prompts", '{"id": {"k": 1}, "text": "y"}'),
            ("corpus", '{"prompt_b46": "eg==", "text": "w"}'),
            ("corpus", '{"id": {"k": 1}, "text": "y"}'),
            # JSON true/false are not integers or probabilities
            pytest.param("dataset", json.dumps({**VALID_EXAMPLE, "cut_offset": True}),
                         id="dataset-boolean cut_offset"),
            pytest.param("records", json.dumps({**VALID_RECORD, "example_id": True}),
                         id="records-boolean example_id"),
            pytest.param("table", json.dumps({"rows": [], "default": BOOLEAN_ROW}),
                         id="table-boolean probabilities"),
        ],
    )
    def test_wrong_shape_json_is_two(
        self, capsys, tmp_path, demo_paths, demo_prompt_file, kind, content
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(content + "\n")
        assert_one_error_line(capsys, reader_argv(kind, bad, demo_paths, demo_prompt_file), bad)

    @pytest.mark.parametrize("command", ["align", "align-stdin", "gen-dataset", "vocab train"])
    def test_undecodable_byte_names_the_file_and_line(
        self, capsys, monkeypatch, tmp_path, demo_paths, command
    ):
        # each line is decoded on its own, so the error names the line it is on
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"text": "x = 1"}\n{"text": "\xff"}\n')
        align = ["align", "--vocab", demo_paths["vocab"],
                 "--provider", f"scripted:{demo_paths['table']}", "--max-new-tokens", "1"]
        argv = {
            "align": [*align, "--prompt-file", str(bad)],
            "align-stdin": align,
            "gen-dataset": ["gen-dataset", "--corpus", str(bad), "--scenario", "subword",
                            "--out", str(tmp_path / "d.jsonl")],
            "vocab train": ["vocab", "train", "--corpus", str(bad), "--target-size", "300",
                            "--out", str(tmp_path / "v.json")],
        }[command]
        if command == "align-stdin":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes())))
        code, _, err = run(capsys, *argv)
        assert code == 2
        name = "<stdin>" if command == "align-stdin" else bad
        assert err.splitlines() == [
            f"tokalign: error: {name}: line 2: 'utf-8' codec can't decode byte 0xff"
            " in position 10: invalid start byte"
        ]

    @pytest.mark.parametrize(
        "kind, field",
        [
            ("prompts", "prompt_b64"),
            ("table", "suffix_b64"),
            ("dataset", "prompt_b64"),
            ("dataset", "baseline_prompt_b64"),
            ("dataset", "ground_truth_b64"),
            ("records", "generated_b64"),
            ("records", "references_b64"),
            ("corpus", "text_b64"),
        ],
    )
    def test_corrupt_base64_is_two(
        self, capsys, tmp_path, demo_paths, demo_prompt_file, kind, field
    ):
        # a lenient decoder drops the "!" and reads the rest as valid data
        def corrupt(value):
            return value[:4] + "!" + value[4:]

        doc = valid_reader_doc(kind, demo_paths)
        if kind == "table":
            doc["rows"][0][field] = corrupt(doc["rows"][0][field])
        elif field == "references_b64":
            doc[field] = [corrupt(doc[field][0])]
        else:
            doc[field] = corrupt(doc[field])
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(doc) + "\n")
        assert_one_error_line(capsys, reader_argv(kind, bad, demo_paths, demo_prompt_file), bad)

    def test_dead_end_is_three(self, capsys, tmp_path):
        vocab = Vocabulary([b"a", b"ac", b"acd", b"cd"])
        vocab_path = tmp_path / "v.json"
        save_vocabulary(vocab, str(vocab_path))
        forcing = [0.0] * 4
        forcing[vocab.id_of(b"ac")] = 1.0
        table_path = tmp_path / "t.json"
        table_path.write_text(json.dumps({"rows": [], "default": forcing}))
        prompts = tmp_path / "p.jsonl"
        prompts.write_text(json.dumps({"id": "x", "text": "acd"}) + "\n")
        code, _, err = run(
            capsys, "align", "--vocab", str(vocab_path),
            "--provider", f"scripted:{table_path}",
            "--prompt-file", str(prompts), "--backtrack", "1",
            "--out", str(tmp_path / "o.jsonl"),
        )
        assert code == 3
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("tokalign: ")
        assert "dead end" in lines[0]

    @pytest.mark.parametrize(
        "target, broken, message",
        [
            # the context keeps growing but the prefix never shrinks
            ("advance", lambda real: lambda prefix, chosen, vocab: prefix, "exceeded"),
            # the prefix loses its first byte, so the prompt is never reproduced
            ("backtrack_split", lambda real: lambda *args: drop_first_prefix_byte(real(*args)),
             "lost prompt"),
        ],
        ids=["stuck", "forgetful"],
    )
    def test_alignment_error_is_three(
        self, capsys, monkeypatch, tmp_path, demo_paths, demo_prompt_file,
        target, broken, message,
    ):
        import tokalign.align as align_module

        monkeypatch.setattr(align_module, target, broken(getattr(align_module, target)))
        code, _, err = run(
            capsys, "align", "--vocab", demo_paths["vocab"],
            "--provider", f"scripted:{demo_paths['table']}",
            "--prompt-file", demo_prompt_file, "--max-new-tokens", "2",
            "--out", str(tmp_path / "o.jsonl"),
        )
        assert code == 3
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("tokalign: ")
        assert message in lines[0]


class TestLoadProvider:
    def test_missing_provider_is_two(self, capsys, tmp_path):
        # a usage error before any file is read: the vocabulary here does not exist
        code, out, err = run(capsys, "align", "--vocab", str(tmp_path / "missing.json"))
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            "tokalign align: error: the following arguments are required: --provider"
        ]

    def test_unknown_provider_spec_is_two(self, capsys, demo_paths, demo_prompt_file):
        code, out, err = run(
            capsys, "align", "--vocab", demo_paths["vocab"], "--provider", "markov:x.json",
            "--prompt-file", demo_prompt_file,
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["tokalign: error: unknown provider spec 'markov:x.json'"]

    def test_ngram_over_a_plain_corpus_file(self, capsys, tmp_path, demo_paths):
        # a corpus path without .jsonl is read whole, as one document
        text = b"def total(items):\n    return sum(items)\n\nreturn total\n"
        corpus = tmp_path / "corpus.py"
        corpus.write_bytes(text)
        prompt = b"    return sum(it"
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text(json.dumps({"prompt_b64": base64.b64encode(prompt).decode()}) + "\n")
        out = tmp_path / "aligned.jsonl"
        code, _, _ = run(
            capsys, "align", "--vocab", demo_paths["vocab"], "--provider", f"ngram:{corpus}",
            "--prompt-file", str(prompts), "--max-new-tokens", "6", "--out", str(out),
        )
        assert code == 0
        vocab = load_vocabulary(demo_paths["vocab"])
        trie = build_trie(vocab)
        want = aligned_generate(
            build_ngram_model([text], vocab, 3, 0.1), vocab, trie, MaskCache(trie),
            prompt, AlignConfig(), SamplerConfig(max_new_tokens=6),
        )
        assert want.output == b"    return sum(items)\n\n"
        assert base64.b64decode(read_results(out)[0]["output_b64"]) == want.output

    def test_ngram_over_a_corpus_directory(self, capsys, tmp_path, demo_paths):
        # the rule of vocab train --corpus: each file of a directory is one document
        texts = [b"def total(items):\n    return sum(items)\n", b"\nreturn total\n"]
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, text in zip(["a.py", "b.txt"], texts):
            (corpus / name).write_bytes(text)
        prompt = b"    return sum(it"
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text(json.dumps({"prompt_b64": base64.b64encode(prompt).decode()}) + "\n")
        out = tmp_path / "aligned.jsonl"
        code, _, _ = run(
            capsys, "align", "--vocab", demo_paths["vocab"], "--provider", f"ngram:{corpus}",
            "--prompt-file", str(prompts), "--max-new-tokens", "6", "--out", str(out),
        )
        assert code == 0
        vocab = load_vocabulary(demo_paths["vocab"])
        trie = build_trie(vocab)
        want = aligned_generate(
            build_ngram_model(texts, vocab, 3, 0.1), vocab, trie, MaskCache(trie),
            prompt, AlignConfig(), SamplerConfig(max_new_tokens=6),
        )
        assert base64.b64decode(read_results(out)[0]["output_b64"]) == want.output


class TestGenDataset:
    def test_raw_corpus_file_is_one_document(self, capsys, tmp_path):
        # the rule of --provider ngram:<file>: a file not named .jsonl is read whole
        text = b"def total(items):\n    return sum(items)\n"
        corpus = tmp_path / "code.py"
        corpus.write_bytes(text)
        out = tmp_path / "s.jsonl"
        code, _, _ = run(capsys, "gen-dataset", "--corpus", str(corpus), "--scenario", "subword",
                         "--seed", "7", "--out", str(out))
        assert code == 0
        want, _ = scenarios.generate_dataset([("code.py", text)], "subword", 7, 1)
        assert want
        assert scenarios.read_dataset(str(out)) == want

    def test_deterministic_across_runs(self, capsys, tmp_path):
        for sub in ("r1", "r2"):
            d = tmp_path / sub
            d.mkdir()
            code, _, _ = run(
                capsys, "gen-dataset", "--corpus", "bundled:code",
                "--scenario", "subword", "--seed", "7",
                "--out", str(d / "s.jsonl"),
            )
            assert code == 0
        assert (tmp_path / "r1" / "s.jsonl").read_bytes() == (
            tmp_path / "r2" / "s.jsonl"
        ).read_bytes()

    def test_scenario_all_emits_five_plus_stats(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "gen-dataset", "--corpus", "bundled:code",
            "--scenario", "all", "--seed", "3", "--out-dir", str(tmp_path),
        )
        assert code == 0
        files = {p.name for p in tmp_path.iterdir()}
        expected = {
            "subword.jsonl", "punctuation.jsonl", "prefix_sep.jsonl",
            "prefix_indent.jsonl", "contiguous_space.jsonl", "dataset_stats.json",
        }
        assert expected <= files
        stats = json.loads((tmp_path / "dataset_stats.json").read_text())
        assert set(stats) == {
            "subword", "punctuation", "prefix_sep", "prefix_indent", "contiguous_space"
        }

    def test_emitted_files_pass_validation(self, capsys, tmp_path):
        run(
            capsys, "gen-dataset", "--corpus", "bundled:code",
            "--scenario", "all", "--seed", "3", "--out-dir", str(tmp_path),
        )
        for name in ("subword", "punctuation", "prefix_sep", "prefix_indent", "contiguous_space"):
            code, out, _ = run(capsys, "validate", "--dataset", str(tmp_path / f"{name}.jsonl"))
            assert code == 0
            assert "0 invalid" in out
        # one tampered example makes the file invalid, a data error
        examples = scenarios.read_dataset(str(tmp_path / "subword.jsonl"))
        bad = examples[0]
        bad.prompt += b" "
        scenarios.write_dataset(str(tmp_path / "bad.jsonl"), examples)
        code, out, _ = run(capsys, "validate", "--dataset", str(tmp_path / "bad.jsonl"))
        assert code == 2
        assert f"INVALID {bad.source_id}@{bad.cut_offset}: " in out
        assert f"validated {len(examples)} examples, 1 invalid" in out

    def test_scenario_all_writes_nothing_when_one_scenario_fails(self, capsys, tmp_path):
        # the prose corpus has subword cuts but no punctuation cut point
        code, out, err = run(
            capsys, "gen-dataset", "--corpus", "bundled:prose",
            "--scenario", "all", "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert "punctuation" in err
        assert list(tmp_path.iterdir()) == []

    def test_out_with_scenario_all_is_one(self, capsys, tmp_path):
        # checked before any file is read: the corpus here does not exist
        code, out, err = run(
            capsys, "gen-dataset", "--corpus", str(tmp_path / "missing.jsonl"),
            "--scenario", "all", "--out", str(tmp_path / "x.jsonl"), "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "argument --out: " in errors[0]
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_beside_out_is_one(self, capsys, tmp_path):
        # checked before any file is read: the corpus and the directory do not exist
        code, out, err = run(
            capsys, "gen-dataset", "--corpus", str(tmp_path / "missing.jsonl"),
            "--scenario", "subword", "--out", str(tmp_path / "s.jsonl"),
            "--out-dir", str(tmp_path / "nodir"),
        )
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "argument --out-dir: " in errors[0]
        assert list(tmp_path.iterdir()) == []


class TestEval:
    @pytest.fixture()
    def dataset(self, capsys, tmp_path):
        run(
            capsys, "gen-dataset", "--corpus", "bundled:code",
            "--scenario", "subword", "--seed", "7",
            "--out", str(tmp_path / "subword.jsonl"),
        )
        vocab_path = tmp_path / "v.json"
        run(
            capsys, "vocab", "train", "--corpus", "bundled:code",
            "--target-size", "512", "--out", str(vocab_path),
        )
        return str(tmp_path / "subword.jsonl"), str(vocab_path)

    def test_both_arms_with_deltas(self, capsys, tmp_path, dataset):
        data, vocab = dataset
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "eval", "--dataset", data, "--vocab", vocab,
            "--provider", "ngram:bundled:code", "--metrics", "fta,em",
            "--max-new-tokens", "12", "--out", str(report_path),
            "--csv", str(csv_path),
        )
        assert code == 0
        assert "aligned" in out and "unaligned" in out and "delta" in out
        report = json.loads(report_path.read_text())
        assert set(report["aggregates"]) == {"aligned", "unaligned"}
        assert set(report["deltas"]) == {"fta", "em"}
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2

    def test_single_arm_matches_both(self, capsys, tmp_path, dataset):
        data, vocab = dataset
        paths = {}
        for arm in ("aligned", "both"):
            path = tmp_path / f"{arm}.json"
            code, _, _ = run(
                capsys, "eval", "--dataset", data, "--vocab", vocab,
                "--provider", "ngram:bundled:code", "--metrics", "fta",
                "--arm", arm, "--max-new-tokens", "12", "--out", str(path),
            )
            assert code == 0
            paths[arm] = json.loads(path.read_text())
        assert (
            paths["aligned"]["aggregates"]["aligned"]
            == paths["both"]["aggregates"]["aligned"]
        )

    def test_metric_restriction(self, capsys, dataset):
        data, vocab = dataset
        code, out, _ = run(
            capsys, "eval", "--dataset", data, "--vocab", vocab,
            "--provider", "ngram:bundled:code", "--metrics", "em,es",
            "--max-new-tokens", "4",
        )
        assert code == 0
        assert "em=" in out and "es=" in out and "fta=" not in out

    def test_vocab_size_mismatch_is_data_error(self, capsys, tmp_path, dataset):
        data, _ = dataset
        other = tmp_path / "tiny.json"
        save_vocabulary(Vocabulary([bytes([i]) for i in range(256)]), str(other))
        table = {"rows": [], "default": [1.0 / 10] * 10}
        table_path = tmp_path / "bad_table.json"
        table_path.write_text(json.dumps(table))
        code, _, err = run(
            capsys, "eval", "--dataset", data, "--vocab", str(other),
            "--provider", f"scripted:{table_path}",
        )
        assert code == 2

    def test_saved_records_rescore_identically(self, capsys, tmp_path, dataset):
        data, vocab = dataset
        records_path = tmp_path / "records.jsonl"
        first = tmp_path / "first.json"
        code, _, _ = run(
            capsys, "eval", "--dataset", data, "--vocab", vocab,
            "--provider", "ngram:bundled:code", "--metrics", "em,es",
            "--max-new-tokens", "8", "--save-records", str(records_path),
            "--out", str(first), "--label", "subword",
        )
        assert code == 0
        second = tmp_path / "second.json"
        code, _, _ = run(
            capsys, "score", "--records", str(records_path), "--metrics", "em,es",
            "--out", str(second), "--label", "subword",
        )
        assert code == 0
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        assert a["aggregates"] == b["aggregates"]

    def test_use_baseline_scores_the_control_arm(
        self, capsys, tmp_path, dataset, trained_vocab, ngram_provider
    ):
        data, vocab = dataset
        records_path = tmp_path / "records.jsonl"
        code, out, _ = run(
            capsys, "eval", "--dataset", data, "--vocab", vocab,
            "--provider", "ngram:bundled:code", "--metrics", "em",
            "--max-new-tokens", "4", "--use-baseline", "--save-records", str(records_path),
        )
        assert code == 0
        assert "subword_baseline    aligned" in out and "subword_baseline      delta" in out
        # an example with an empty baseline prompt is skipped; the rest are
        # generated from the baseline prompt and scored against everything after it
        examples = [ex for ex in scenarios.read_dataset(data) if ex.baseline_prompt]
        records = read_eval_records(str(records_path))
        assert [r.arm for r in records] == ["aligned", "unaligned"] * len(examples)
        cfg = SamplerConfig(max_new_tokens=4)
        for ex, record in zip(examples, records[1::2]):
            assert record.example_id == f"{ex.source_id}@{ex.cut_offset}"
            assert record.references == [ex.source[len(ex.baseline_prompt):]]
            plain = generate(ngram_provider, trained_vocab, ex.baseline_prompt, cfg)
            assert record.generated == plain.output[len(ex.baseline_prompt):]

    @pytest.mark.parametrize("missing", ["--vocab", "--provider"])
    def test_missing_generation_flag_is_one(self, capsys, tmp_path, missing):
        # checked before any file is read: the dataset here does not exist
        given = {"--vocab": "bundled:demo-vocab", "--provider": "scripted:bundled:demo-table"}
        del given[missing]
        code, out, err = run(
            capsys, "eval", "--dataset", str(tmp_path / "missing.jsonl"), *given.popitem(),
        )
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"tokalign eval: error: the following arguments are required: {missing}"]

    def test_repeated_metric_is_a_usage_error(self, capsys, tmp_path):
        # checked before the records are read: the file does not exist
        code, out, err = run(
            capsys, "score", "--records", str(tmp_path / "missing.jsonl"), "--metrics", "em,es,em"
        )
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["tokalign score: error: argument --metrics: metric 'em' is listed twice"]

    def test_internal_key_error_is_not_a_data_error(self, monkeypatch, tmp_path):
        # every reader checks its fields, so a KeyError out of a command is a bug
        import tokalign.cli as cli_module

        def broken(path):
            raise KeyError("x")

        monkeypatch.setattr(cli_module.scenarios, "read_dataset", broken)
        with pytest.raises(KeyError):
            main(["validate", "--dataset", str(tmp_path / "d.jsonl")])

    def test_records_scored_for_fta_need_vocab(self, capsys, tmp_path):
        # the default metrics include fta; checked before the records are read
        code, out, err = run(capsys, "score", "--records", str(tmp_path / "missing.jsonl"))
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            "tokalign score: error: argument --vocab: required to score fta;"
            " or leave fta out of --metrics"
        ]

    @pytest.mark.parametrize(
        "job, flag",
        [
            pytest.param("validate", flag, id=f"validate {flag[0]}")
            for flag in (["--vocab", "v.json"], ["--provider", "scripted:t.json"],
                         ["--metrics", "em"], ["--out", "r.json"], ["--csv", "r.csv"],
                         ["--save-records", "s.jsonl"], ["--label", "x"],
                         ["--records", "r.jsonl"], ["--mode", "nucleus"])
        ] + [
            pytest.param("score", flag, id=f"score {flag[0]}")
            for flag in (["--provider", "scripted:t.json"], ["--save-records", "s.jsonl"],
                         ["--arm", "aligned"], ["--use-baseline"], ["--backtrack", "2"],
                         ["--seed", "1"])
        ],
    )
    def test_each_job_rejects_other_jobs_flags(self, capsys, tmp_path, monkeypatch, job, flag):
        # a flag the job would not read is a usage error before any file is
        # read or written: the input here does not exist
        monkeypatch.chdir(tmp_path)
        source = "--dataset" if job == "validate" else "--records"
        code, out, err = run(capsys, job, source, "missing.jsonl", *flag)
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"unrecognized arguments: {' '.join(flag)}" in errors[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("label", ["a,b", "\u00e9"])
    def test_csv_label_reads_back(self, capsys, tmp_path, label):
        records = tmp_path / "records.jsonl"
        write_eval_records(str(records), [
            EvalRecord("e", b"return", [b"return"], "aligned"),
            EvalRecord("e", b"ret", [b"return"], "unaligned"),
        ])
        table = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "score", "--records", str(records), "--metrics", "em,es",
            "--label", label, "--out", str(tmp_path / "report.json"), "--csv", str(table),
        )
        assert code == 0
        with open(table, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scenario", "arm", "metric", "value"]
        assert [row[:3] for row in rows[1:]] == [
            [label, "aligned", "em"], [label, "aligned", "es"],
            [label, "unaligned", "em"], [label, "unaligned", "es"],
        ]

    def test_dataset_or_records_required(self, capsys):
        for job, source in [("eval", "--dataset"), ("validate", "--dataset"),
                            ("score", "--records")]:
            code, _, err = run(capsys, job)
            assert code == 1
            assert f"the following arguments are required: {source}" in err


def test_readme_commands_parse():
    # a renamed command or flag fails here instead of leaving the README stale
    with open(Path(__file__).resolve().parent.parent / "README.md", encoding="utf-8") as fh:
        blocks = re.findall(r"^```bash\n(.*?)^```", fh.read(), re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("tokalign ") and "..." not in line]
    assert len(commands) >= 8
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: tokalign {' '.join(argv)}")


class TestBench:
    def test_small_run_shape(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        code, stdout, _ = run(
            capsys, "bench", "--vocab-size", "2000", "--queries", "300",
            "--warmup", "50", "--naive-queries", "20", "--prompts", "30",
            "--train-size", "320", "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == stdout.encode("ascii")
        report = json.loads(out.read_text())
        assert report["lookup"]["trie_us"]["p50"] < report["lookup"]["naive_us"]["p50"]
        assert "histogram" in report["alignment_steps"]

    def test_bad_train_size_fails_before_lookup(self, capsys, monkeypatch):
        # the step-statistics vocabulary is trained first, so the usage error
        # comes before the 50k vocabulary is built and its lookups are timed
        def not_reached(*args, **kwargs):
            raise AssertionError("the lookup benchmark ran before --train-size was checked")

        monkeypatch.setattr(bench_mod, "make_synthetic_vocabulary", not_reached)
        monkeypatch.setattr(bench_mod, "bench_lookup", not_reached)
        code, out, err = run(capsys, "bench", "--train-size", "100")
        assert code == 1
        assert out == ""
        assert "argument --train-size: " in err

    def test_bad_seed_fails_before_the_corpus_is_read(self, capsys, monkeypatch):
        import tokalign.cli as cli_module

        def not_reached(*args, **kwargs):
            raise AssertionError("bench read the corpus before --seed was checked")

        monkeypatch.setattr(cli_module.scenarios, "load_corpus", not_reached)
        monkeypatch.setattr(cli_module, "train_tiny_bpe", not_reached)
        code, out, err = run(capsys, "bench", "--skip-lookup", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert "argument --seed: seed must be >= 0, got -1" in err

    @pytest.mark.parametrize("skip_other_part", [False, True])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--prompts", "0"], "argument --prompts: need at least 1 prompt, got 0"),
            (["--queries", "0"], "argument --queries: need at least 1 timed query, got 0"),
            (["--naive-queries", "0"],
             "argument --naive-queries: need at least 1 naive query, got 0"),
            (["--warmup", "-1"], "argument --warmup: warm-up count must be >= 0, got -1"),
            (["--vocab-size", "100"],
             "argument --vocab-size: 100 tokens cannot hold the 256 single bytes"),
            (["--train-size", "100"],
             "argument --train-size: 100 tokens cannot hold the 256 single bytes"),
            (["--ngram-order", "0"], "argument --ngram-order: n-gram order must be >= 1, got 0"),
            (["--ngram-alpha", "-1"],
             "argument --ngram-alpha: smoothing alpha must be finite and >= 0, got -1.0"),
        ],
        ids=["prompts", "queries", "naive-queries", "warmup", "vocab-size", "train-size",
             "ngram-order", "ngram-alpha"],
    )
    def test_bad_count_fails_before_the_corpus_is_read(self, capsys, monkeypatch, flags,
                                                        message, skip_other_part):
        import tokalign.cli as cli_module

        # these belong to the step statistics, the rest to the lookup benchmark
        step_flags = ("--prompts", "--train-size", "--ngram-order", "--ngram-alpha")
        other_part = "--skip-lookup" if flags[0] in step_flags else "--skip-steps"

        def not_reached(*args, **kwargs):
            raise AssertionError(f"bench did work before {flags[0]} was checked")

        monkeypatch.setattr(cli_module.scenarios, "load_corpus", not_reached)
        monkeypatch.setattr(cli_module, "train_tiny_bpe", not_reached)
        monkeypatch.setattr(cli_module, "load_vocabulary", not_reached)
        monkeypatch.setattr(bench_mod, "make_synthetic_vocabulary", not_reached)
        code, out, err = run(capsys, "bench", *flags, *([other_part] if skip_other_part else []))
        assert code == 1
        assert out == ""
        assert message in err

    def test_corpus_too_short_for_prompts_is_two(self, capsys, tmp_path):
        corpus = tmp_path / "short.jsonl"
        corpus.write_text('{"text": "x = 1"}\n{"text": "y = 2"}\n')
        code, out, err = run(
            capsys, "bench", "--skip-lookup", "--corpus", str(corpus), "--train-size", "260",
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"tokalign: error: {corpus}: no document encodes to more than 7 tokens,"
            " the least a boundary prompt needs"
        ]

    def test_skip_flags(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--skip-lookup", "--prompts", "10", "--train-size", "300",
        )
        assert code == 0
        assert "lookup" not in json.loads(out)

    def test_both_skip_flags_are_one(self, capsys):
        # a run that skips both parts would measure nothing
        code, out, err = run(capsys, "bench", "--skip-lookup", "--skip-steps")
        assert code == 1
        assert out == ""
        assert "argument --skip-steps: not allowed with argument --skip-lookup" in err


class TestVocabTools:
    def test_train_then_inspect(self, capsys, tmp_path):
        vocab_path = tmp_path / "v.json"
        code, out, _ = run(
            capsys, "vocab", "train", "--corpus", "bundled:code",
            "--target-size", "300", "--out", str(vocab_path),
        )
        assert code == 0
        assert "trained" in out
        code, out, _ = run(capsys, "vocab", "inspect", "--vocab", str(vocab_path))
        assert code == 0
        assert "covers all single bytes: True" in out

    def test_train_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run(
                capsys, "vocab", "train", "--corpus", "bundled:code",
                "--target-size", "300", "--no-space-prefix", "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
