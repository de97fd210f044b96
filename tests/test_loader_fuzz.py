"""Corrupt dataset, eval-record and scripted-table files are data errors, never tracebacks.

Each example writes a valid file for one reader and breaks it in one
way: bytes put into it that do not decode (never valid UTF-8, and not
ASCII where the reader wants ASCII), a line cut short, a required field
dropped or given a wrong type, an unknown key added (dataset and
eval-record lines only), bad base64, a line that is not an object, or
JSON nested past the parser's depth.  ``validate`` reads datasets,
``score`` eval records and ``align --provider scripted:`` tables.  Every
run must exit 2 with one ``tokalign: error:`` line on stderr that names
the file, and nothing on stdout; a JSONL file's error must also name the
line that was broken, and for an unknown key the key.
"""

import base64
import json

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from tokalign import EvalRecord, fixtures, generate_dataset
from tokalign.cli import main

PINNED = settings(
    max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# wrong-typed values per field kind; every one is rejected
WRONG = {
    "str": [5, 1.5, None, True, [1], {"x": 1}],
    "int": ["4", 1.5, None, True, [4]],
    "id": [1.5, None, True, [1], {"x": 1}],
    "list": [5, "x", None, [5], [None]],
    "probs": [5, "x", None, [], ["0.5"], [True], [[0.5]]],
}
FIELDS = {
    "dataset": {"scenario": "str", "source_id": "str", "prompt_b64": "str",
                "baseline_prompt_b64": "str", "ground_truth_b64": "str", "cut_offset": "int"},
    "records": {"example_id": "id", "generated_b64": "str", "references_b64": "list",
                "arm": "str"},
}
BASE64_FIELDS = {
    "dataset": ["prompt_b64", "baseline_prompt_b64", "ground_truth_b64"],
    "records": ["generated_b64"],
}
# not strict base64: bad characters, padding or length
BAD_BASE64 = ["!!", "cmV0!dXJu", "abc", "a", "====", "cmV0\ndXJu", "cmV0 dXJu"]
NOT_OBJECTS = ["[1]", "5", '"x"', "null", "true"]
# misspelled or foreign keys: a reader that ignored them would load the line
UNKNOWN_KEYS = ["id", "text", "Arm", "prompt_b46", "cut-offset"]
TOO_DEEP = "[" * 10_000


@pytest.fixture(scope="module")
def valid_lines(code_corpus):
    """Three valid JSON lines per JSONL reader."""
    examples = generate_dataset(code_corpus, "subword", seed=1)[0][:3]
    records = [EvalRecord(f"e{i}", b"return", [b"return", b"ret"], "aligned") for i in range(3)]
    return {
        "dataset": [ex.to_json_dict() for ex in examples],
        "records": [r.to_json_dict() for r in records],
    }


@pytest.fixture(scope="module")
def table_doc():
    with open(fixtures.data_path(fixtures.DEMO_TABLE_FILE)) as fh:
        return json.load(fh)


def undecodable(draw):
    """Bytes without a newline, one past ASCII: never valid UTF-8 amid ASCII text."""
    junk = draw(st.binary(max_size=8)).replace(b"\n", b"")
    at = draw(st.integers(0, len(junk)))
    return junk[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + junk[at:]


# mutations of a file's text as a whole, then of one field of its document
WHOLE = ["bytes", "cut", "object", "deep"]
FIELD = ["drop", "retype", "base64"]


def break_text(text, how, draw):
    """``text`` broken by the whole-text mutation ``how``, as bytes."""
    if how == "bytes":
        at = draw(st.integers(0, len(text)))
        return text[:at].encode() + undecodable(draw) + text[at:].encode()
    if how == "cut":
        return text[: draw(st.integers(1, len(text) - 1))].encode()
    if how == "object":
        return draw(st.sampled_from(NOT_OBJECTS)).encode()
    return TOO_DEEP.encode()


def break_line(kind, doc, draw):
    """One JSON line of ``kind``, broken by one drawn mutation, as bytes, and text its error holds."""
    how = draw(st.sampled_from(WHOLE + FIELD + ["unknown"]))
    if how in WHOLE:
        return break_text(json.dumps(doc), how, draw), ""
    doc = dict(doc)
    if how == "unknown":
        key = draw(st.sampled_from(UNKNOWN_KEYS))
        doc[key] = draw(st.sampled_from(["eg==", 1, None]))
        return json.dumps(doc).encode(), f"unknown field {key!r}"
    if how == "base64":
        doc[draw(st.sampled_from(BASE64_FIELDS[kind]))] = draw(st.sampled_from(BAD_BASE64))
    else:
        field = draw(st.sampled_from(sorted(FIELDS[kind])))
        if how == "drop":
            del doc[field]
        else:
            doc[field] = draw(st.sampled_from(WRONG[FIELDS[kind][field]]))
    return json.dumps(doc).encode(), ""


def break_table(doc, draw):
    """The demo table, broken by one drawn mutation, as bytes."""
    how = draw(st.sampled_from(WHOLE + FIELD))
    if how in WHOLE:
        return break_text(json.dumps(doc), how, draw)
    doc = json.loads(json.dumps(doc))
    row = doc["rows"][draw(st.integers(0, len(doc["rows"]) - 1))]
    if how == "base64":
        row["suffix_b64"] = draw(st.sampled_from(BAD_BASE64))
    elif how == "drop":
        site = draw(st.sampled_from(["default", "suffix_b64", "probs"]))
        del (doc if site == "default" else row)[site]
    else:
        site = draw(st.sampled_from(["default", "rows", "row", "suffix_b64", "probs"]))
        if site == "rows":
            doc["rows"] = draw(st.sampled_from([5, "x", {"r": 1}, [5], [None]]))
        elif site == "row":
            doc["rows"][0] = draw(st.sampled_from(WRONG["str"]))
        else:
            wrong = WRONG["probs"] if site in ("default", "probs") else WRONG["str"]
            (doc if site == "default" else row)[site] = draw(st.sampled_from(wrong))
    return json.dumps(doc).encode()


def demo_argv(tmp_path, table):
    prompts = tmp_path / "prompts.jsonl"
    prompts.write_text(json.dumps({"prompt_b64": base64.b64encode(b"retu").decode()}) + "\n")
    return ["align", "--vocab", fixtures.data_path(fixtures.DEMO_VOCAB_FILE),
            "--provider", f"scripted:{table}", "--prompt-file", str(prompts),
            "--max-new-tokens", "1"]


def run(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err.splitlines()


def reader_argv(kind, path):
    if kind == "dataset":
        return ["validate", "--dataset", str(path)]
    return ["score", "--records", str(path), "--metrics", "em"]


def test_valid_files_load(capsys, tmp_path, valid_lines, table_doc):
    # the unbroken files pass, so each failure below is the mutation's
    for kind, docs in valid_lines.items():
        path = tmp_path / f"{kind}.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        assert run(capsys, reader_argv(kind, path))[0] == 0
    table = tmp_path / "table.json"
    table.write_text(json.dumps(table_doc))
    assert run(capsys, demo_argv(tmp_path, table))[0] == 0


@seed(240308688)
@PINNED
@given(kind=st.sampled_from(["dataset", "records"]), data=st.data())
def test_corrupt_jsonl_line_is_a_data_error(capsys, tmp_path, valid_lines, kind, data):
    lines = [json.dumps(doc).encode() for doc in valid_lines[kind]]
    k = data.draw(st.integers(0, len(lines) - 1))
    lines[k], holds = break_line(kind, valid_lines[kind][k], data.draw)
    path = tmp_path / f"{kind}.jsonl"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    code, out, err = run(capsys, reader_argv(kind, path))
    assert code == 2
    assert out == ""
    assert len(err) == 1 and err[0].startswith(f"tokalign: error: {path}: line {k + 1}: "), err
    assert holds in err[0]


@seed(240308688)
@settings(PINNED, max_examples=60)
@given(data=st.data())
def test_corrupt_scripted_table_is_a_data_error(capsys, tmp_path, table_doc, data):
    table = tmp_path / "table.json"
    table.write_bytes(break_table(table_doc, data.draw))
    code, out, err = run(capsys, demo_argv(tmp_path, table))
    assert code == 2
    assert out == ""
    assert len(err) == 1 and err[0].startswith(f"tokalign: error: {table}: "), err
