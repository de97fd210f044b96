"""Corrupt vocabulary files are data errors, never tracebacks.

A trained vocabulary (with merges, pretokenize options and a special)
is saved, and each example mutates its JSON in one way that breaks it:
drop a required field, retype a field, truncate ``tokens``, break the
density of the ids, name a non-token in ``merges`` or write bad base64.
``tokalign vocab inspect`` must exit 2 with one ``tokalign: error:``
line on stderr and print nothing on stdout.

A site is a path into the document; ``*`` stands for an index drawn
from the list at that point.  Every site is one kind of mutation, so
each loader check is reached with about equal weight.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from tokalign import train_tiny_bpe
from tokalign.cli import main
from tokalign.vocab import vocabulary_to_dict

from conftest import TRAIN_OPTIONS

PINNED = settings(
    max_examples=100, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# fields whose loss breaks the file; "entry" drops a token's text or base64
DROPS = [("version",), ("tokens",), ("tokens", "*", "id"), ("tokens", "*", "entry"),
         ("merges", "*", "*")]
# wrong-typed values per site; every one is rejected
RETYPES = {
    ("version",): [0, 2, True, "1", None, [1], {"v": 1}],
    ("tokens",): [5, "x", None, {"id": 0}],
    ("tokens", "*"): [5, "x", None, [0, "a"]],
    ("tokens", "*", "id"): ["1", 1.5, True, None, [1], {"x": 1}],
    ("tokens", "*", "text"): [5, 1.5, None, [1], {"x": 1}],
    ("merges",): [5, "x", {"m": 1}],
    ("merges", "*"): [5, "ab", None, [{"text": "a"}], {"x": 1}],
    ("merges", "*", "*"): [5, "a", None, [1], {"x": 1}],
    ("specials",): [5, "x", {"s": 1}, ["1"], [1.5], [None], [True]],
    ("pretokenize",): [5, "x", [1], True, {"space_prefix": True, "group_whitespac": True}],
    ("pretokenize", "space_prefix"): ["no", 0, 1, None, [True]],
}
# values that are not strict base64 (bad characters, padding or length)
BAD_BASE64 = ["!!", "cmV0!dXJu", "abc", "a", "====", "cmV0\ndXJu", "cmV0 dXJu", ""]


@pytest.fixture(scope="module")
def saved_doc(code_texts):
    vocab = train_tiny_bpe(code_texts[:8], 300, TRAIN_OPTIONS, specials=[b"<eos>"])
    return vocabulary_to_dict(vocab)


def locate(doc, path, draw):
    """The container and key that ``path`` names, drawing each ``*``."""
    node = doc
    for step in path[:-1]:
        node = node[draw(st.integers(0, len(node) - 1))] if step == "*" else node[step]
    last = path[-1]
    return node, draw(st.integers(0, len(node) - 1)) if last == "*" else last


def drop(path):
    def mutate(doc, draw):
        node, key = locate(doc, path, draw)
        if key == "entry":
            node.pop("text", None)
            node.pop("bytes_b64", None)
        else:
            del node[key]
    return mutate


def retype(path):
    def mutate(doc, draw):
        node, key = locate(doc, path, draw)
        node[key] = draw(st.sampled_from(RETYPES[path]))
    return mutate


def truncate_tokens(doc, draw):
    # the specials past the cut go too, so the merges are what break
    cut = draw(st.integers(0, len(doc["tokens"]) - 1))
    doc["tokens"] = doc["tokens"][:cut]
    doc["specials"] = [i for i in doc["specials"] if i < cut]


def break_ids(doc, draw):
    entry = draw(st.sampled_from(doc["tokens"]))
    n = len(doc["tokens"])
    duplicate = draw(st.sampled_from([i for i in range(n) if i != entry["id"]]))
    entry["id"] = draw(st.sampled_from([duplicate, n, n + 7, -1]))


def merge_non_token(doc, draw):
    node, key = locate(doc, ("merges", "*", "*"), draw)
    node[key] = {"text": "§" * 40}


def bad_base64(doc, draw):
    entry = draw(st.sampled_from(doc["tokens"]))
    entry.pop("text", None)
    entry["bytes_b64"] = draw(st.sampled_from(BAD_BASE64))


MUTATIONS = (
    [drop(path) for path in DROPS]
    + [retype(path) for path in RETYPES]
    + [truncate_tokens, break_ids, merge_non_token, bad_base64]
)


def inspect_exit(capsys, tmp_path, doc):
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["vocab", "inspect", "--vocab", str(path)])
    return code, capsys.readouterr()


@seed(240308688)
@PINNED
@given(mutate=st.sampled_from(MUTATIONS), data=st.data())
def test_corrupt_vocabulary_is_a_data_error(capsys, tmp_path, saved_doc, mutate, data):
    doc = copy.deepcopy(saved_doc)
    mutate(doc, data.draw)
    code, captured = inspect_exit(capsys, tmp_path, doc)
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tokalign: error: "), captured.err


@pytest.mark.parametrize("site", ["version", "id", "specials"])
def test_json_true_is_not_an_integer(capsys, tmp_path, saved_doc, site):
    # true loads as bool, a subclass of int, and once passed for 1
    doc = copy.deepcopy(saved_doc)
    if site == "version":
        doc["version"] = True
    elif site == "id":
        doc["tokens"][1]["id"] = True
    else:
        doc["specials"] = [True]
    code, captured = inspect_exit(capsys, tmp_path, doc)
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tokalign: error: ")
