"""Bundled desk-scale fixtures.

Two small corpora (synthetic code in two languages, and plain prose)
plus the scripted "completion demo": a hand-built vocabulary and
provider table that deterministically show the partial-token failure.
A prompt ending in the dangling subword ``re`` draws a degenerate
``re = []`` continuation from the plain decoder, while the aligned
decoder recovers ``return``.

Run ``python -m tokalign.fixtures`` to regenerate the bundled data
files under ``tokalign/data/``.
"""

from __future__ import annotations

import json
import os
from importlib.resources import files

import numpy as np

from .decoding import ScriptedModel
from .vocab import Vocabulary, save_vocabulary

CODE_CORPUS_FILE = "code_corpus.jsonl"
PROSE_CORPUS_FILE = "prose_corpus.jsonl"
DEMO_VOCAB_FILE = "demo_vocab.json"
DEMO_TABLE_FILE = "demo_table.json"


def data_path(name: str) -> str:
    return str(files(__package__) / "data" / name)


def resolve_bundled(spec: str) -> str:
    """Map ``bundled:<name>`` CLI values to data file paths."""
    names = {
        "code": CODE_CORPUS_FILE,
        "prose": PROSE_CORPUS_FILE,
        "demo-vocab": DEMO_VOCAB_FILE,
        "demo-table": DEMO_TABLE_FILE,
    }
    key = spec.split(":", 1)[1]
    if key not in names:
        raise ValueError(f"unknown bundled resource {key!r} (have {sorted(names)})")
    return data_path(names[key])


# ---------------------------------------------------------------------------
# Completion demo: vocabulary, provider table, prompt

DEMO_PROMPT = (
    b"# write a function to get three maximum numbers from a list\n"
    b"def three_max(l):\n    re"
)

_DEMO_EXTRA_TOKENS = [
    b"# write a function to get three maximum numbers from a list",
    b"def three_max(l):",
    b"    ",
    b"re",
    b"\n    return",
    b" sorted(l)[-3:]",
    b" = []",
]


def build_demo_vocabulary() -> Vocabulary:
    tokens = [bytes([i]) for i in range(256)] + _DEMO_EXTRA_TOKENS
    return Vocabulary(tokens)


def _row(vocab: Vocabulary, peaks: dict[bytes, float]) -> np.ndarray:
    vocab_size = len(vocab)
    leftover = 1.0 - sum(peaks.values())
    dist = np.full(vocab_size, leftover / vocab_size, dtype=np.float64)
    for token, p in peaks.items():
        dist[vocab.id_of(token)] += p
    return dist


def build_demo_model(vocab: Vocabulary | None = None) -> ScriptedModel:
    vocab = vocab or build_demo_vocabulary()
    rows = [
        # after the signature line: favors a proper return statement
        (b"(l):", _row(vocab, {b"\n    return": 0.55, b"\n": 0.20, b" = []": 0.15})),
        # after a dangling "re": treats it as a fresh variable
        (b"    re", _row(vocab, {b" = []": 0.80})),
        (b"return", _row(vocab, {b" sorted(l)[-3:]": 0.80})),
        (b"[-3:]", _row(vocab, {b"\n": 0.80})),
    ]
    return ScriptedModel(vocab, rows, _row(vocab, {b"\n": 0.80}))


# ---------------------------------------------------------------------------
# Synthetic code corpus (Python and JavaScript flavors)

_PY_BODIES = [
    """def {fn}_total(items):
    total = 0
    for item in items:
        total = total + item
    return total
""",
    """def {fn}_count(values):
    count = 0
    for value in values:
        if value > 0:
            count = count + 1
    return count
""",
    """def {fn}_max(values):
    best = values[0]
    for value in values:
        if value > best:
            best = value
    return best
""",
    """def {fn}_scale(items, factor):
    result = []
    for item in items:
        result.append(item * factor)
    return result
""",
    """def {fn}_find(values, target):
    for index in range(len(values)):
        if values[index] == target:
            return index
    return -1
""",
    """def {fn}_clip(values, low, high):
    result = []
    for value in values:
        if value < low:
            value = low
        if value > high:
            value = high
        result.append(value)
    return result
""",
    """def {fn}_pairs(entries):
    result = []
    for index in range(len(entries)):
        if index % 2 == 0:
            result.append(entries[index])
    return result
""",
    """def {fn}_join(parts):
    text = ""
    for part in parts:
        text = text + part
    return text
""",
]

_JS_BODIES = [
    """function {fn}Total(values) {{
    let total = 0;
    for (const value of values) {{
        total = total + value;
    }}
    return total;
}}
""",
    """function {fn}Count(values) {{
    let count = 0;
    for (const value of values) {{
        if (value > 0) {{
            count = count + 1;
        }}
    }}
    return count;
}}
""",
]

_FN_NAMES = ["get", "calc", "find", "make", "take"]


def build_code_corpus() -> list[tuple[str, bytes]]:
    """Fifty small functions; every scenario finds a cut in every document."""
    docs: list[tuple[str, bytes]] = []
    for body_idx, body in enumerate(_PY_BODIES):
        for name in _FN_NAMES:
            text = body.format(fn=name)
            docs.append((f"py_{body_idx}_{name}", text.encode("utf-8")))
    for body_idx, body in enumerate(_JS_BODIES):
        for name in _FN_NAMES:
            text = body.format(fn=name)
            docs.append((f"js_{body_idx}_{name}", text.encode("utf-8")))
    return docs


_PROSE_PARAGRAPHS = [
    "The reader walks through the garden every morning and counts the roses "
    "near the old stone wall. The garden stays quiet until the birds arrive.",
    "A small library sits at the end of the street. The librarian sorts the "
    "returned books and places each one back on the proper shelf.",
    "The baker starts before sunrise and warms the ovens slowly. Fresh bread "
    "waits on the counter long before the first customer arrives.",
    "Rain fell on the village for three days. The river rose near the bridge "
    "and the children watched the water from the safety of the hill.",
    "The painter mixes the colors carefully and studies the light on the "
    "water. Every afternoon the scene changes and the painting changes with it.",
    "A quiet train crosses the valley at noon. The passengers read their "
    "papers while the hills slide past the windows in a slow green blur.",
    "The teacher writes the lesson on the board and waits for the class to "
    "settle. The students copy the words into their notebooks without hurry.",
    "The fisherman repairs the nets beside the harbor and watches the clouds. "
    "When the wind turns he gathers the ropes and walks back to the boats.",
    "An old clock keeps uneven time in the hallway. Nobody winds it anymore "
    "but the family still checks it out of habit on the way to the door.",
    "The gardener trims the hedge into a careful square and sweeps the "
    "clippings from the path. The work takes the whole afternoon to finish.",
    "Snow covered the field behind the school and the morning light made it "
    "shine. The first footprints belonged to the caretaker and his dog.",
    "The market opens with the sound of crates and friendly arguments. By "
    "midday the best fruit is gone and the sellers lean back in their chairs.",
]


def build_prose_corpus() -> list[tuple[str, bytes]]:
    """Plain prose; intentionally free of punctuation runs."""
    return [(f"prose_{i}", p.encode("utf-8")) for i, p in enumerate(_PROSE_PARAGRAPHS)]


# ---------------------------------------------------------------------------
# Data file generation


def _write_corpus_jsonl(path: str, docs: list[tuple[str, bytes]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for doc_id, text in docs:
            fh.write(json.dumps({"id": doc_id, "text": text.decode("utf-8")}, sort_keys=True))
            fh.write("\n")


def write_bundled_data(directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    _write_corpus_jsonl(os.path.join(directory, CODE_CORPUS_FILE), build_code_corpus())
    _write_corpus_jsonl(os.path.join(directory, PROSE_CORPUS_FILE), build_prose_corpus())
    vocab = build_demo_vocabulary()
    save_vocabulary(vocab, os.path.join(directory, DEMO_VOCAB_FILE))
    model = build_demo_model(vocab)
    with open(os.path.join(directory, DEMO_TABLE_FILE), "w", encoding="ascii") as fh:
        json.dump(model.to_json_dict(), fh)
        fh.write("\n")


if __name__ == "__main__":
    target = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
    write_bundled_data(target)
    print(f"wrote bundled data to {target}")
