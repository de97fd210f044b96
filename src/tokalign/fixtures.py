"""Bundled desk-scale fixtures.

The files under ``tokalign/data/`` are the fixtures; they are shipped,
not generated.  Each builder here loads its file with the reader the CLI
uses for the same ``bundled:<name>`` path.

- ``code``: fifty small functions, forty in Python (eight bodies, each
  under five name stems) and ten in JavaScript, so every scenario finds a
  cut in every document.
- ``prose``: twelve paragraphs of plain prose, intentionally free of
  punctuation runs.
- ``demo-vocab`` and ``demo-table``: the scripted "completion demo", which
  deterministically shows the partial-token failure.  The vocabulary is
  the 256 single bytes plus the demo's tokens, among them ``re``,
  ``\\n    return`` and `` = []``.  The table favours ``\\n    return``
  after the signature line, but after a dangling ``    re`` it treats
  ``re`` as a fresh variable and puts most mass on `` = []``.  So the
  plain decoder continues :data:`DEMO_PROMPT` with ``re = []``, while the
  aligned decoder recovers ``return``.
"""

from __future__ import annotations

from importlib.resources import files

from .decoding import ScriptedModel, load_scripted_model
from .scenarios import load_corpus
from .vocab import Vocabulary, load_vocabulary

CODE_CORPUS_FILE = "code_corpus.jsonl"
PROSE_CORPUS_FILE = "prose_corpus.jsonl"
DEMO_VOCAB_FILE = "demo_vocab.json"
DEMO_TABLE_FILE = "demo_table.json"

DEMO_PROMPT = (
    b"# write a function to get three maximum numbers from a list\n"
    b"def three_max(l):\n    re"
)


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


def build_code_corpus() -> list[tuple[str, bytes]]:
    return load_corpus(data_path(CODE_CORPUS_FILE))


def build_prose_corpus() -> list[tuple[str, bytes]]:
    return load_corpus(data_path(PROSE_CORPUS_FILE))


def build_demo_vocabulary() -> Vocabulary:
    return load_vocabulary(data_path(DEMO_VOCAB_FILE))


def build_demo_model(vocab: Vocabulary | None = None) -> ScriptedModel:
    return load_scripted_model(data_path(DEMO_TABLE_FILE), vocab or build_demo_vocabulary())
