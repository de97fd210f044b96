r"""Partial-token evaluation datasets.

Five cut procedures turn a document into a (prompt, ground-truth) pair
whose boundary lands in a deliberately awkward spot.  Each is one pattern
whose match ends are its cuts, over the tokenizer's byte classes (W is
:data:`vocab.WORD_BYTES`, S :data:`vocab.WHITESPACE_BYTES`, P the
printable ASCII outside W), plus the class of the unit it cuts:

    subword           (?<=[W])(?=[W])    W  inside a word
    punctuation       (?<=[P])(?=[P])    P  inside a punctuation run
    prefix_sep        [^S] +(?=[^S])     S  after a separator space
    prefix_indent     \n[ \t]+(?=[^S])   S  after a line's indentation
    contiguous_space  (?<=[S])(?=[S])    S  inside a whitespace run

Every example also carries a baseline prompt, the control arm where no
partial token is present: the prompt minus the run of the unit's class
that ends at the cut, then minus trailing whitespace.  One table,
``_SCENARIOS``, holds the patterns and units; generation and
:func:`validate_example` both read it, so an example validates exactly
when ``generate_dataset`` could have written it.
"""

from __future__ import annotations

import base64
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .decoding import _check_seed, make_rng
from .vocab import (
    WHITESPACE_BYTES, WORD_BYTES, ConfigError, _refuse_unknown_fields, byte_class, json_field,
    read_json_lines, write_json, write_json_lines,
)


class DatasetError(ValueError):
    """Dataset generation produced nothing usable."""


@dataclass
class ScenarioExample:
    scenario: str
    source_id: str
    prompt: bytes
    baseline_prompt: bytes
    ground_truth: bytes
    cut_offset: int

    @property
    def source(self) -> bytes:
        return self.prompt + self.ground_truth

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "source_id": self.source_id,
            "prompt_b64": base64.b64encode(self.prompt).decode("ascii"),
            "baseline_prompt_b64": base64.b64encode(self.baseline_prompt).decode("ascii"),
            "ground_truth_b64": base64.b64encode(self.ground_truth).decode("ascii"),
            "cut_offset": self.cut_offset,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScenarioExample":
        _refuse_unknown_fields(doc, ("scenario", "source_id", "prompt_b64", "baseline_prompt_b64",
                                     "ground_truth_b64", "cut_offset"))
        return cls(
            scenario=json_field(doc, "scenario", str),
            source_id=json_field(doc, "source_id", str),
            prompt=base64.b64decode(json_field(doc, "prompt_b64", str), validate=True),
            baseline_prompt=base64.b64decode(json_field(doc, "baseline_prompt_b64", str), validate=True),
            ground_truth=base64.b64decode(json_field(doc, "ground_truth_b64", str), validate=True),
            cut_offset=json_field(doc, "cut_offset", int),
        )


# ---------------------------------------------------------------------------
# Scenarios: each one's cut pattern and the byte class of the unit it cuts

_PUNCT_BYTES = bytes(b for b in range(0x21, 0x7F) if b not in WORD_BYTES)
_NOT_WS = byte_class(WHITESPACE_BYTES, negate=True)
_INDENT = byte_class(WHITESPACE_BYTES.replace(b"\n", b""))


def _inside(unit: bytes) -> re.Pattern:
    """The cuts strictly inside a run of ``unit`` bytes."""
    return re.compile(b"(?<=%s)(?=%s)" % (byte_class(unit), byte_class(unit)))


# scenario -> (pattern whose match ends are the cut points, bytes of the
# unit the cut leaves incomplete).  SCENARIOS keeps this order:
# `gen-dataset --scenario all` and the benchmark's prompts are built in it.
_SCENARIOS = {
    "subword": (_inside(WORD_BYTES), WORD_BYTES),
    "punctuation": (_inside(_PUNCT_BYTES), _PUNCT_BYTES),
    # the full run of spaces after a line's content, never its indentation
    "prefix_sep": (re.compile(b"%s +(?=%s)" % (_NOT_WS, _NOT_WS)), WHITESPACE_BYTES),
    # non-empty indentation with content after it
    "prefix_indent": (re.compile(b"\n%s+(?=%s)" % (_INDENT, _NOT_WS)), WHITESPACE_BYTES),
    "contiguous_space": (_inside(WHITESPACE_BYTES), WHITESPACE_BYTES),
}
SCENARIOS = tuple(_SCENARIOS)


def eligible_positions(scenario: str, source: bytes) -> list[int]:
    try:
        pattern, _ = _SCENARIOS[scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {scenario!r}") from None
    return [m.end() for m in pattern.finditer(bytes(source))]


def _baseline_for(scenario: str, source: bytes, cut: int) -> bytes:
    return source[:cut].rstrip(_SCENARIOS[scenario][1]).rstrip(WHITESPACE_BYTES)


def _make_example(scenario: str, source: bytes, source_id: str, cut: int) -> ScenarioExample:
    return ScenarioExample(
        scenario=scenario,
        source_id=source_id,
        prompt=source[:cut],
        baseline_prompt=_baseline_for(scenario, source, cut),
        ground_truth=source[cut:],
        cut_offset=cut,
    )


# ---------------------------------------------------------------------------
# Validation: an example passes exactly when generation could have written it


def validate_example(ex: ScenarioExample) -> list[str]:
    """Return a list of violated constraints (empty when the example is clean)."""
    problems: list[str] = []
    if ex.cut_offset != len(ex.prompt):
        problems.append("cut_offset does not equal the prompt length")
    if not ex.prompt:
        problems.append("prompt is empty")
    if not ex.ground_truth:
        problems.append("ground truth is empty")
    if problems:
        return problems
    if ex.scenario not in _SCENARIOS:
        return [f"unknown scenario {ex.scenario!r}"]

    source, cut = ex.source, ex.cut_offset
    # Every pattern decides a cut from the bytes between the last newline
    # before it and the byte at it, so only that window is scanned.
    start = max(source.rfind(b"\n", 0, cut), 0)
    if cut - start not in eligible_positions(ex.scenario, source[start : cut + 1]):
        problems.append(f"the cut is not a {ex.scenario} cut point")
    expected = _baseline_for(ex.scenario, source, cut)
    if ex.baseline_prompt != expected:
        problems.append(f"the baseline is not prompt[:{len(expected)}]")
    return problems


# ---------------------------------------------------------------------------
# Dataset generation


def generate_dataset(
    corpus: Sequence[tuple[str, bytes]],
    scenario: str,
    seed: int,
    per_doc: int = 1,
) -> tuple[list[ScenarioExample], dict]:
    """Cut every document; deterministic given ``seed``.

    Documents without an eligible position are skipped and counted.  Each
    document draws from its own generator (seed XOR document index), so
    per-document work is order-independent.
    """
    _check_seed(seed)
    if per_doc < 1:
        raise ConfigError("per_doc", f"need at least 1 cut per document, got {per_doc}")
    examples: list[ScenarioExample] = []
    skipped = 0
    for idx, (doc_id, text) in enumerate(corpus):
        text = bytes(text)
        positions = eligible_positions(scenario, text)
        if not positions:
            skipped += 1
            continue
        rng = make_rng(seed ^ idx)
        k = min(per_doc, len(positions))
        chosen = rng.choice(len(positions), size=k, replace=False)
        for cut_idx in sorted(int(c) for c in chosen):
            examples.append(_make_example(scenario, text, doc_id, positions[cut_idx]))
    stats = {
        "scenario": scenario,
        "seed": seed,
        "documents": len(corpus),
        "emitted": len(examples),
        "skipped": skipped,
    }
    if not examples:
        raise DatasetError(
            f"0 eligible documents for scenario {scenario!r} "
            f"({skipped} of {len(corpus)} skipped)"
        )
    return examples, stats


# ---------------------------------------------------------------------------
# Corpus and dataset I/O


def load_corpus(path: str) -> list[tuple[str, bytes]]:
    """The ``(id, bytes)`` documents of a corpus path, the rule of every corpus flag.

    A directory gives one document per file, a ``.jsonl`` file its
    ``{id?, text | text_b64}`` lines, and any other file one document;
    a whole file's id is its name.
    """
    if os.path.isdir(path):
        files = [os.path.join(path, name) for name in sorted(os.listdir(path))]
        return [_whole_file(full) for full in files if os.path.isfile(full)]
    if path.endswith(".jsonl"):
        with open(path, "rb") as fh:
            return list(read_text_docs(fh, path, "text_b64"))
    return [_whole_file(path)]


def _whole_file(path: str) -> tuple[str, bytes]:
    with open(path, "rb") as fh:
        return os.path.basename(path), fh.read()


def read_text_docs(
    fh: Iterable[bytes | str], name: str, b64_key: str
) -> Iterator[tuple[str, bytes]]:
    """Yield ``(id, bytes)`` for each ``{id?, text | <b64_key>}`` JSON line of ``fh``.

    The base64 field wins when both are present.  An ``id`` is a JSON
    string or integer; a line without one takes its line index.  Any other
    key is refused.  Lines of bytes are UTF-8.  Errors are
    :func:`read_json_lines` errors.
    """
    def convert(doc: dict, index: int) -> tuple[str, bytes]:
        _refuse_unknown_fields(doc, ("id", "text", b64_key))
        if b64_key in doc:
            data = base64.b64decode(json_field(doc, b64_key, str), validate=True)
        else:
            data = json_field(doc, "text", str).encode("utf-8")
        return str(json_field(doc, "id", (str, int)) if "id" in doc else index), data

    return read_json_lines(fh, name, convert)


def write_dataset(path: str, examples: Iterable[ScenarioExample], stats: dict | None = None) -> None:
    """Write examples as JSONL; stats land in a ``<path>.stats.json`` sidecar."""
    write_json_lines(path, (ex.to_json_dict() for ex in examples))
    if stats is not None:
        write_json(path + ".stats.json", stats)


def read_dataset(path: str) -> list[ScenarioExample]:
    with open(path, "rb") as fh:
        return list(
            read_json_lines(fh, path, lambda doc, _: ScenarioExample.from_json_dict(doc), "ascii")
        )
