"""Partial-token evaluation datasets.

Five cut procedures turn a document into a (prompt, ground-truth) pair
whose boundary lands in a deliberately awkward spot: inside a word,
inside a punctuation run, right after a separator space, right after a
line's indentation, or inside a whitespace run.  Every example also
carries a baseline prompt, the control arm where no partial token is
present: the prompt minus the run of the cut unit's byte class that
ends at the cut, then minus trailing whitespace.  The cut unit is a
word (subword), punctuation (punctuation) or whitespace (the others).
One table, ``_SCENARIOS``, holds each scenario's cut finder and unit
class; generation and :func:`validate_example` both read it, so an
example validates exactly when ``generate_dataset`` could have written
it: the scenario's finder picks its cut and its baseline follows the
rule.

Byte classes: "word" is alphanumerics plus underscore (and any byte
>= 0x80, so multi-byte characters stay whole), "whitespace" is exactly
space, newline, and tab, and "punctuation" is the remaining printable
ASCII.
"""

from __future__ import annotations

import base64
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .decoding import _check_seed, make_rng
from .vocab import ConfigError, json_field, read_json_lines, write_json, write_json_lines

_SPACE = 0x20
_NEWLINE = 0x0A
_TAB = 0x09


class DatasetError(ValueError):
    """Dataset generation produced nothing usable."""


def _is_word(b: int) -> bool:
    return (
        b == 0x5F
        or 0x30 <= b <= 0x39
        or 0x41 <= b <= 0x5A
        or 0x61 <= b <= 0x7A
        or b >= 0x80
    )


def _is_ws(b: int) -> bool:
    return b in (_SPACE, _NEWLINE, _TAB)


def _is_punct(b: int) -> bool:
    return 0x21 <= b <= 0x7E and not _is_word(b)


def _rstrip_ws(data: bytes) -> bytes:
    return data.rstrip(b" \n\t")


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
        return cls(
            scenario=json_field(doc, "scenario", str),
            source_id=json_field(doc, "source_id", str),
            prompt=base64.b64decode(json_field(doc, "prompt_b64", str), validate=True),
            baseline_prompt=base64.b64decode(json_field(doc, "baseline_prompt_b64", str), validate=True),
            ground_truth=base64.b64decode(json_field(doc, "ground_truth_b64", str), validate=True),
            cut_offset=json_field(doc, "cut_offset", int),
        )


# ---------------------------------------------------------------------------
# Scenarios: each one's cut finder and the byte class of the unit it cuts


def _inside_run(is_unit: Callable[[int], bool]) -> Callable[[bytes], list[int]]:
    """Finder for the cuts strictly inside a run of ``is_unit`` bytes."""
    return lambda source: [
        i for i in range(1, len(source)) if is_unit(source[i - 1]) and is_unit(source[i])
    ]


def _prefix_sep_positions(source: bytes) -> list[int]:
    # Cut after the full run of separator spaces: prompt ends with the
    # space(s) between two mid-line words, never with indentation.
    positions = []
    for i in range(1, len(source)):
        if _is_ws(source[i]) or source[i - 1] != _SPACE:
            continue
        j = i - 1
        while j >= 0 and source[j] == _SPACE:
            j -= 1
        # run must be preceded by a non-whitespace byte on the same line
        if j >= 0 and not _is_ws(source[j]):
            positions.append(i)
    return positions


def _prefix_indent_positions(source: bytes) -> list[int]:
    positions = []
    for i in range(len(source)):
        if source[i] != _NEWLINE:
            continue
        j = i + 1
        while j < len(source) and source[j] in (_SPACE, _TAB):
            j += 1
        # needs real indentation and real content after it
        if j > i + 1 and j < len(source) and not _is_ws(source[j]):
            positions.append(j)
    return positions


# scenario -> (cut-position finder, byte class of the unit the cut leaves
# incomplete).  SCENARIOS keeps this order: `gen-dataset --scenario all`
# and the benchmark's prompts are built in it.
_SCENARIOS = {
    "subword": (_inside_run(_is_word), _is_word),
    "punctuation": (_inside_run(_is_punct), _is_punct),
    "prefix_sep": (_prefix_sep_positions, _is_ws),
    "prefix_indent": (_prefix_indent_positions, _is_ws),
    "contiguous_space": (_inside_run(_is_ws), _is_ws),
}
SCENARIOS = tuple(_SCENARIOS)


def eligible_positions(scenario: str, source: bytes) -> list[int]:
    try:
        finder, _ = _SCENARIOS[scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {scenario!r}") from None
    return finder(bytes(source))


def _baseline_for(scenario: str, source: bytes, cut: int) -> bytes:
    _, is_unit = _SCENARIOS[scenario]
    start = cut
    while start > 0 and is_unit(source[start - 1]):
        start -= 1
    return _rstrip_ws(source[:start])


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
    # Every finder decides a cut from the bytes between the last newline
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
    """Load documents from a JSONL file ({id, text}) or a directory of text files."""
    docs: list[tuple[str, bytes]] = []
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            full = os.path.join(path, name)
            if os.path.isfile(full):
                with open(full, "rb") as fh:
                    docs.append((name, fh.read()))
        return docs
    with open(path, "r", encoding="utf-8") as fh:
        return list(read_text_docs(fh, path, "text_b64"))


def read_text_docs(fh: Iterable[str], name: str, b64_key: str) -> Iterator[tuple[str, bytes]]:
    """Yield ``(id, bytes)`` for each ``{id?, text | <b64_key>}`` JSON line of ``fh``.

    The base64 field wins when both are present; a line without an ``id``
    takes its line index.  Errors are :func:`read_json_lines` errors.
    """
    def convert(doc: dict, index: int) -> tuple[str, bytes]:
        if b64_key in doc:
            data = base64.b64decode(json_field(doc, b64_key, str), validate=True)
        else:
            data = json_field(doc, "text", str).encode("utf-8")
        return str(doc.get("id", index)), data

    return read_json_lines(fh, name, convert)


def write_dataset(path: str, examples: Iterable[ScenarioExample], stats: dict | None = None) -> None:
    """Write examples as JSONL; stats land in a ``<path>.stats.json`` sidecar."""
    write_json_lines(path, (ex.to_json_dict() for ex in examples))
    if stats is not None:
        write_json(path + ".stats.json", stats)


def read_dataset(path: str) -> list[ScenarioExample]:
    with open(path, "r", encoding="ascii") as fh:
        return list(read_json_lines(fh, path, lambda doc, _: ScenarioExample.from_json_dict(doc)))
