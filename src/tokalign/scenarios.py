"""Partial-token evaluation datasets.

Five cut procedures turn a document into a (prompt, ground-truth) pair
whose boundary lands in a deliberately awkward spot: inside a word,
inside a punctuation run, right after a separator space, right after a
line's indentation, or inside a whitespace run.  Every example also
carries a baseline prompt backtracked to the last full word, the
control arm where no partial token is present.

Byte classes: "word" is alphanumerics plus underscore (and any byte
>= 0x80, so multi-byte characters stay whole), "whitespace" is exactly
space, newline, and tab, and "punctuation" is the remaining printable
ASCII.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .vocab import json_field, read_json_lines

SCENARIOS = ("subword", "punctuation", "prefix_sep", "prefix_indent", "contiguous_space")

_WS = frozenset(b" \n\t")
_SPACE = 0x20
_NEWLINE = 0x0A
_TAB = 0x09


class NoCutPointError(ValueError):
    """The document has no eligible cut position for the scenario."""


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
# Eligible cut positions per scenario


def _subword_positions(source: bytes) -> list[int]:
    return [
        i
        for i in range(1, len(source))
        if _is_word(source[i - 1]) and _is_word(source[i])
    ]


def _punctuation_positions(source: bytes) -> list[int]:
    return [
        i
        for i in range(1, len(source))
        if _is_punct(source[i - 1]) and _is_punct(source[i])
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


def _contiguous_space_positions(source: bytes) -> list[int]:
    return [
        i
        for i in range(1, len(source))
        if _is_ws(source[i - 1]) and _is_ws(source[i])
    ]


_POSITION_FINDERS = {
    "subword": _subword_positions,
    "punctuation": _punctuation_positions,
    "prefix_sep": _prefix_sep_positions,
    "prefix_indent": _prefix_indent_positions,
    "contiguous_space": _contiguous_space_positions,
}


def eligible_positions(scenario: str, source: bytes) -> list[int]:
    try:
        finder = _POSITION_FINDERS[scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {scenario!r}") from None
    return finder(bytes(source))


# ---------------------------------------------------------------------------
# Baseline construction: backtrack to the last full word


def _baseline_for(scenario: str, source: bytes, cut: int) -> bytes:
    prompt = source[:cut]
    if scenario == "subword":
        start = cut
        while start > 0 and _is_word(source[start - 1]):
            start -= 1
        return _rstrip_ws(source[:start])
    if scenario == "punctuation":
        start = cut
        while start > 0 and _is_punct(source[start - 1]):
            start -= 1
        return _rstrip_ws(source[:start])
    # the incomplete unit is trailing whitespace: trimming it ends the
    # prompt at the previous full word
    return _rstrip_ws(prompt)


def _make_example(scenario: str, source: bytes, source_id: str, cut: int) -> ScenarioExample:
    return ScenarioExample(
        scenario=scenario,
        source_id=source_id,
        prompt=source[:cut],
        baseline_prompt=_baseline_for(scenario, source, cut),
        ground_truth=source[cut:],
        cut_offset=cut,
    )


def cut(scenario: str, source: bytes, rng: np.random.Generator, source_id: str = "") -> ScenarioExample:
    """Cut ``source`` at an eligible position of ``scenario`` drawn from ``rng``."""
    source = bytes(source)
    positions = eligible_positions(scenario, source)
    if not positions:
        raise NoCutPointError(f"{scenario}: no eligible cut position in {source_id or 'document'}")
    offset = positions[int(rng.integers(len(positions)))]
    return _make_example(scenario, source, source_id, offset)


def example_at(scenario: str, source: bytes, cut: int, source_id: str = "") -> ScenarioExample:
    """Build an example at an explicit (eligible) cut offset."""
    source = bytes(source)
    if cut not in eligible_positions(scenario, source):
        raise NoCutPointError(f"{scenario}: offset {cut} is not an eligible cut position")
    return _make_example(scenario, source, source_id, cut)


# ---------------------------------------------------------------------------
# Validation (post-hoc scans; all emitted examples must pass)


def validate_example(ex: ScenarioExample) -> list[str]:
    """Return a list of violated constraints (empty when the example is clean)."""
    problems: list[str] = []
    source = ex.source
    if ex.cut_offset != len(ex.prompt):
        problems.append("cut_offset does not equal the prompt length")
    if not ex.prompt:
        problems.append("prompt is empty")
    if not ex.ground_truth:
        problems.append("ground truth is empty")
    if problems:
        return problems

    last = ex.prompt[-1]
    nxt = ex.ground_truth[0]
    if ex.scenario == "subword":
        if not (_is_word(last) and _is_word(nxt)):
            problems.append("cut is not strictly inside a word")
    elif ex.scenario == "punctuation":
        if not (_is_punct(last) and _is_punct(nxt)):
            problems.append("cut is not strictly inside a punctuation run")
    elif ex.scenario == "prefix_sep":
        if last != _SPACE or _is_ws(nxt):
            problems.append("prompt does not end with a separator space before a word")
        j = len(ex.prompt) - 1
        while j >= 0 and ex.prompt[j] == _SPACE:
            j -= 1
        if j < 0 or _is_ws(ex.prompt[j]):
            problems.append("trailing spaces are line-leading indentation")
        line_start = ex.prompt.rfind(b"\n") + 1
        if _rstrip_ws(ex.prompt[line_start:]) == b"":
            problems.append("final line of the prompt is all whitespace")
    elif ex.scenario == "prefix_indent":
        if _is_ws(nxt):
            problems.append("byte after the cut is whitespace")
        nl = ex.prompt.rfind(b"\n")
        tail = ex.prompt[nl + 1 :]
        if nl == -1 or not tail or any(b not in (_SPACE, _TAB) for b in tail):
            problems.append("prompt does not end with newline plus indentation")
    elif ex.scenario == "contiguous_space":
        if not (_is_ws(last) and _is_ws(nxt)):
            problems.append("cut is not strictly inside a whitespace run")
    else:
        problems.append(f"unknown scenario {ex.scenario!r}")

    if not ex.prompt.startswith(ex.baseline_prompt) or len(ex.baseline_prompt) >= len(ex.prompt):
        problems.append("baseline is not a strict prefix of the prompt")
    elif ex.baseline_prompt:
        b_last = ex.baseline_prompt[-1]
        if _is_ws(b_last):
            problems.append("baseline ends with untrimmed whitespace")
        after = source[len(ex.baseline_prompt)]
        if _is_word(b_last) and _is_word(after):
            problems.append("baseline ends inside a word")
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
    if per_doc < 1:
        raise ValueError("per_doc must be >= 1")
    examples: list[ScenarioExample] = []
    skipped = 0
    for idx, (doc_id, text) in enumerate(corpus):
        text = bytes(text)
        positions = eligible_positions(scenario, text)
        if not positions:
            skipped += 1
            continue
        rng = np.random.Generator(np.random.PCG64(seed ^ idx))
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
        return list(read_json_lines(fh, path, _corpus_doc))


def _corpus_doc(doc: dict, index: int) -> tuple[str, bytes]:
    if "text_b64" in doc:
        text = base64.b64decode(json_field(doc, "text_b64", str), validate=True)
    else:
        text = json_field(doc, "text", str).encode("utf-8")
    return str(doc.get("id", index)), text


def write_dataset(path: str, examples: Iterable[ScenarioExample], stats: dict | None = None) -> None:
    """Write examples as JSONL; stats land in a ``<path>.stats.json`` sidecar."""
    with open(path, "w", encoding="ascii") as fh:
        for ex in examples:
            fh.write(json.dumps(ex.to_json_dict(), sort_keys=True))
            fh.write("\n")
    if stats is not None:
        with open(path + ".stats.json", "w", encoding="ascii") as fh:
            json.dump(stats, fh, indent=1, sort_keys=True)
            fh.write("\n")


def read_dataset(path: str) -> list[ScenarioExample]:
    with open(path, "r", encoding="ascii") as fh:
        return list(read_json_lines(fh, path, lambda doc, _: ScenarioExample.from_json_dict(doc)))
