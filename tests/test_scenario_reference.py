"""The scenario table against the per-scenario code it replaced.

The reference below is the earlier cut and baseline code: one finder per
run scenario (subword, punctuation, contiguous space), each with its
byte class written in, and a ``_baseline_for`` with a branch per
scenario.  On random byte sources weighted toward the bytes where the
classes meet (carriage return, DEL, NUL, a UTF-8 lead byte, 0xff, tabs,
newlines and runs of spaces), every scenario must find the same cut
positions and build the same baseline prompt at every cut, and every
example must pass ``validate_example``.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tokalign import SCENARIOS, validate_example
from tokalign.scenarios import (
    _is_punct,
    _is_word,
    _is_ws,
    _make_example,
    _prefix_indent_positions,
    _prefix_sep_positions,
    _rstrip_ws,
    eligible_positions,
)


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


def _contiguous_space_positions(source: bytes) -> list[int]:
    return [
        i
        for i in range(1, len(source))
        if _is_ws(source[i - 1]) and _is_ws(source[i])
    ]


REFERENCE_FINDERS = {
    "subword": _subword_positions,
    "punctuation": _punctuation_positions,
    "prefix_sep": _prefix_sep_positions,
    "prefix_indent": _prefix_indent_positions,
    "contiguous_space": _contiguous_space_positions,
}


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


BOUNDARY = [b"\r", b"\x7f", b"\x00", b"\xc3", b"\xff", b"\t", b"\n", b" ", b"  ", b"    "]
sources = st.lists(
    st.one_of(st.sampled_from(BOUNDARY), st.binary(min_size=1, max_size=3)),
    max_size=24,
).map(b"".join)


def test_scenario_order_is_unchanged():
    assert SCENARIOS == tuple(REFERENCE_FINDERS)


@seed(240308688)
@settings(max_examples=300, deadline=None, database=None)
@given(source=sources)
def test_positions_and_baselines_match_reference(source):
    for scenario in SCENARIOS:
        positions = eligible_positions(scenario, source)
        assert positions == REFERENCE_FINDERS[scenario](source)
        for cut in positions:
            ex = _make_example(scenario, source, "doc", cut)
            assert ex.baseline_prompt == _baseline_for(scenario, source, cut)
            assert validate_example(ex) == []
