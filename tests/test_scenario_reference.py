"""The scenario table and the validator against per-scenario reference code.

The reference below states each scenario's cut rule as its own predicate
on the bytes before and after the cut (the rules ``validate_example``
once restated one branch each), and builds the baseline prompt with a
branch per scenario.  On random byte sources weighted toward the bytes
where the classes meet (carriage return, DEL, NUL, a UTF-8 lead byte,
0xff, tabs, newlines, runs of spaces and an indented line start):

- every scenario must find the same cut positions as the reference and
  build the same baseline prompt at every cut, and every example it
  makes must pass ``validate_example``;
- at any cut and with any baseline, ``validate_example`` must flag the
  cut exactly when the reference, run on the whole source, rejects it,
  and flag the baseline exactly when it differs from the reference's.
  The validator looks only at the cut's line, so this also checks that
  no cut rule reaches past the last newline before the cut.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tokalign import SCENARIOS, ScenarioExample, validate_example
from tokalign.scenarios import (
    _is_punct,
    _is_word,
    _is_ws,
    _make_example,
    _rstrip_ws,
    eligible_positions,
)


def _prefix_sep_cut(prompt: bytes, truth: bytes) -> bool:
    # the prompt ends with the spaces between a non-whitespace byte on the
    # same line and a word, never with a line's indentation
    body = prompt.rstrip(b" ")
    return (
        prompt.endswith(b" ")
        and not _is_ws(truth[0])
        and body != b""
        and not _is_ws(body[-1])
    )


def _prefix_indent_cut(prompt: bytes, truth: bytes) -> bool:
    # the prompt ends with a newline plus non-empty indentation, and
    # real content follows
    newline = prompt.rfind(b"\n")
    indent = prompt[newline + 1 :]
    return (
        newline != -1
        and indent != b""
        and all(b in b" \t" for b in indent)
        and not _is_ws(truth[0])
    )


def _inside(is_unit):
    return lambda prompt, truth: is_unit(prompt[-1]) and is_unit(truth[0])


REFERENCE_CUTS = {
    "subword": _inside(_is_word),
    "punctuation": _inside(_is_punct),
    "prefix_sep": _prefix_sep_cut,
    "prefix_indent": _prefix_indent_cut,
    "contiguous_space": _inside(_is_ws),
}


def reference_positions(scenario: str, source: bytes) -> list[int]:
    is_cut = REFERENCE_CUTS[scenario]
    return [i for i in range(1, len(source)) if is_cut(source[:i], source[i:])]


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


BOUNDARY = [
    b"\r", b"\x7f", b"\x00", b"\xc3", b"\xff", b"\t", b"\n", b" ", b"  ", b"    ", b"\n  ",
]
sources = st.lists(
    st.one_of(st.sampled_from(BOUNDARY), st.binary(min_size=1, max_size=3)),
    max_size=24,
).map(b"".join)


def test_scenario_order_is_unchanged():
    assert SCENARIOS == tuple(REFERENCE_CUTS)


@seed(240308688)
@settings(max_examples=300, deadline=None, database=None)
@given(source=sources)
def test_positions_and_baselines_match_reference(source):
    for scenario in SCENARIOS:
        positions = eligible_positions(scenario, source)
        assert positions == reference_positions(scenario, source)
        for cut in positions:
            ex = _make_example(scenario, source, "doc", cut)
            assert ex.baseline_prompt == _baseline_for(scenario, source, cut)
            assert validate_example(ex) == []


@seed(240308688)
@settings(max_examples=150, deadline=None, database=None)
@given(source=sources.filter(lambda s: len(s) >= 2), data=st.data())
def test_validator_flags_exactly_what_the_reference_rejects(source, data):
    for scenario in SCENARIOS:
        # half the cuts are drawn from the reference's own, so every
        # scenario sees cuts it accepts as well as cuts it rejects
        eligible = reference_positions(scenario, source)
        any_cut = st.integers(1, len(source) - 1)
        cut = data.draw(st.one_of(any_cut, st.sampled_from(eligible)) if eligible else any_cut)
        reference = _baseline_for(scenario, source, cut)
        baseline = data.draw(
            st.one_of(
                st.just(reference),
                st.integers(0, cut).map(lambda k: source[:k]),
                st.binary(max_size=4),
            )
        )
        ex = ScenarioExample(scenario, "doc", source[:cut], baseline, source[cut:], cut)
        problems = validate_example(ex)
        bad_cut = cut not in eligible
        bad_baseline = baseline != reference
        assert (f"the cut is not a {scenario} cut point" in problems) == bad_cut
        assert any(p.startswith("the baseline is not") for p in problems) == bad_baseline
        assert len(problems) == bad_cut + bad_baseline
