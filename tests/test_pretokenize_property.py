"""The regex pretokenizer against the per-byte loop it replaced.

The reference below is the loop verbatim.  It is exact for three of the
four option pairs.  With ``space_prefix`` on and grouping off it split a
moved space's whole run into single bytes; the fixed chunks are the
grouped reference's with every whitespace-only chunk split into bytes.
Texts are random bytes mixed with runs of space, newline and tab, and
with the bytes nearest the class edges.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tokalign import PretokenizeOptions
from tokalign.vocab import pretokenize

PINNED = settings(max_examples=300, deadline=None, database=None)
PIECES = [b" ", b"  ", b"   ", b"\n", b"\n    ", b"\t", b" \n", b"\t ", b"\r", b"\x0b", b"\x00",
          b"\x80", b"\xc3\xa9", b"\xff", b"a", b"Z", b"_", b"09", b"=", b"(", b"/", b"`", b"{"]


def _byte_class(b):
    # 0 whitespace (space/newline/tab), 1 word (alnum, underscore, non-ASCII), 2 other
    if b in (0x20, 0x0A, 0x09):
        return 0
    if b == 0x5F or 0x30 <= b <= 0x39 or 0x41 <= b <= 0x5A or 0x61 <= b <= 0x7A or b >= 0x80:
        return 1
    return 2


def reference_pretokenize(text, options):
    if not text:
        return []
    runs = []
    start = 0
    cls = _byte_class(text[0])
    for i in range(1, len(text)):
        c = _byte_class(text[i])
        if c != cls:
            runs.append(text[start:i])
            start, cls = i, c
    runs.append(text[start:])

    chunks = []
    for n, run in enumerate(runs):
        if _byte_class(run[0]) != 0:
            chunks.append(run)
            continue
        moved = b""
        if (
            options.space_prefix
            and run.endswith(b" ")
            and n + 1 < len(runs)
        ):
            run, moved = run[:-1], b" "
        if run:
            if options.group_whitespace:
                chunks.append(run)
            else:
                chunks.extend(bytes([b]) for b in run)
        if moved:
            runs[n + 1] = moved + runs[n + 1]
    return chunks


texts = st.lists(st.one_of(st.sampled_from(PIECES), st.binary(max_size=4)), max_size=24).map(b"".join)


@seed(240308688)
@PINNED
@given(texts)
def test_regex_equals_the_per_byte_loop(text):
    for space_prefix, group in ((False, False), (False, True), (True, True)):
        options = PretokenizeOptions(space_prefix, group)
        assert pretokenize(text, options) == reference_pretokenize(text, options)


@seed(240308688)
@PINNED
@given(texts)
def test_space_prefix_without_grouping_splits_only_whitespace_chunks(text):
    expected = []
    for chunk in reference_pretokenize(text, PretokenizeOptions(True, True)):
        if all(b in b" \n\t" for b in chunk):
            expected.extend(bytes([b]) for b in chunk)
        else:
            expected.append(chunk)
    assert pretokenize(text, PretokenizeOptions(True, False)) == expected
