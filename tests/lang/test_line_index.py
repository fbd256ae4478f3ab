"""LineIndex: the one-scan offset -> (line, column) table agrees with
the one-shot helpers :func:`offset_to_line_col` and
:meth:`Span.from_offsets` on every text and offset."""

import hypothesis.strategies as st
from hypothesis import example, given

from repro.lang.spans import LineIndex, Span, offset_to_line_col

# Line-break-heavy texts: CRLF pairs, lone CRs, blank lines, non-ASCII.
texts = st.lists(
    st.sampled_from(["a", "b ", "é", "\n", "\r", "\r\n", "\n\n"]), max_size=40
).map("".join)


@st.composite
def text_and_offset(draw):
    text = draw(texts)
    # Offsets past both ends are clamped the same way by both helpers.
    return text, draw(st.integers(-3, len(text) + 3))


class TestAgreesWithOneShotHelpers:
    @given(text_and_offset())
    @example(("", 0))
    @example(("", 5))
    @example(("\r\n", 1))
    @example(("\r\n", 2))
    @example(("ab\n", 3))
    @example(("ab\n", 9))
    @example(("ab\ncd\n", -1))
    def test_line_col(self, case):
        text, offset = case
        assert LineIndex(text).line_col(offset) == offset_to_line_col(text, offset)

    @given(texts, st.data())
    def test_span(self, text, data):
        start = data.draw(st.integers(0, len(text)))
        end = data.draw(st.integers(start, len(text) + 2))
        assert LineIndex(text).span(start, end) == Span.from_offsets(text, start, end)
