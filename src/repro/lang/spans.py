"""Source spans: line/column provenance for parsed syntax objects.

A :class:`Span` records where a syntactic object (atom, rule, query)
came from in its source text: 1-based start/end line and column plus
the raw character offsets.  Spans are attached by the parser and carried
-- but ignored for equality and hashing -- by :class:`~repro.lang.atoms.Atom`,
:class:`~repro.lang.tgd.TGD` and
:class:`~repro.lang.queries.ConjunctiveQuery`, so the static-analysis
layer (:mod:`repro.lint`) can point diagnostics at the offending
source text.

:func:`offset_to_line_col` and :meth:`Span.from_offsets` answer one
offset by rescanning the text from the start; code that needs many
answers over the same text (the parser: two per atom) builds one
:class:`LineIndex` instead, which scans the newlines once and answers
each offset by binary search.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """A half-open source region ``[start, end)`` with line/column info.

    Attributes:
        start: 0-based character offset of the first character.
        end: 0-based character offset one past the last character.
        line: 1-based line of the first character.
        column: 1-based column of the first character.
        end_line: 1-based line of the last character.
        end_column: 1-based column one past the last character.
    """

    start: int
    end: int
    line: int
    column: int
    end_line: int
    end_column: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span offsets [{self.start}, {self.end})")
        if self.line < 1 or self.column < 1:
            raise ValueError(f"span line/column must be 1-based: {self}")

    @classmethod
    def from_offsets(cls, text: str, start: int, end: int) -> "Span":
        """Build a span from character offsets into *text*."""
        line, column = offset_to_line_col(text, start)
        end_line, end_column = offset_to_line_col(text, end)
        return cls(
            start=start,
            end=end,
            line=line,
            column=column,
            end_line=end_line,
            end_column=end_column,
        )

    def merge(self, other: "Span") -> "Span":
        """The smallest span covering both *self* and *other*."""
        first = self if self.start <= other.start else other
        last = self if self.end >= other.end else other
        return Span(
            start=first.start,
            end=last.end,
            line=first.line,
            column=first.column,
            end_line=last.end_line,
            end_column=last.end_column,
        )

    def snippet(self, text: str) -> str:
        """The spanned source text."""
        return text[self.start:self.end]

    def __str__(self) -> str:
        if self.line == self.end_line:
            return f"{self.line}:{self.column}-{self.end_column}"
        return f"{self.line}:{self.column}-{self.end_line}:{self.end_column}"


def offset_to_line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of a character *offset* into *text*."""
    offset = max(0, min(offset, len(text)))
    line = text.count("\n", 0, offset) + 1
    last_newline = text.rfind("\n", 0, offset)
    column = offset - last_newline
    return line, column


class LineIndex:
    """Offset -> (line, column) over one text: one newline scan, then bisect.

    Agrees exactly with :func:`offset_to_line_col` (offsets are clamped
    to ``[0, len(text)]`` the same way) and :meth:`Span.from_offsets`,
    at O(log lines) per offset instead of O(offset).
    """

    __slots__ = ("_starts", "_length")

    def __init__(self, text: str) -> None:
        starts = [0]
        find = text.find
        newline = find("\n")
        while newline != -1:
            starts.append(newline + 1)
            newline = find("\n", newline + 1)
        #: 0-based offset at which each line starts; line ``i`` is ``[i - 1]``.
        self._starts = starts
        self._length = len(text)

    def line_col(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) of a character *offset*."""
        offset = max(0, min(offset, self._length))
        line = bisect_right(self._starts, offset)
        return line, offset - self._starts[line - 1] + 1

    def span(self, start: int, end: int) -> Span:
        """Same as ``Span.from_offsets(text, start, end)``."""
        line, column = self.line_col(start)
        end_line, end_column = self.line_col(end)
        return Span(
            start=start,
            end=end,
            line=line,
            column=column,
            end_line=end_line,
            end_column=end_column,
        )
