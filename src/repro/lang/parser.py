"""Parser for a Datalog±-style textual syntax.

The concrete syntax follows the conventions of the DLGP format used by
existential-rule tools:

* **Variables** are identifiers starting with an uppercase letter
  (``X``, ``Y1``, ``Person``).
* **Constants** are identifiers starting with a lowercase letter
  (``alice``), double-quoted strings (``"a"``) or integers (``42``).
* **Atoms** are ``relation(term, ..., term)``; relation symbols are
  identifiers (any case -- the token before ``(`` is always a relation).
* **TGDs** are ``body -> head`` with comma-separated atom lists, e.g.
  ``s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3)``.  An optional ``label:`` prefix
  names the rule: ``r1: v(Y1,Y2), q(Y2) -> s(Y1,Y3,Y2)``.
* **CQs** are ``q(X, Y) :- body`` (the head relation names the query);
  boolean queries are written ``q() :- body``.
* **Programs** are sequences of TGDs separated by periods or newlines;
  ``%`` starts a comment running to end of line.
* **Databases** are sequences of ground atoms with the same separators.
* **Mappings** (GAV assertions, parsed by
  :func:`repro.obda.mappings.parse_mappings`) are
  ``source_body ~> target_atom``, e.g. ``person_row(X, N) ~> person(X)``.

Example::

    r1: s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3).
    r2: v(Y1,Y2), q(Y2) -> s(Y1,Y3,Y2).
    r3: r(Y1,Y2) -> v(Y1,Y2).
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from types import TracebackType
from typing import NamedTuple

from repro.lang.atoms import Atom
from repro.lang.errors import ParseError
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.spans import LineIndex, Span
from repro.lang.terms import Constant, Term, Variable
from repro.lang.tgd import TGD

_TOKEN_SPEC = [
    ("WS", r"[ \t\r]+"),
    ("COMMENT", r"%[^\n]*"),
    ("NEWLINE", r"\n"),
    ("MAPSTO", r"~>"),
    ("ARROW", r"->"),
    ("IMPLIES", r":-"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COMMA", r","),
    ("PERIOD", r"\."),
    ("COLON", r":"),
    ("STRING", r'"[^"\n]*"'),
    ("INT", r"-?\d+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    # Any other character: no token starts here.  Matching it as a
    # token keeps ``finditer`` from skipping ahead, so the match stream
    # is exactly the left-to-right tokenization.
    ("ERROR", r"[\s\S]"),
]

_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{rx})" for name, rx in _TOKEN_SPEC))

#: Token kinds the grammar sees; the rest are skipped (line breaks are
#: recorded on the next token, see :attr:`_Token.after_newline`).
_SIGNIFICANT = frozenset(
    name
    for name, _ in _TOKEN_SPEC
    if name not in ("WS", "COMMENT", "NEWLINE", "ERROR")
)


class _Token(NamedTuple):
    kind: str
    value: str
    pos: int
    end: int
    #: A line break lies between the previous significant token and this one.
    after_newline: bool


class _Parser:
    """Recursive-descent parser over a lazily pulled token stream.

    Tokens are matched on demand and only the next two significant ones
    are held (``label :`` is the deepest lookahead), so parsing a large
    fact file costs memory for its atoms only.  Line/column positions
    come from one :class:`LineIndex` per text.

    Use it as a context manager.  An unexpected character anywhere in
    the text is reported ahead of any grammar or safety error, so
    leaving the block with an exception tokenizes the rest of the text,
    and an unexpected character found there replaces the exception.
    """

    def __init__(self, text: str):
        self.text = text
        self._lines = LineIndex(text)
        self._matches: Iterator[re.Match[str]] = _TOKEN_RE.finditer(text)
        self._second: _Token | None = None
        self._last: _Token | None = None
        self._lookahead = self._pull()

    def __enter__(self) -> "_Parser":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        traceback: TracebackType | None,
    ) -> None:
        if isinstance(exc, Exception):
            while self._pull().kind != "EOF":
                pass

    # -- token plumbing ------------------------------------------------ #

    def _pull(self) -> _Token:
        """Match up to the next significant token (EOF once exhausted)."""
        after_newline = False
        for match in self._matches:
            kind = match.lastgroup or ""
            if kind in _SIGNIFICANT:
                pos, end = match.span()
                return _Token(kind, match.group(), pos, end, after_newline)
            if kind == "NEWLINE":
                after_newline = True
            elif kind == "ERROR":
                # The first unexpected character is the error; end the
                # stream so draining cannot report a later one.
                self._matches = iter(())
                raise ParseError(
                    f"unexpected character {match.group()!r}",
                    self.text,
                    match.start(),
                )
        end = len(self.text)
        return _Token("EOF", "", end, end, after_newline)

    def peek(self) -> _Token:
        """The next significant token, not consumed."""
        return self._lookahead

    def _peek_second(self) -> _Token:
        """The significant token after :meth:`peek`'s, not consumed."""
        if self._second is None:
            self._second = self._pull()
        return self._second

    def advance(self) -> _Token:
        token = self._last = self._lookahead
        if self._second is None:
            self._lookahead = self._pull()
        else:
            self._lookahead, self._second = self._second, None
        return token

    def expect(self, kind: str) -> _Token:
        token = self.advance()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, got {token.kind} {token.value!r}",
                self.text,
                token.pos,
            )
        return token

    def at_end(self) -> bool:
        return self._lookahead.kind == "EOF"

    def _span_from(self, start: _Token) -> Span:
        """Span from *start* to the last token consumed so far."""
        last = self._last or start
        return self._lines.span(start.pos, max(last.end, start.pos))

    # -- grammar ------------------------------------------------------- #

    def term(self) -> Term:
        token = self.advance()
        if token.kind == "IDENT":
            if token.value[0].isupper() or token.value[0] == "_":
                return Variable(token.value)
            return Constant(token.value)
        if token.kind == "STRING":
            return Constant(token.value[1:-1])
        if token.kind == "INT":
            return Constant(int(token.value))
        raise ParseError(
            f"expected a term, got {token.kind} {token.value!r}",
            self.text,
            token.pos,
        )

    def atom(self) -> Atom:
        start = self.expect("IDENT")
        self.expect("LPAREN")
        terms: list[Term] = []
        if self.peek().kind != "RPAREN":
            terms.append(self.term())
            while self.peek().kind == "COMMA":
                self.advance()
                terms.append(self.term())
        self.expect("RPAREN")
        return Atom(start.value, terms, span=self._span_from(start))

    def atom_list(self) -> list[Atom]:
        atoms = [self.atom()]
        while self.peek().kind == "COMMA":
            self.advance()
            atoms.append(self.atom())
        return atoms

    def tgd(self) -> TGD:
        start = self.peek()
        label = None
        # Lookahead for "label :" -- an IDENT followed by COLON.
        if start.kind == "IDENT" and self._peek_second().kind == "COLON":
            label = self.advance().value
            self.expect("COLON")
        body = self.atom_list()
        self.expect("ARROW")
        head = self.atom_list()
        return TGD(body, head, label=label, span=self._span_from(start))

    def query(self) -> ConjunctiveQuery:
        start = self.expect("IDENT")
        self.expect("LPAREN")
        answers: list[Variable] = []
        if self.peek().kind != "RPAREN":
            answers.append(self._answer_variable())
            while self.peek().kind == "COMMA":
                self.advance()
                answers.append(self._answer_variable())
        self.expect("RPAREN")
        self.expect("IMPLIES")
        body = self.atom_list()
        return ConjunctiveQuery(
            answers, body, name=start.value, span=self._span_from(start)
        )

    def mapping(self) -> tuple[list[Atom], Atom]:
        """One GAV mapping line: ``source_body ~> target_atom``."""
        body = self.atom_list()
        self.expect("MAPSTO")
        target = self.atom()
        return body, target

    def _answer_variable(self) -> Variable:
        token = self.expect("IDENT")
        if not (token.value[0].isupper() or token.value[0] == "_"):
            raise ParseError(
                f"answer position must be a variable, got {token.value!r}",
                self.text,
                token.pos,
            )
        return Variable(token.value)

    def statement_separator(self) -> None:
        """Consume an optional period on the statement's own line.

        Line breaks separate statements by themselves; a period after
        one is not a separator (``a(x)\\n.`` is rejected at the period).
        """
        token = self._lookahead
        if token.kind == "PERIOD" and not token.after_newline:
            self.advance()


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. ``r(X, "a", 3)``."""
    with _Parser(text) as parser:
        atom = parser.atom()
        parser.statement_separator()
        if not parser.at_end():
            token = parser.peek()
            raise ParseError("trailing input after atom", text, token.pos)
    return atom


def parse_tgd(text: str) -> TGD:
    """Parse a single TGD, e.g. ``r1: s(X,Y) -> r(X,Z)``."""
    with _Parser(text) as parser:
        rule = parser.tgd()
        parser.statement_separator()
        if not parser.at_end():
            token = parser.peek()
            raise ParseError("trailing input after TGD", text, token.pos)
    return rule


def parse_program(text: str) -> tuple[TGD, ...]:
    """Parse a sequence of TGDs separated by periods/newlines.

    Rules without an explicit label receive ``R1``, ``R2``, ... in
    order of appearance.
    """
    rules: list[TGD] = []
    with _Parser(text) as parser:
        while not parser.at_end():
            rules.append(parser.tgd())
            parser.statement_separator()
    return tuple(
        rule
        if rule.label
        else TGD(rule.body, rule.head, label=f"R{i}", span=rule.span)
        for i, rule in enumerate(rules, start=1)
    )


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a single CQ, e.g. ``q(X) :- r(X, Y), s(Y)``."""
    with _Parser(text) as parser:
        query = parser.query()
        parser.statement_separator()
        if not parser.at_end():
            token = parser.peek()
            raise ParseError("trailing input after query", text, token.pos)
    return query


def parse_ucq(text: str) -> UnionOfConjunctiveQueries:
    """Parse one or more CQs (a UCQ), separated by periods/newlines."""
    disjuncts: list[ConjunctiveQuery] = []
    with _Parser(text) as parser:
        while not parser.at_end():
            disjuncts.append(parser.query())
            parser.statement_separator()
    return UnionOfConjunctiveQueries(disjuncts)


def parse_database(text: str) -> tuple[Atom, ...]:
    """Parse a sequence of ground atoms (facts).

    Linear in the size of *text*: tokens stream through a two-token
    lookahead and spans come from one :class:`LineIndex`, so a large
    ABox costs memory for its atoms only.
    """
    facts: list[Atom] = []
    with _Parser(text) as parser:
        while not parser.at_end():
            start = parser.peek()
            atom = parser.atom()
            if not atom.is_ground():
                raise ParseError(f"fact {atom} is not ground", text, start.pos)
            parser.statement_separator()
            facts.append(atom)
    return tuple(facts)
