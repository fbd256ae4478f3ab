"""The streaming parser keeps the exact results of the parser it replaced.

Parsing used to tokenize the whole text into a list up front and
rescan the text from offset 0 for every span.  It now pulls tokens
on demand and answers spans from one :class:`LineIndex`.  These tests
pin what that must not change: every span equals the one-shot
``Span.from_offsets`` over the same offsets and covers the same source
text, and malformed input raises the same ``ParseError`` -- message,
line and column -- as before, including the rule that an unexpected
character anywhere in the text wins over any grammar error.
"""

import pytest

from repro.checkers.project import parse_queries
from repro.lang.errors import ParseError
from repro.lang.parser import (
    parse_atom,
    parse_database,
    parse_program,
    parse_query,
    parse_tgd,
    parse_ucq,
)
from repro.lang.spans import Span
from repro.obda.mappings import parse_mappings

PROGRAM = (
    "% teaching ontology\r\n"
    "r1: teaches(X, Y) -> course(Y).\r\n"
    "\r\n"
    "  professor(X),\n"
    '  worksFor(X, "dept % not a comment")   % trailing comment\n'
    "    -> faculty(X), member(X, D)\n"
    "lbl: course(Y) -> offered(Y, -3)\n"
)
QUERIES = (
    "q(X) :- teaches(X, Y),\r\n"
    "        course(Y)   % first disjunct\n"
    "\n"
    'q(X) :- professor(X). q(X) :- member(X, "d 1")\n'
)
FACTS = (
    "% facts\n"
    'teaches("ann", c1). course(c1)\r\n'
    "\n"
    'member(bob, "a, b")  % quoted comma\n'
    "   offered(c1, 42).\n"
)
MAPPINGS = (
    "% sources\n"
    "person_row(Id, Name) ~> person(Id).\r\n"
    'staff_row(Id, "x"),\n  dept_row(Id) ~> staff(Id)\n'
)


def _assert_exact(node, text):
    """*node*'s span is the one-shot span over its own offsets."""
    span = node.span
    assert span == Span.from_offsets(text, span.start, span.end)


class TestSpans:
    def test_program(self):
        rules = parse_program(PROGRAM)
        assert [
            (rule.label, rule.span.snippet(PROGRAM),
             [atom.span.snippet(PROGRAM) for atom in rule.body + rule.head])
            for rule in rules
        ] == [
            ("r1", "r1: teaches(X, Y) -> course(Y)", ["teaches(X, Y)", "course(Y)"]),
            (
                "R2",
                'professor(X),\n  worksFor(X, "dept % not a comment")'
                "   % trailing comment\n    -> faculty(X), member(X, D)",
                ["professor(X)", 'worksFor(X, "dept % not a comment")',
                 "faculty(X)", "member(X, D)"],
            ),
            ("lbl", "lbl: course(Y) -> offered(Y, -3)",
             ["course(Y)", "offered(Y, -3)"]),
        ]
        for rule in rules:
            _assert_exact(rule, PROGRAM)
            for atom in rule.body + rule.head:
                _assert_exact(atom, PROGRAM)
        assert (rules[1].span.line, rules[1].span.column) == (4, 3)
        assert (rules[1].span.end_line, rules[1].span.end_column) == (6, 32)

    def test_queries(self):
        for disjuncts in (parse_ucq(QUERIES).disjuncts, parse_queries(QUERIES)):
            assert [
                (query.span.snippet(QUERIES),
                 [atom.span.snippet(QUERIES) for atom in query.body])
                for query in disjuncts
            ] == [
                ("q(X) :- teaches(X, Y),\r\n        course(Y)",
                 ["teaches(X, Y)", "course(Y)"]),
                ("q(X) :- professor(X)", ["professor(X)"]),
                ('q(X) :- member(X, "d 1")', ['member(X, "d 1")']),
            ]
            for query in disjuncts:
                _assert_exact(query, QUERIES)
                for atom in query.body:
                    _assert_exact(atom, QUERIES)
        query = parse_query(QUERIES.split("\n\n")[0])
        assert query.span.snippet(QUERIES) == "q(X) :- teaches(X, Y),\r\n        course(Y)"

    def test_database(self):
        facts = parse_database(FACTS)
        assert [fact.span.snippet(FACTS) for fact in facts] == [
            'teaches("ann", c1)', "course(c1)", 'member(bob, "a, b")',
            "offered(c1, 42)",
        ]
        for fact in facts:
            _assert_exact(fact, FACTS)
        assert (facts[3].span.line, facts[3].span.column) == (5, 4)

    def test_mappings(self):
        mappings = parse_mappings(MAPPINGS)
        assert [
            ([atom.span.snippet(MAPPINGS) for atom in m.source_body],
             m.target.span.snippet(MAPPINGS))
            for m in mappings
        ] == [
            (["person_row(Id, Name)"], "person(Id)"),
            (['staff_row(Id, "x")', "dept_row(Id)"], "staff(Id)"),
        ]
        for m in mappings:
            for atom in (*m.source_body, m.target):
                _assert_exact(atom, MAPPINGS)

    def test_late_fact_in_a_large_database(self):
        text = _facts(0, 6000)
        fact = parse_database(text)[5000]
        assert fact.span.snippet(text) == 'r("c5000", 5000)'
        assert (fact.span.line, fact.span.column) == (5001, 1)
        _assert_exact(fact, text)


def _facts(start, stop):
    return "".join(f'r("c{i}", {i}).\n' for i in range(start, stop))


PARSERS = {
    "parse_atom": parse_atom,
    "parse_database": parse_database,
    "parse_mappings": parse_mappings,
    "parse_program": parse_program,
    "parse_query": parse_query,
    "parse_tgd": parse_tgd,
    "parse_ucq": parse_ucq,
}

# (parser, input, full message, line, column) as the up-front tokenizing
# parser reported them.
MALFORMED = [
    ("parse_database", "a(x)\n.",
     "expected IDENT, got PERIOD '.' (line 2, column 1, at offset 5: "
     "...'a(x)\\n.'...)", 2, 1),
    ("parse_database", "a(x).\n.",
     "expected IDENT, got PERIOD '.' (line 2, column 1, at offset 6: "
     "...'a(x).\\n.'...)", 2, 1),
    ("parse_program", "l1: a(X) -> b(X).\nl2:",
     "expected IDENT, got EOF '' (line 2, column 4, at offset 21: "
     "...'1: a(X) -> b(X).\\nl2:'...)", 2, 4),
    ("parse_tgd", "lbl:",
     "expected IDENT, got EOF '' (line 1, column 5, at offset 4: "
     "...'lbl:'...)", 1, 5),
    ("parse_database", "r(a, b",
     "expected RPAREN, got EOF '' (line 1, column 7, at offset 6: "
     "...'r(a, b'...)", 1, 7),
    ("parse_database", "r(a, b\nr(c)",
     "expected RPAREN, got IDENT 'r' (line 2, column 1, at offset 7: "
     "...'r(a, b\\nr(c)'...)", 2, 1),
    ("parse_atom", "a(x) ~ b",
     "unexpected character '~' (line 1, column 6, at offset 5: "
     "...'a(x) ~ b'...)", 1, 6),
    ("parse_program", "a(X) -> b(X) junk",
     "expected LPAREN, got EOF '' (line 1, column 18, at offset 17: "
     "...'a(X) -> b(X) junk'...)", 1, 18),
    ("parse_query", "q(X) :- r(X) trailing",
     "trailing input after query (line 1, column 14, at offset 13: "
     "...'q(X) :- r(X) trailing'...)", 1, 14),
    ("parse_query", "q(a) :- r(a)",
     "answer position must be a variable, got 'a' (line 1, column 3, "
     "at offset 2: ...'q(a) :- r(a)'...)", 1, 3),
    ("parse_database", 'a("unterminated)',
     "unexpected character '\"' (line 1, column 3, at offset 2: "
     "...'a(\"unterminated)'...)", 1, 3),
    # Only the first unexpected character is reported.
    ("parse_database", 'a("x\ny")',
     "unexpected character '\"' (line 1, column 3, at offset 2: "
     "...'a(\"x\\ny\")'...)", 1, 3),
    # An unexpected character later in the text wins over an earlier
    # grammar or safety error (here: an unsafe CQ, an unsafe mapping).
    ("parse_ucq", "q(X) :- r(Y)\nq(Y) :- $",
     "unexpected character '$' (line 2, column 9, at offset 21: "
     "...'(X) :- r(Y)\\nq(Y) :- $'...)", 2, 9),
    ("parse_mappings", "p(X) ~> q(Y)\n$",
     "unexpected character '$' (line 2, column 1, at offset 13: "
     "...'p(X) ~> q(Y)\\n$'...)", 2, 1),
    # Errors 5,000 facts deep, long after the first tokens were dropped.
    ("parse_database", _facts(0, 5000) + 'r("c5000" 5000).\n' + _facts(5001, 5100),
     "expected RPAREN, got INT '5000' (line 5001, column 11, at offset 87790: "
     "...'\", 4999).\\nr(\"c5000\" 5000).\\nr(\"c5001\", 50'...)", 5001, 11),
    ("parse_database", _facts(0, 5000) + 'r("c5000"; 5000).\n' + _facts(5001, 5100),
     "unexpected character ';' (line 5001, column 10, at offset 87789: "
     "...'9\", 4999).\\nr(\"c5000\"; 5000).\\nr(\"c5001\", '...)", 5001, 10),
    ("parse_database", _facts(0, 5000) + "r(\n" + _facts(5001, 5100) + "?",
     "unexpected character '?' (line 5101, column 1, at offset 89565: "
     "...'.\\nr(\"c5099\", 5099).\\n?'...)", 5101, 1),
]


@pytest.mark.parametrize(
    "parser, text, message, line, column",
    MALFORMED,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(MALFORMED)],
)
def test_malformed_input_errors_unchanged(parser, text, message, line, column):
    with pytest.raises(ParseError) as info:
        PARSERS[parser](text)
    assert str(info.value) == message
    assert (info.value.span.line, info.value.span.column) == (line, column)
