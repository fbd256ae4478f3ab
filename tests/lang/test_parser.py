"""Tests for repro.lang.parser."""

import pytest

from repro.lang.atoms import Atom
from repro.lang.errors import ParseError
from repro.lang.parser import (
    parse_atom,
    parse_database,
    parse_program,
    parse_query,
    parse_tgd,
    parse_ucq,
)
from repro.lang.terms import Constant, Variable


class TestTermConventions:
    def test_uppercase_is_variable(self):
        atom = parse_atom("r(X, Foo)")
        assert atom.terms == (Variable("X"), Variable("Foo"))

    def test_underscore_start_is_variable(self):
        assert parse_atom("r(_x)").terms == (Variable("_x"),)

    def test_lowercase_is_constant(self):
        assert parse_atom("r(alice)").terms == (Constant("alice"),)

    def test_quoted_string_is_constant(self):
        assert parse_atom('r("hello world")').terms == (
            Constant("hello world"),
        )

    def test_integer_is_constant(self):
        assert parse_atom("r(42, -7)").terms == (Constant(42), Constant(-7))

    def test_zero_arity(self):
        assert parse_atom("flag()").arity == 0


class TestTGDParsing:
    def test_basic_rule(self):
        rule = parse_tgd("a(X), b(X, Y) -> c(Y)")
        assert len(rule.body) == 2
        assert rule.head == (Atom("c", [Variable("Y")]),)

    def test_labeled_rule(self):
        rule = parse_tgd("myrule: a(X) -> b(X)")
        assert rule.label == "myrule"

    def test_multi_atom_head(self):
        rule = parse_tgd("a(X) -> b(X), c(X, Y)")
        assert len(rule.head) == 2

    def test_trailing_period_ok(self):
        assert parse_tgd("a(X) -> b(X).").head[0].relation == "b"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_tgd("a(X) -> b(X) extra")

    def test_missing_arrow_rejected(self):
        with pytest.raises(ParseError):
            parse_tgd("a(X), b(X)")


class TestProgramParsing:
    def test_multiline_program_with_comments(self):
        program = parse_program(
            """
            % concept hierarchy
            r1: a(X) -> b(X).
            b(X) -> c(X)  % inline comment
            """
        )
        assert len(program) == 2
        assert program[0].label == "r1"

    def test_auto_labels_assigned(self):
        program = parse_program("a(X) -> b(X). b(X) -> c(X).")
        assert [r.label for r in program] == ["R1", "R2"]

    def test_explicit_labels_kept(self):
        program = parse_program("keep: a(X) -> b(X). b(X) -> c(X).")
        assert program[0].label == "keep"
        assert program[1].label == "R2"

    def test_empty_program(self):
        assert parse_program("  % nothing here\n") == ()


class TestQueryParsing:
    def test_basic_query(self):
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        assert query.name == "q"
        assert query.arity == 2

    def test_boolean_query(self):
        assert parse_query("q() :- r(X)").is_boolean()

    def test_constant_in_body(self):
        query = parse_query('q() :- r("a", X)')
        assert query.body[0].terms[0] == Constant("a")

    def test_constant_answer_position_rejected(self):
        with pytest.raises(ParseError):
            parse_query("q(a) :- r(a)")

    def test_unsafe_query_rejected(self):
        with pytest.raises(Exception):
            parse_query("q(X) :- r(Y)")

    def test_ucq_parsing(self):
        ucq = parse_ucq(
            """
            q(X) :- r(X, Y).
            q(X) :- s(X).
            """
        )
        assert len(ucq) == 2


class TestDatabaseParsing:
    def test_facts(self):
        facts = parse_database("r(a, b). s(1).")
        assert len(facts) == 2
        assert all(f.is_ground() for f in facts)

    def test_non_ground_fact_rejected(self):
        with pytest.raises(ParseError):
            parse_database("r(a, X)")
        # The error points at the offending fact, not at the start of the text.
        with pytest.raises(ParseError, match="is not ground") as info:
            parse_database("r(a, b).\ns(c)\n  r(a, X).\ns(d)")
        assert info.value.pos == 16
        assert (info.value.span.line, info.value.span.column) == (3, 3)


class TestRoundTrip:
    def test_tgd_str_reparses(self):
        rule = parse_tgd('lbl: a(X, "c"), b(X, X) -> c(X, Y)')
        assert parse_tgd(str(rule)) == rule

    def test_query_str_reparses(self):
        query = parse_query("q(X) :- r(X, Y), s(Y)")
        reparsed = parse_query(str(query))
        assert reparsed.canonical() == query.canonical()

    def test_program_str_reparses(self):
        from repro.lang.printer import format_program

        program = parse_program("a(X) -> b(X). b(X) -> c(X, Y).")
        assert parse_program(format_program(program)) == program

    def test_error_reports_offset(self):
        with pytest.raises(ParseError) as excinfo:
            parse_atom("r(X, $)")
        assert "offset" in str(excinfo.value)
