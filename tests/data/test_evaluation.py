"""Tests for repro.data.evaluation (the CQ/UCQ evaluator)."""

from repro.data.database import Database
from repro.data.evaluation import (
    all_homomorphisms,
    evaluate_cq,
    evaluate_ucq,
    find_homomorphism,
    holds,
)
from repro.lang.atoms import Atom
from repro.lang.parser import parse_database, parse_query, parse_ucq
from repro.lang.queries import ConjunctiveQuery
from repro.lang.terms import Constant, Null, Variable

X, Y = Variable("X"), Variable("Y")


def db(text):
    return Database(parse_database(text))


class TestBasicEvaluation:
    def test_single_atom_projection(self):
        database = db("r(a, b). r(a, c). r(b, c).")
        answers = evaluate_cq(parse_query("q(X) :- r(X, Y)"), database)
        assert answers == {(Constant("a"),), (Constant("b"),)}

    def test_join(self):
        database = db("r(a, b). r(b, c). r(c, d).")
        answers = evaluate_cq(
            parse_query("q(X, Z) :- r(X, Y), r(Y, Z)"), database
        )
        assert answers == {
            (Constant("a"), Constant("c")),
            (Constant("b"), Constant("d")),
        }

    def test_constant_selection(self):
        database = db("r(a, b). r(c, b).")
        answers = evaluate_cq(parse_query('q(Y) :- r("a", Y)'), database)
        assert answers == {(Constant("b"),)}

    def test_repeated_variable_in_atom(self):
        database = db("r(a, a). r(a, b).")
        answers = evaluate_cq(parse_query("q(X) :- r(X, X)"), database)
        assert answers == {(Constant("a"),)}

    def test_boolean_query_satisfied(self):
        database = db("r(a).")
        assert evaluate_cq(parse_query("q() :- r(X)"), database) == {()}

    def test_boolean_query_unsatisfied(self):
        database = db("s(a).")
        assert evaluate_cq(parse_query("q() :- r(X)"), database) == frozenset()

    def test_empty_relation_gives_no_answers(self):
        database = db("s(a).")
        assert (
            evaluate_cq(parse_query("q(X) :- r(X, Y), s(X)"), database)
            == frozenset()
        )

    def test_cross_product_when_no_shared_variables(self):
        database = db("r(a). s(b). s(c).")
        answers = evaluate_cq(parse_query("q(X, Y) :- r(X), s(Y)"), database)
        assert len(answers) == 2


class TestAnswerTerms:
    def test_constant_answer_position(self):
        database = db("r(a).")
        query = ConjunctiveQuery([Constant("k"), X], [Atom("r", [X])])
        assert evaluate_cq(query, database) == {
            (Constant("k"), Constant("a"))
        }

    def test_repeated_answer_variable(self):
        database = db("r(a, b).")
        query = ConjunctiveQuery([X, X], [Atom("r", [X, Y])])
        assert evaluate_cq(query, database) == {
            (Constant("a"), Constant("a"))
        }


class TestCertainFilter:
    def test_null_answers_filtered(self):
        n = Null("n1")
        database = Database([Atom("r", [Constant("a"), n])])
        query = parse_query("q(Y) :- r(X, Y)")
        assert evaluate_cq(query, database) == {(n,)}
        assert evaluate_cq(query, database, certain=True) == frozenset()

    def test_boolean_query_over_nulls_still_holds(self):
        n = Null("n1")
        database = Database([Atom("r", [n])])
        assert evaluate_cq(
            parse_query("q() :- r(X)"), database, certain=True
        ) == {()}


class TestUCQEvaluation:
    def test_union_of_disjuncts(self):
        database = db("a(x1). b(x2).")
        ucq = parse_ucq("q(X) :- a(X). q(X) :- b(X).")
        assert len(evaluate_ucq(ucq, database)) == 2

    def test_single_cq_accepted(self):
        database = db("a(x1).")
        assert len(evaluate_ucq(parse_query("q(X) :- a(X)"), database)) == 1


class TestHomomorphisms:
    def test_find_homomorphism(self):
        database = db("r(a, b).")
        hom = find_homomorphism([Atom("r", [X, Y])], database)
        assert hom == {X: Constant("a"), Y: Constant("b")}

    def test_find_homomorphism_failure(self):
        database = db("s(a).")
        assert find_homomorphism([Atom("r", [X])], database) is None

    def test_all_homomorphisms_count(self):
        database = db("r(a). r(b). r(c).")
        homs = list(all_homomorphisms([Atom("r", [X])], database))
        assert len(homs) == 3

    def test_holds(self):
        database = db("r(a, b).")
        assert holds(parse_query("q() :- r(X, Y)"), database)
        assert not holds(parse_query("q() :- r(X, X)"), database)

    def test_generator_survives_mutation_between_yields(self):
        # The chase, Datalog and maintenance add facts while a match
        # generator is live.  Each step iterates a snapshot taken when
        # the join enters it: the scan of r keeps the rows it started
        # with (a discarded row is still visited, a new one is not),
        # and a probe of s entered after the writes sees them.
        Z = Variable("Z")
        database = db(
            "r(a, 1). r(b, 2). r(c, 3). s(1, x). s(2, y). s(3, z)."
        )
        r_rows = sorted(database.rows("r"))
        s_of = {row[0]: row[1] for row in database.rows("s")}
        homs = all_homomorphisms(
            [Atom("r", [X, Y]), Atom("s", [Y, Z])], database
        )
        first = next(homs)
        w = Constant("w")
        for key in s_of:
            database.add(Atom("s", [key, w]))
        for row in r_rows:
            database.discard(Atom("r", row))
        database.add(Atom("r", [Constant("d"), Constant(1)]))
        rest = list(homs)
        assert first == {X: first[X], Y: first[Y], Z: s_of[first[Y]]}
        expected = [
            {X: x, Y: y, Z: z}
            for x, y in r_rows
            if x != first[X]
            for z in (s_of[y], w)
        ]
        assert len(rest) == len(expected) == 4
        assert sorted(map(sorted_items, rest)) == sorted(
            map(sorted_items, expected)
        )


def sorted_items(binding):
    return sorted((var.name, str(value)) for var, value in binding.items())
