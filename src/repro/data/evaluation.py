"""Conjunctive-query evaluation over :class:`~repro.data.database.Database`.

Implements ``ans(q, D)`` of Section 3 for CQs and UCQs.  Every entry
point runs a compiled :class:`~repro.data.plan.Plan`: a fixed join
order with slot-bound variables, probing (relation, position) hash
indexes where an argument is bound and scanning otherwise (see
:mod:`repro.data.plan` for the plan shape).  A CQ's plan is compiled on
its first evaluation and kept with the query object, so a cached
rewriting is compiled once however often it is read.

Two answer policies are provided:

* :func:`evaluate_cq` / :func:`evaluate_ucq` return every answer tuple,
  including tuples that mention labeled nulls (useful when querying a
  chase instance as a plain database);
* the ``certain=True`` flag filters tuples mentioning nulls, which is
  the filter used to read certain answers off a chase.

**Snapshot contract.**  Every probe and scan iterates a snapshot of its
bucket, so callers may add and discard facts between the yields of
:func:`all_homomorphisms`; a step sees the facts present when the
kernel enters it.

**Deadlines.**  :func:`evaluate_cq`, :func:`evaluate_ucq` and
:func:`holds` poll the deadline of
:func:`~repro.data.plan.deadline_after` and raise
:class:`~repro.lang.errors.DeadlineExceeded` once it has passed.  The
homomorphism helpers serve fixpoint computations and never poll.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.data.database import Database
from repro.data.plan import compile_plan, current_deadline, query_plan
from repro.lang.atoms import Atom
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.terms import Null, Term, Variable


def evaluate_cq(
    query: ConjunctiveQuery, database: Database, certain: bool = False
) -> frozenset[tuple[Term, ...]]:
    """All answers of *query* over *database*.

    With ``certain=True``, answers containing labeled nulls are
    filtered out (the certain-answer filter over chase instances).
    Boolean queries return ``{()}`` when satisfied and ``frozenset()``
    otherwise.
    """
    return _answers((query,), database, certain)


def evaluate_ucq(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    database: Database,
    certain: bool = False,
) -> frozenset[tuple[Term, ...]]:
    """All answers of a UCQ (union of the disjuncts' answers)."""
    if isinstance(query, ConjunctiveQuery):
        return _answers((query,), database, certain)
    return _answers(query.disjuncts, database, certain)


def _answers(
    disjuncts: Sequence[ConjunctiveQuery], database: Database, certain: bool
) -> frozenset[tuple[Term, ...]]:
    deadline = current_deadline()
    count = database.count
    answers: set[tuple[Term, ...]] = set()
    for cq in disjuncts:
        if not all(count(atom.relation) for atom in cq.body):
            continue  # an empty relation: no answers, nothing to compile
        plan = query_plan(cq, database)
        answers.update(map(plan.answer, plan.run(database, (), deadline)))
    if certain:
        return frozenset(
            row
            for row in answers
            if not any(isinstance(term, Null) for term in row)
        )
    return frozenset(answers)


def holds(query: ConjunctiveQuery, database: Database) -> bool:
    """True iff the boolean query (or some answer) is satisfied."""
    plan = query_plan(query, database)
    for _ in plan.run(database, (), current_deadline()):
        return True
    return False


def find_homomorphism(
    atoms: Sequence[Atom], database: Database
) -> dict[Variable, Term] | None:
    """A homomorphism from *atoms* into *database*, or None.

    Used by CQ containment via the canonical-database method.
    """
    plan = compile_plan(atoms, database=database)
    binding = plan.first(database)
    if binding is None:
        return None
    return dict(zip(plan.variables, binding))


def all_homomorphisms(
    atoms: Sequence[Atom], database: Database
) -> Iterator[dict[Variable, Term]]:
    """Every homomorphism from *atoms* into *database* (lazily)."""
    plan = compile_plan(atoms, database=database)
    variables = plan.variables
    return (dict(zip(variables, binding)) for binding in plan.run(database))
