"""Semi-naive bottom-up evaluation of (plain) Datalog programs.

The paper's introduction contrasts TGDs with classical Datalog, which
lacks value invention but enjoys terminating bottom-up evaluation.
This module provides that substrate: a semi-naive fixpoint engine for
*full* TGDs (no existential head variables), used by the
materialisation-vs-rewriting comparison benches and available as a
standalone component.

Semi-naive evaluation avoids rederiving known facts: at each round,
every rule is evaluated once per body atom with that atom restricted
to the *delta* (facts new in the previous round) and the remaining
atoms over the full instance.  Each pass runs a delta-anchored plan of
:mod:`repro.data.plan`: the anchor atom's variables are pre-bound
slots filled from each delta fact, and the plan keeps only the head
variables (bindings that agree on them derive the same facts).  The
fixpoint is computed on a private copy, so it polls the evaluation
deadline of :func:`repro.data.plan.deadline_after` like a query does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.data.database import Database
from repro.data.plan import (
    atom_matcher,
    compile_plan,
    current_deadline,
    projection,
)
from repro.lang.atoms import Atom
from repro.lang.errors import SafetyError
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.terms import Term
from repro.lang.tgd import TGD


@dataclass(frozen=True)
class MaterializationResult:
    """Outcome of a Datalog materialisation.

    Attributes:
        instance: the least fixpoint (contains the input facts).
        rounds: number of semi-naive rounds until saturation.
        derived: number of facts added beyond the input.
    """

    instance: Database
    rounds: int
    derived: int


class DatalogProgram:
    """A set of full TGDs evaluated bottom-up to a least fixpoint."""

    def __init__(self, rules: Sequence[TGD]):
        rules = tuple(rules)
        for rule in rules:
            if rule.existential_head_variables():
                raise SafetyError(
                    f"rule {rule.label or rule} has existential head "
                    "variables; Datalog evaluation requires full TGDs"
                )
        self._rules = rules

    @property
    def rules(self) -> tuple[TGD, ...]:
        """The program's rules."""
        return self._rules

    def materialize(self, database: Database) -> MaterializationResult:
        """Compute the least fixpoint of the program over *database*."""
        instance = database.copy()
        delta = list(database.facts())
        heads = [
            [
                (atom.relation, projection(rule.head_variables(), atom.terms))
                for atom in rule.head
            ]
            for rule in self._rules
        ]
        rounds = 0
        derived = 0
        while delta:
            rounds += 1
            delta_db = Database(delta)
            next_delta: list[Atom] = []
            for rule, templates in zip(self._rules, heads):
                for values in _semi_naive_matches(rule, instance, delta_db):
                    for relation, terms in templates:
                        fact = Atom(relation, terms(values))
                        if instance.add(fact):
                            next_delta.append(fact)
                            derived += 1
            delta = next_delta
        return MaterializationResult(
            instance=instance, rounds=rounds, derived=derived
        )

    def answer(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        database: Database,
    ) -> frozenset[tuple[Term, ...]]:
        """Materialise and evaluate *query* over the fixpoint."""
        from repro.data.evaluation import evaluate_ucq

        result = self.materialize(database)
        return evaluate_ucq(
            UnionOfConjunctiveQueries.of(query), result.instance
        )


def _semi_naive_matches(
    rule: TGD, instance: Database, delta: Database
) -> Iterator[tuple[Term, ...]]:
    """Head-variable values of rule-body matches using >= 1 delta fact.

    One pass per body position: atom *i* ranges over the delta, atoms
    before and after it over the full instance; values repeated across
    passes are filtered.  Yields tuples over ``rule.head_variables()``.
    """
    seen: set[tuple[Term, ...]] = set()
    head_vars = rule.head_variables()
    deadline = current_deadline()
    body = list(rule.body)
    for pivot_index, pivot in enumerate(body):
        rows = delta.rows(pivot.relation)
        if not rows:
            continue
        anchor = atom_matcher(pivot)
        plan = compile_plan(
            body[:pivot_index] + body[pivot_index + 1:],
            bound=pivot.variables(),
            keep=head_vars,
            database=instance,
        )
        key_of = plan.project(head_vars)
        for row in rows:
            values = anchor(row)
            if values is None:
                continue
            for binding in plan.run(instance, values, deadline):
                key = key_of(binding)
                if key in seen:
                    continue
                seen.add(key)
                yield key


def datalog_fragment(rules: Sequence[TGD]) -> tuple[TGD, ...]:
    """The full (existential-free) rules of a TGD set."""
    return tuple(r for r in rules if not r.existential_head_variables())
