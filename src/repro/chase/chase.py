"""Oblivious and restricted chase engines.

A *trigger* is a pair (rule, homomorphism from the rule body into the
current instance).  The **oblivious chase** fires every trigger exactly
once; the **restricted chase** fires a trigger only when its head is
not already satisfied by an extension of the trigger homomorphism.
Both invent a fresh labeled null per existential head variable per
firing.

Neither chase terminates on arbitrary TGDs, so both engines take a
step budget and report whether they reached a fixpoint.  With
``strict=True`` they raise :class:`ChaseBudgetExceeded` instead of
returning a truncated instance.

Triggers are found by the plans of :mod:`repro.data.plan`, wrapped per
rule in a :class:`CompiledRule` that the Skolem chase and the hybrid
maintainer share.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from repro import obs
from repro.chase.nulls import NullFactory
from repro.data.database import Database
from repro.data.plan import (
    Binding,
    Plan,
    Projection,
    atom_matcher,
    compile_plan,
    projection,
)
from repro.lang.atoms import Atom
from repro.lang.errors import ChaseBudgetExceeded
from repro.lang.tgd import TGD

Match = Binding
Anchored = Tuple[Callable[[Binding], Optional[Binding]], Plan, Projection]

DEFAULT_MAX_STEPS = 100_000


@dataclass(frozen=True)
class ChaseResult:
    """Outcome of a chase run.

    Attributes:
        instance: the chased database (contains the input facts).
        steps: number of trigger firings performed.
        fixpoint: True iff no applicable trigger remained.
        nulls_created: number of labeled nulls invented.
    """

    instance: Database
    steps: int
    fixpoint: bool
    nulls_created: int


class CompiledRule:
    """A rule's join plans and instantiation templates.

    A *match* (a trigger's homomorphism) is a tuple of values over
    ``rule.body_variables()``; that order is fixed whatever join order
    a plan picks, so a match doubles as the trigger key.  The body plan
    is recompiled per :meth:`matches` call, so its join order follows
    the growing instance.  The head plan -- frontier pre-bound, nothing
    kept -- is compiled once, against *database*'s relation sizes, and
    each delta-anchored plan once, on its first use.
    """

    __slots__ = (
        "rule",
        "variables",
        "existentials",
        "frontier",
        "_head_plan",
        "_anchored",
        "_bodies",
        "_heads",
    )

    def __init__(self, rule: TGD, database: Database | None = None) -> None:
        self.rule = rule
        self.variables = rule.body_variables()
        self.existentials = rule.existential_head_variables()
        frontier = rule.distinguished_variables()
        self.frontier = projection(self.variables, frontier)
        self._head_plan = compile_plan(
            rule.head, bound=frontier, keep=(), database=database
        )
        self._anchored: list[Anchored | None] = [None] * len(rule.body)
        extended = self.variables + self.existentials
        self._bodies = tuple(
            (atom.relation, projection(self.variables, atom.terms))
            for atom in rule.body
        )
        self._heads = tuple(
            (atom.relation, projection(extended, atom.terms))
            for atom in rule.head
        )

    def matches(self, instance: Database) -> Iterator[Match]:
        """Every homomorphism of the body into *instance* (lazily)."""
        plan = compile_plan(self.rule.body, database=instance)
        return map(plan.project(self.variables), plan.run(instance))

    def delta_matches(
        self, instance: Database, facts: Sequence[Atom]
    ) -> Iterator[Match]:
        """Matches mapping some body atom onto one of *facts*.

        Every trigger new since the previous fixpoint maps at least one
        body atom to a new fact, so anchoring each body position in
        turn covers all of them.  Each pass runs a delta-anchored plan:
        the anchor atom's variables are pre-bound slots.  A match
        anchored at two positions is yielded twice.
        """
        by_relation: dict[str, list[Atom]] = defaultdict(list)
        for fact in facts:
            by_relation[fact.relation].append(fact)
        for position, atom in enumerate(self.rule.body):
            anchored = by_relation.get(atom.relation)
            if not anchored:
                continue
            anchor, plan, key_of = self._anchored_plan(position, instance)
            for fact in anchored:
                values = anchor(fact.terms)
                if values is not None:
                    yield from map(key_of, plan.run(instance, values))

    def _anchored_plan(self, position: int, instance: Database) -> Anchored:
        """The matcher of body atom *position* and the plan of the other
        atoms with its variables pre-bound (compiled on first use)."""
        compiled = self._anchored[position]
        if compiled is None:
            body = self.rule.body
            atom = body[position]
            plan = compile_plan(
                body[:position] + body[position + 1:],
                bound=atom.variables(),
                database=instance,
            )
            compiled = (
                atom_matcher(atom), plan, plan.project(self.variables)
            )
            self._anchored[position] = compiled
        return compiled

    def satisfied(self, match: Match, instance: Database) -> bool:
        """True iff the head maps into *instance* with the frontier fixed
        (the restricted chase's applicability check)."""
        values = self.frontier(match)
        return self._head_plan.first(instance, values) is not None

    def body_facts(self, match: Match) -> tuple[Atom, ...]:
        """The body atoms instantiated by *match*."""
        return tuple(
            Atom(relation, terms(match)) for relation, terms in self._bodies
        )

    def head_facts(self, match: Match, invented: Match) -> tuple[Atom, ...]:
        """The head atoms instantiated by *match*, with *invented* values
        (one per existential head variable, in order)."""
        values = match + invented
        return tuple(
            Atom(relation, terms(values)) for relation, terms in self._heads
        )


def restricted_chase(
    rules: Sequence[TGD],
    database: Database,
    max_steps: int = DEFAULT_MAX_STEPS,
    strict: bool = False,
) -> ChaseResult:
    """Run the restricted (standard) chase up to *max_steps* firings.

    A trigger fires only if the instantiated head cannot already be
    mapped into the instance with the frontier held fixed, so the
    result is generally much smaller than the oblivious chase and
    terminates in strictly more cases.
    """
    return _chase(rules, database, max_steps, strict, restricted=True)


def oblivious_chase(
    rules: Sequence[TGD],
    database: Database,
    max_steps: int = DEFAULT_MAX_STEPS,
    strict: bool = False,
) -> ChaseResult:
    """Run the oblivious chase: every trigger fires exactly once."""
    return _chase(rules, database, max_steps, strict, restricted=False)


def _chase(
    rules: Sequence[TGD],
    database: Database,
    max_steps: int,
    strict: bool,
    restricted: bool,
) -> ChaseResult:
    instance = database.copy()
    nulls = NullFactory()
    steps = 0
    rounds = 0
    triggers_checked = 0
    suppressed = 0
    fired: set[tuple[int, Match]] = set()
    compiled = [CompiledRule(rule, instance) for rule in rules]
    with obs.span(
        "chase",
        mode="restricted" if restricted else "oblivious",
        rules=len(rules),
        facts=len(instance),
    ) as span:

        def finish(fixpoint: bool) -> ChaseResult:
            span.set(
                fixpoint=fixpoint, steps=steps, rounds=rounds,
                size=len(instance), nulls=nulls.created,
            )
            obs.count("chase.rounds", rounds)
            obs.count("chase.firings", steps)
            obs.count("chase.nulls_created", nulls.created)
            obs.count("chase.triggers_checked", triggers_checked)
            obs.count("chase.triggers_suppressed", suppressed)
            return ChaseResult(instance, steps, fixpoint, nulls.created)

        # Round-based saturation: recompute triggers until a full round adds
        # nothing.  Rules iterate in input order, homomorphisms in the
        # evaluator's deterministic order, so runs are reproducible.
        changed = True
        while changed:
            changed = False
            rounds += 1
            with obs.span("chase.round", round=rounds) as round_span:
                fired_before = steps
                for rule_index, rule in enumerate(compiled):
                    for match in list(rule.matches(instance)):
                        triggers_checked += 1
                        trigger_key = (rule_index, match)
                        if trigger_key in fired:
                            continue
                        if restricted and rule.satisfied(match, instance):
                            suppressed += 1
                            fired.add(trigger_key)
                            continue
                        if steps >= max_steps:
                            if strict:
                                raise ChaseBudgetExceeded(
                                    f"chase exceeded {max_steps} steps"
                                )
                            round_span.set(fired=steps - fired_before)
                            return finish(False)
                        invented = tuple(
                            nulls.fresh() for _ in rule.existentials
                        )
                        instance.add_all(rule.head_facts(match, invented))
                        fired.add(trigger_key)
                        steps += 1
                        changed = True
                round_span.set(fired=steps - fired_before)
        return finish(True)


def chase_closure(
    rules: Iterable[TGD],
    facts: Iterable[Atom],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Database:
    """Convenience: restricted-chase a fact list and return the instance.

    Raises :class:`ChaseBudgetExceeded` if no fixpoint is reached.
    """
    result = restricted_chase(
        list(rules), Database(facts), max_steps=max_steps, strict=True
    )
    return result.instance
