"""The Skolem (semi-oblivious) chase.

Between the oblivious and restricted chases sits the *semi-oblivious*
(Skolem) chase: each existential head variable is replaced by a Skolem
term over the rule's frontier, so a trigger invents the *same* null
whenever it fires on the same frontier values.  Equivalently: run the
oblivious chase but reuse nulls per (rule, head variable, frontier
binding).

Properties exercised by the tests:

* it is insensitive to firing order (the instance is a function of the
  input, unlike the restricted chase whose *size* can depend on order);
* it lies between the two other chases:
  ``restricted ⊆ skolem ⊆ oblivious`` in instance size;
* certain answers over its fixpoint (null-free filter) coincide with
  the restricted chase's.
"""

from __future__ import annotations

from typing import Sequence

from repro.chase.chase import DEFAULT_MAX_STEPS, ChaseResult, CompiledRule
from repro.data.database import Database
from repro.lang.errors import ChaseBudgetExceeded
from repro.lang.terms import Null, Term
from repro.lang.tgd import TGD


def skolem_chase(
    rules: Sequence[TGD],
    database: Database,
    max_steps: int = DEFAULT_MAX_STEPS,
    strict: bool = False,
) -> ChaseResult:
    """Run the Skolem chase up to *max_steps* trigger firings."""
    instance = database.copy()
    compiled = [CompiledRule(rule, instance) for rule in rules]
    skolem_table: dict[tuple[int, str, tuple[Term, ...]], Null] = {}
    steps = 0
    fired: set[tuple[int, tuple[Term, ...]]] = set()

    changed = True
    while changed:
        changed = False
        for rule_index, rule in enumerate(compiled):
            for match in list(rule.matches(instance)):
                trigger_key = (rule_index, match)
                if trigger_key in fired:
                    continue
                if steps >= max_steps:
                    if strict:
                        raise ChaseBudgetExceeded(
                            f"skolem chase exceeded {max_steps} steps"
                        )
                    return ChaseResult(
                        instance, steps, False, len(skolem_table)
                    )
                frontier_values = rule.frontier(match)
                invented: list[Term] = []
                for var in rule.existentials:
                    key = (rule_index, var.name, frontier_values)
                    null = skolem_table.get(key)
                    if null is None:
                        null = Null(
                            f"f{rule_index}_{var.name}"
                            + "".join(f"_{t}" for t in frontier_values)
                        )
                        skolem_table[key] = null
                    invented.append(null)
                facts = rule.head_facts(match, tuple(invented))
                added = instance.add_all(facts)
                fired.add(trigger_key)
                steps += 1
                if added:
                    changed = True
    return ChaseResult(instance, steps, True, len(skolem_table))
