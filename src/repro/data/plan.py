"""Compiled join plans: the one join kernel under every evaluator.

Every homomorphism search of the library -- CQ and UCQ answering, the
chase's trigger and head-satisfaction checks, hybrid maintenance,
Datalog semi-naive evaluation, mapping application and the minimizer's
subsumption checks -- runs a :class:`Plan` compiled here.

**Plan shape.**  A conjunction of atoms is compiled once into a fixed
join order, chosen greedily: most bound arguments first, then the
smallest relation, then body order.  Variables live in integer
*slots*.  Pre-bound variables (an answer tuple to check, a rule
frontier, the terms of a delta fact) take the first slots; every other
variable takes the next slot at the step that binds it, so a binding is
a tuple that grows by a suffix per step.  Each :class:`Step` holds
precomputed positions:

* ``probe`` -- the position looked up in the ``(relation, position)``
  hash index, keyed by a constant or an earlier slot; -1 scans the
  relation;
* ``check``/``check_terms``/``target`` -- further positions that must
  equal a constant or an earlier slot (``target`` is precomputed when
  they are all constants);
* ``repeats`` -- position pairs that must be equal (a variable repeated
  inside one atom);
* ``bind`` -- the positions filling the step's new slots;
* ``witness`` -- True when no later step and no kept variable reads
  what the step would bind; one matching row then decides the step,
  since every other row would repeat the same work.

Executing a plan copies no binding dict and picks no join order.

**Snapshot contract.**  Writers add facts while a match generator is
live (the chase, Datalog and maintenance fire triggers mid-iteration;
server reads run unlocked beside mutations), so every probe and scan
iterates a C-level snapshot of its bucket or row set
(``tuple(bucket)``), never the live container.  A step sees the facts
present when the kernel enters it; a run over a relation that is empty
when the run starts yields nothing.  Indexes come from
:meth:`Database.index`, whose build is atomic with respect to writes.

**Deadlines.**  :func:`deadline_after` sets a deadline for the current
context; query answering (``repro.data.evaluation``) and Datalog
materialisation pass it to :meth:`Plan.run`, which polls the clock
once per :data:`POLL_ROWS` candidate rows fetched and raises
:class:`~repro.lang.errors.DeadlineExceeded` once it has passed.
Computations that own shared state (the chase, hybrid maintenance,
minimization) never poll, so they cannot stop half done.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from operator import itemgetter
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro import obs
from repro.data.database import Database
from repro.lang.atoms import Atom
from repro.lang.errors import DeadlineExceeded
from repro.lang.queries import ConjunctiveQuery
from repro.lang.terms import Term, Variable

#: Candidate rows fetched between two deadline polls.
POLL_ROWS = 1024

Binding = tuple[Term, ...]
Projection = Callable[[Binding], Binding]

_DEADLINE: contextvars.ContextVar[float | None] = contextvars.ContextVar(
    "repro_plan_deadline", default=None
)


@contextmanager
def deadline_after(seconds: float | None) -> Iterator[None]:
    """Let query evaluation in this context run for *seconds* at most.

    ``None`` sets no deadline.  The deadline is a ``time.monotonic()``
    instant read by :func:`current_deadline`.
    """
    if seconds is None:
        yield
        return
    token = _DEADLINE.set(time.monotonic() + seconds)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def current_deadline() -> float | None:
    """The deadline set by the innermost :func:`deadline_after`, if any."""
    return _DEADLINE.get()


class Step(NamedTuple):
    """One atom of a plan, with every position decision precomputed."""

    relation: str
    arity: int
    probe: int
    key: Term | None
    key_slot: int
    check: Projection | None
    check_terms: tuple[tuple[int, Term | None], ...]
    target: Binding | None
    repeats: tuple[tuple[int, int], ...]
    bind: Projection | None
    witness: bool


class Plan:
    """A compiled join over a fixed atom order (see the module docstring).

    Attributes:
        variables: the variable of each slot, pre-bound ones first.
        bound: how many leading slots :meth:`run` takes as input.
        steps: the atoms in join order, compiled.
        answer: for query plans, the projection of the answer tuple.
    """

    __slots__ = ("variables", "bound", "steps", "answer")

    def __init__(
        self,
        variables: tuple[Variable, ...],
        bound: int,
        steps: tuple[Step, ...],
    ) -> None:
        self.variables = variables
        self.bound = bound
        self.steps = steps
        self.answer: Projection | None = None

    def project(self, terms: Sequence[Term]) -> Projection:
        """A function from a binding of this plan to *terms*' values."""
        return projection(self.variables, terms)

    def run(
        self,
        database: Database,
        values: Binding = (),
        deadline: float | None = None,
    ) -> Iterator[Binding]:
        """Every binding extending *values* (the pre-bound slots), lazily.

        Each yielded tuple holds one value per slot of
        :attr:`variables` (witness steps bind nothing, so kept
        variables are always covered).
        """
        if not self.steps:
            return iter((values,))
        sources: list[Any] = []
        for step in self.steps:
            if (
                database.signature.get(step.relation) != step.arity
                or not database.count(step.relation)
            ):
                return iter(())
            if step.probe < 0:
                sources.append(database.row_set(step.relation))
            else:
                sources.append(database.index(step.relation, step.probe + 1))
        return _execute(self.steps, sources, values, deadline)

    def first(
        self, database: Database, values: Binding = ()
    ) -> Binding | None:
        """The first binding :meth:`run` yields, or None."""
        return next(self.run(database, values), None)


def compile_plan(
    atoms: Sequence[Atom],
    *,
    bound: Sequence[Variable] = (),
    keep: Sequence[Variable] | None = None,
    database: Database | None = None,
) -> Plan:
    """Compile the conjunction *atoms* into a :class:`Plan`.

    *bound* variables (distinct) are given at run time, as the first
    slots.  *keep* names the variables the caller reads off each
    binding; None keeps all, and steps binding only unkept, unshared
    variables become witness steps.  *database* supplies relation sizes
    for the join order; without it ties between equally bound atoms
    keep body order.
    """
    atoms = tuple(atoms)
    # Number the variables once, pre-bound ones first; the rest of the
    # compiler works on these ids rather than hashing Variable objects.
    ids: dict[Variable, int] = {var: i for i, var in enumerate(bound)}
    coded = [
        [
            ids.setdefault(term, len(ids)) if isinstance(term, Variable)
            else -1
            for term in atom.terms
        ]
        for atom in atoms
    ]
    names = list(ids)
    # Occurrences in the atoms not yet placed: a variable a step binds
    # is dead when none remain and the caller does not keep it.
    pending = [0] * len(names)
    for codes in coded:
        for code in codes:
            if code >= 0:
                pending[code] += 1
    kept = None if keep is None else {ids[var] for var in keep if var in ids}
    slot_of = list(range(len(bound))) + [-1] * (len(names) - len(bound))
    variables = list(bound)
    steps = []
    sizes = [
        database.count(atom.relation) if database is not None else 0
        for atom in atoms
    ]
    remaining = list(range(len(atoms)))
    while remaining:
        best = remaining[0]
        if len(remaining) > 1:
            best_key = None
            for i in remaining:
                bound_terms = 0
                for code in coded[i]:
                    if code < 0 or slot_of[code] >= 0:
                        bound_terms += 1
                key = (-bound_terms, sizes[i])
                if best_key is None or key < best_key:
                    best, best_key = i, key
        remaining.remove(best)
        codes = coded[best]
        for code in codes:
            if code >= 0:
                pending[code] -= 1
        witness = kept is not None and all(
            not pending[code] and code not in kept
            for code in codes
            if code >= 0 and slot_of[code] < 0
        )
        step = _compile_step(
            atoms[best], codes, slot_of, names, variables, witness
        )
        steps.append(step)
    return Plan(tuple(variables), len(bound), tuple(steps))


def _compile_step(
    atom: Atom,
    codes: list[int],
    slot_of: list[int],
    names: list[Variable],
    variables: list[Variable],
    witness: bool,
) -> Step:
    """Precompute one step's positions; allocates its new slots.

    *codes* holds the atom's variable ids (-1 for other terms) and
    *slot_of* the slot of each id bound so far (-1 when unbound).
    """
    terms = atom.terms
    probe, key, key_slot = -1, None, -1
    for position, code in enumerate(codes):
        if code < 0:
            probe, key = position, terms[position]
            break
        if slot_of[code] >= 0:
            probe, key_slot = position, slot_of[code]
            break
    check_positions: list[int] = []
    check_terms: list[tuple[int, Term | None]] = []
    repeats: list[tuple[int, int]] = []
    binds: list[int] = []
    first_seen: dict[int, int] = {}
    fixed = True
    for position, code in enumerate(codes):
        if position == probe:
            continue
        if code < 0:
            check_positions.append(position)
            check_terms.append((-1, terms[position]))
        elif code in first_seen:
            repeats.append((position, first_seen[code]))
        elif slot_of[code] >= 0:
            check_positions.append(position)
            check_terms.append((slot_of[code], None))
            fixed = False
        else:
            first_seen[code] = position
            if not witness:
                slot_of[code] = len(variables)
                variables.append(names[code])
                binds.append(position)
    return Step(
        atom.relation,
        len(terms),
        probe,
        key,
        key_slot,
        _getter(check_positions),
        tuple(check_terms),
        tuple([term for _, term in check_terms]) if fixed else None,
        tuple(repeats),
        _getter(binds),
        witness,
    )


_GETTERS: dict[tuple[int, ...], Projection] = {}


def _getter(positions: Sequence[int]) -> Projection | None:
    """A C-level function from a tuple to the tuple of *positions*.

    Getters are immutable and shared by every plan that needs the same
    positions (a bounded set: positions are below the largest arity),
    so cached plans stay small.
    """
    if not positions:
        return None
    key = tuple(positions)
    getter = _GETTERS.get(key)
    if getter is None:
        first, last = key[0], key[-1]
        if key == tuple(range(first, last + 1)):
            getter = itemgetter(slice(first, last + 1))
        else:
            getter = itemgetter(*key)
        getter = _GETTERS.setdefault(key, getter)
    return getter


def _no_values(binding: Binding) -> Binding:
    return ()


def projection(
    variables: Sequence[Variable], terms: Sequence[Term]
) -> Projection:
    """A function from a tuple over *variables* to the values of *terms*.

    Variables are read from their slot, other terms are kept as they
    are.  When every term is a variable the function is a C-level
    ``itemgetter``.
    """
    slot = {var: i for i, var in enumerate(variables)}
    if all(isinstance(term, Variable) for term in terms):
        getter = _getter([slot[term] for term in terms])  # type: ignore[index]
        return _no_values if getter is None else getter
    parts = tuple(
        (slot[term], None) if isinstance(term, Variable) else (-1, term)
        for term in terms
    )
    return lambda binding: tuple(
        [term if index < 0 else binding[index] for index, term in parts]
    )


def atom_matcher(atom: Atom) -> Callable[[Binding], Binding | None]:
    """Match a stored row against *atom*: the values of
    ``atom.variables()`` in order, or None when constants or repeated
    variables disagree with the row."""
    (step,) = compile_plan([atom]).steps

    def match(row: Binding) -> Binding | None:
        if len(row) != step.arity:
            return None
        if step.probe >= 0 and row[step.probe] != step.key:
            return None
        if step.check is not None and step.check(row) != step.target:
            return None
        for position, other in step.repeats:
            if row[position] != row[other]:
                return None
        return step.bind(row) if step.bind is not None else ()

    return match


def query_plan(query: ConjunctiveQuery, database: Database) -> Plan:
    """The plan of *query*, compiled on first use and kept with it.

    The plan keeps only the answer variables and carries the answer
    projection.  It lives as long as the query object does, so plans of
    cached rewritings are bounded by the rewriting cache.  Each compile
    counts ``data.plans_compiled``.
    """
    plan = getattr(query, "_plan", None)
    if plan is None:
        plan = compile_plan(
            query.body, keep=query.answer_variables, database=database
        )
        plan.answer = plan.project(query.answer_terms)
        query._plan = plan
        obs.count("data.plans_compiled")
    return plan


def _execute(
    steps: tuple[Step, ...],
    sources: list[Any],
    values: Binding,
    deadline: float | None,
) -> Iterator[Binding]:
    """The kernel: iterate the steps depth-first without recursion.

    Per depth it keeps the candidate iterator, the binding prefix the
    step extends and its check target; *descend* carries a binding
    into the next step.
    """
    last = len(steps) - 1
    iterators: list[Iterator[Binding]] = [iter(())] * len(steps)
    prefixes: list[Binding] = [()] * len(steps)
    targets: list[Binding | None] = [None] * len(steps)
    budget = POLL_ROWS
    depth = 0
    descend: Binding | None = values
    while depth >= 0:
        (_, _, probe, key, key_slot, check, check_terms, target, repeats,
         bind, witness) = steps[depth]
        if descend is not None:
            # Enter the step: snapshot its candidate rows.
            prefix = descend
            source = sources[depth]
            if probe < 0:
                rows = tuple(source)
            else:
                bucket = source.get(key if key_slot < 0 else prefix[key_slot])
                rows = tuple(bucket) if bucket else ()
            if deadline is not None:
                budget -= len(rows)
                if budget <= 0:
                    budget = POLL_ROWS
                    if time.monotonic() > deadline:
                        raise DeadlineExceeded(
                            "query evaluation ran past its deadline"
                        )
            if check is not None and target is None:
                target = tuple(
                    [
                        term if slot < 0 else prefix[slot]
                        for slot, term in check_terms
                    ]
                )
            iterator = iter(rows)
            iterators[depth] = iterator
            prefixes[depth] = prefix
            targets[depth] = target
            descend = None
        else:
            iterator = iterators[depth]
            prefix = prefixes[depth]
            target = targets[depth]
        for row in iterator:
            if check is not None and check(row) != target:
                continue
            if repeats and any(row[p] != row[q] for p, q in repeats):
                continue
            binding = prefix + bind(row) if bind is not None else prefix
            if witness:
                # One matching row decides the step: never resume it.
                iterators[depth] = iter(())
            if depth < last:
                descend = binding
                break
            yield binding
            if witness:
                break
        if descend is None:
            depth -= 1
        else:
            depth += 1
