"""Seeded inputs of every workload, and the reference answers they check.

Everything here runs in the load-generator process and is derived from
``--seed`` alone.  The server only ever sees the files and request
bodies built here: ontology (``.dlp``), facts, queries, mutations.

Reference answers come from a different answering path than the one
under test, computed once outside any timed region:

* ``serve_read`` -- the SQLite backend (rewriting executed as SQL) over
  the full ABox, with the rewriting itself validated against the
  restricted chase on a down-scaled ABox from the same seed;
* ``cold_compile`` -- certain answers read off the restricted chase of
  each tenant's small ABox;
* ``mutate_mixed`` -- a fresh ``hybrid="off"`` session over the shadow
  ABox (base facts plus every acknowledged mutation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.api import EngineOptions, Session
from repro.chase.chase import restricted_chase
from repro.data.database import Database
from repro.data.evaluation import evaluate_ucq
from repro.lang.atoms import Atom
from repro.lang.parser import parse_query
from repro.lang.queries import UnionOfConjunctiveQueries
from repro.lang.signature import Signature
from repro.lang.terms import Constant, Term
from repro.lang.tgd import TGD
from repro.rewriting.store import query_digest
from repro.workloads.clinic import clinic_data, clinic_ontology
from repro.workloads.ontologies import (
    transport_data,
    transport_ontology,
    university_data,
    university_ontology,
    university_queries,
)

# Sizes are fixed per workload (the seed varies content, never scale).
SERVE_SIZE = 3400  # university_data size: ~16k facts
ORACLE_SIZE = 60  # down-scaled ABox for the chase oracle
COMPILE_ABOX_SIZE = 30  # each cold_compile tenant's small ABox
COMPILE_QUERIES = 600  # distinct cold_compile queries
CORPUS_SHAPE_SEED = 0  # fixed: the cold_compile query shapes
MUTATE_SIZE = 500  # university_data size for mutate_mixed: ~2.3k facts
ZIPF_EXPONENT = 1.1

Answers = list[list[str]]


def answer_rows(answers: Iterable[tuple[Term, ...]]) -> Answers:
    """Answers in the server's wire shape: sorted lists of term strings."""
    return sorted([str(term) for term in row] for row in answers)


def program_text(rules: Sequence[TGD]) -> str:
    return "".join(f"{rule}.\n" for rule in rules)


def facts_text(facts: Iterable[Atom]) -> str:
    return "".join(f"{fact}.\n" for fact in facts)


def _distinct(queries: Iterable[str]) -> list[str]:
    """Drop queries equal (up to renaming/reordering) to an earlier one."""
    seen: set[str] = set()
    kept = []
    for text in queries:
        digest = query_digest(parse_query(text))
        if digest not in seen:
            seen.add(digest)
            kept.append(text)
    return kept


def zipf_weights(count: int) -> list[float]:
    return [1.0 / rank**ZIPF_EXPONENT for rank in range(1, count + 1)]


def _constants(database: Database, relation: str, position: int) -> list[str]:
    return sorted({str(row[position]) for row in database.rows(relation)})


# ------------------------------------------------------------------ #
# University query mix (serve_read and mutate_mixed)                  #
# ------------------------------------------------------------------ #

# Point lookups: one constant slot each, filled from the ABox.  The
# slot names the (relation, position) the constant is drawn from.
_LOOKUPS: tuple[tuple[str, tuple[str, int]], ...] = (
    ("q(C) :- teaches({}, C)", ("teaches", 0)),
    ("q(X) :- takes(X, {})", ("takes", 1)),
    ("q(Y) :- hasAdvisor({}, Y)", ("hasAdvisor", 0)),
    ("q(X) :- hasAdvisor(X, {})", ("hasAdvisor", 1)),
    ("q(D) :- memberOf({}, D)", ("worksFor", 0)),
    ("q(X) :- affiliated(X, {})", ("worksFor", 1)),
    ("q(Y) :- instructs({}, Y)", ("teaches", 0)),
    ("q(Y) :- knows({}, Y)", ("teaches", 0)),
    ("q(X, C) :- teaches(X, C), takes({}, C)", ("takes", 0)),
    ("q(Y, D) :- hasAdvisor({}, Y), memberOf(Y, D)", ("hasAdvisor", 0)),
    ("q(X) :- takes(X, C), teaches({}, C)", ("teaches", 0)),
    ("q(C) :- takes({}, C), course(C)", ("takes", 0)),
    ("q(X) :- professor(X), worksFor(X, {})", ("worksFor", 1)),
    ("q(X) :- student(X), takes(X, {})", ("takes", 1)),
    ("q(X) :- faculty(X), teaches(X, {})", ("teaches", 1)),
    ("q(X, Y) :- teaches(X, {}), hasAdvisor(Y, X)", ("teaches", 1)),
)

# Scans with no constants, beside the six named university queries.
_SCANS: tuple[str, ...] = (
    "q(X, Y) :- hasAdvisor(X, Y), worksFor(Y, D)",
    "q(X) :- gradStudent(X), takes(X, C)",
    "q(D) :- hasChair(D, P), memberOf(P, D)",
    "q(X, D) :- lecturer(X), memberOf(X, D)",
    "q(X) :- assistantProfessor(X), teaches(X, C)",
    "q(X, Y) :- researchGroup(X, Y)",
)


def university_mix(
    database: Database, rng: random.Random, per_lookup: int
) -> list[str]:
    """Lookups (``per_lookup`` seeded constants each), then scans.

    The order is the popularity order: point lookups first, the named
    queries and scans in the tail.  Only constants depend on the seed,
    so the mix has the same shape on every seed.
    """
    lookups = []
    for template, (relation, position) in _LOOKUPS:
        pool = _constants(database, relation, position)
        for constant in rng.sample(pool, per_lookup):
            lookups.append(template.format(constant))
    named = [str(query) for _name, query in university_queries()]
    return _distinct(lookups + named + list(_SCANS))


# ------------------------------------------------------------------ #
# serve_read                                                          #
# ------------------------------------------------------------------ #


@dataclass
class ServeReadInputs:
    rules: tuple[TGD, ...]
    database: Database
    queries: list[str]
    weights: list[float]
    reference: dict[str, Answers] = field(default_factory=dict)


def serve_read_inputs(seed: int) -> ServeReadInputs:
    rng = random.Random(seed)
    rules = university_ontology()
    database = university_data(SERVE_SIZE, seed=seed)
    queries = university_mix(database, rng, per_lookup=3)
    return ServeReadInputs(rules, database, queries, zipf_weights(len(queries)))


def serve_read_reference(inputs: ServeReadInputs, seed: int) -> list[str]:
    """Fill ``inputs.reference`` via SQLite; return oracle mismatches.

    The rewriting path is first checked against the chase on a
    down-scaled ABox from the same seed (memory and SQL answers both).
    """
    problems = []
    small = university_data(ORACLE_SIZE, seed=seed)
    chased = restricted_chase(list(inputs.rules), small).instance
    with Session(inputs.rules, small) as session:
        for text in inputs.queries:
            expected = answer_rows(
                evaluate_ucq(
                    UnionOfConjunctiveQueries.of(parse_query(text)),
                    chased,
                    certain=True,
                )
            )
            for backend in ("memory", "sql"):
                got = answer_rows(session.answer(text, backend=backend))
                if got != expected:
                    problems.append(f"chase oracle ({backend}): {text}")
    with Session(inputs.rules, inputs.database) as session:
        for text in inputs.queries:
            inputs.reference[text] = answer_rows(
                session.answer(text, backend="sql")
            )
    return problems


# ------------------------------------------------------------------ #
# cold_compile                                                        #
# ------------------------------------------------------------------ #


@dataclass
class Tenant:
    name: str
    rules: tuple[TGD, ...]
    database: Database


@dataclass
class CompileQuery:
    tenant: str
    text: str
    expected: Answers


def compile_tenants(seed: int) -> list[Tenant]:
    return [
        Tenant("university", university_ontology(),
               university_data(COMPILE_ABOX_SIZE, seed=seed)),
        Tenant("transport", transport_ontology(),
               transport_data(COMPILE_ABOX_SIZE, seed=seed)),
        Tenant("clinic", clinic_ontology(),
               clinic_data(COMPILE_ABOX_SIZE, seed=seed)),
    ]


class _Deck:
    """Seeded draws that use every item equally often (shuffled refills)."""

    def __init__(self, items: Sequence[str], rng: random.Random) -> None:
        self._items = list(items)
        self._rng = rng
        self._left: list[str] = []

    def draw(self) -> str:
        if not self._left:
            self._left = list(self._items)
            self._rng.shuffle(self._left)
        return self._left.pop()


def random_cq(
    rng: random.Random,
    signature: Signature,
    relations: _Deck,
    constants: Callable[[], str],
    atoms: int,
    head: int,
) -> str:
    """A CQ of *atoms* atoms, each later atom joining an earlier variable
    at its first position (and others at random); about one argument in
    six is a constant drawn by *constants*.  Up to *head* variables are
    answer variables."""
    variables: list[str] = []
    body = []
    for index in range(atoms):
        relation = relations.draw()
        args = []
        for position in range(signature[relation]):
            if rng.random() < 1 / 6:
                args.append(constants())
            elif variables and index > 0 and (position == 0 or rng.random() < 0.5):
                args.append(rng.choice(variables))
            else:
                variables.append(f"X{len(variables) + 1}")
                args.append(variables[-1])
        body.append(f"{relation}({', '.join(args)})")
    answer = rng.sample(variables, min(head, len(variables)))
    return f"q({', '.join(answer)}) :- {', '.join(body)}"


def cold_compile_inputs(
    seed: int, tenants: list[Tenant]
) -> list[CompileQuery]:
    """The interleaved corpus with chase-derived expected answers.

    Like TPC-H's query templates, the corpus *shapes* (relations, joins,
    answer variables, where constants go) come from a fixed generator
    seed; ``seed`` picks the constants and the tenants' ABoxes.  The
    compile cost of a corpus is dominated by a few heavy shapes, so
    drawing shapes per seed would make every seed a different
    benchmark.
    """
    shapes = random.Random(CORPUS_SHAPE_SEED)
    rng = random.Random(seed)
    per_tenant = COMPILE_QUERIES // len(tenants)
    streams = []
    for tenant in tenants:
        signature = Signature.from_rules(tenant.rules)
        pool = sorted(str(c) for c in tenant.database.constants())

        def constant() -> str:
            return rng.choice(pool)

        chased = restricted_chase(
            list(tenant.rules), tenant.database, max_steps=1_000_000
        )
        if not chased.fixpoint:
            raise RuntimeError(f"chase of {tenant.name} did not terminate")
        relations = _Deck(sorted(signature), shapes)
        seen: set[str] = set()
        stream = []
        while len(stream) < per_tenant:
            # Shapes cycle so every seed has the same mix: 1-4 atoms,
            # 0-2 answer variables.
            slot = len(stream)
            text = random_cq(
                shapes, signature, relations, constant,
                atoms=1 + slot % 4, head=(slot // 4) % 3,
            )
            query = parse_query(text)
            digest = query_digest(query)
            if digest in seen:
                continue
            seen.add(digest)
            expected = answer_rows(
                evaluate_ucq(
                    UnionOfConjunctiveQueries.of(query),
                    chased.instance,
                    certain=True,
                )
            )
            stream.append(CompileQuery(tenant.name, text, expected))
        streams.append(stream)
    return [query for group in zip(*streams) for query in group]


# ------------------------------------------------------------------ #
# mutate_mixed                                                        #
# ------------------------------------------------------------------ #


@dataclass
class Mutation:
    insert: str | None
    delete: str | None
    inserted: tuple[Atom, ...]
    deleted: tuple[Atom, ...]


@dataclass
class MutateInputs:
    rules: tuple[TGD, ...]
    database: Database
    queries: list[str]
    weights: list[float]
    tape: list[Mutation]


# One tape cycle: five insert batches, four undos of earlier batches and
# one delete of a base fact, in seeded order.  Fixed counts per cycle
# keep the insert/delete mix identical on every seed; half the writes
# are deletes so a round sees enough of them for a steady median.
_TAPE_CYCLE = ("insert",) * 5 + ("undo",) * 4 + ("base",)


def _mutation_tape(
    rng: random.Random, base: Database, length: int
) -> list[Mutation]:
    """Insert batches of fresh grad students, and deletes that undo them
    or remove base facts (so DRed over-deletes and re-derives)."""
    professors = sorted({row[1] for row in base.rows("hasAdvisor")}, key=str)
    courses = sorted({row[1] for row in base.rows("takes")}, key=str)
    # Base deletes all remove a `takes` fact and every batch adds one
    # student, so each kind of delete costs about the same on every seed
    # (a `teaches` delete costs twice a `worksFor` one, a `hasAdvisor`
    # one next to nothing).
    removable = sorted(
        (fact for fact in base.facts() if fact.relation == "takes"), key=str
    )
    rng.shuffle(removable)
    live_batches: list[tuple[Atom, ...]] = []
    tape: list[Mutation] = []
    fresh = 0
    while len(tape) < length:
        cycle = list(_TAPE_CYCLE)
        rng.shuffle(cycle)
        for kind in cycle:
            if kind == "undo" and live_batches:
                batch = live_batches.pop(rng.randrange(len(live_batches)))
                tape.append(Mutation(None, facts_text(batch), (), batch))
            elif kind == "base":
                batch = (removable.pop(),)
                tape.append(Mutation(None, facts_text(batch), (), batch))
            else:
                fresh += 1
                student = Constant(f"newgrad{fresh}")
                batch = (
                    Atom("gradStudent", (student,)),
                    Atom("hasAdvisor", (student, rng.choice(professors))),
                    Atom("takes", (student, rng.choice(courses))),
                )
                live_batches.append(batch)
                tape.append(Mutation(facts_text(batch), None, batch, ()))
    return tape[:length]


def mutate_inputs(seed: int, tape_length: int) -> MutateInputs:
    rng = random.Random(seed)
    rules = university_ontology()
    database = university_data(MUTATE_SIZE, seed=seed)
    queries = university_mix(database, rng, per_lookup=1)
    tape = _mutation_tape(rng, database, tape_length)
    return MutateInputs(
        rules, database, queries, zipf_weights(len(queries)), tape
    )


def shadow_abox(base: Database, applied: Sequence[Mutation]) -> Database:
    """Base facts plus the acknowledged prefix of the tape."""
    shadow = base.copy()
    for mutation in applied:
        for fact in mutation.inserted:
            shadow.add(fact)
        for fact in mutation.deleted:
            shadow.discard(fact)
    return shadow


def mutate_reference(
    rules: Sequence[TGD], shadow: Database, queries: Sequence[str]
) -> dict[str, Answers]:
    """Answers of a fresh rewrite-only session over *shadow*."""
    options = EngineOptions(hybrid="off")
    with Session(rules, shadow, options=options) as session:
        return {text: answer_rows(session.answer(text)) for text in queries}
