"""In-memory relational database with per-position hash indexes.

A :class:`Database` stores ground atoms (facts) grouped by relation.
Terms in facts are constants or labeled nulls -- nulls appear when the
database is a chase instance.  The store maintains, lazily, one hash
index per (relation, position) pair mapping each term to the facts that
carry it at that position; the plans of :mod:`repro.data.plan` probe
these indexes.

Reads run without a lock beside writers (the server's queries never
wait for a mutation), so two rules keep them safe:

* one lock per database makes building an index atomic with respect
  to ``add``/``discard`` and their index upkeep -- a fact inserted
  while an index is built lands in it, never beside it;
* a reader never iterates a live row set or index bucket: it takes a
  C-level snapshot first (``tuple(bucket)``), which cannot observe a
  half-applied write and never raises "changed size during
  iteration".
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Mapping

from repro.lang.atoms import Atom
from repro.lang.errors import SafetyError
from repro.lang.signature import Signature
from repro.lang.terms import Constant, Null, Term


class Database:
    """A mutable set of facts with indexed access paths.

    The class behaves as a collection of :class:`Atom` objects
    (``len``, ``in``, iteration) and offers relation-level and
    index-level access for evaluators.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        self._relations: dict[str, set[tuple[Term, ...]]] = {}
        self._indexes: dict[tuple[str, int], dict[Term, list[tuple[Term, ...]]]] = {}
        self._signature = Signature()
        self._lock = threading.Lock()
        for fact in facts:
            self.add(fact)

    # ----------------------------------------------------------------- #
    # Mutation                                                           #
    # ----------------------------------------------------------------- #

    def add(self, fact: Atom) -> bool:
        """Insert *fact*; return True iff it was not already present."""
        if not fact.is_ground():
            raise SafetyError(f"cannot store non-ground atom {fact}")
        terms = fact.terms
        with self._lock:
            self._signature.observe_atom(fact)
            rows = self._relations.setdefault(fact.relation, set())
            if terms in rows:
                return False
            rows.add(terms)
            for position, term in enumerate(terms, start=1):
                index = self._indexes.get((fact.relation, position))
                if index is not None:
                    index.setdefault(term, []).append(terms)
        return True

    def add_all(self, facts: Iterable[Atom]) -> int:
        """Insert many facts; return the number actually added."""
        return sum(1 for fact in facts if self.add(fact))

    def discard(self, fact: Atom) -> bool:
        """Remove *fact* if present; return True iff it was present.

        Index buckets left empty are dropped, so insert/delete churn
        does not accumulate empty buckets.
        """
        terms = fact.terms
        with self._lock:
            rows = self._relations.get(fact.relation)
            if rows is None or terms not in rows:
                return False
            rows.remove(terms)
            for position, term in enumerate(terms, start=1):
                index = self._indexes.get((fact.relation, position))
                if index is not None:
                    bucket = index.get(term)
                    if bucket is not None:
                        bucket.remove(terms)
                        if not bucket:
                            del index[term]
        return True

    # ----------------------------------------------------------------- #
    # Access                                                             #
    # ----------------------------------------------------------------- #

    @property
    def signature(self) -> Signature:
        """The signature induced by the stored facts."""
        return self._signature

    def relations(self) -> tuple[str, ...]:
        """Relation symbols with at least one stored fact, sorted."""
        return tuple(sorted(r for r, rows in self._relations.items() if rows))

    def rows(self, relation: str) -> frozenset[tuple[Term, ...]]:
        """All tuples of *relation* (empty when unknown)."""
        return frozenset(self._relations.get(relation, ()))

    def count(self, relation: str) -> int:
        """Number of stored tuples of *relation*."""
        return len(self._relations.get(relation, ()))

    def lookup(
        self, relation: str, position: int, term: Term
    ) -> tuple[tuple[Term, ...], ...]:
        """All tuples of *relation* with *term* at 1-based *position*.

        Builds the (relation, position) hash index on first use.
        """
        return tuple(self.index(relation, position).get(term, ()))

    def index(
        self, relation: str, position: int
    ) -> Mapping[Term, list[tuple[Term, ...]]]:
        """The live hash index of *relation* on 1-based *position*.

        Built on first use, under the lock that ``add``/``discard``
        hold, so no concurrent write is lost.  The mapping and its
        buckets keep changing with the database: snapshot a bucket
        (``tuple(bucket)``) before iterating it.
        """
        key = (relation, position)
        index = self._indexes.get(key)
        if index is None:
            with self._lock:
                index = self._indexes.get(key)
                if index is None:
                    index = {}
                    for row in self._relations.get(relation, ()):
                        index.setdefault(row[position - 1], []).append(row)
                    self._indexes[key] = index
        return index

    def row_set(self, relation: str) -> Iterable[tuple[Term, ...]]:
        """The live tuples of *relation* (empty when unknown).

        Unlike :meth:`rows` this copies nothing; snapshot it
        (``tuple(rows)``) before iterating.
        """
        return self._relations.get(relation, ())

    def facts(self) -> Iterator[Atom]:
        """Iterate over all stored facts as atoms."""
        for relation, rows in self._relations.items():
            for row in rows:
                yield Atom(relation, row)

    def constants(self) -> frozenset[Constant]:
        """The active domain restricted to constants."""
        out: set[Constant] = set()
        for rows in self._relations.values():
            for row in rows:
                out.update(t for t in row if isinstance(t, Constant))
        return frozenset(out)

    def nulls(self) -> frozenset[Null]:
        """All labeled nulls occurring in the stored facts."""
        out: set[Null] = set()
        for rows in self._relations.values():
            for row in rows:
                out.update(t for t in row if isinstance(t, Null))
        return frozenset(out)

    def copy(self) -> "Database":
        """An independent copy of this database (indexes not copied)."""
        clone = Database()
        with self._lock:
            for relation, rows in self._relations.items():
                clone._relations[relation] = set(rows)
                if rows:
                    arity = len(next(iter(rows)))
                    clone._signature.declare(relation, arity)
        return clone

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ----------------------------------------------------------------- #
    # Collection protocol                                                #
    # ----------------------------------------------------------------- #

    def __contains__(self, fact: Atom) -> bool:
        rows = self._relations.get(fact.relation)
        return rows is not None and fact.terms in rows

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._relations.values())

    def __iter__(self) -> Iterator[Atom]:
        return self.facts()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine: Mapping[str, set] = {
            r: rows for r, rows in self._relations.items() if rows
        }
        theirs: Mapping[str, set] = {
            r: rows for r, rows in other._relations.items() if rows
        }
        return mine == theirs

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{r}:{len(rows)}" for r, rows in sorted(self._relations.items())
        )
        return f"Database({sizes})"
