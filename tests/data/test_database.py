"""Tests for repro.data.database."""

import pytest

from repro.data.database import Database
from repro.lang.atoms import Atom
from repro.lang.errors import SafetyError, SignatureError
from repro.lang.parser import parse_database
from repro.lang.terms import Constant, Null, Variable

A, B, C = Constant("a"), Constant("b"), Constant("c")


def fact(relation, *values):
    return Atom(relation, [v if isinstance(v, (Constant, Null)) else Constant(v) for v in values])


class TestMutation:
    def test_add_returns_newness(self):
        db = Database()
        assert db.add(fact("r", "a", "b"))
        assert not db.add(fact("r", "a", "b"))

    def test_add_all_counts_new_only(self):
        db = Database()
        added = db.add_all([fact("r", "a"), fact("r", "a"), fact("r", "b")])
        assert added == 2

    def test_non_ground_rejected(self):
        with pytest.raises(SafetyError):
            Database().add(Atom("r", [Variable("X")]))

    def test_arity_consistency_enforced(self):
        db = Database([fact("r", "a")])
        with pytest.raises(SignatureError):
            db.add(fact("r", "a", "b"))

    def test_discard(self):
        db = Database([fact("r", "a")])
        assert db.discard(fact("r", "a"))
        assert not db.discard(fact("r", "a"))
        assert len(db) == 0

    def test_discard_keeps_index_consistent(self):
        db = Database([fact("r", "a", "b"), fact("r", "a", "c")])
        assert len(db.lookup("r", 1, A)) == 2
        db.discard(fact("r", "a", "b"))
        assert len(db.lookup("r", 1, A)) == 1


class TestAccess:
    def test_rows_and_count(self):
        db = Database([fact("r", "a"), fact("r", "b"), fact("s", "c")])
        assert db.count("r") == 2
        assert db.count("missing") == 0
        assert (B,) in db.rows("r")

    def test_lookup_by_position(self):
        db = Database([fact("r", "a", "b"), fact("r", "b", "b"), fact("r", "a", "c")])
        assert len(db.lookup("r", 1, A)) == 2
        assert len(db.lookup("r", 2, B)) == 2
        assert db.lookup("r", 1, C) == ()

    def test_lookup_sees_facts_added_after_index_built(self):
        db = Database([fact("r", "a", "b")])
        assert len(db.lookup("r", 1, A)) == 1  # builds the index
        db.add(fact("r", "a", "c"))
        assert len(db.lookup("r", 1, A)) == 2

    def test_contains_and_iter(self):
        db = Database([fact("r", "a")])
        assert fact("r", "a") in db
        assert fact("r", "b") not in db
        assert list(db) == [fact("r", "a")]

    def test_constants_and_nulls(self):
        n = Null("n1")
        db = Database([Atom("r", [A, n])])
        assert db.constants() == frozenset({A})
        assert db.nulls() == frozenset({n})

    def test_relations_listed_sorted(self):
        db = Database([fact("z", "a"), fact("a", "a")])
        assert db.relations() == ("a", "z")

    def test_signature_tracks_arities(self):
        db = Database([fact("r", "a", "b")])
        assert db.signature["r"] == 2


class TestCopyAndEquality:
    def test_copy_is_independent(self):
        db = Database([fact("r", "a")])
        clone = db.copy()
        clone.add(fact("r", "b"))
        assert len(db) == 1 and len(clone) == 2

    def test_equality_ignores_insert_order(self):
        first = Database([fact("r", "a"), fact("r", "b")])
        second = Database([fact("r", "b"), fact("r", "a")])
        assert first == second

    def test_equality_ignores_empty_relations(self):
        first = Database([fact("r", "a")])
        second = Database([fact("r", "a"), fact("s", "x")])
        second.discard(fact("s", "x"))
        assert first == second

    def test_parse_database_roundtrip(self):
        db = Database(parse_database("r(a, b). s(1)."))
        assert len(db) == 2
        assert fact("s", Constant(1)) in db


class _RowsWithHook(set):
    """A row set that runs *hook* once, while an index is being built."""

    def __init__(self, rows, hook):
        super().__init__(rows)
        self.hook = hook

    def __iter__(self):
        rows = list(super().__iter__())
        for i, row in enumerate(rows):
            if i == 1 and self.hook is not None:
                hook, self.hook = self.hook, None
                hook()
            yield row


class TestConcurrentIndexBuild:
    def test_insert_during_lazy_index_build_is_not_lost(self):
        # A writer thread inserts while a reader builds the (r, 1)
        # index: the insert must land in the index, not beside it.
        import threading

        db = Database([fact("r", "a", "b"), fact("r", "a", "c")])
        writer = threading.Thread(target=db.add, args=(fact("r", "a", "d"),))

        def insert_mid_build():
            writer.start()
            writer.join(timeout=0.5)

        rows = db._relations["r"]
        db._relations["r"] = _RowsWithHook(rows, insert_mid_build)
        built = db.lookup("r", 1, A)
        writer.join()
        assert fact("r", "a", "d") in db
        assert len(built) in (2, 3)
        assert len(db.lookup("r", 1, A)) == 3
        assert db.lookup("r", 2, Constant("d")) == ((A, Constant("d")),)

    def test_concurrent_writes_and_index_builds_stay_consistent(self):
        # More threads than cores, a short switch interval: writers add
        # facts while readers build every (relation, position) index.
        # Each index must end up holding exactly the stored rows.
        import sys
        import threading

        db = Database()
        relations = [f"r{i}" for i in range(6)]
        errors = []

        def write(offset):
            try:
                for i in range(300):
                    db.add(fact(relations[i % 6], f"w{offset}_{i}", "b"))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def read():
            try:
                for relation in relations:
                    for position in (1, 2):
                        db.lookup(relation, position, B)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=write, args=(n,)) for n in range(4)
            ]
            threads += [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for relation in relations:
            stored = db.rows(relation)
            assert len(stored) == 200
            assert set(db.lookup(relation, 2, B)) == stored
            for row in stored:
                assert db.lookup(relation, 1, row[0]) == (row,)

    def test_discard_drops_empty_buckets(self):
        db = Database([fact("r", "a", "b")])
        db.lookup("r", 1, A)
        for _ in range(3):
            db.add(fact("r", "x", "b"))
            db.discard(fact("r", "x", "b"))
        # The mutate tape's insert/undo churn must not leave [] buckets.
        assert list(db._indexes[("r", 1)]) == [A]
