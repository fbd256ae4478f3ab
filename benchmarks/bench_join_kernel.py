"""JOIN -- the compiled join kernel on a scan-heavy university mix.

Every in-memory read evaluates its rewriting through the plans of
:mod:`repro.data.plan`.  A plan is compiled on a disjunct's first
evaluation and kept with the cached rewriting, so warm reads never
compile one again.  This bench answers the six named university
queries plus six constant-free scans over a CI-sized ABox, several
passes in a row, and gates what is deterministic:

* ``data.plans_compiled`` equals the number of disjuncts evaluated
  (first pass; a disjunct over an empty relation needs no plan), and
  is 0 on every later pass;
* the in-memory answers equal the SQLite backend's, query by query.

Per-pass timings land in ``benchmarks/out/join_kernel.txt`` and
``join_kernel.json`` for the record; they are never gated.
"""

from __future__ import annotations

import statistics
import time

from _harness import write_artifact, write_json_artifact

from repro import obs
from repro.api import Session
from repro.workloads.ontologies import (
    university_data,
    university_ontology,
    university_queries,
)

ABOX_SIZE = 400  # university_data size: ~1.9k facts
PASSES = 5
SCANS = (
    "q(X, Y) :- hasAdvisor(X, Y), worksFor(Y, D)",
    "q(X) :- gradStudent(X), takes(X, C)",
    "q(D) :- hasChair(D, P), memberOf(P, D)",
    "q(X, D) :- lecturer(X), memberOf(X, D)",
    "q(X) :- assistantProfessor(X), teaches(X, C)",
    "q(X, Y) :- researchGroup(X, Y)",
)


def _evaluated_disjuncts(session: Session, text: str) -> int:
    """How many disjuncts a memory read of *text* runs a plan for:
    those left by static pruning whose relations all hold facts."""
    prepared = session.prepare(text)
    pruned = prepared.pruned
    ucq = prepared.ucq if pruned is None else pruned.ucq
    abox = session.abox()
    return sum(
        all(abox.count(atom.relation) for atom in cq.body)
        for cq in (ucq or ())
    )


def test_join_kernel_compiles_once_and_matches_sqlite():
    queries = [str(query) for _name, query in university_queries()]
    queries += list(SCANS)
    database = university_data(ABOX_SIZE, seed=1)
    with Session(university_ontology(), database) as session:
        for text in queries:
            session.prepare(text).result  # compile outside the passes
        disjuncts = sum(_evaluated_disjuncts(session, t) for t in queries)
        passes = []
        for index in range(PASSES):
            with obs.capture() as trace:
                start = time.perf_counter()
                memory = [session.answer(text) for text in queries]
                seconds = time.perf_counter() - start
            compiled = trace.counter("data.plans_compiled")
            passes.append({"plans_compiled": compiled, "seconds": seconds})
            # First pass compiles one plan per disjunct; warm reads none.
            assert compiled == (disjuncts if index == 0 else 0)
        sql = [session.answer(text, backend="sql") for text in queries]
    assert memory == sql
    answers = sum(len(rows) for rows in memory)
    warm = [entry["seconds"] for entry in passes[1:]]
    payload = {
        "schema": 1,
        "abox_facts": len(database),
        "queries": len(queries),
        "disjuncts": disjuncts,
        "answers": answers,
        "plans_compiled_first_pass": passes[0]["plans_compiled"],
        "plans_compiled_warm_passes": sum(
            entry["plans_compiled"] for entry in passes[1:]
        ),
        "first_pass_ms": round(passes[0]["seconds"] * 1e3, 3),
        "warm_pass_median_ms": round(statistics.median(warm) * 1e3, 3),
    }
    write_json_artifact("join_kernel.json", payload)
    lines = [
        "JOIN -- compiled join kernel, scan-heavy university mix",
        f"ABox facts: {payload['abox_facts']}  queries: {len(queries)}  "
        f"disjuncts evaluated: {disjuncts}  answers: {answers}",
        f"plans compiled: first pass {payload['plans_compiled_first_pass']}, "
        f"warm passes {payload['plans_compiled_warm_passes']}",
        f"first pass {payload['first_pass_ms']:.1f} ms, "
        f"warm pass median {payload['warm_pass_median_ms']:.1f} ms "
        "(reported, not gated)",
        "memory answers == SQLite answers: yes",
    ]
    write_artifact("join_kernel.txt", "\n".join(lines))
