"""The names ``perfbench/launcher.py`` wraps must stay reachable.

The traced benchmark run replaces ``RewritingCache.put``/``put_datalog``,
the ``rewrite``/``rewrite_datalog``/``evaluate_ucq`` globals of
``repro.rewriting.engine`` and ``PreparedQuery.result`` at runtime.  A
refactor that renames them, or that binds the rewriters before the
launcher rebinds them, silently drops the per-layer spans; this test
compiles through a real ``Session`` in a fresh interpreter with the
launcher installed and checks the spans are recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import json, sys
import launcher
launcher.install()
from repro.api import Session
from repro.lang.parser import parse_program

rules = parse_program("R1: professor(X) -> teaches(X, Y).")
with Session(rules, cache_dir=sys.argv[1]) as session:
    session.prepare("q(X) :- teaches(X, Y)").result
    ucq_spans = [span[0] for span in launcher._SPANS]
    session.prepare("q(X) :- teaches(X, Y)", target="datalog").datalog
print(json.dumps([ucq_spans, [span[0] for span in launcher._SPANS]]))
"""


def test_launcher_spans_cover_compile_and_cache_put(tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")]
        ),
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    ucq_spans, all_spans = json.loads(done.stdout.splitlines()[-1])
    # One UCQ compile: one rewriter span and one cache write span.
    assert ucq_spans.count("rewriting.rewrite") == 1
    assert ucq_spans.count("api.cache_put") == 1
    assert "rewriting.compile" in ucq_spans
    # The Datalog compile adds exactly one of each.
    assert all_spans.count("rewriting.rewrite") == 2
    assert all_spans.count("api.cache_put") == 2


READ_AND_INSERT = """
import json
import launcher
launcher.install()
from repro.api import EngineOptions, Session
from repro.data.database import Database
from repro.lang.parser import parse_database, parse_program

rules = parse_program("R1: professor(X) -> teaches(X, Y).")
data = Database(parse_database("professor(ada). teaches(bob, c1)."))
query = "q(X) :- teaches(X, Y)"
with Session(rules, data) as session:
    session.prepare(query).result
    del launcher._SPANS[:]
    answers = session.answer(query)
read = [[span[0] for span in launcher._SPANS], len(answers)]
materialize = EngineOptions(hybrid="materialize")
with Session(rules, data, options=materialize) as session:
    session.answer(query)
    del launcher._SPANS[:]
    session.insert("professor(cy).")
    inserted = [span[0] for span in launcher._SPANS]
    answers = session.answer(query)
print(json.dumps([read, [inserted, len(answers)]]))
"""


def test_launcher_spans_cover_memory_read_and_hybrid_insert():
    """``data.evaluate_ucq_ms`` and ``hybrid.apply_insert_ms`` are read off
    these spans: one per memory read, one per materialized insert."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")]
        ),
    )
    done = subprocess.run(
        [sys.executable, "-c", READ_AND_INSERT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (read, read_answers), (inserted, answers) = json.loads(
        done.stdout.splitlines()[-1]
    )
    assert read.count("data.evaluate_ucq") == 1
    assert read_answers == 2
    assert inserted.count("hybrid.apply_insert") == 1
    assert answers == 3
