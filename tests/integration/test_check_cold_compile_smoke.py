"""Unit tests for the traced cold-compile gate
(benchmarks/check_cold_compile_smoke.py)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPT = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "check_cold_compile_smoke.py"
)

spec = importlib.util.spec_from_file_location("check_cold_compile_smoke", SCRIPT)
smoke = importlib.util.module_from_spec(spec)
spec.loader.exec_module(smoke)


def _output(correct=True, rewrite_ms=10.9, writes=600.0, distinct=600):
    return [
        "booting...\n",
        json.dumps({"info": {"distinct_queries": distinct}}) + "\n",
        json.dumps({"report": {}}) + "\n",
        json.dumps(
            {
                "correct": correct,
                "metrics": {
                    "rewriting.rewrite_ms": {"value": rewrite_ms},
                    "api.cache.writes": {"value": writes},
                },
            }
        )
        + "\n",
    ]


def test_passing_run():
    assert smoke.check(_output()) == []


def test_each_condition_fails_on_its_own():
    assert len(smoke.check(_output(correct=False))) == 1
    assert len(smoke.check(_output(rewrite_ms=0.0))) == 1
    assert len(smoke.check(_output(writes=599.0))) == 1


def test_missing_result_line_fails():
    assert smoke.check(_output()[:2]) != []
