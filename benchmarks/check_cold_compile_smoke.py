"""Gate the output of a traced ``cold_compile`` end-to-end run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_compile --seed 1 --seconds 5 --trace 1 \
        | python3 benchmarks/check_cold_compile_smoke.py

Reads the run's JSON lines from stdin and exits 1 unless the result
line reports ``correct: true``, the traced rewriter spans measured a
positive ``rewriting.rewrite_ms`` (the span wrappers still reach the
rewriter), and ``api.cache.writes`` equals the info line's
``distinct_queries`` (every cold query was written to the persistent
cache exactly once).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterable


def check(lines: Iterable[str]) -> list[str]:
    """The failed conditions of one run's output (empty when it passes)."""
    info: dict[str, Any] | None = None
    result: dict[str, Any] | None = None
    for line in lines:
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "info" in record:
            info = record["info"]
        elif "correct" in record:
            result = record
    if info is None or result is None:
        return ["no info line or no result line in the output"]
    metrics = result.get("metrics", {})
    failures = []
    if result["correct"] is not True:
        failures.append(f"correct is {result['correct']!r}")
    rewrite_ms = metrics.get("rewriting.rewrite_ms", {}).get("value", 0)
    if not rewrite_ms > 0:
        failures.append(f"rewriting.rewrite_ms is {rewrite_ms!r}, not > 0")
    writes = metrics.get("api.cache.writes", {}).get("value")
    if writes != info.get("distinct_queries"):
        failures.append(
            f"api.cache.writes is {writes!r}, distinct_queries is "
            f"{info.get('distinct_queries')!r}"
        )
    return failures


def main() -> int:
    failures = check(sys.stdin)
    for failure in failures:
        print(f"cold_compile smoke: {failure}", file=sys.stderr)
    if not failures:
        print("cold_compile smoke: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
