"""Per-layer metrics from a traced run, and what each should move.

``LAYER_MAP`` names, for every per-layer metric, the end-to-end metric
and workload it should move (the prediction a later change states
before it claims a gain).  ``per_layer_metrics`` turns the launcher's
trace (spans, counter marks, firing tallies) plus the load generator's
own samples into those metrics.

Span times are reported as *self time*: a span's duration minus the
time its child spans cover.  Unless the map says otherwise a time
metric is the mean self time per call, in milliseconds, over the whole
traced server lifetime (set-up and measured phases).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

# metric -> (unit, what it should move)
LAYER_MAP: dict[str, tuple[str, str]] = {
    "lang.parse_query_ms": ("ms", "p50_ms (read p50) on serve_read"),
    "lang.parse_database_ms": ("ms", "setup_s everywhere; p50_ms (median insert) on mutate_mixed"),
    "serve.read_request_ms": ("ms", "p50_ms and ops_per_s on serve_read"),
    "serve.encode_response_ms": ("ms", "p50_ms and ops_per_s on serve_read"),
    "serve.overhead_ms": ("ms", "tail_ms and report read_p99_ms on serve_read"),
    "serve.shed": ("count", "failed_ratio on every workload"),
    "serve.errors": ("count", "failed_ratio on every workload"),
    "serve.deadline_exceeded": ("count", "failed_ratio on every workload"),
    "api.prepare_ms": ("ms", "p50_ms (read p50) on serve_read"),
    "api.answer_self_ms": ("ms", "p50_ms (read p50) on serve_read"),
    "engine.cache_hit_ratio": ("ratio", "1.0 on serve_read, 0.0 on cold_compile"),
    "api.cache_put_ms": ("ms", "ops_per_s and p50_ms on cold_compile"),
    "api.cache.writes": ("count", "ops_per_s on cold_compile"),
    "rewriting.rewrite_ms": ("ms", "p50_ms (compile p50) on cold_compile"),
    "rewriting.minimize_ms": ("ms", "tail_ms (compile p95) on cold_compile"),
    "rewrite.cqs_generated": ("count", "p50_ms and tail_ms on cold_compile"),
    "rewrite.cqs_explored": ("count", "p50_ms and tail_ms on cold_compile"),
    "rewrite.useful_ratio": ("ratio", "tail_ms (compile p95) on cold_compile"),
    "minimize.hom_checks": ("count", "tail_ms (compile p95) on cold_compile"),
    "minimize.skip_ratio": ("ratio", "tail_ms (compile p95) on cold_compile"),
    "data.evaluate_ucq_ms": ("ms", "p50_ms and ops_per_s on serve_read"),
    "data.sql_execute_ms": ("ms", "report read_p50_ms on mutate_mixed"),
    "data.sql_load_ms": ("ms", "p50_ms and tail_ms (writes) on mutate_mixed"),
    "sql.rows_loaded": ("count", "p50_ms (median insert) on mutate_mixed"),
    "sql.rows_deleted": ("count", "tail_ms (median delete) on mutate_mixed"),
    "data.answers_per_read": ("count", "normalises serve.encode_response_ms"),
    "hybrid.apply_insert_ms": ("ms", "p50_ms (median insert) on mutate_mixed"),
    "hybrid.apply_delete_ms": ("ms", "tail_ms (median delete) on mutate_mixed"),
    "hybrid.delta_ratio": ("ratio", "tail_ms (median delete) on mutate_mixed"),
    "hybrid.full_rechase": ("count", "tail_ms (median delete) on mutate_mixed"),
    "hybrid.build_ms": ("ms", "setup_s on mutate_mixed"),
    "chase.firings": ("count", "setup_s and tail_ms (median delete) on mutate_mixed"),
    "chase.firing_ratio": ("ratio", "setup_s and tail_ms (median delete) on mutate_mixed"),
    "bench.generator_lag_ms": ("ms", "sanity: how late open-loop sends were"),
    "bench.failed_ratio": ("ratio", "failed operations over attempted"),
    "trace.overhead_ratio": ("ratio", "1 - traced/untraced ops_per_s"),
}

# Span-backed metrics: metric -> (span name, denominator span or None).
# With a denominator the metric is total self time divided by the
# number of denominator spans (e.g. minimization per rewriting).
_SPAN_METRICS: dict[str, tuple[str, str | None]] = {
    "lang.parse_query_ms": ("lang.parse_query", None),
    "lang.parse_database_ms": ("lang.parse_database", None),
    "serve.read_request_ms": ("serve.read_request", None),
    "serve.encode_response_ms": ("serve.encode_response", None),
    "api.prepare_ms": ("api.prepare", None),
    "api.answer_self_ms": ("api.answer", None),
    "api.cache_put_ms": ("api.cache_put", None),
    "rewriting.rewrite_ms": ("rewriting.rewrite", None),
    "rewriting.minimize_ms": ("rewriting.minimize", "rewriting.rewrite"),
    "data.evaluate_ucq_ms": ("data.evaluate_ucq", None),
    "data.sql_execute_ms": ("data.sql_execute", None),
    "data.sql_load_ms": ("data.sql_load", None),
    "hybrid.apply_insert_ms": ("hybrid.apply_insert", None),
    "hybrid.apply_delete_ms": ("hybrid.apply_delete", None),
    "hybrid.build_ms": ("hybrid.build", None),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def self_times(spans: list[list[Any]]) -> tuple[dict[str, float], dict[str, int]]:
    """Total self time (s) and call count per span name."""
    covered: dict[int, float] = defaultdict(float)
    for _name, _id, parent, _request, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, span_id, _parent, _request, start, end in spans:
        totals[name] += max(0.0, (end - start) - covered.get(span_id, 0.0))
        calls[name] += 1
    return totals, calls


def window_hit_ratio(trace: dict[str, Any]) -> float:
    """Share of query requests in the measured window that compiled nothing.

    The window runs between the first and last ``SIGUSR1`` marks.  A
    request "hits" when none of its spans is a first-access compile.
    """
    marks = trace["marks"]
    if len(marks) < 2:
        return 0.0
    begin, end = marks[0]["at"], marks[-1]["at"]
    queried: set[int] = set()
    compiled: set[int] = set()
    for name, _id, _parent, request, start, _end in trace["spans"]:
        if not request or not begin <= start <= end:
            continue
        if name == "api.prepare":
            queried.add(request)
        elif name == "rewriting.compile":
            compiled.add(request)
    return _ratio(len(queried - compiled), len(queried))


def window_counters(trace: dict[str, Any]) -> dict[str, float]:
    """Counter deltas between the first and last marks."""
    marks = trace["marks"]
    if len(marks) < 2:
        return {}
    first, last = marks[0]["counters"], marks[-1]["counters"]
    return {name: value - first.get(name, 0) for name, value in last.items()}


def per_layer_metrics(
    trace: dict[str, Any], client: dict[str, float]
) -> dict[str, float]:
    """Every metric of ``LAYER_MAP`` from a trace plus client-side values.

    *client* supplies what only the load generator sees:
    ``serve.overhead_ms``, ``data.answers_per_read``,
    ``bench.generator_lag_ms``, ``bench.failed_ratio`` and
    ``trace.overhead_ratio``.
    """
    totals, calls = self_times(trace["spans"])
    counters = trace["counters"]

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    metrics: dict[str, float] = {}
    for metric, (span, per) in _SPAN_METRICS.items():
        denominator = calls.get(per or span, 0)
        metrics[metric] = _ratio(totals.get(span, 0.0) * 1e3, denominator)
    for name in ("serve.shed", "serve.errors", "serve.deadline_exceeded",
                 "api.cache.writes", "rewrite.cqs_generated",
                 "rewrite.cqs_explored", "minimize.hom_checks",
                 "sql.rows_loaded", "sql.rows_deleted", "hybrid.full_rechase"):
        metrics[name] = count(name)
    metrics["engine.cache_hit_ratio"] = window_hit_ratio(trace)
    metrics["rewrite.useful_ratio"] = _ratio(
        float(trace["final_disjuncts"]), count("rewrite.cqs_generated")
    )
    metrics["minimize.skip_ratio"] = _ratio(
        count("minimize.pairs_skipped"), count("minimize.subsumption_checks")
    )
    metrics["hybrid.delta_ratio"] = _ratio(
        count("hybrid.delta_applied"),
        count("hybrid.delta_applied") + count("hybrid.full_rechase"),
    )
    metrics["chase.firings"] = (
        count("chase.firings") + count("hybrid.rebuild_firings")
        + float(trace["maintenance_firings"])
    )
    valid = sum(pair[0] for pair in trace["core_firings"])
    recorded = sum(pair[1] for pair in trace["core_firings"])
    metrics["chase.firing_ratio"] = _ratio(valid, recorded)
    metrics.update(client)
    missing = set(LAYER_MAP) - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return metrics
