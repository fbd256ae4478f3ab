"""Start ``repro serve`` with span timers around its layer functions.

Usage (what ``perfbench/server.py`` runs for a traced run)::

    python perfbench/launcher.py --trace-out trace.json -- serve <args...>

Before handing over to ``repro.cli.main`` the launcher wraps the public
functions at each layer boundary (parser, HTTP codec, ``Session``,
``PreparedQuery``, rewriter, minimizer, evaluator, SQLite backend,
hybrid maintenance, rewriting cache) with timers recording a span each:
name, start, end, parent span and a request id shared by every span of
one HTTP request.  It installs a counters-only ``repro.obs`` sink so the
program's own counters accumulate, and records a counter snapshot on
every ``SIGUSR1`` (the load generator marks its phases that way).
Spans stay in memory; the whole trace is written to ``--trace-out``
when the server shuts down.  Nothing inside ``src/`` is modified.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextvars
import functools
import itertools
import json
import signal
import sys
import time
from pathlib import Path
from typing import Any, Callable

_SPANS: list[tuple[str, int, int | None, int, float, float]] = []
_IDS = itertools.count(1)
_REQUESTS = itertools.count(1)
_PARENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "bench_parent", default=None
)
_REQUEST: contextvars.ContextVar[int] = contextvars.ContextVar(
    "bench_request", default=0
)
_HEADER_AT: contextvars.ContextVar[float | None] = contextvars.ContextVar(
    "bench_header_at", default=None
)
_MARKS: list[dict[str, Any]] = []
_CORES: list[Any] = []
_MAINTENANCE: list[int] = []
_DISJUNCTS: list[int] = []


def _record(name: str, span_id: int, parent: int | None, start: float) -> None:
    _SPANS.append(
        (name, span_id, parent, _REQUEST.get(), start, time.perf_counter())
    )


def _timed(name: str, function: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap *function* so every call records one span called *name*."""

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span_id = next(_IDS)
        parent = _PARENT.get()
        token = _PARENT.set(span_id)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            _PARENT.reset(token)
            _record(name, span_id, parent, start)

    return wrapper


def _patch(owner: Any, attribute: str, name: str) -> None:
    setattr(owner, attribute, _timed(name, getattr(owner, attribute)))


def _patch_result_property() -> None:
    """Time ``PreparedQuery.result`` only on the access that compiles."""
    from repro.api.prepared import PreparedQuery

    getter = PreparedQuery.result.fget
    timed = _timed("rewriting.compile", getter)

    def result(self: Any) -> Any:
        if self._result is None:
            return timed(self)
        return getter(self)

    PreparedQuery.result = property(result, doc=PreparedQuery.result.__doc__)


def _patch_read_request() -> None:
    """Time request parsing from header arrival, not from idle wait.

    ``read_request`` awaits the next request on a keep-alive connection;
    the span starts when the header block has arrived (the
    ``readuntil`` that returns it), so idle time between requests is
    not charged to the parser.  Each request gets a fresh request id.
    """
    import asyncio

    from repro.serve import server

    readuntil = asyncio.StreamReader.readuntil

    async def timed_readuntil(self: Any, *args: Any, **kwargs: Any) -> bytes:
        data = await readuntil(self, *args, **kwargs)
        _HEADER_AT.set(time.perf_counter())
        return data

    asyncio.StreamReader.readuntil = timed_readuntil  # type: ignore[method-assign]
    read_request = server.read_request

    async def traced(reader: Any) -> Any:
        _HEADER_AT.set(None)
        request = await read_request(reader)
        if request is not None:
            _REQUEST.set(next(_REQUESTS))
            start = _HEADER_AT.get() or time.perf_counter()
            _record("serve.read_request", next(_IDS), None, start)
        return request

    server.read_request = traced


def _propagate_context() -> None:
    """Run executor work in the submitting context (request id, parent)."""
    submit = concurrent.futures.ThreadPoolExecutor.submit

    def submit_in_context(self: Any, fn: Callable[..., Any], /, *args: Any,
                          **kwargs: Any) -> Any:
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    concurrent.futures.ThreadPoolExecutor.submit = submit_in_context  # type: ignore[method-assign]


def _keep_cores() -> None:
    """Remember materialized cores so their firing tallies can be read."""
    from repro.hybrid import store

    load_or_build = store.load_or_build

    def remembered(*args: Any, **kwargs: Any) -> Any:
        core = load_or_build(*args, **kwargs)
        _CORES.append(core)
        return core

    store.load_or_build = _timed("hybrid.build", remembered)


def _maintenance_firings(
    name: str, function: Callable[..., Any]
) -> Callable[..., Any]:
    """Time a maintenance call and tally the chase firings it made."""
    timed = _timed(name, function)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = timed(*args, **kwargs)
        _MAINTENANCE.append(result.firings)
        return result

    return wrapper


def install() -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.cli as cli
    import repro.data.evaluation as evaluation
    import repro.lang.parser as parser
    import repro.rewriting.engine as engine
    import repro.rewriting.rewriter as rewriter
    import repro.serve.server as server
    from repro.api.cache import RewritingCache
    from repro.api.prepared import PreparedQuery
    from repro.api.session import Session
    from repro.data.sql import SQLiteBackend
    from repro.hybrid.maintain import MaterializedCore
    from repro.rewriting.subsume import SubsumptionFrontier

    _propagate_context()
    # lang: the server parses query text per request, facts per mutation.
    _patch(parser, "parse_query", "lang.parse_query")
    _patch(parser, "parse_database", "lang.parse_database")
    cli.parse_database = parser.parse_database  # bound at CLI import
    # serve: the HTTP codec.
    _patch_read_request()
    _patch(server, "encode_response", "serve.encode_response")
    # api: the session layer and its persistent rewriting cache.
    _patch(Session, "prepare", "api.prepare")
    _patch(PreparedQuery, "answer", "api.answer")
    _patch(RewritingCache, "put", "api.cache_put")
    _patch(RewritingCache, "put_datalog", "api.cache_put")
    # rewriting: the rewriter proper and its minimization entry points.
    _patch_result_property()
    rewrite = _timed("rewriting.rewrite", engine.rewrite)

    def rewrite_tallied(*args: Any, **kwargs: Any) -> Any:
        result = rewrite(*args, **kwargs)
        _DISJUNCTS.append(len(result.ucq))
        return result

    engine.rewrite = rewrite_tallied
    _patch(engine, "rewrite_datalog", "rewriting.rewrite")
    _patch(rewriter, "minimize_cq", "rewriting.minimize")
    _patch(rewriter, "remove_subsumed", "rewriting.minimize")
    _patch(SubsumptionFrontier, "covers", "rewriting.minimize")
    _patch(SubsumptionFrontier, "add", "rewriting.minimize")
    # data: in-memory evaluation and the SQLite backend.
    _patch(evaluation, "evaluate_ucq", "data.evaluate_ucq")
    _patch(engine, "evaluate_ucq", "data.evaluate_ucq")
    _patch(SQLiteBackend, "execute_ucq", "data.sql_execute")
    _patch(SQLiteBackend, "load", "data.sql_load")
    _patch(SQLiteBackend, "delete", "data.sql_load")
    # hybrid: core build and incremental maintenance.
    _keep_cores()
    MaterializedCore.apply_insert = _maintenance_firings(
        "hybrid.apply_insert", MaterializedCore.apply_insert
    )
    MaterializedCore.apply_delete = _maintenance_firings(
        "hybrid.apply_delete", MaterializedCore.apply_delete
    )


class _CountersOnly:
    """A ``repro.obs`` sink that keeps nothing: counters live in the tracer."""

    is_null = False

    def emit(self, record: dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True, type=Path)
    parser.add_argument("serve_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_argv = args.serve_argv
    if serve_argv[:1] == ["--"]:
        serve_argv = serve_argv[1:]

    install()
    from repro import obs
    from repro.cli import main as repro_main

    code = 1
    with obs.use(_CountersOnly(), inherit=False) as tracer:

        def mark(_signum: int, _frame: Any) -> None:
            _MARKS.append(
                {"at": time.perf_counter(), "counters": tracer.counters()}
            )

        signal.signal(signal.SIGUSR1, mark)
        try:
            code = repro_main(serve_argv)
        finally:
            core_firings = [
                [core.firing_count(valid_only=True),
                 core.firing_count(valid_only=False)]
                for core in _CORES
            ]
            trace = {
                "spans": _SPANS,
                "counters": tracer.counters(),
                "marks": _MARKS,
                "maintenance_firings": sum(_MAINTENANCE),
                "final_disjuncts": sum(_DISJUNCTS),
                "core_firings": core_firings,
            }
            tmp = args.trace_out.with_suffix(".tmp")
            tmp.write_text(json.dumps(trace))
            tmp.replace(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
