"""The three workloads: set-up, measured rounds and correctness checks.

A run boots the real ``repro serve`` CLI (``--workers 2``, a fresh
persistent ``--cache-dir``) several times.  Each boot is set up (timed)
and then measured in *rounds*.  A round is a fixed piece of work -- the
same requests in the same order on every seed -- and yields one figure
per gated metric.  Every set-up time and round figure is scaled to the
reference speed (``calibrate.py``) by the calibration kernel timed on
either side of it: before the first boot and after every set-up and
round.  ``setup_s`` is then the median over boots; ``p50_ms``,
``tail_ms`` and ``ops_per_s`` are medians over every round of the run.
The unscaled figures are in the report line.

* ``serve_read``   -- warm zipf reads: per round, a one-second open loop
  at a fixed rate, then a fixed closed-loop batch (every distinct query
  three times).
* ``cold_compile`` -- a corpus of never-seen queries over three tenants,
  each sent exactly once per boot into its empty cache (closed loop, two
  callers); one round per boot.
* ``mutate_mixed`` -- a mutation tape on one connection beside reads on
  the other, on a ``--hybrid materialize`` tenant: per round, an open
  loop, then a closed-loop tape segment followed by closed-loop reads,
  then a full answer check (a quiescent point).  Every boot replays the same tape from the
  base ABox, so round *i* of every boot does the same work.

The gated latency pair (``p50_ms``/``tail_ms``) is the workload's own
request class: on ``serve_read`` the open-loop read p50 and the mean of
the slowest tenth of the closed batch; on ``cold_compile`` first-answer
p50 and p95; on ``mutate_mixed`` the median insert and the median delete
of the closed-loop tape segment.  The report line names every latency
per request class (``read_p99_ms``, ``write_p50_ms``, ...), pooled over
all rounds of the run.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import inputs as gen
from client import (
    Checker,
    Connection,
    LaneResult,
    Op,
    Sample,
    closed_loop,
    open_loop,
    percentile,
    poisson_offsets,
    throughput,
)
from calibrate import REFERENCE_KERNEL_S, kernel_seconds
from server import ServerProcess

WORKERS = 2  # server executor threads, and load-generator connections
BOOTS = 3  # boots per run on serve_read and mutate_mixed
COLD_BOOTS = 4  # cold_compile: one round (the whole corpus) per boot

# The load's shape -- arrival times and the order of the popularity
# plans -- is fixed like the query templates; ``--seed`` varies the
# data, the constants and the mutation tape.
SCHEDULE_SEED = 0

# serve_read round: a one-second open loop at READ_RATE, then every
# distinct query READ_CLOSED_REPEATS times, closed loop.
READ_RATE = 80.0
READ_OPEN_S = 1.0
READ_CLOSED_REPEATS = 3
SERVE_TAIL_SHARE = 0.10  # tail_ms: mean of the slowest tenth (18 reads)
SERVE_ROUND_S = 1.6  # about how long one round takes

COMPILE_TAIL = 0.95  # a round compiles 600 queries: 30 beyond p95

# mutate_mixed round: an open loop of writes and reads, then the next
# MUTATE_CLOSED_WRITES of the tape, then MUTATE_CLOSED_READS reads.
MUTATE_WRITE_RATE = 6.0
MUTATE_READS_PER_WRITE = 4
MUTATE_OPEN_S = 1.0
MUTATE_CLOSED_WRITES = 40
MUTATE_CLOSED_READS = 90
MUTATE_ROUND_S = 2.4
_TAPE_LENGTH = 1000

# The server must boot with some program; the three cold_compile
# tenants are all registered over HTTP afterwards.
_BOOT_PROGRAM = "benchBoot(X) -> benchReady(X).\n"


@dataclass
class Run:
    """One benchmark invocation: arguments, scratch space and tallies."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)
    report: dict[str, Any] = field(default_factory=dict)
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    _boots: int = 0

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text)
        return str(path)

    def rounds_per_boot(self, boots: int, round_seconds: float) -> int:
        """How many rounds of about *round_seconds* fill ``--seconds``."""
        return max(1, round(self.seconds / (boots * round_seconds)))

    def boot(self, serve_args: list[str], *, traced: bool = False) -> ServerProcess:
        """Start a server over a fresh, empty cache directory."""
        self._boots += 1
        cache = self.work / f"cache{self._boots}"
        cache.mkdir()
        args = [
            "--cache-dir", str(cache),
            "serve", *serve_args,
            "--port", "0",
            "--workers", str(WORKERS),
        ]
        trace_out = self.work / "trace.json" if traced else None
        return ServerProcess(self.root, args, self.work, trace_out=trace_out)

    def tally(self, results: Sequence[LaneResult], what: str) -> list[Sample]:
        """Count one phase's requests and failures; return its samples."""
        samples = [s for lane in results for s in lane.samples]
        self.attempted += len(samples)
        bad = [s for s in samples if not s.ok]
        self.failed += len(bad)
        for sample in bad[:3]:
            self.problems.append(
                f"{what}: {sample.op.kind} {sample.op.key!r} "
                f"-> HTTP {sample.status} or wrong answer"
            )
        for lane in results:
            for error in lane.errors:
                self.failed += 1
                self.problems.append(f"{what}: client error {error}")
        return samples

    def report_metric(self, name: str, value: float, unit: str) -> None:
        self.report[name] = {"value": value, "unit": unit}


@dataclass
class Round:
    """One round's gated figures (seconds, 1/s) and the samples behind
    them."""

    p50: float
    tail: float
    ops_per_s: float
    open_samples: list[Sample]  # open-loop requests (generator lag)
    reads: list[Sample]  # closed-loop reads (client overhead, answers)


# measure(server, traced, boot index, round index) -> Round
Measure = Callable[[ServerProcess, bool, int, int], Round]


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _stats(host: str, port: int) -> dict[str, Any]:
    with Connection(host, port) as conn:
        status, body = conn.request("GET", "/v1/stats")
    if status != 200:
        raise RuntimeError(f"GET /v1/stats answered {status}")
    return json.loads(body)


def _memory_misses(server: ServerProcess) -> int:
    """Engine compilations so far, summed over tenants (the server's own
    counter, from ``GET /v1/stats``)."""
    stats = _stats(server.host, server.port)
    return sum(
        tenant["cache"]["memory"]["misses"] for tenant in stats["tenants"].values()
    )


def _mark(server: ServerProcess, traced: bool) -> None:
    """Ask the traced launcher to snapshot its counters (phase boundary)."""
    if traced:
        server.signal(signal.SIGUSR1)
        time.sleep(0.05)


def _zipf_plan(
    ops: Sequence[Op], weights: Sequence[float], rng: random.Random, count: int
) -> list[Op]:
    """*count* ops in zipf proportions, in an order drawn from *rng*.

    Stratified rather than drawn independently: each op appears its
    expected number of times (largest remainders fill up), so every
    plan has the same cost mix.
    """
    total = sum(weights)
    shares = [w / total * count for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(len(ops)), key=lambda i: shares[i] - counts[i], reverse=True
    )
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    plan = [op for op, n in zip(ops, counts) for _ in range(n)]
    rng.shuffle(plan)
    return plan


def _tail_mean(values: Sequence[float], share: float) -> float:
    """Mean of the slowest *share* of *values*.

    Unlike a high percentile it has no cliff: the closed batch mixes
    sub-millisecond lookups with scans a hundred times slower, and a
    percentile at the border of two queries' latencies jumped between
    them from run to run.
    """
    ordered = sorted(values, reverse=True)
    return statistics.fmean(ordered[: max(1, round(share * len(ordered)))])


class _Shared:
    """One op sequence drawn from by several closed-loop connections."""

    def __init__(self, ops: Iterable[Op]) -> None:
        self._ops = iter(ops)
        self._lock = threading.Lock()

    def __iter__(self) -> Iterator[Op]:
        return self

    def __next__(self) -> Op:
        with self._lock:
            return next(self._ops)


def _drain(server: ServerProcess, ops: Sequence[Op], check: Checker) -> tuple[list[LaneResult], float]:
    """Send every op once over ``WORKERS`` connections (closed loop)."""
    shared = _Shared(ops)
    return closed_loop(server.host, server.port, [shared] * WORKERS, check)


def _read_check(reference: Callable[[Op], Any]) -> Checker:
    """A checker comparing each answer with *reference(op)*.

    *reference* returning ``None`` skips the answer comparison (a read
    racing a write may see either state) but still demands HTTP 200 and
    a complete rewriting.  Writes must have been maintained
    incrementally (no full re-chase).
    """

    def check(op: Op, status: int, body: bytes) -> tuple[bool, float, int]:
        if status != 200:
            return False, 0.0, 0
        payload = json.loads(body)
        seconds = float(payload.get("seconds", 0.0))
        if op.kind == "write":
            return _write_ok(payload), seconds, 0
        expected = reference(op)
        ok = payload.get("complete") is True and (
            expected is None or payload["answers"] == expected
        )
        return ok, seconds, len(payload["answers"])

    return check


def _write_ok(payload: dict[str, Any]) -> bool:
    for part in ("insert", "delete"):
        summary = payload.get(part)
        if summary is not None and (
            not summary.get("maintained") or summary.get("full_rechase")
        ):
            return False
    return True


def _execute(
    run: Run,
    serve_args: list[str],
    setup: Callable[[ServerProcess], None],
    measure: Measure,
    *,
    boots: int,
    rounds: int,
) -> None:
    """Boot, set up and measure; fill ``run.e2e`` or ``run.layers``.

    Untraced: *boots* boots, each timed from spawn to the end of *setup*
    and then measured for *rounds* rounds.  The calibration kernel runs
    before the first boot and after every set-up and round, so each
    timing is scaled by the kernel's speed on either side of it.
    ``setup_s`` and ``peak_rss_mb`` are medians over boots; ``p50_ms``,
    ``tail_ms`` and ``ops_per_s`` medians over every round of the run.
    Traced: one boot through the launcher, then one untraced boot for
    the overhead (both unscaled: they only compare with each other).
    """
    def measure_boot(server: ServerProcess, traced: bool, boot: int) -> list[Round]:
        _mark(server, traced)
        figures = [measure(server, traced, boot, r) for r in range(rounds)]
        _mark(server, traced)
        return figures

    if run.trace:
        with run.boot(serve_args, traced=True) as server:
            setup(server)
            traced = measure_boot(server, True, 0)
        with run.boot(serve_args) as server:
            setup(server)
            plain = measure_boot(server, False, 0)
        _finish_traced(run, traced, plain)
        return
    setups, rss, raw, scaled = [], [], [], []
    kernels = [kernel_seconds()]

    def to_reference(seconds: float) -> float:
        """Scale by the kernel timed on either side of the interval."""
        return seconds * REFERENCE_KERNEL_S / statistics.fmean(kernels[-2:])

    for index in range(boots):
        with run.boot(serve_args) as server:
            setup(server)
            took = time.perf_counter() - server.spawned_at
            kernels.append(kernel_seconds())
            setups.append((took, to_reference(took)))
            for r in range(rounds):
                figures = measure(server, False, index, r)
                kernels.append(kernel_seconds())
                raw.append(figures)
                scaled.append(Round(
                    to_reference(figures.p50), to_reference(figures.tail),
                    1.0 / to_reference(1.0 / figures.ops_per_s), [], [],
                ))
            rss.append(server.peak_rss_mb())
    median = statistics.median

    def summary(setup_s: list[float], rounds_: list[Round]) -> dict[str, float]:
        return {
            "setup_s": median(setup_s),
            "ops_per_s": median(f.ops_per_s for f in rounds_),
            "p50_ms": _ms(median(f.p50 for f in rounds_)),
            "tail_ms": _ms(median(f.tail for f in rounds_)),
        }

    run.e2e.update(summary([s for _raw, s in setups], scaled))
    run.e2e["peak_rss_mb"] = median(rss)
    unscaled = summary([r for r, _scaled in setups], raw)
    for name, unit in (("setup_s", "s"), ("ops_per_s", "1/s"),
                       ("p50_ms", "ms"), ("tail_ms", "ms")):
        run.report_metric(name, run.e2e[name], unit)
        run.report_metric(f"unscaled_{name}", unscaled[name], unit)
    run.report_metric("peak_rss_mb", run.e2e["peak_rss_mb"], "MiB")
    run.report_metric("kernel_ms", _ms(median(kernels)), "ms")
    run.info["kernels_ms"] = [_ms(k) for k in kernels]
    run.info["setups_s"] = [r for r, _scaled in setups]
    run.info["rounds"] = [
        {"ops_per_s": f.ops_per_s, "p50_ms": _ms(f.p50), "tail_ms": _ms(f.tail)}
        for f in raw
    ]


def _finish_traced(run: Run, traced: list[Round], plain: list[Round]) -> None:
    from layers import LAYER_MAP, per_layer_metrics, window_counters

    trace = json.loads((run.work / "trace.json").read_text())
    lags = [s.lag for f in traced for s in f.open_samples]
    reads = [s for f in traced for s in f.reads]
    gaps = [s.latency - s.server_s for s in reads]
    traced_ops = statistics.median(f.ops_per_s for f in traced)
    plain_ops = statistics.median(f.ops_per_s for f in plain)
    run.layers = per_layer_metrics(trace, {
        "serve.overhead_ms": _ms(statistics.median(gaps)),
        "data.answers_per_read": statistics.fmean(s.answers for s in reads),
        "bench.generator_lag_ms": _ms(percentile(lags, 0.99)) if lags else 0.0,
        "bench.failed_ratio": run.failed / max(1, run.attempted),
        "trace.overhead_ratio": 1.0 - traced_ops / plain_ops,
    })
    run.info.update(
        traced_ops_per_s=traced_ops,
        untraced_ops_per_s=plain_ops,
        measured_window_counters=window_counters(trace),
        layer_map={name: moves for name, (_unit, moves) in LAYER_MAP.items()},
    )


# ------------------------------------------------------------------ #
# serve_read                                                          #
# ------------------------------------------------------------------ #


def serve_read(run: Run) -> None:
    inputs = gen.serve_read_inputs(run.seed)
    run.problems += gen.serve_read_reference(inputs, run.seed)
    program = run.write("university.dlp", gen.program_text(inputs.rules))
    facts = run.write("abox.dlp", gen.facts_text(inputs.database.facts()))
    ops = [Op("read", "POST", "/v1/query", {"query": q}, q) for q in inputs.queries]
    check = _read_check(lambda op: inputs.reference[op.key])
    schedule = random.Random(SCHEDULE_SEED)
    offsets = poisson_offsets(READ_RATE, READ_OPEN_S, schedule)
    open_ops = _zipf_plan(ops, inputs.weights, schedule, len(offsets))
    # The closed batch sends every distinct query the same number of
    # times: saturation throughput over the whole query set, which the
    # heavy scans dominate (CPU-bound, so it does not hinge on wake-up
    # latencies the way a stream of sub-millisecond lookups does).
    closed_ops = ops * READ_CLOSED_REPEATS
    schedule.shuffle(closed_ops)
    rounds = run.rounds_per_boot(BOOTS, SERVE_ROUND_S)
    run.info.update(
        abox_facts=len(inputs.database),
        distinct_queries=len(inputs.queries),
        offered_rate_per_s=READ_RATE,
        open_loop_requests_per_round=len(open_ops),
        closed_loop_requests_per_round=len(closed_ops),
        rounds_per_boot=rounds,
    )
    pooled: dict[str, list[float]] = {"open": [], "closed": []}
    misses: dict[int, int] = {}

    def setup(server: ServerProcess) -> None:
        server.wait_ready()
        run.tally(_drain(server, ops, check)[0], "warm-up")

    def measure(server: ServerProcess, traced: bool, boot: int, index: int) -> Round:
        if index == 0:
            misses[boot] = _memory_misses(server)
        open_samples = run.tally(
            open_loop(server.host, server.port, [(offsets, open_ops)], check,
                      connections_per_lane=WORKERS),
            "open loop",
        )
        results, began = _drain(server, closed_ops, check)
        closed = run.tally(results, "closed loop")
        if index == rounds - 1:
            # Warm gate: the engine's own miss counter must not move.
            compiled = _memory_misses(server) - misses[boot]
            if compiled:
                run.problems.append(
                    f"warm gate: {compiled} rewriting(s) compiled while measuring"
                )
        open_latencies = [s.latency for s in open_samples]
        closed_latencies = [s.latency for s in closed]
        pooled["open"] += open_latencies
        pooled["closed"] += closed_latencies
        return Round(
            percentile(open_latencies, 0.50),
            _tail_mean(closed_latencies, SERVE_TAIL_SHARE),
            throughput(closed, began), open_samples, closed,
        )

    _execute(run, [program, facts], setup, measure, boots=BOOTS, rounds=rounds)
    if run.trace:
        generated = run.info["measured_window_counters"].get(
            "rewrite.cqs_generated", 0
        )
        if generated:
            run.problems.append(
                f"warm gate: rewrite.cqs_generated={generated} while measuring"
            )
        return
    run.report_metric("read_p50_ms", _ms(percentile(pooled["open"], 0.50)), "ms")
    run.report_metric("read_p99_ms", _ms(percentile(pooled["open"], 0.99)), "ms")
    run.report_metric(
        "closed_read_p95_ms", _ms(percentile(pooled["closed"], 0.95)), "ms"
    )
    run.info["read_samples"] = len(pooled["open"])


# ------------------------------------------------------------------ #
# cold_compile                                                        #
# ------------------------------------------------------------------ #


def cold_compile(run: Run) -> None:
    tenants = gen.compile_tenants(run.seed)
    corpus = gen.cold_compile_inputs(run.seed, tenants)
    program = run.write("boot.dlp", _BOOT_PROGRAM)
    registrations = [
        {"name": t.name, "program": gen.program_text(t.rules),
         "data": gen.facts_text(t.database.facts())}
        for t in tenants
    ]
    # Interleaved across tenants; every boot sends the whole corpus,
    # each query once, into its own empty cache.
    ops = [
        Op("read", "POST", "/v1/query", {"tenant": q.tenant, "query": q.text},
           index)
        for index, q in enumerate(corpus)
    ]
    check = _read_check(lambda op: corpus[op.key].expected)
    run.info.update(
        abox_facts={t.name: len(t.database) for t in tenants},
        distinct_queries=len(corpus),
        offered_rate_per_s="closed loop, 2 callers, each query once per boot",
    )
    pooled: list[float] = []

    def setup(server: ServerProcess) -> None:
        host, port = server.wait_ready()
        with Connection(host, port) as conn:
            for payload in registrations:
                status, body = conn.request("POST", "/v1/tenants", payload)
                run.attempted += 1
                if status != 201:
                    run.failed += 1
                    run.problems.append(
                        f"tenant {payload['name']}: HTTP {status} {body[:200]!r}"
                    )

    def measure(server: ServerProcess, traced: bool, _boot: int, _index: int) -> Round:
        misses = _memory_misses(server)
        results, began = _drain(server, ops, check)
        samples = run.tally(results, "cold compile")
        # Cold gate: every query compiles exactly once.
        compiled = _memory_misses(server) - misses
        if compiled != len(ops):
            run.problems.append(
                f"cold gate: {compiled} compilations for {len(ops)} queries"
            )
        latencies = [s.latency for s in samples]
        pooled.extend(latencies)
        return Round(
            percentile(latencies, 0.50), percentile(latencies, COMPILE_TAIL),
            throughput(samples, began), [], samples,
        )

    _execute(run, [program], setup, measure, boots=COLD_BOOTS, rounds=1)
    if run.trace:
        return
    run.report_metric("compile_p50_ms", _ms(percentile(pooled, 0.50)), "ms")
    run.report_metric("compile_p95_ms", _ms(percentile(pooled, COMPILE_TAIL)), "ms")
    run.report_metric("compile_max_ms", _ms(max(pooled)), "ms")
    run.info["compile_samples"] = len(pooled)


# ------------------------------------------------------------------ #
# mutate_mixed                                                        #
# ------------------------------------------------------------------ #


def mutate_mixed(run: Run) -> None:
    inputs = gen.mutate_inputs(run.seed, _TAPE_LENGTH)
    program = run.write("university.dlp", gen.program_text(inputs.rules))
    facts = run.write("abox.dlp", gen.facts_text(inputs.database.facts()))
    reads = [
        Op("read", "POST", "/v1/query", {"query": q, "backend": backend}, q)
        for q in inputs.queries
        for backend in ("memory", "sql")
    ]
    writes = [
        Op("write", "POST", "/v1/mutate",
           {key: text for key, text in
            (("insert", m.insert), ("delete", m.delete)) if text is not None},
           index)
        for index, m in enumerate(inputs.tape)
    ]
    base_reference = gen.mutate_reference(
        inputs.rules, inputs.database, inputs.queries
    )
    reference = {"answers": base_reference}
    quiescent = _read_check(lambda op: reference["answers"][op.key])
    racing = _read_check(lambda op: None)
    schedule = random.Random(SCHEDULE_SEED)
    write_offsets = poisson_offsets(MUTATE_WRITE_RATE, MUTATE_OPEN_S, schedule)
    read_offsets = poisson_offsets(
        MUTATE_WRITE_RATE * MUTATE_READS_PER_WRITE, MUTATE_OPEN_S, schedule
    )
    # Each query's reads alternate memory/sql: weights are per query.
    read_weights = [w for w in inputs.weights for _backend in (0, 1)]
    open_reads = _zipf_plan(reads, read_weights, schedule, len(read_offsets))
    closed_reads = _zipf_plan(reads, read_weights, schedule, MUTATE_CLOSED_READS)
    # Round i of every boot takes the same tape slice: its open-loop
    # writes, then its closed-loop segment.
    per_round = len(write_offsets) + MUTATE_CLOSED_WRITES
    rounds = run.rounds_per_boot(BOOTS, MUTATE_ROUND_S)
    if rounds * per_round > len(writes):
        raise ValueError("mutation tape too short for the rounds asked for")
    run.info.update(
        abox_facts=len(inputs.database),
        distinct_queries=len(inputs.queries),
        offered_rate_per_s={
            "write": MUTATE_WRITE_RATE,
            "read": MUTATE_WRITE_RATE * MUTATE_READS_PER_WRITE,
        },
        open_loop_requests_per_round=len(write_offsets) + len(read_offsets),
        closed_loop_requests_per_round=MUTATE_CLOSED_WRITES + MUTATE_CLOSED_READS,
        rounds_per_boot=rounds,
        writes_applied_per_boot=rounds * per_round,
    )
    pooled: dict[str, list[Sample]] = {"writes": [], "reads": []}

    def check_quiescent(server: ServerProcess, applied: int, what: str) -> None:
        """Every query on both backends against a fresh rewrite-only
        session over the base ABox plus the first *applied* mutations."""
        shadow = gen.shadow_abox(inputs.database, inputs.tape[:applied])
        reference["answers"] = (
            gen.mutate_reference(inputs.rules, shadow, inputs.queries)
            if applied else base_reference
        )
        run.tally(_drain(server, reads, quiescent)[0], what)

    def setup(server: ServerProcess) -> None:
        server.wait_ready()
        check_quiescent(server, 0, "warm-up")

    def measure(server: ServerProcess, traced: bool, _boot: int, index: int) -> Round:
        host, port = server.host, server.port
        first = index * per_round
        open_writes = writes[first:first + len(write_offsets)]
        segment = writes[first + len(write_offsets):first + per_round]
        open_results = open_loop(
            host, port,
            [(write_offsets, open_writes), (read_offsets, open_reads)],
            racing,
        )
        writes_done = run.tally(open_results[:1], "open-loop writes")
        reads_done = run.tally(open_results[1:], "open-loop reads")
        # Closed loop: the tape segment in order on one connection, then
        # the reads on two.  Writes beside reads are the open loop's;
        # here a write racing a read waited up to a GIL switch interval
        # (5 ms) behind it, and the median insert jumped between ~2 and
        # ~3 ms from run to run.
        write_results, began = closed_loop(host, port, [segment], racing)
        closed_writes = run.tally(write_results, "closed-loop writes")
        closed_reads_done = run.tally(
            _drain(server, closed_reads, racing)[0], "closed-loop reads"
        )
        applied = first + len(writes_done) + len(closed_writes)
        check_quiescent(server, applied, f"quiescent check after round {index}")
        pooled["writes"] += writes_done
        pooled["reads"] += reads_done
        # Class medians: a write's latency is bimodal (inserts ~2 ms,
        # deletes ~50 ms, half the tape), and the median of all writes
        # sits where the two modes meet.
        inserts = [s.latency for s in closed_writes if "insert" in s.op.payload]
        deletes = [s.latency for s in closed_writes if "delete" in s.op.payload]
        return Round(
            percentile(inserts, 0.50),
            percentile(deletes, 0.50),
            throughput(closed_writes + closed_reads_done, began),
            writes_done + reads_done, closed_reads_done,
        )

    _execute(run, [program, facts, "--hybrid", "materialize"], setup, measure,
             boots=BOOTS, rounds=rounds)
    if run.trace:
        return
    write_latencies = [s.latency for s in pooled["writes"]]
    read_latencies = [s.latency for s in pooled["reads"]]
    run.report_metric("write_p50_ms", _ms(percentile(write_latencies, 0.50)), "ms")
    run.report_metric("write_p85_ms", _ms(percentile(write_latencies, 0.85)), "ms")
    run.report_metric("read_p50_ms", _ms(percentile(read_latencies, 0.50)), "ms")
    run.report_metric("read_p95_ms", _ms(percentile(read_latencies, 0.95)), "ms")
    for kind in ("insert", "delete"):
        latencies = [s.latency for s in pooled["writes"] if kind in s.op.payload]
        run.report_metric(f"{kind}_p50_ms", _ms(percentile(latencies, 0.50)), "ms")
    run.info.update(
        write_samples=len(write_latencies), read_samples=len(read_latencies)
    )
