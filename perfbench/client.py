"""Load generation against a running ``repro serve``.

A minimal HTTP/1.1 keep-alive client (one request in flight per
connection, the request written with a single ``sendall``) and the two
load shapes the benchmark uses:

* :func:`open_loop` -- requests are due on a fixed schedule (seeded
  Poisson arrivals) whether or not earlier ones have answered; each
  latency is measured from the moment the request was *due*, so a stall
  also charges the requests queued behind it.  ``lag`` records how late
  the generator actually sent each request.
* :func:`closed_loop` -- every lane sends its next request the moment
  the previous one answers (no think time) until its operations run
  out; gives saturation throughput over a fixed batch.

A *lane* is one connection with its own ordered operation stream.  The
load generator never opens more lanes than the machine has cores.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int, timeout: float = 170.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")

    def request(
        self, method: str, path: str, payload: Any = None
    ) -> tuple[int, bytes]:
        """Send one request; return (status, raw body)."""
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self._sock.sendall(head.encode("latin-1") + body)
        status_line = self._file.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self._file.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self._file.read(length)

    def close(self) -> None:
        self._file.close()
        self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass(frozen=True)
class Op:
    """One request: route, JSON payload and a class label (read/write)."""

    kind: str
    method: str
    path: str
    payload: Any
    key: Any = None  # what the checker needs to validate the answer


@dataclass
class Sample:
    op: Op
    status: int
    latency: float  # seconds, from due time (open loop) or send (closed)
    lag: float  # seconds the send started after it was due (open loop)
    ok: bool
    server_s: float  # the server's own timing of the request, if reported
    answers: int  # answer rows returned (reads)
    done: float = 0.0  # perf_counter when the response was complete


@dataclass
class LaneResult:
    samples: list[Sample] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


# A checker validates one response: (correct?, server seconds, answers).
Checker = Callable[[Op, int, bytes], tuple[bool, float, int]]


def poisson_offsets(rate: float, seconds: float, rng: random.Random) -> list[float]:
    """Arrival offsets of a Poisson process of *rate*/s over *seconds*.

    Conditioned on its expected count: exactly ``round(rate * seconds)``
    arrivals placed uniformly at random (the arrival times of a Poisson
    process given its count), so every seed offers the same number of
    requests.
    """
    count = round(rate * seconds)
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def _run_lanes(targets: Sequence[Callable[[], None]]) -> None:
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=175)
        if thread.is_alive():
            raise RuntimeError("load lane did not finish in time")


def open_loop(
    host: str,
    port: int,
    lanes: Sequence[tuple[Sequence[float], Sequence[Op]]],
    check: Checker,
    *,
    connections_per_lane: int = 1,
) -> list[LaneResult]:
    """Drive each lane's (offsets, ops) schedule open-loop.

    A lane's requests are served by ``connections_per_lane`` connections
    taking the next due request as each frees up, so a request waits
    (and is charged for waiting) only while every connection of its lane
    is busy.  Ops of one lane stay in order when it has one connection.
    """
    results = [LaneResult() for _ in lanes]
    start = time.perf_counter() + 0.05

    def make_worker(index: int, cursor: Iterator[int], lock: threading.Lock):
        offsets, ops = lanes[index]
        result = results[index]

        def work() -> None:
            try:
                with Connection(host, port) as conn:
                    while True:
                        with lock:
                            i = next(cursor, None)
                        if i is None:
                            return
                        due = start + offsets[i]
                        now = time.perf_counter()
                        if now < due:
                            time.sleep(due - now)
                        sent = time.perf_counter()
                        op = ops[i]
                        status, body = conn.request(op.method, op.path, op.payload)
                        done = time.perf_counter()
                        verdict = check(op, status, body)
                        with lock:
                            result.samples.append(
                                Sample(op, status, done - due, sent - due,
                                       *verdict, done)
                            )
            except Exception as error:  # noqa: BLE001 - reported as a failure
                # A lane must never die silently: a response the checker
                # cannot read is a failed request, not a missing one.
                with lock:
                    result.errors.append(f"{type(error).__name__}: {error}")

        return work

    workers = []
    for index, (offsets, ops) in enumerate(lanes):
        if len(offsets) != len(ops):
            raise ValueError("each lane needs one offset per op")
        cursor = iter(range(len(ops)))
        lock = threading.Lock()
        workers += [make_worker(index, cursor, lock)] * connections_per_lane
    _run_lanes(workers)
    return results


def closed_loop(
    host: str,
    port: int,
    lanes: Sequence[Iterable[Op]],
    check: Checker,
) -> tuple[list[LaneResult], float]:
    """Drive each lane closed-loop until its ops run out.

    Returns the per-lane results and the ``perf_counter`` at which the
    drive started.  Lanes may share one (thread-safe) op iterator.
    """
    results = [LaneResult() for _ in lanes]
    lock = threading.Lock()
    start = time.perf_counter()

    def make_worker(index: int):
        ops, result = lanes[index], results[index]

        def work() -> None:
            try:
                with Connection(host, port) as conn:
                    for op in ops:
                        sent = time.perf_counter()
                        status, body = conn.request(op.method, op.path, op.payload)
                        done = time.perf_counter()
                        verdict = check(op, status, body)
                        with lock:
                            result.samples.append(
                                Sample(op, status, done - sent, 0.0,
                                       *verdict, done)
                            )
            except Exception as error:  # noqa: BLE001 - reported as a failure
                # A lane must never die silently: a response the checker
                # cannot read is a failed request, not a missing one.
                with lock:
                    result.errors.append(f"{type(error).__name__}: {error}")

        return work

    _run_lanes([make_worker(i) for i in range(len(lanes))])
    return results, start


def throughput(samples: Sequence[Sample], start: float) -> float:
    """Completions per second from *start* to the last completion."""
    if not samples:
        raise ValueError("no completions for a throughput figure")
    return len(samples) / (max(s.done for s in samples) - start)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) by linear interpolation; values unsorted."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
