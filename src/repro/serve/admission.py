"""Bounded-queue request admission with graceful shedding.

The server executes queries on a pool of ``workers`` threads; up to
``queue_depth`` further requests may wait their turn.  Anything beyond
``workers + queue_depth`` concurrent requests is *shed* immediately
with 429 + ``Retry-After`` rather than queued unboundedly -- under
overload a bounded system degrades to fast, honest rejections instead
of building a latency cliff every client times out inside anyway.

One :class:`AdmissionController` guards one server.  It is written
against threads, not the event loop: tickets are released from
``concurrent.futures`` done-callbacks (executor threads), so all state
lives under a lock.  Every transition is counted on the ``serve.*``
counters (see ``docs/serving.md`` for the catalogue):

* ``serve.admitted`` / ``serve.shed`` -- admission decisions;
* ``serve.completed`` / ``serve.errors`` -- terminal outcomes;
* ``serve.deadline_exceeded`` -- requests that hit their deadline
  (the client got 504; query evaluation stops at its next deadline
  poll and the worker then releases its slot);
* ``serve.inflight`` -- gauge (histogram observations) of concurrent
  admitted requests.
"""

from __future__ import annotations

import threading
import time

from repro import obs


class AdmissionTicket:
    """One admitted request's slot; release exactly once."""

    __slots__ = ("_controller", "_released", "_started")

    def __init__(self, controller: "AdmissionController") -> None:
        self._controller = controller
        self._released = False
        self._started = time.perf_counter()

    def release(self, *, error: bool = False) -> None:
        """Give the slot back (idempotent); *error* marks a failed run."""
        if self._released:
            return
        self._released = True
        elapsed = time.perf_counter() - self._started
        self._controller._release(elapsed, error=error)


class AdmissionController:
    """Thread-safe admit/shed gate with ``workers + queue_depth`` capacity."""

    def __init__(self, workers: int, queue_depth: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        self.workers = workers
        self.queue_depth = queue_depth
        self.capacity = workers + queue_depth
        self._lock = threading.Lock()
        self._inflight = 0
        self._admitted = 0
        self._shed = 0
        self._completed = 0
        self._errors = 0
        self._deadline_exceeded = 0
        # EWMA of request service time, seeding Retry-After with how
        # long a queue slot actually takes to free up.
        self._ewma_seconds = 0.05

    def try_admit(self) -> AdmissionTicket | None:
        """A ticket when a slot is free, else None (request is shed)."""
        with self._lock:
            if self._inflight >= self.capacity:
                self._shed += 1
                obs.count("serve.shed")
                return None
            self._inflight += 1
            self._admitted += 1
            obs.count("serve.admitted")
            obs.observe("serve.inflight", self._inflight)
            return AdmissionTicket(self)

    def _release(self, elapsed: float, *, error: bool) -> None:
        with self._lock:
            self._inflight -= 1
            if error:
                self._errors += 1
                obs.count("serve.errors")
            else:
                self._completed += 1
                obs.count("serve.completed")
            self._ewma_seconds += 0.2 * (elapsed - self._ewma_seconds)
            obs.observe("serve.inflight", self._inflight)

    def record_deadline_exceeded(self) -> None:
        """Count a request that outran its deadline (slot held until its
        worker stops)."""
        with self._lock:
            self._deadline_exceeded += 1
        obs.count("serve.deadline_exceeded")

    def retry_after_seconds(self) -> int:
        """The ``Retry-After`` hint for shed requests (whole seconds).

        A full queue drains one slot per completed request, so the
        expected wait is roughly one smoothed service time; rounded up
        to at least 1 second, which is the resolution HTTP gives us.
        """
        with self._lock:
            return max(1, int(self._ewma_seconds + 0.999))

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def stats(self) -> dict[str, int]:
        """A point-in-time snapshot of all admission counters."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "inflight": self._inflight,
                "admitted": self._admitted,
                "shed": self._shed,
                "completed": self._completed,
                "errors": self._errors,
                "deadline_exceeded": self._deadline_exceeded,
            }
