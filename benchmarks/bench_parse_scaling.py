"""PARSE -- fact loading is linear-time and streams its tokens.

``repro serve`` parses its whole ABox with ``parse_database`` before
answering anything, so the parse must scale linearly with the file.
This bench parses N and 8N generated facts and gates two properties
that do not depend on how fast the host is:

* **time** -- the 8N/N wall-time ratio is at most 16.  A linear parse
  gives about 8; a parse that rescans the text from offset 0 for every
  span (quadratic) gives about 64.
* **memory** -- the ``tracemalloc`` peak of one 8N parse is at most
  1.5x the memory its result retains, i.e. no whole-file token list is
  materialized beside the atoms.

Each size is scored by its fastest of several interleaved runs, which
discards scheduler preemptions and GC pauses that land inside a run.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

from _harness import write_artifact

from repro.lang.parser import parse_database

N = 2000
FACTOR = 8
ROUNDS = 5
MAX_TIME_RATIO = 16.0
MAX_PEAK_OVER_RETAINED = 1.5


def facts_text(n: int) -> str:
    """*n* facts shaped like the serving ABox (strings, ints, arities 1-3)."""
    lines = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            lines.append(f'person("p{i}").')
        elif kind == 1:
            lines.append(f'teaches("p{i}", "course{i % 97}").')
        else:
            lines.append(f'enrolled("p{i}", "course{i % 89}", {i % 7}).')
    return "\n".join(lines) + "\n"


def _best_seconds(texts: dict[int, str]) -> dict[int, float]:
    best = {size: float("inf") for size in texts}
    for _ in range(ROUNDS):
        for size, text in texts.items():
            start = time.perf_counter()
            parse_database(text)
            best[size] = min(best[size], time.perf_counter() - start)
    return best


def _peak_and_retained(text: str) -> tuple[int, int]:
    """(peak, retained) bytes traced over one parse of *text*."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        facts = parse_database(text)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(facts) == text.count("\n")
    return peak - base, current - base


def test_parse_database_scales_linearly(benchmark):
    small, large = N, FACTOR * N
    texts = {small: facts_text(small), large: facts_text(large)}
    benchmark.pedantic(parse_database, args=(texts[large],), rounds=1)

    best = _best_seconds(texts)
    ratio = best[large] / best[small]
    peak, retained = _peak_and_retained(texts[large])
    peak_ratio = peak / retained

    lines = [
        "parse_database scaling (generated facts, best of "
        f"{ROUNDS} interleaved runs)",
        "",
        "facts     seconds   facts/s",
        f"{small:<8}  {best[small]:.4f}    {small / best[small]:,.0f}",
        f"{large:<8}  {best[large]:.4f}    {large / best[large]:,.0f}",
        "",
        f"time ratio {large}/{small} facts: {ratio:.1f} "
        f"(linear ~{FACTOR}, quadratic ~{FACTOR * FACTOR}; gate <= {MAX_TIME_RATIO:g})",
        f"tracemalloc over one {large}-fact parse: peak {peak / 2**20:.2f} MiB, "
        f"retained {retained / 2**20:.2f} MiB, ratio {peak_ratio:.2f} "
        f"(gate <= {MAX_PEAK_OVER_RETAINED:g})",
    ]
    write_artifact("parse_scaling.txt", "\n".join(lines))

    assert ratio <= MAX_TIME_RATIO, (
        f"parsing {FACTOR}x the facts took {ratio:.1f}x the time "
        f"(gate: <= {MAX_TIME_RATIO:g}; linear is ~{FACTOR})"
    )
    assert peak_ratio <= MAX_PEAK_OVER_RETAINED, (
        f"parse peak {peak / 2**20:.2f} MiB is {peak_ratio:.2f}x the "
        f"{retained / 2**20:.2f} MiB it retains (gate: <= {MAX_PEAK_OVER_RETAINED:g})"
    )
