"""End-to-end benchmark of ``repro serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed``, boots the real
``repro serve`` CLI from ``src/`` as a subprocess, drives it over HTTP
with at most two connections, checks every answer, and prints:

1. an ``info`` line: seed, nproc, Python, git commit, input sizes,
   offered rate -- what must match for two runs to be comparable;
2. a ``report`` line: every end-to-end metric under its request-class
   name (``read_p99_ms``, ``write_p50_ms``, ``compile_p95_ms``, ...);
3. the result line: ``correct``, ``attempted``, ``failed`` and the
   ``BENCHMARK.json`` metrics -- the end-to-end ones with ``--trace 0``
   (tracing off), the per-layer ones with ``--trace 1`` (a run through
   ``perfbench/launcher.py``, plus an untraced run for the overhead).

All scratch files live under ``perfbench/_work/`` and are removed at
exit.  See ``perfbench/README.md`` for workloads and metric meanings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _git_commit(root: Path) -> str:
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True, env=env,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no src/repro next to perfbench/; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runners = {
        "serve_read": workloads.serve_read,
        "cold_compile": workloads.cold_compile,
        "mutate_mixed": workloads.mutate_mixed,
    }
    if args.workload not in runners:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(runners)}", file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(ROOT, work, args.seed, args.seconds, bool(args.trace))
    started = time.perf_counter()
    try:
        runners[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    run.info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        commit=_git_commit(ROOT),
        wall_s=time.perf_counter() - started,
    )
    ratio = run.failed / max(1, run.attempted)
    run.report_metric("failed_ratio", ratio, "ratio")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"info": run.info}, sort_keys=True))
    print(json.dumps({"report": run.report}, sort_keys=True))

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = run.layers if args.trace else run.e2e
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names
    }
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
