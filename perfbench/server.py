"""Start, probe and stop one ``repro serve`` process.

The server runs from the checkout's ``src`` tree (``PYTHONPATH=src``)
exactly as a user would start it: ``python -m repro serve ...``.  The
traced run starts the same CLI through ``perfbench/launcher.py``, which
adds span timers around the layer functions before handing over to
``repro.cli.main``.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

_ANNOUNCE = re.compile(r"listening on http://([^:]+):(\d+)")
_BOOT_TIMEOUT = 120.0
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """In the child: get SIGTERM if the benchmark process dies first."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


class ServerProcess:
    """A ``repro`` CLI subprocess (*cli_args* name the ``serve`` command).

    ``spawned_at`` is the ``perf_counter`` reading taken just before
    the process was spawned.
    """

    def __init__(
        self,
        root: Path,
        cli_args: list[str],
        workdir: Path,
        *,
        trace_out: Path | None = None,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(workdir)
        env["PYTHONHASHSEED"] = "0"
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", *cli_args]
        else:
            launcher = Path(__file__).resolve().parent / "launcher.py"
            argv = [
                sys.executable, str(launcher), "--trace-out", str(trace_out),
                "--", *cli_args,
            ]
        self._stderr_path = workdir / "server.stderr"
        self._stderr = open(self._stderr_path, "ab")
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            preexec_fn=_die_with_parent,
        )
        self.host = ""
        self.port = 0

    def wait_ready(self) -> tuple[str, int]:
        """Block until the announce line; return (host, port)."""
        assert self.proc.stdout is not None
        deadline = time.monotonic() + _BOOT_TIMEOUT
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                code = self.proc.wait()
                self._stderr.flush()
                tail = self._stderr_path.read_text(errors="replace")[-2000:]
                raise RuntimeError(
                    f"server exited during boot (code {code}):\n{tail}"
                )
            match = _ANNOUNCE.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return self.host, self.port
        raise RuntimeError("server did not announce itself in time")

    def peak_rss_mb(self) -> float:
        """The process's high-water resident set (VmHWM), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        """Interrupt (clean shutdown), then kill if it lingers; always reap."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self._stderr.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
