"""Job launcher: a small process that starts each job and reports its wall time and peak RSS.

Linux folds a process's RSS high-water mark into its child's ``ru_maxrss``
when the child calls exec, so a job started straight from the benchmark
process, which holds the inputs and the oracle, would report the
benchmark's peak whenever that is the larger. This process stays small, so
the peak RSS of a job it starts is the job's own.

Protocol: one JSON request per line on stdin, one JSON reply per line on
stdout; the launcher exits at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_job(argv: list[str], cwd: str, env: dict, stdout: str, stderr: str, timeout: float) -> dict:
    """Run one process to completion; rusage comes from waiting for it."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_kb": usage.ru_maxrss, "exit_code": proc.returncode}


class Launcher:
    """Client side: starts the launcher process and sends it jobs one at a time."""

    def __init__(self, grace_s: float) -> None:
        self._grace_s = grace_s
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, **request) -> dict:
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        """End of input; the launcher finishes any running job, then exits."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=self._grace_s)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def serve() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_job(**json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
