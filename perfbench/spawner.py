"""A small process that starts and times the benchmark's child processes.

Usage: python3 -S spawner.py   (the environment it gets is the children's)

A child's max RSS from wait4 is not its own alone: on Linux a process
started by fork, vfork or posix_spawn counts the resident set of the process
that started it at that moment, so a child of run.py (which holds the inputs,
the parsed outputs and the spans) would report at least run.py's size.  This
process stays small (the interpreter without `site`, and the stdlib modules
below), smaller than any child, so the max RSS it reads is the child's own.

It reads one JSON request per line on stdin, [argv, stdout path, timeout s],
runs argv with stdout and stderr to that path and to the path with suffix
.err, and writes one JSON line back: [wall s, exit code, max RSS KB, timed
out].  It exits at end of input.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from time import perf_counter


class _Expired(Exception):
    pass


def _expire(signum, frame):
    raise _Expired


def spawn(cmd: list[str], out: str, timeout: float) -> tuple[float, int, int, bool]:
    """Run one process to completion: (wall s, exit code, max RSS KB, timed out).

    This process blocks in wait4, which returns the child's own rusage; an
    interval timer kills the child at the timeout."""
    err = os.path.splitext(out)[0] + ".err"
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, stdout.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, stderr.fileno(), 2),
        ]
        previous = signal.signal(signal.SIGALRM, _expire)
        start = perf_counter()
        pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        timed_out = False
        try:
            _, status, usage = os.wait4(pid, 0)
        except _Expired:
            timed_out = True
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, timed_out


def main() -> int:
    for line in sys.stdin:
        cmd, out, timeout = json.loads(line)
        print(json.dumps(spawn(cmd, out, timeout)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
