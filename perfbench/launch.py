"""Lean launcher: spawns one CLI process per request and reports on it.

Run with ``python3 -I -S perfbench/launch.py STDOUT_PATH STDERR_PATH``.
Each request on stdin is one command line, its arguments separated by
the ASCII unit separator (0x1f).  For each, the launcher spawns the
command with its stdout and stderr sent to the two files, waits for it,
and answers with one line ``<wall_ns> <maxrss_kb> <wait_status>``.

The launcher exists so that the peak RSS reported for a CLI process is
that process's own.  A child created by vfork or fork starts out sharing
its parent's memory, and the kernel carries the parent's peak RSS into
the child's ``ru_maxrss`` at exec.  Spawning from this small process,
whose own peak stays below that of any Python program that imports the
library, keeps the benchmark process's own memory out of the figure.  Only
``os``, ``sys`` and ``time`` are imported, for the same reason.
"""

import os
import sys
import time

SEP = "\x1f"


def main() -> None:
    out_path, err_path = sys.argv[1], sys.argv[2]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    for line in sys.stdin:
        argv = line.rstrip("\n").split(SEP)
        t0 = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall_ns = time.perf_counter_ns() - t0
        sys.stdout.write(f"{wall_ns} {usage.ru_maxrss} {status}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
