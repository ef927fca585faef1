"""Starts the benchmark's children from a process that stays small.

    python bench/launch.py
        Reads one JSON request a line on stdin, [argv, stdout path, stderr
        path], runs argv to completion with those files as its standard
        output and error, and answers one JSON line on stdout:
        [wall seconds, exit code, peak RSS in MB].  Ends at end of input.

A child started with fork or posix_spawn carries its parent's high-water
RSS into its own ru_maxrss (Linux records the old address space's peak at
exec).  Started from run.py, which holds the plans and the op times, every
child would report at least run.py's size.  This process imports nothing
but the interpreter's own start-up modules and json, so the peak it
reports is the child's own whenever that exceeds this process's (about
10 MB; a wadm child has at least 20).
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        argv, stdout, stderr = json.loads(line)
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),  # not the request pipe
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        print(json.dumps([wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024]),
              flush=True)


if __name__ == "__main__":
    main()
