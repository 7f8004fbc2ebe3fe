"""Run one command and report its wall time, exit code and peak RSS as JSON.

    python3 bench/launch.py LOG LIMIT_S -- PROGRAM ARGS...

The command's stdout and stderr go to LOG; it is killed after LIMIT_S
seconds.  The benchmark starts every child through this small process
because Linux carries a parent's resident set over fork and exec into the
child's ``ru_maxrss``: started from the benchmark process itself, which
holds numpy and the output references, a CLI run would report the
benchmark's memory instead of its own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    if len(sys.argv) < 5 or sys.argv[3] != "--":
        print("usage: launch.py LOG LIMIT_S -- PROGRAM ARGS...", file=sys.stderr)
        return 2
    log, limit, cmd = sys.argv[1], float(sys.argv[2]), sys.argv[4:]
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    print(json.dumps({"wall_s": wall, "rc": proc.returncode, "maxrss_kib": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
