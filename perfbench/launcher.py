"""Start measured commands one at a time; report wall time, peak RSS and
exit code of each.

run.py starts this process before it does any work of its own and sends
it one JSON request per line: {"argv": [...], "stdout": path or null}.
For each it answers one line: {"wall": s, "rss_kb": n, "code": n}.

The measured commands are started from here rather than from run.py
because Linux counts, in a child's peak RSS (`ru_maxrss`), the memory of
the process it was forked from; run.py grows while it generates traces
and runs the oracle, this process stays small.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main():
    # Turn SIGTERM into an exception so a running command is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    for line in sys.stdin:
        request = json.loads(line)
        stdout_path = request["stdout"]
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=out)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        finally:
            if stdout_path:
                out.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "rss_kb": usage.ru_maxrss,
                          "code": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
