"""Run commands one at a time for the benchmark, from a process that stays small.

A child's peak RSS, as ``os.wait4`` reports it, is at least the peak RSS of
the process that spawned it, because Linux carries the old address space's
high-water mark across ``exec``.  The benchmark process grows while it makes
inputs, so it hands commands to this process instead.  Each line on standard
input is a JSON object ``{"argv": [...], "log": path}``; for each, one JSON
line ``{"code", "wall_s", "peak_rss_mb"}`` is written back once the command
has exited.  Standard error of the command goes to ``log``.  The process ends
at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
