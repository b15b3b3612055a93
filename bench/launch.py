"""Start CLI processes from a small process, so that their max RSS is their own.

Linux carries the spawning process's peak RSS into a child's ``ru_maxrss``
across exec. A child started straight from the benchmark, which has numpy
loaded and has parsed reports, would report at least the benchmark's own
peak. This process imports nothing heavy. It reads one JSON request per line
(``argv``, ``cwd``, ``env``, ``stderr``), runs it to completion, and answers
with one JSON line: launch-to-exit wall seconds, max RSS in KiB and exit code.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], cwd=req["cwd"], env=req["env"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "maxrss_kib": usage.ru_maxrss, "code": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
