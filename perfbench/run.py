"""Run one benchmark workload: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1].

Starts one worker process (worker.py) with BLAS and OpenMP pinned to one
thread and a fixed hash seed, waits for it, and exits with its code.  The
worker prints the result object as its last line.  See README.md.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

from worker import PINNED_ENV, parse_args

TIMEOUT_S = 175


def main() -> int:
    parse_args()
    env = dict(os.environ, **PINNED_ENV)
    worker = Path(__file__).resolve().parent / "worker.py"
    proc = subprocess.Popen([sys.executable, str(worker), *sys.argv[1:]], env=env, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
