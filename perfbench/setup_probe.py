"""Set-up from a fresh interpreter: import numpy and bipcorr, then one warm-up call.

Usage: python3 perfbench/setup_probe.py <src directory>.  The benchmark times
the whole process, interpreter start included.
"""

import sys
from pathlib import Path

import numpy  # noqa: F401  (part of what a user's first call pays for)

from workloads import import_program, warm_up

if __name__ == "__main__":
    warm_up(import_program(Path(sys.argv[1])).cli)
