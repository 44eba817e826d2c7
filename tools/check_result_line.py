"""Check a benchmark result line read from stdin:

    python3 perfbench/run.py --workload exact --seconds 1 2>&1 | python tools/check_result_line.py

With standard error merged in, anything a run writes after its result line
(an exit-time warning, say) fails the check.  The last line must be JSON
without NaN or Infinity, with ``correct`` true, ``failed`` 0 and every
metric value a finite int or float (``null`` fails).
Exits 0 if so, else prints each fault to stderr and exits 1.
"""

import json
import math
import sys


def _reject(constant: str):
    raise ValueError(f"non-finite number {constant}")


def faults(line: str) -> list:
    result = json.loads(line, parse_constant=_reject)
    out = [] if result["correct"] is True else [f"correct is {result['correct']!r}"]
    if result["failed"] != 0:
        out.append(f"failed is {result['failed']!r}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            out.append(f"metric {name} is {value!r}")
    return out


def main() -> int:
    lines = sys.stdin.read().splitlines()
    try:
        found = faults(lines[-1])
    except (IndexError, ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        found = [f"malformed result line: {exc!r}"]
    for fault in found:
        print(f"result line: {fault}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
