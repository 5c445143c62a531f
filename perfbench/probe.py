"""One cold start, in a fresh interpreter: import twistor4, run one item.

Usage: python3 perfbench/probe.py <workload> <item as JSON>

Prints one JSON line with the seconds from before the import to the end of
the item, and a fingerprint of the item's output for the parent to check.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, fingerprint  # noqa: E402


def main():
    workload = WORKLOADS[sys.argv[1]](expected=None)
    item = json.loads(sys.argv[2])
    start = time.perf_counter()
    workload.bind()
    output = workload.run(item)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed,
                      "fingerprint": fingerprint(workload.key(output))}))


if __name__ == "__main__":
    main()
