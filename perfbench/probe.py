"""Set-up probe: time from interpreter start to a workload's first engine event.

Run in a fresh interpreter so the imports are paid again:

    python3 perfbench/probe.py <workload> <seed>

It prints the seconds spent importing ``repro``, building the workload
and constructing the machine, up to the moment the engine would start.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv: list) -> int:
    name, seed = argv
    print(repr(WORKLOADS[name].setup_probe(int(seed), START)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
