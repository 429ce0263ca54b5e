"""One fresh-interpreter set-up: import liftbank and generate the inputs.

Usage: python3 bench/probe.py <workload> <seed>

Prints the seconds from the first statement of this script to the moment
the workload's inputs are ready.  ``run.py`` starts several of these and
reports their median as ``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), ROOT)
print(repr(time.perf_counter() - START))
