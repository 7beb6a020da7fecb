"""Time one set-up in a fresh interpreter and print the seconds it took.

Usage: ``python3 perfbench/probe.py <workload> <work dir>`` with ``src`` on
``PYTHONPATH``. The clock starts before ``tramfl`` (and numpy) is imported
and stops once the workload's config, datasets and shards are built.
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (imports tramfl, which is part of what is timed)

workloads.WORKLOADS[sys.argv[1]].setup(sys.argv[2])
print(repr(time.perf_counter() - start))
