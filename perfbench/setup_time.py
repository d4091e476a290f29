"""Time one set-up of a workload in a fresh process and print the seconds.

    python3 perfbench/setup_time.py codesign

Set-up is the import of numpy, scipy and the program plus the
workload's model, scenario, system and NLP build.  ``run.py`` runs this
several times, with threads already pinned, and reports the median.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup()
print(time.perf_counter() - t0)
