"""Time one set-up of a workload in a fresh process and print it in seconds.

Set-up is what a command-line user pays before the first certificate:
importing whitneygeo, then building and self-testing each ambient model the
workload's certificates use.  ``run.py`` starts this script several times
and reports the median.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import whitneygeo  # noqa: E402,F401  (timed: the import is part of set-up)
import workloads  # noqa: E402

for model in workloads.ambient_models(workloads.build(sys.argv[1], int(sys.argv[2]))):
    model.self_test(strict=True)

print(repr(time.perf_counter() - start))
