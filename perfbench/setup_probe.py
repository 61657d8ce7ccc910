"""Set-up probe: import stopline and build one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <scale>

Prints one JSON line: the monotonic clock once the workload is built, and
the durations of the reference bursts sampled on the way.  `run.py` takes
the clock minus the time it started this process as one set-up time.
"""
import json
import sys
import time

import run

run.pin_threads()
from reference import SpeedProbe  # noqa: E402  (imports numpy: threads pinned first)

probe = SpeedProbe()
with probe.sampling():
    run.prepare()
    import workloads

    workloads.build(run.ROOT, sys.argv[1], int(sys.argv[2]), sys.argv[3])
    built = time.monotonic()
    bursts = list(probe.bursts)
print(json.dumps({"built": built, "bursts": bursts}))
