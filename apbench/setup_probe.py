"""Set-up probe, run in a fresh process by ``run.py``.

Times importing apcone from the checkout's ``src`` and building every plane
and start the workload uses, then runs the calibration computation three
times.  The last line holds the set-up seconds and the median calibration
seconds.

Usage: python3 apbench/setup_probe.py WORKLOAD SEED
"""

import time

T0 = time.perf_counter()

import statistics  # noqa: E402
import sys  # noqa: E402

from run import import_apcone  # noqa: E402
from speed import calibrate  # noqa: E402
from workloads import FULL, WORKLOADS  # noqa: E402


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    import_apcone()
    wl = WORKLOADS[workload](seed, FULL, ".")
    wl.prepare()
    wl.build()
    setup = time.perf_counter() - T0
    cal = statistics.median(calibrate() for _ in range(3))
    print(setup, cal)


if __name__ == "__main__":
    main()
