"""Scaling of wall times to a reference machine speed.

On the 2-vCPU virtual machine this benchmark was written on, single-thread
speed drifts by about +-20% between 30-second windows, which no statistic
taken inside one run can remove.  The runner therefore brackets each unit of
work with ``calibrate``, a fixed computation that touches no apcone code,
and multiplies the unit's wall time by ``factor``: CAL_REF_S over the mean
calibration time around it.  CAL_REF_S is the calibration's median time on
that machine, so a factor above 1 means the machine ran faster than then.
"""

import time

import numpy as np

CAL_REF_S = 4.4e-3

_A = np.array([[1.0, 0.3, -0.1], [0.3, 0.2, 0.05], [-0.1, 0.05, -0.4]])


def calibrate():
    """Seconds taken by interpreted arithmetic and 3x3 numpy calls, the mix
    that dominates apcone's own run time (about 4 ms)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5
    for _ in range(300):
        np.linalg.eigh(_A)
        _A @ _A
    return time.perf_counter() - t0


def factor(before, after):
    """Speed factor for work timed between two calibrations."""
    return CAL_REF_S / ((before + after) / 2.0)
