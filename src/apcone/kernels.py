"""The slow-rate recursion as a loop kernel, with a numba-compiled and a
plain-Python variant.

The recursion is the only compiled code in the package.  It is written in
loop-based, nopython-compatible style; at import time the module decorates
it with ``numba.njit`` unless the environment variable ``APCONE_NUMBA``
disables it (``0``/``false``/``no``) or numba is not installed;
``APCONE_NUMBA=1`` makes numba mandatory.  Both paths execute the identical
statements, so results agree bit for bit.  Each step is a sequential
dependence on the previous x, so the loop cannot be vectorised; on the
plain path it is kept to the arithmetic of one step and one store into a
preallocated array.  numba is an optional extra
(``pip install -e .[jit]``); the eigensolver, the AP loop and the
affine-subspace arithmetic are NumPy/LAPACK code in ``symcore`` and
``apengine`` and never compiled.
"""

import os

import numpy as np

_FLAG = os.environ.get("APCONE_NUMBA", "auto").strip().lower()

USING_NUMBA = False
if _FLAG in ("0", "false", "no", "off"):
    pass
else:
    try:
        from numba import njit as _njit

        USING_NUMBA = True
    except ImportError:
        if _FLAG in ("1", "true", "yes", "on"):
            raise


def _jit(func):
    if USING_NUMBA:
        return _njit(cache=True, fastmath=False)(func)
    return func


@_jit
def recurrence_sequence(C, K, q, x0, n, mode):
    """Iterate x <- x (1 - C x^q +/- K x^(q+1)).

    ``mode``: 0 adds the K term, 1 subtracts it, 2 alternates starting with +.
    The sign is fixed before the loop and flipped per step, so the loop does
    not branch.  With K == 0 the K term is +0.0 or -0.0, which leaves
    1 - C x^q unchanged, so it is dropped.
    """
    xs = np.empty(n + 1)
    xs[0] = x0
    x = x0
    if K == 0.0:
        for k in range(1, n + 1):
            x = x * (1.0 - C * x ** q)
            xs[k] = x
        return xs
    sign = -1.0 if mode == 1 else 1.0
    flip = -1.0 if mode == 2 else 1.0
    for k in range(1, n + 1):
        xq = x ** q
        x = x * (1.0 - C * xq + sign * K * xq * x)
        xs[k] = x
        sign *= flip
    return xs
