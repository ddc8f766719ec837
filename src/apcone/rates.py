"""Convergence-rate estimation: inverse-power and geometric least-squares
fits on AP traces, the slow-rate recursion x <- x(1 - C x^q +/- K x^(q+1))
with its limit products, and the constant of the k^(-1/6) limit law, built
on the step constant c and ||B1||^6 of the slowest curve's
``planes.CurveConstants`` record.

The recursion is a plain Python loop: each step depends on the previous x,
so it cannot be vectorised.  After the first step, taken from the exact
x0, the loop iterates the scaled variable y = C^(1/q) x, in which the
K = 0 step is y - y^(q+1).  The power's form is picked once per run, from
q: for q = 2 every step is y - y * y * y, about 1.4x faster than y ** 3.0;
every other q, and the K != 0 loop, use y ** (q + 1).  Only y at the
decade checkpoints is kept; x = y / C^(1/q) and the limit product
(q k)^(1/q) y_k are formed from it after the loop.  So memory does not
grow with the step count, and for K = 0 the loop body between checkpoints
is one step's arithmetic and nothing else.

Whether an argument is a number, or a finite one, is decided by
``symcore.is_number`` and ``symcore.is_finite_number``.  The trace CSV is
parsed a block of lines at a time, each block cut at a line end, LF or
CR."""

import math
import re
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .planes import require_slowest_curve
from .symcore import (_power, check_count, is_finite_number, is_integer,
                      is_number)

_NOISE_MODES = ("plus", "minus", "alternating")
# characters of trace CSV text parsed at a time, about 1000 CLI rows
_PARSE_BLOCK = 1 << 16
# below q = 1/16 the scaled variable could reach the subnormal floats while
# its steps still move it (a step moves y only while y^q > 2^-55)
_Q_MIN = 1.0 / 16.0
_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of the trace window (k_min, k_max) under one rate
    model, with the root-mean-square residual of the fitted line."""

    window: tuple
    rmse: float


@dataclass(frozen=True)
class InversePowerFit(RateFit):
    """dist^-p ~ intercept + slope * k."""

    intercept: float
    slope: float


@dataclass(frozen=True)
class GeometricFit(RateFit):
    """dist ~ amplitude * ratio^k, fitted to log dist."""

    amplitude: float
    ratio: float


def _window_dists(trace, window):
    """The window as a pair of ints, its ks and its distances."""
    dists = np.asarray(getattr(trace, "dists", trace), dtype=float)
    if not (is_integer(window[0]) and is_integer(window[1])):
        raise ValueError(f"window {window} must be a pair of integers")
    k_min, k_max = int(window[0]), int(window[1])
    if not 0 <= k_min < k_max <= len(dists) - 1:
        raise ValueError(f"window {window} outside trace of length {len(dists)}")
    ks = np.arange(k_min, k_max + 1)
    d = dists[k_min:k_max + 1]
    if np.any(d <= 0.0):
        raise ValueError("distances must be positive on the fit window")
    return (k_min, k_max), ks, d


def _line_fit(x, y):
    A = np.vstack([np.ones_like(x, dtype=float), x]).T
    coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
    rmse = float(np.sqrt(np.mean((A @ coeffs - y) ** 2)))
    return float(coeffs[0]), float(coeffs[1]), rmse


def fit_inverse_power(trace, p, window):
    """Fit dist_k^{-p} ~ intercept + slope * k on the window; dist_k^{-p}
    is ``symcore._power``'s, the number the trace CSV's inv_p column
    prints."""
    if not is_finite_number(p):
        raise ValueError("p must be a finite number")
    window, ks, d = _window_dists(trace, window)
    with np.errstate(over="ignore"):
        y = _power(d, -float(p))
        if not np.isfinite(y @ y):    # so the fit's sums of squares are too
            raise ValueError(f"dist^-{p} or its square overflows on the "
                             "fit window")
    intercept, slope, rmse = _line_fit(ks, y)
    return InversePowerFit(window, rmse, intercept, slope)


def fit_geometric(trace, window):
    """Fit log dist_k ~ log amplitude + k log ratio on the window."""
    window, ks, d = _window_dists(trace, window)
    logc, logr, rmse = _line_fit(ks, np.log(d))
    return GeometricFit(window, rmse, float(np.exp(logc)),
                        float(np.exp(logr)))


@dataclass(frozen=True)
class RecursionRun:
    """The slow-rate recursion at its decade checkpoints.

    ``xs[i]`` is x at step ``ks[i]``, with ``ks`` = 0, 1, 10, 100, ... and
    the last step n (``run_ap``'s sampling rule), and ``products[i]`` the
    limit product (q C)^(1/q) k^(1/q) x_k at k = ``ks[i]``; the arrays are
    read-only.  ``product`` is the last of them, at n, and ``decreasing``
    says whether every one of the n steps decreased x strictly.
    """

    ks: np.ndarray
    xs: np.ndarray
    products: np.ndarray
    decreasing: bool

    @property
    def product(self):
        return float(self.products[-1])


def recursive_sequence(C, K, q, x0, n, noise="plus"):
    """Iterate x <- x (1 - C x^q +/- K x^(q+1)) for n >= 1 steps.

    ``noise`` picks the sign of the K term: "plus", "minus", or
    "alternating" (starting with +).

    Requires x0 > 0, q > 0, the decrease hypothesis (q+1) C - (q+2) K x0 > 0 and a
    positive first factor, C x0^q + K x0^(q+1) < 1; C, K, q and x0 must be
    numbers (a bool is not one).  Returns a ``RecursionRun``: x and the
    limit product (q C)^(1/q) k^(1/q) x_k, which tends to 1, at the decade
    checkpoints k.

    The first step is taken in x from the exact x0.  The loop then runs in
    the scaled variable y = C^(1/q) x, where the step is
    y <- y - y^(q+1) +/- kappa y^(q+2) with kappa = K / C^((q+1)/q), for
    K = 0 y - y ** (q + 1), or y - y * y * y at every step when q = 2, and
    the product is (q k)^(1/q) y_k.  That
    needs q >= 1/16 and normal floats C^(1/q) and C^(1/q) x_1, else
    ``ValueError``: then y stays a normal float for as long as a step can
    move it.
    """
    if not (is_number(x0) and x0 > 0):    # NaN included, as below
        raise ValueError("x0 must be positive")
    if not (is_number(q) and q > 0):
        raise ValueError("q must be positive")
    if not (is_number(C) and is_number(K) and C > 0 and K >= 0):
        raise ValueError("C must be positive and K nonnegative")
    if not (q + 1) * C - (q + 2) * K * x0 > 0:
        raise ValueError("hypothesis (q+1) C - (q+2) K x0 > 0 violated")
    if noise not in _NOISE_MODES:
        raise ValueError(f"noise must be one of {sorted(_NOISE_MODES)}")
    n = check_count("n", n)
    C, K, q, x0 = float(C), float(K), float(q), float(x0)
    try:
        first = C * x0 ** q + K * x0 ** (q + 1)
    except OverflowError:   # x never grows, so no later power overflows
        raise ValueError("x0^(q+1) overflows") from None
    if not first < 1.0:
        raise ValueError("the first factor 1 - C x0^q - K x0^(q+1) must be "
                         "positive")
    inv_q, q1 = 1.0 / q, q + 1.0

    def root(k):    # (q k)^(1/q), largest at k = n
        return q ** inv_q * k ** inv_q

    try:    # a product is root(k) y_k with y_k < 1: finite where root(n) is
        finite = root(n) < math.inf
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("the limit product (q C)^(1/q) n^(1/q) x_n overflows")
    try:
        scale = C ** inv_q
        # the rounded exponent 1/q leaves scale up to |ln scale| / 2 ulps
        # off; scaling by the root of C / scale^q brings it within ~1 ulp
        scale *= (C / scale ** q) ** inv_q
    except (OverflowError, ZeroDivisionError):  # scale^q overflows or is 0
        scale = 0.0
    # a rounded y_0 = scale x0 would enter y_0^q with q times its error, so
    # the first step is taken in x, from the exact x0
    sign = -1.0 if noise == "minus" else 1.0
    xq = x0 ** q
    x = x0 * (1.0 - C * xq + sign * K * xq * x0)
    y = scale * x
    if not (q >= _Q_MIN and _NORMAL <= scale < math.inf and y >= _NORMAL):
        raise ValueError("the scaled recursion needs q >= 1/16 and normal "
                         "floats C^(1/q) and C^(1/q) x_1")
    ks, checkpoint = [0], 1
    while checkpoint < n:
        ks.append(checkpoint)
        checkpoint *= 10
    ks.append(n)
    ys = [y]    # y at ks[1:]
    k = 1
    if K == 0.0:
        # y^(q+1) >= 0, so y never increases, and with one form of the step
        # for the whole run a step that leaves y unchanged leaves it fixed
        # for good: the last step decreases y iff every step of the loop does
        prev = math.inf     # n = 1: the first step decides alone
        cube = q == 2.0     # y * y * y: about 1.4x faster a step than y ** 3.0
        for b in ks[2:]:
            if cube:
                for _ in repeat(None, b - k - 1):
                    y = y - y * y * y
                prev, y = y, y - y * y * y
            else:
                for _ in repeat(None, b - k - 1):
                    y = y - y ** q1
                prev, y = y, y - y ** q1
            ys.append(y)
            k = b
        decreasing = x < x0 and y < prev
    else:
        # kappa y < 1, since K / C < 1 / x0 by the decrease hypothesis.
        # The signed kappa of the second step is fixed before the loop and
        # flipped per step, so the loop does not branch
        flip = -1.0 if noise == "alternating" else 1.0
        signed = sign * flip * (K / C / scale)
        decreasing = x < x0
        for b in ks[2:]:
            for _ in repeat(None, b - k):
                yq1 = y ** q1
                prev, y = y, y - yq1 + signed * yq1 * y
                decreasing &= y < prev
                signed *= flip
            ys.append(y)
            k = b
    run = RecursionRun(np.array(ks, dtype=np.int64),
                       np.array([x0, x, *(y / scale for y in ys[1:])]),
                       np.array([0.0, *map(root, ks[1:])]) * [1.0, *ys],
                       bool(decreasing))
    for a in (run.ks, run.xs, run.products):
        a.setflags(write=False)
    return run


def slow_rate_constant(spec):
    """The constant (6 c / ||B1||^6)^(1/6) of the limit law
    lim constant * k^(1/6) * dist_k = 1 along slowest-curve starts, with c
    the step constant (``planes.slow_step_constant``): t_k ~ (6 c k)^(-1/6)
    and dist_k ~ ||B1|| t_k."""
    curve = require_slowest_curve(spec)
    return float((6.0 * curve.step / curve.nb1_cubed) ** (1.0 / 6.0))


def _line_blocks(text):
    """The lines of ``text`` (``str.splitlines``) stripped of surrounding
    whitespace, without blank and '#' lines, in lists that each come from
    about ``_PARSE_BLOCK`` characters of text cut at a line end, LF or CR,
    so that LF, CRLF and CR-only text are all cut into blocks."""
    pos = 0
    while pos < len(text):
        cut = pos + _PARSE_BLOCK
        # the last line end before the cut, else the first one after it or
        # the end of the text, which also ends a text shorter than a block
        end = max(text.rfind("\n", pos, cut), text.rfind("\r", pos, cut)) + 1
        if cut >= len(text) or not end:
            end = re.compile(r"[\n\r]|\Z").search(text, cut).end()
        yield [line for line in map(str.strip, text[pos:end].splitlines())
               if line and line[0] != "#"]
        pos = end


def parse_trace_csv(text):
    """Parse the CLI trace CSV (header k,dist,psd_rank,inv2,inv6; blank and
    '#' comment lines ignored) into a dict of column arrays.

    The body is parsed a block of lines at a time by ``np.loadtxt``, so
    besides the text the parse holds the columns (twice while the blocks
    are joined) and one block's lines, however many rows there are.  A
    row whose field count differs from the header's raises
    ``ValueError``."""
    header, blocks = None, []
    for lines in _line_blocks(text):
        if header is None and lines:
            header = lines[0].split(",")
            lines = lines[1:]
        if lines:
            # '#' lines are gone already; a '#' inside a row stays an error
            block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if block.shape[1] != len(header):
                raise ValueError(f"rows have {block.shape[1]} fields, the "
                                 f"header {len(header)}")
            blocks.append(block)
    if header is None:
        raise ValueError("no header found")
    data = np.concatenate(blocks) if blocks else np.empty((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}
