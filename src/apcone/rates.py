"""Convergence-rate estimation: inverse-power and geometric least-squares
fits on AP traces, the slow-rate recursion x <- x(1 - C x^q +/- K x^(q+1)),
and the closed-form constant of the k^(-1/6) limit law.

The recursion is a plain Python loop: each step depends on the previous x,
so it cannot be vectorised.  x is kept only at the decade checkpoints, so
memory does not grow with the step count; for K = 0 the loop body between
checkpoints is one step's arithmetic and nothing else."""

from dataclasses import dataclass
from itertools import repeat

import numpy as np

_NOISE_MODES = ("plus", "minus", "alternating")


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
    dists = np.asarray(getattr(trace, "dists", trace), dtype=float)
    k_min, k_max = int(window[0]), int(window[1])
    if not 0 <= k_min < k_max <= len(dists) - 1:
        raise ValueError(f"window {window} outside trace of length {len(dists)}")
    ks = np.arange(k_min, k_max + 1)
    d = dists[k_min:k_max + 1]
    if np.any(d <= 0.0):
        raise ValueError("distances must be positive on the fit window")
    return ks, d


def _line_fit(x, y):
    A = np.vstack([np.ones_like(x, dtype=float), x]).T
    coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
    rmse = float(np.sqrt(np.mean((A @ coeffs - y) ** 2)))
    return float(coeffs[0]), float(coeffs[1]), rmse


def fit_inverse_power(trace, p, window):
    """Fit dist_k^{-p} ~ intercept + slope * k on the window."""
    ks, d = _window_dists(trace, window)
    with np.errstate(over="ignore"):
        y = d ** (-float(p))
        if not np.isfinite(y @ y):    # so the fit's sums of squares are too
            raise ValueError(f"dist^-{p} or its square overflows on the "
                             "fit window")
    intercept, slope, rmse = _line_fit(ks, y)
    return InversePowerFit((int(window[0]), int(window[1])), rmse, intercept,
                           slope)


def fit_geometric(trace, window):
    """Fit log dist_k ~ log amplitude + k log ratio on the window."""
    ks, d = _window_dists(trace, window)
    logc, logr, rmse = _line_fit(ks, np.log(d))
    return GeometricFit((int(window[0]), int(window[1])), rmse,
                        float(np.exp(logc)), float(np.exp(logr)))


@dataclass(frozen=True)
class RecursionRun:
    """The slow-rate recursion at its decade checkpoints.

    ``xs[i]`` is x at step ``ks[i]``, with ``ks`` = 0, 1, 10, 100, ... and
    the last step n (``run_ap``'s sampling rule); both arrays are read-only.
    ``product`` is (q C)^(1/q) n^(1/q) x_n and ``decreasing`` says whether
    every one of the n steps decreased x strictly.
    """

    ks: np.ndarray
    xs: np.ndarray
    product: float
    decreasing: bool


def recursive_sequence(C, K, q, x0, n, noise="plus"):
    """Iterate x <- x (1 - C x^q +/- K x^(q+1)) for n >= 1 steps.

    ``noise`` picks the sign of the K term: "plus", "minus", or
    "alternating" (starting with +).

    Requires x0 > 0, q > 0, the decrease hypothesis (q+1) C - (q+2) K x0 > 0 and a
    positive first factor, C x0^q + K x0^(q+1) < 1.  Returns a
    ``RecursionRun``: x at the decade checkpoints and the limit product
    (q C)^(1/q) n^(1/q) x_n, which tends to 1.
    """
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    if not q > 0:
        raise ValueError("q must be positive")
    if C <= 0 or K < 0:
        raise ValueError("C must be positive and K nonnegative")
    if not (q + 1) * C - (q + 2) * K * x0 > 0:
        raise ValueError("hypothesis (q+1) C - (q+2) K x0 > 0 violated")
    if noise not in _NOISE_MODES:
        raise ValueError(f"noise must be one of {sorted(_NOISE_MODES)}")
    if n < 1:
        raise ValueError("n must be >= 1")
    C, K, q, x0, n = float(C), float(K), float(q), float(x0), int(n)
    if not C * x0 ** q + K * x0 ** (q + 1) < 1.0:
        raise ValueError("the first factor 1 - C x0^q - K x0^(q+1) must be "
                         "positive")
    ks, checkpoint = [0], 1
    while checkpoint < n:
        ks.append(checkpoint)
        checkpoint *= 10
    ks.append(n)
    xs = [x0]
    x, k = x0, 0
    if K == 0.0:
        # the K term is +0.0 or -0.0, which leaves 1 - C x^q unchanged.
        # Each factor lies in (0, 1], so x never increases, and a step that
        # leaves x unchanged leaves it fixed for good: the last step
        # decreases x iff every step does.
        for b in ks[1:]:
            for _ in repeat(None, b - k - 1):
                x = x * (1.0 - C * x ** q)
            prev, x = x, x * (1.0 - C * x ** q)
            xs.append(x)
            k = b
        decreasing = x < prev
    else:
        # the sign is fixed before the loop and flipped per step, so the
        # loop does not branch
        sign = -1.0 if noise == "minus" else 1.0
        flip = -1.0 if noise == "alternating" else 1.0
        decreasing = True
        for b in ks[1:]:
            for _ in repeat(None, b - k):
                xq = x ** q
                prev, x = x, x * (1.0 - C * xq + sign * K * xq * x)
                decreasing &= x < prev
                sign *= flip
            xs.append(x)
            k = b
    product = float((q * C) ** (1.0 / q) * n ** (1.0 / q) * x)
    ks, xs = np.array(ks, dtype=np.int64), np.array(xs)
    ks.setflags(write=False)
    xs.setflags(write=False)
    return RecursionRun(ks, xs, product, bool(decreasing))


def slow_rate_constant(spec):
    """The constant (3 / (32 c4^4 (2 c1^2 + 1)^4))^(1/6) of the limit law
    lim constant * k^(1/6) * dist_k = 1 along slowest-curve starts."""
    if spec.kind != "type2":
        raise ValueError("the slow-rate constant applies to type2 planes")
    c1, c4 = spec.c[0], spec.c[3]
    if c4 == 0.0:
        raise ValueError("requires c4 != 0")
    return float((3.0 / (32.0 * c4 ** 4 * (2.0 * c1 ** 2 + 1.0) ** 4))
                 ** (1.0 / 6.0))


def parse_trace_csv(text):
    """Parse the CLI trace CSV (header k,dist,psd_rank,inv2,inv6; '#'
    comment lines ignored) into a dict of column arrays."""
    rows = []
    header = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    if header is None:
        raise ValueError("no header found")
    data = np.array(rows) if rows else np.empty((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}
