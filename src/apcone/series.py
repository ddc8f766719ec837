"""Degree-capped univariate power series and the curve expansions built on
them.

A product is one ``np.convolve`` of the two coefficient arrays, cut at the
cap: every product a_j b_(d-j) enters coefficient d, so a 0 * inf term
makes it NaN whichever factor holds the inf.

The curve expansions run the slowest curve's own rational formulas
(``slowcurve._curve_parts`` and ``_canonical_matrix``) on the series t
instead of a float, so the series certify the low-degree structure of
exactly the code that evaluates the curve pointwise: the recursion
satisfied by w, the t^10 leading coefficient of det G(t), and the perturbed
moment-curve pattern of the c1 = c4 = 1 instance.
"""

from dataclasses import dataclass

import numpy as np

from .catalog import _SPEC_61
from .planes import require_slowest_curve
from .slowcurve import _canonical_matrix, _curve_parts
from .symcore import check_count

DEFAULT_CAP = 12
_MOMENT_CAP = 8    # the moment pattern is compared through degree 7


class ZeroConstantTermError(ZeroDivisionError):
    """Series division needs an invertible (nonzero) constant term."""


@dataclass(frozen=True)
class TruncSeries:
    """Coefficients c[d] of t^d for d = 0..cap; arithmetic truncates at cap."""

    coeffs: np.ndarray

    @property
    def cap(self):
        return len(self.coeffs) - 1

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_coeffs(cls, coeffs, cap):
        c = np.zeros(cap + 1)
        coeffs = np.asarray(coeffs, dtype=float)
        c[:min(len(coeffs), cap + 1)] = coeffs[:cap + 1]
        return cls(c)

    @classmethod
    def constant(cls, value, cap):
        return cls.from_coeffs([value], cap)

    @classmethod
    def x(cls, cap):
        return cls.from_coeffs([0.0, 1.0], cap)

    # -- ring operations ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            if other.cap != self.cap:
                raise ValueError("cap mismatch")
            return other
        return TruncSeries.constant(float(other), self.cap)

    def __add__(self, other):
        other = self._coerce(other)
        return TruncSeries(self.coeffs + other.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(-self.coeffs)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        prod = np.convolve(self.coeffs, other.coeffs)
        return TruncSeries(prod[:self.cap + 1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        b0 = other.coeffs[0]
        if abs(b0) <= 1e-300:
            raise ZeroConstantTermError(
                "division by a series with zero constant term")
        n = self.cap + 1
        q = np.zeros(n)
        for d in range(n):
            acc = self.coeffs[d]
            for j in range(1, d + 1):
                acc -= other.coeffs[j] * q[d - j]
            q[d] = acc / b0
        return TruncSeries(q)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent):
        """self * self * ... * self, multiplied left to right; ``exponent``
        must be a positive integer (``symcore.check_count``)."""
        out = self
        for _ in range(check_count("exponent", exponent) - 1):
            out = out * self
        return out

    def compose(self, inner):
        """self(inner(t)); the inner series must have zero constant term."""
        inner = self._coerce(inner)
        if inner.coeffs[0] != 0.0:
            raise ValueError("composition needs zero inner constant term")
        out = TruncSeries.constant(self.coeffs[self.cap], self.cap)
        for d in range(self.cap - 1, -1, -1):  # Horner over series
            out = out * inner + self.coeffs[d]
        return out

    def __getitem__(self, d):
        return float(self.coeffs[d])


def expand_curve(spec, cap=DEFAULT_CAP):
    """Series expansions (w, g13, g23) of the slowest curve in t, from the
    same formulas that evaluate it pointwise (``slowcurve._curve_parts``)
    applied to the series t."""
    c = require_slowest_curve(spec).canonical().c
    return _curve_parts(c, TruncSeries.x(cap))[:3]


def curve_matrix_series(spec, cap):
    """Rows of TruncSeries giving the entries of G(t), assembled by
    ``slowcurve._canonical_matrix`` on the series t."""
    _, g13, g23 = expand_curve(spec, cap)
    return _canonical_matrix(spec.c, TruncSeries.x(cap), g13, g23)


def w_recursion_defect(spec):
    """Max |coefficient| gap, degree 0..5, of w minus its own recursion
    G_11 = 1 - 2 c1 t + 2 c2 g13 - 2 c3 g23 (they agree below degree 6)."""
    w, g13, g23 = expand_curve(spec)
    g11 = _canonical_matrix(spec.c, TruncSeries.x(w.cap), g13, g23)[0][0]
    return float(np.max(np.abs(w.coeffs[:6] - g11.coeffs[:6])))


def det_series(spec, cap=DEFAULT_CAP):
    """det G(t) as a series; degree-10 coefficient is 1/(32 c4^6)."""
    if cap < 11:
        raise ValueError("det_series needs cap >= 11")
    g = curve_matrix_series(spec, cap)
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))


def moment_curve_defect():
    """Deviation of the c1 = c4 = 1 curve from the perturbed moment pattern.

    Expands G(t)/(1 - 2t) entrywise, substitutes t = s/(1 + 2s), and compares
    against the moment matrix of (1, s, -s^2/2) with its s^6/s^7 corrections:
    entries (1,1)=1, (2,1)=s, (3,1)=-s^2/2 + s^6/16, (2,2)=s^2 - s^6/8,
    (3,2)=-s^3/2 + 3 s^7/16, (3,3)=0, all through degree 7.  Returns the max
    absolute coefficient gap.
    """
    g = curve_matrix_series(_SPEC_61, _MOMENT_CAP)
    t = TruncSeries.x(_MOMENT_CAP)
    scale = 1 - 2 * t
    s_of_t = t / (1 + 2 * t)  # inverse of s = t/(1-2t)

    def sub(entry):
        return (entry / scale).compose(s_of_t)

    s = TruncSeries.x(_MOMENT_CAP)
    s2, s3 = s * s, s * s * s
    s6 = s3 * s3
    s7 = s6 * s
    target = {
        (0, 0): TruncSeries.constant(1.0, _MOMENT_CAP),
        (1, 0): s,
        (2, 0): -s2 / 2 + s6 / 16,
        (1, 1): s2 - s6 / 8,
        (2, 1): -s3 / 2 + 3 * s7 / 16,
        (2, 2): TruncSeries.constant(0.0, _MOMENT_CAP),
    }
    worst = 0.0
    for (i, j), want in target.items():
        got = sub(g[i][j])
        worst = max(worst, float(np.max(np.abs(
            got.coeffs[:8] - want.coeffs[:8]))))
    return worst
