"""Degree-capped univariate power series and the curve expansions built on
them.

A product of two series is one ``np.convolve`` of the coefficient arrays,
cut at the cap: every product a_j b_(d-j) enters coefficient d, so a
0 * inf term makes it NaN whichever factor holds the inf.  A number
operand stays a number: it shifts the constant term in + and -, and scales
or divides each coefficient in * and /, with the bits of the operation with
the constant series on finite coefficients and no 0 * inf term from its
zeros.  Only a number divided by a series runs the degree-by-degree loop.
A zero number is no divisor; the 1e-300 floor on the constant term is a
series divisor's, so a tiny number divides like any other.

The curve expansions run the slowest curve's own rational formulas
(``slowcurve._curve_parts`` and ``_canonical_matrix``), with the constants
of the gate's ``planes.CurveConstants`` record, on the series t = t0 + s
instead of a float, in one place, ``_curve_series``, which
every series of the curve reads (t0 = 0, but for the slope of the tube
check's first coordinate) and which judges its result by the curve's one
rejection rule, ``slowcurve._reject``.  So the series certify the
low-degree structure of exactly the code that evaluates the curve
pointwise: the recursion
satisfied by w, the t^10 leading coefficient of det G(t), and the perturbed
moment-curve pattern of the c1 = c4 = 1 instance.  The rational models of
P_psd(G(t)) and of one AP step run on the series t too, and are set
against the rank-1 kernel ``_rank_one_projection``, which expands
P_psd(G(t)) = lam v v^T / (v^T v) degree by degree.
"""

from dataclasses import dataclass

import numpy as np

from .catalog import _SPEC_61
from .planes import require_slowest_curve
from .slowcurve import (_ap_shift, _canonical_matrix, _curve_parts, _h_term,
                        _psd_correction, _reject)
from .symcore import _eigh, check_count

DEFAULT_CAP = 12


def _product(a, b):
    """Coefficients of the product of two series of one cap: one
    ``np.convolve`` of the coefficient arrays, cut at the cap."""
    return np.convolve(a, b)[:len(a)]


def _shifted(coeffs, k):
    """The series of ``coeffs``, a fresh array, with the number k added to
    its constant term in place."""
    coeffs[0] += float(k)
    return TruncSeries(coeffs)


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
        coeffs = np.asarray(coeffs, dtype=float)[:cap + 1]
        return cls(np.concatenate([coeffs, np.zeros(cap + 1 - len(coeffs))]))

    @classmethod
    def constant(cls, value, cap):
        return cls(np.array([float(value)] + [0.0] * cap))

    @classmethod
    def x(cls, cap):
        return cls.from_coeffs([0.0, 1.0], cap)

    # -- ring operations ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            if len(other.coeffs) != len(self.coeffs):
                raise ValueError("cap mismatch")
            return other
        return TruncSeries.constant(float(other), self.cap)

    def __add__(self, other):
        if isinstance(other, TruncSeries):
            return TruncSeries(self.coeffs + self._coerce(other).coeffs)
        return _shifted(self.coeffs.copy(), other)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(-self.coeffs)

    def __sub__(self, other):
        if isinstance(other, TruncSeries):
            return TruncSeries(self.coeffs - self._coerce(other).coeffs)
        return _shifted(self.coeffs.copy(), -float(other))

    def __rsub__(self, other):
        return _shifted(-self.coeffs, other)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):  # a number scales each term
            return TruncSeries(self.coeffs * float(other))
        return TruncSeries(_product(self.coeffs, self._coerce(other).coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """A number divides each coefficient; it must not be zero.  By a
        series, whose constant term must exceed 1e-300 in modulus, the
        quotient degree by degree, q_d = (a_d - sum_j b_j q_(d-j)) / b_0,
        the sum taken in order of j on Python floats."""
        if not isinstance(other, TruncSeries):
            if other == 0.0:
                raise ZeroDivisionError("division of a series by zero")
            return TruncSeries(self.coeffs / float(other))
        b = self._coerce(other).coeffs.tolist()
        if abs(b[0]) <= 1e-300:
            raise ZeroConstantTermError(
                "division by a series with zero constant term")
        q = []
        for d, acc in enumerate(self.coeffs.tolist()):
            for j in range(1, d + 1):
                acc -= b[j] * q[d - j]
            q.append(acc / b[0])
        return TruncSeries(np.array(q))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent):
        """self * self * ... * self, multiplied left to right by ``_product``
        on the coefficient arrays; ``exponent`` must be a positive integer
        (``symcore.check_count``)."""
        c = out = self.coeffs
        for _ in range(check_count("exponent", exponent) - 1):
            out = _product(out, c)
        return TruncSeries(out)

    def compose(self, inner):
        """self(inner(t)); the inner series must have zero constant term."""
        inner = self._coerce(inner)
        if inner.coeffs[0] != 0.0:
            raise ValueError("composition needs zero inner constant term")
        out = TruncSeries.constant(self.coeffs[-1], self.cap).coeffs
        for c in self.coeffs[-2::-1]:  # Horner over series
            out = _product(out, inner.coeffs)
            out[0] += c
        return TruncSeries(out)

    def __getitem__(self, d):
        return float(self.coeffs[d])


def _curve_series(curve, cap, base=0.0):
    """The slowest curve of the ``planes.CurveConstants`` ``curve`` on the
    series t = base + s in s, to degree ``cap``: ``(t, w, g13, g23, den4w,
    G)``, the parts of ``slowcurve._curve_parts`` and the rows G of
    ``slowcurve._canonical_matrix``, in the canonical frame.  Every series
    of the curve in t is read from here.  The point rule
    ``slowcurve._reject`` decides the series: the constant terms, the
    point at ``base``, for a vanished denominator, and every coefficient
    of w, den4w and G for one that is not finite."""
    t = TruncSeries.from_coeffs([base, 1.0], cap)
    with np.errstate(all="ignore"):
        w, g13, g23, den4w, checked = _curve_parts(curve, t)
        G = _canonical_matrix(curve, t, g13, g23)
    _reject(den4w[0], [d[0] for d in checked],
            [e.coeffs for e in (w, den4w, *G[0], *G[1], *G[2])])
    return t, w, g13, g23, den4w, G


def expand_curve(spec, cap=DEFAULT_CAP):
    """Series expansions (w, g13, g23) of the slowest curve in t, from the
    same formulas that evaluate it pointwise (``slowcurve._curve_parts``)
    applied to the series t."""
    return _curve_series(require_slowest_curve(spec), cap)[1:4]


def _stack(rows):
    """The coefficients of a 3x3 matrix of series, degree first: an array
    of shape (cap + 1, 3, 3)."""
    return np.array([[e.coeffs for e in row] for row in rows]).transpose(
        2, 0, 1)


def _first_degree(coeffs, tol):
    """``(d, below, at)`` of a coefficient stack: the first degree d whose
    coefficient exceeds ``tol`` in modulus (cap + 1 when none), the largest
    modulus below d and the one at d (inf when none)."""
    size = np.append(np.abs(coeffs).max(axis=(1, 2)), np.inf)
    d = int(np.argmax(size > tol))
    return d, float(size[:d].max(initial=0.0)), float(size[d])


def _rank_one_projection(g, tol):
    """P = lam v v^T / (v^T v) of the 3x3 series matrix G whose constant
    term is E11, both as coefficient stacks ``g`` and P (``_stack``).

    (lam, v) is the eigenpair of G through (1, e1) at t = 0, normalised by
    v[0] = 1.  Degree d of G v = lam v reads r_d = v_d + lam_d e1, with
    r_d = sum_{j=1..d} G_j v_(d-j) - sum_{j=1..d-1} lam_j v_(d-j), so each
    degree is explicit: lam_d = r_d[0] and v_d[1:] = r_d[1:].  P is
    P_psd(G) when G's other two eigenvalues are at most 0: G - P must be
    negative semidefinite at its first degree above ``tol`` (no eigenvalue
    above ``tol``), else ValueError.
    """
    lam, v = np.zeros(len(g)), np.zeros((len(g), 3))
    lam[0] = v[0, 0] = 1.0
    for d in range(1, len(g)):
        r = (np.einsum("jab,jb->a", g[1:d + 1], v[d - 1::-1])
             - lam[1:d] @ v[d - 1:0:-1])
        lam[d], v[d, 1:] = r[0], r[1:]
    v1, v2 = (TruncSeries(col) for col in v.T[1:])    # v[0] is 1
    p00 = TruncSeries(lam) / (1.0 + v1 * v1 + v2 * v2)
    p01, p02 = p00 * v1, p00 * v2
    P = _stack([[p00, p01, p02], [p01, p01 * v1, p01 * v2],
                [p02, p01 * v2, p02 * v2]])
    d = _first_degree(g - P, tol)[0]
    if d < len(g) and _eigh(g[d] - P[d])[2][-1] > tol:
        raise ValueError("P_psd of the series matrix has rank above 1")
    return P


def _psd_projection_series(spec, cap, tol):
    """``(P, model)`` in the canonical frame, as coefficient stacks: P_psd
    of G(t) by ``_rank_one_projection`` (with ``tol``), and the model
    G + D of ``psd_projection_formula`` run on the series t."""
    curve = require_slowest_curve(spec)
    t, w, g13, _, den4w, G = _curve_series(curve, cap)
    g = _stack(G)
    D = _psd_correction(curve, t, w, g13, _h_term(t, den4w))
    return _rank_one_projection(g, tol), g + _stack(D)


def _ap_image_series(E, spec, cap, tol):
    """``(W, model)`` in the canonical frame, as coefficient stacks: one AP
    step onto the plane E from G(t), the projection ``E._project`` of the
    rows [vec P_d | d == 0] of ``_rank_one_projection``'s P (with
    ``tol``), and the model of ``ap_image_formula`` run on the series t:
    G at s = t - c t^7, its g13 and g23 the curve's series composed with
    s.  E is the plane of the canonical ``spec``."""
    curve = require_slowest_curve(spec)
    t, _, g13, g23, _, G = _curve_series(curve, cap)
    P = _rank_one_projection(_stack(G), tol)
    rows = np.hstack([P.reshape(cap + 1, 9), np.eye(cap + 1, 1)])
    W = E._project(rows.T).T.reshape(P.shape)
    s = _ap_shift(curve, t)
    return W, _stack(_canonical_matrix(curve, s, g13.compose(s),
                                       g23.compose(s)))


def w_recursion_defect(spec):
    """Max |coefficient| gap, degree 0..5, of w minus its own recursion
    G_11 = 1 - 2 c1 t + 2 c2 g13 - 2 c3 g23 (they agree below degree 6)."""
    _, w, _, _, _, G = _curve_series(require_slowest_curve(spec), DEFAULT_CAP)
    return float(np.max(np.abs(w.coeffs[:6] - G[0][0].coeffs[:6])))


def det_series(spec, cap=DEFAULT_CAP):
    """det G(t) as a series; degree-10 coefficient is 1/(32 c4^6)."""
    if cap < 11:
        raise ValueError("det_series needs cap >= 11")
    g = _curve_series(require_slowest_curve(spec), cap)[5]
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
    g = _curve_series(require_slowest_curve(_SPEC_61), 8)[5]
    t = TruncSeries.x(8)
    scale, s_of_t = 1 - 2 * t, t / (1 + 2 * t)  # s = t/(1-2t), inverted
    # each entry's pattern: its coefficients in s through degree 7
    target = {(0, 0): [1], (1, 0): [0, 1], (2, 2): [0],
              (2, 0): [0, 0, -0.5, 0, 0, 0, 1 / 16],
              (1, 1): [0, 0, 1, 0, 0, 0, -1 / 8],
              (2, 1): [0, 0, 0, -0.5, 0, 0, 0, 3 / 16]}
    return max(float(np.max(np.abs(
        (g[i][j] / scale).compose(s_of_t).coeffs[:8]
        - TruncSeries.from_coeffs(want, 7).coeffs)))
        for (i, j), want in target.items())
