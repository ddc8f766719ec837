"""The rational slowest curve G(t) of a type2 plane with c4 != 0, rational
formulas for its projections, a Newton continuation that rebuilds the curve
from the rank-1 chart, the transverse perturbation-gain matrix and the tube
check of AP iterates started near the curve.

All curve formulas are evaluated in the canonical (theta = 0) frame and the
resulting matrices conjugated back, so they stay consistent with
``planes.build_plane`` for rotated specs.  The formulas are written once,
in ``_curve_parts``, with the denominators a point is rejected for.  The
same code runs on a float, on an ndarray of t and on a ``TruncSeries`` in
t, always under ``np.errstate``: a float t is evaluated as an
``np.float64``, so an overflow or a division by zero gives inf or NaN and
raises nothing, and one rule (``_reject``) then decides a point and a
series alike: a vanished denominator raises
``VanishingDenominatorError``, a value that is not finite
``OverflowError``.  An ndarray gets the float's bits entry by entry: its
powers go through ``symcore._power``, the one power the rate fit and the
trace CSV's inv columns use too.  The plane's constants (||B1||^2, the
step constant, the coefficients of g13 and g23) are read from the
``planes.CurveConstants`` record that ``planes.require_slowest_curve``
makes and checks: each public curve function runs that gate once and
passes the record down, and nothing here forms a constant again.
``valid_t_max`` and ``perturb_gain`` also take a list or tuple of specs
and return a tuple: the domain grids of all the planes run as one array
over the records stacked as columns (``_columns``), and the gains from
one factorization of the stack of their bases.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .apengine import (_pair_with_psi_second_partials, _psi_partials,
                       _require_chart_plane, _require_orthogonal, ap_step,
                       psi)
from .planes import (U_STAR, CurveConstants, _planes, _rotated,
                     require_slowest_curve, type2_basis)
from .symcore import (EigenSolverError, _check_basis, _eigh, _factor,
                      _gram_schmidt, _power, check_count, frob_inner,
                      frob_norm, is_finite_number, is_number, orthogonalize,
                      project_affine)

T_CAP = 0.2
DOMAIN_GRID = 200
DENOM_FLOOR = 0.1
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
TUBE_K_SLACK = 1.5
TUBE_BLOCK = 256


# the fields of a planes.CurveConstants record after c, in order
_NUMBERS = tuple(f.name for f in fields(CurveConstants)[1:])


class VanishingDenominatorError(ZeroDivisionError):
    """A nested denominator of the curve formulas is (numerically) zero."""


class ResidualNoiseError(ArithmeticError):
    """The deepest point of a residual ladder sits below the float noise
    floor."""


class NewtonConvergenceError(RuntimeError):
    """Damped Newton failed to reach the residual tolerance."""


class ChartError(RuntimeError):
    """An iterate left the region where the curve decomposition is defined."""


@dataclass(frozen=True)
class CurvePoint:
    """One point of the slowest curve with its scalar ingredients."""

    t: float
    w: float
    g13: float
    g23: float
    h: float
    G: np.ndarray


def _curve_parts(curve, t):
    """``(w, g13, g23, den4w, checked)`` of the curve point at t in the
    canonical frame of the ``planes.CurveConstants`` ``curve``, evaluated
    exactly as written: the nested rational w(t),
    the coefficients g13, g23, den4w = den^4 w with den = 2 c4 w + 2 c5 t
    (h = 2 t^6 / den4w is left to ``_h_term``), and the denominators
    a point is rejected for, ``checked = (d_inner, d_mid, d_q, q, den)``.
    ``t`` is a float, an ndarray or a ``TruncSeries``; nothing is checked
    here."""
    c1, c2, c3, c4, c5 = curve.c
    t3, t6, t7 = _power(t, 3), _power(t, 6), _power(t, 7)
    d_inner = c4 * (1.0 - 2.0 * c1 * t) + c5 * t
    mid = 1.0 - 2.0 * c1 * t + c2 * t * t / d_inner + c3 * t3 / c4
    d_mid = c4 * mid + c5 * t
    q = 1.0 - 2.0 * c1 * t + c2 * t * t / c4
    d_q = c4 * q + c5 * t
    w = (1.0 - 2.0 * c1 * t
         + c2 * t * t / d_mid
         + c3 * t3 / (d_q * q))
    den = 2.0 * c4 * w + 2.0 * c5 * t
    den4w = _power(den, 4) * w
    gt13 = t * t / den - curve.k5 * t6 / _power(den, 5)
    r13 = (c5 / c4) * curve.r0 * t7 + curve.ip21 * t7 / curve.d16
    r23 = -2.0 * c5 * t6 / den4w + curve.r0 * t7
    g13 = gt13 + r13
    g23 = -(gt13 / w) * t + r23
    return w, g13, g23, den4w, (d_inner, d_mid, d_q, q, den)


def _h_term(t, den4w):
    """h = 2 t^6 / (den^4 w) of the curve point at t, from ``_curve_parts``'s
    den4w; ``t`` is a float or a ``TruncSeries``."""
    return 2.0 * _power(t, 6) / den4w


def _vanished(den4w, checked):
    """Whether a curve point is rejected for a denominator: den^4 w is
    zero or a checked denominator is at most 1e-12 in modulus.  A division
    by zero gives inf or NaN after the zero it divides by, which is
    checked itself.  Elementwise on arrays."""
    out = den4w == 0.0
    for d in checked:
        out = out | (abs(d) <= 1e-12)
    return out


def _reject(den4w, checked, values):
    """The one rejection rule of the curve formulas' output, at a point or
    on a series: a vanished denominator (``_vanished``) raises
    ``VanishingDenominatorError``, else an entry of ``values`` that is not
    finite raises ``OverflowError``."""
    if _vanished(den4w, checked):
        raise VanishingDenominatorError("a curve denominator vanished")
    if not np.isfinite(values).all():
        raise OverflowError("the curve formulas overflow at this t")


def _curve_parameter(t):
    """The one check of a curve parameter: ``t`` as a float when it is a
    finite number, else ``ValueError``."""
    if not is_finite_number(t):
        raise ValueError("the curve parameter t must be finite")
    return float(t)


def _curve_scalars(curve, t):
    """``(w, g13, g23, h, G)`` of the curve point at the float t, with G
    the matrix in the canonical frame, after ``_reject`` on them; ``curve``
    is the plane's ``require_slowest_curve`` record.  t runs as an
    ``np.float64``; a non-finite t (a shift past the largest float) fails
    the rule as an overflow."""
    t = np.float64(t)
    with np.errstate(all="ignore"):
        w, g13, g23, den4w, checked = _curve_parts(curve, t)
        h = _h_term(t, den4w)
        G = np.array(_canonical_matrix(curve, t, g13, g23))
    _reject(den4w, checked, [w, h, *G.flat])
    return float(w), float(g13), float(g23), float(h), G


def _canonical_matrix(curve, t, g13, g23):
    """Rows of G(t) = U* + t B1 + g13 B2 + g23 B3 in the canonical frame of
    the record ``curve``, as nested lists of entries of t's type (float,
    ndarray or ``TruncSeries``); for ndarray arguments ``np.array`` of them
    puts the matrix axes first."""
    c1, c2, c3, c4, c5 = curve.c
    g11 = 1.0 - 2.0 * c1 * t + 2.0 * c2 * g13 - 2.0 * c3 * g23
    g22 = 2.0 * c4 * g13 - 2.0 * c5 * g23
    return [[g11, t, -g13],
            [t, g22, g23],
            [-g13, g23, 0.0 * t]]


def curve_point(spec, t):
    """Assemble G(t) = U* + t B1 + g13 B2 + g23 B3 from the rational
    formulas."""
    curve = require_slowest_curve(spec)
    t = _curve_parameter(t)
    w, g13, g23, h, G = _curve_scalars(curve, t)
    return CurvePoint(t=t, w=w, g13=g13, g23=g23, h=h, G=_rotated(spec, G))


def _psd_correction(curve, t, w, g13, h):
    """Rows of D = P_psd(G(t)) - G(t) to O(t^8) in the canonical frame, from
    the curve's constants and the curve point's t, w, g13 and h: floats or
    ``TruncSeries``."""
    c4, c5 = curve.c[3:]
    half = 0.5 * curve.step * _power(t, 7)    # c t^7 / 2
    m21 = -curve.nb1 * half
    m22 = h - curve.ip21 * half / c4
    m32 = c5 * m22 - curve.ip31 * half
    return [[0.0 * t, m21, c4 * h], [m21, m22, m32],
            [c4 * h, m32, g13 * g13 / w]]


def psd_projection_formula(spec, t):
    """Rational model G(t) + D of P_psd(G(t)), accurate to O(t^8)."""
    curve = require_slowest_curve(spec)
    t = _curve_parameter(t)
    w, g13, _, h, G = _curve_scalars(curve, t)
    D = _psd_correction(curve, t, w, g13, h)
    with np.errstate(all="ignore"):
        model = G + np.array(D)
    _reject(1.0, (), model)     # D divides by no curve denominator of its own
    return _rotated(spec, model)


def _ap_shift(curve, t):
    """Curve parameter of one AP step from G(t), to O(t^8): t - c t^7, with
    c the step constant of the record ``curve``.  ``t`` is a float, an
    ndarray or a ``TruncSeries``."""
    return t - curve.step * _power(t, 7)


def ap_image_formula(spec, t):
    """Rational model of one AP step applied to G(t): the curve point at
    ``_ap_shift``'s t - c t^7, accurate to O(t^8)."""
    curve = require_slowest_curve(spec)
    with np.errstate(all="ignore"):
        shifted = _ap_shift(curve, np.float64(_curve_parameter(t)))
    return _rotated(spec, _curve_scalars(curve, shifted)[4])


# --- curve domain ------------------------------------------------------------

def _domain_ok(curve, t):
    """Whether the curve denominators d_inner, d_mid, d_q, q, w and
    2 c4 w + 2 c5 t all exceed DENOM_FLOOR in modulus and det G(t) > 0, in
    the canonical frame of the curve's constants ``curve``.

    ``t`` is a NumPy float or an ndarray (elementwise answer); ``curve`` is
    one record, or a stack of them (``_columns``) whose (B, 1) columns
    broadcast against a (B, k) ``t``.  A vanishing denominator yields inf
    or nan, which fails the floor test.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w, g13, g23, _, checked = _curve_parts(curve, t)
        ok = np.abs(w) > DENOM_FLOOR
        for d in checked:
            ok &= np.abs(d) > DENOM_FLOOR
        # G is symmetric, so .T only moves the matrix axes last, and the
        # second .T puts t's axes back in order
        det = np.linalg.det(
            np.array(_canonical_matrix(curve, t, g13, g23)).T).T
    return ok & (det > 0.0)


def _columns(curves):
    """The ``planes.CurveConstants`` records ``curves`` as one record of
    (B, 1) columns, B = len(curves): each number of each record, stacked
    as it is, so the formulas run on B planes at once and form no
    constant of their own.  One record is its own stack: its floats
    broadcast against a (1, k) t as (1, 1) columns do, with the same
    bits."""
    if len(curves) == 1:
        return curves[0]
    table = np.array([(*curve.c, *map(curve.__getattribute__, _NUMBERS))
                      for curve in curves])
    columns = tuple(table.T[:, :, None])
    return CurveConstants(columns[:5], *columns[5:])


def valid_t_max(spec):
    """Largest t <= T_CAP below which the curve denominators stay above
    DENOM_FLOOR and det G(t) stays positive.

    DOMAIN_GRID equally spaced points up to T_CAP are tested in one array
    call of the domain predicate (one stacked determinant); if one fails, 50
    bisection steps between it and the last passing grid point (0 if none)
    refine the answer, each testing one point with the same predicate.

    Given a list or tuple of specs instead, it returns the tuple of their
    values: the predicate runs once on the (B, DOMAIN_GRID) grid of all B
    planes, from their gate records stacked as columns (``_columns``), and
    only the planes whose grid fails are bisected, each on its own.
    """
    one = not isinstance(spec, (list, tuple))
    curves = [require_slowest_curve(s) for s in ([spec] if one else spec)]
    ts = np.linspace(T_CAP / DOMAIN_GRID, T_CAP, DOMAIN_GRID)
    grid = _domain_ok(_columns(curves),
                      np.broadcast_to(ts, (len(curves), DOMAIN_GRID)))
    values = tuple(float(ts[-1]) if ok.all() else _bisect(curve, ts, ok)
                   for curve, ok in zip(curves, grid))
    return values[0] if one else values


def _bisect(curve, ts, ok):
    """50 bisection steps of the domain predicate on the record ``curve``,
    between the first grid point of ``ts`` that fails (``ok`` False) and
    the last passing one before it (0 if none); the last passing t."""
    first_bad = int(np.argmin(ok))
    lo = ts[first_bad - 1] if first_bad else np.float64(0.0)
    hi = ts[first_bad]
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if _domain_ok(curve, mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


# --- residual-order estimation ----------------------------------------------

def residual_order_certified(f, g, t0, halvings):
    """Mean of log2(|f - g|(t_j) / |f - g|(t_{j+1})) over the ladder
    t_j = t0 / 2^j, j = 0..halvings, each point evaluated once.

    The ladder is the one given.  A difference that is not finite at a
    ladder point raises ValueError, and a deepest point below 1e3 machine
    epsilons (relative to max(1, |f(t0)|)) raises ResidualNoiseError:
    rounding would decide the estimate.
    """
    if not (is_number(t0) and t0 > 0):    # NaN included
        raise ValueError("t0 must be positive")
    halvings = check_count("halvings", halvings, 2)
    ts = [t0 / 2 ** j for j in range(halvings + 1)]
    fs = [np.asarray(f(t)) for t in ts]
    diffs = [float(np.linalg.norm(F - np.asarray(g(t))))
             for F, t in zip(fs, ts)]
    if not all(map(math.isfinite, diffs)):
        raise ValueError("f - g is not finite at a ladder point")
    scale = max(1.0, float(np.linalg.norm(fs[0])))
    if diffs[-1] < 1e3 * np.finfo(float).eps * scale:
        raise ResidualNoiseError(
            "the deepest ladder point is below the noise floor")
    return float(np.mean([np.log2(diffs[j] / diffs[j + 1])
                          for j in range(halvings)]))


# --- Newton continuation ------------------------------------------------------

def _newton_system(E, x):
    """``(F, dF)`` at the chart point x: F = M(x)^-1 g(x), with g the
    gradient of 1/2 d^2(psi(x), E), and its Jacobian dF[:, j] = dF/dx_j in
    closed form, M^-1 (dg - dM F).  M, g and the second term of dg all
    pair with the rows vec(d_k psi) of ``apengine._psi_partials``: entry
    (k, j) of dg - dM F is <d_j d_k psi, R - S> + <d_k psi, (I - Pi) d_j psi>,
    with R = psi(x) - P_E(psi(x)), S = sum_i F_i B_i and Pi = Q Q^T the
    projection onto span{B_i}.  E is unchecked; a singular M raises
    ``NewtonConvergenceError``."""
    V = psi(x)
    R = V - project_affine(E, V)[0]
    dpsi = _psi_partials(x)
    M, lin = dpsi @ E.basis.reshape(3, 9).T, dpsi @ E.Q
    try:
        F = np.linalg.solve(M, dpsi @ R.ravel())
        S = np.tensordot(F, E.basis, 1)
        dg = (_pair_with_psi_second_partials(R - S, x)
              + dpsi @ dpsi.T - lin @ lin.T)
        return F, np.linalg.solve(M, dg)
    except np.linalg.LinAlgError as exc:
        raise NewtonConvergenceError("singular coupling matrix") from exc


# far from the curve psi(x) overflows to inf, which project_affine rejects
@np.errstate(over="ignore", invalid="ignore")
def newton_slowest_point(E, t):
    """Solve components 2 and 3 of F(x) = M(x)^{-1} grad 1/2 d^2(psi(x), E)
    for (x1, x3) with x2 = t held fixed, by damped Newton on the
    closed-form Jacobian of ``_newton_system``, from
    x = (1, t, -t^2 / (B_2)_22).  E must be a 3-plane in S^3 (else
    ``ValueError``) with an orthogonal basis.

    Returns ``(x, p)`` where p are the curve coefficients
    <B_i, psi(x) - U*>/||B_i||^2 + F(x) in the (orthogonal) basis of E.
    """
    _require_chart_plane(E)
    _require_orthogonal(E)
    t = _curve_parameter(t)
    c4_proxy = 0.5 * E.basis[1][1, 1]
    x3 = -t * t / (2.0 * c4_proxy) if c4_proxy != 0.0 else 0.0
    x = np.array([1.0, t, x3], dtype=float)

    F, dF = _newton_system(E, x)
    for _ in range(NEWTON_MAX_ITER):
        res = np.linalg.norm(F[1:])
        if res < NEWTON_TOL:
            break
        try:    # the unknowns are x1 and x3
            step = np.linalg.solve(dF[1:, ::2], -F[1:])
        except np.linalg.LinAlgError as exc:
            raise NewtonConvergenceError("singular Newton Jacobian") from exc
        lam = 1.0
        while True:
            xn = x.copy()
            xn[::2] += lam * step
            Fn, dFn = _newton_system(E, xn)
            if np.linalg.norm(Fn[1:]) < res or lam < 1e-8:
                x, F, dF = xn, Fn, dFn
                break
            lam *= 0.5
    if not np.linalg.norm(F[1:]) < NEWTON_TOL:
        raise NewtonConvergenceError(
            f"Newton did not reach {NEWTON_TOL:g} in {NEWTON_MAX_ITER} steps")
    return x, E.coefficients(psi(x)) + F


# --- transverse gain and tube check -------------------------------------------

@dataclass(frozen=True)
class PerturbGain:
    """2x2 transverse gain matrix R and its spectral norm (below 1 in exact
    arithmetic, Lemma 7.5)."""

    matrix: np.ndarray
    spectral_norm: float


def perturb_gain(spec):
    """Gain matrix of transverse perturbations along the slowest curve.

    Built from the Gram-Schmidt basis C1, C2, C3 and the matrices C~ with
    zeroed first row and column; its spectral norm is strictly below one for
    every type2 plane with c4 != 0 (Lemma 7.5), which verify's lemma75
    suite checks.  The norm is 1 - O(c4^2), so in floats it rounds to 1.0
    once c4 is below about 1e-8.  C is read off the one factorization of
    the canonical basis ``type2_basis(spec.c)``, checked as ``build_plane``
    checks it, with no plane built: the gain reads nothing else of one.

    Given a list or tuple of specs instead, it returns the tuple of their
    gains, each spec gated first: one ``type2_basis``, ``_factor`` and
    ``_gram_schmidt`` call on the stack of their bases, and every inner
    product <X, Y> as the stacked ``np.matmul`` of vec X as a row and vec Y
    as a column, which NumPy computes with the dot kernel ``np.vdot``
    uses, so each gain has the bits of its own call.  Only the 2 x 2
    eigensolve runs once per plane.
    """
    one = not isinstance(spec, (list, tuple))
    specs = [spec] if one else spec
    for s in specs:
        require_slowest_curve(s)
    basis, _ = _check_basis(type2_basis([s.c for s in specs]), 3)
    C = _gram_schmidt(basis, *_factor(basis)[1:])    # its Q and R^-1
    tilde = C[:, 1:].copy()
    tilde[..., 0, :] = 0.0
    tilde[..., :, 0] = 0.0
    c_rows, t_rows = (X.reshape(-1, 2, 1, 9) for X in (C[:, 1:], tilde))

    def inner(x, y):
        return np.matmul(x, y.swapaxes(-1, -2))[..., 0, 0]

    # a product of two squared norms past the largest float is inf, as it
    # is in Python floats
    with np.errstate(over="ignore"):
        n2sq, n3sq = inner(c_rows, c_rows).T
        t2sq, t3sq = inner(t_rows, t_rows).T
        cross = inner(t_rows[:, 0], t_rows[:, 1]) / np.sqrt(n2sq * n3sq)
    R = np.empty((len(specs), 2, 2))
    R[:, 0, 0] = 1.0 - t2sq / n2sq
    R[:, 0, 1] = R[:, 1, 0] = -cross
    R[:, 1, 1] = 1.0 - t3sq / n3sq
    gains = tuple(PerturbGain(matrix=M,
                              spectral_norm=float(np.max(np.abs(_eigh(M)[0]))))
                  for M in R)
    return gains[0] if one else gains


def _coordinate(row, t, g13, g23):
    """One coefficient of the curve point over C: ``row`` is a row of the
    basis change T of ``tube_check``.  ``t``, ``g13`` and ``g23`` are
    floats, ndarrays or ``TruncSeries``."""
    return row[0] * t + row[1] * g13 + row[2] * g23


def _recover_block(curve, p1_row, slope, t_last, p1_last, pobs):
    """Curve parameters of a block of first coefficients ``pobs`` by
    quasi-Newton on p1(t) = ``_coordinate(p1_row, t, g13, g23)`` with the
    fixed ``slope``, every entry started from the last recovered t (where
    p1 is ``p1_last``) and iterated as an array until |p1(t) - pobs| <
    1e-13 max(1, |pobs|), at most 60 evaluations.  The curve formulas give
    the bits ``_curve_scalars`` gives one float at a time, and an entry is
    marked vanished where it would raise VanishingDenominatorError.

    Returns ``(t, p1, g13, g23, vanished, unresolved)``; an entry marked
    vanished or unresolved has no valid t, p1, g13, g23.
    """
    tol = 1e-13 * np.maximum(1.0, np.abs(pobs))
    t = t_last - (p1_last - pobs) / slope
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(60):
            _, g13, g23, den4w, checked = _curve_parts(curve, t)
            p1 = _coordinate(p1_row, t, g13, g23)
            vanished = _vanished(den4w, checked)
            r = p1 - pobs
            left = ~((np.abs(r) < tol) | vanished)
            if not left.any():
                break
            # a finished entry keeps its t, so it evaluates to the same bits
            t = np.where(left, t - r / slope, t)
    return t, p1, g13, g23, vanished, left


def tube_check(spec, t0, beta, gamma, steps, eps):
    """Empirical invariance of a tube around the slowest curve.

    Starting from G(t0) + beta t0^7 C2 + gamma t0^7 C3, iterate the AP map;
    at each step recover t from the C1 coefficient, demand the transverse
    part stays below ``eps`` in the beta/gamma norm, and demand t decreases
    inside the bracket t - c t^7 -/+ K t^8 (``_ap_shift``) with K fitted on
    the first half of the run and allowed TUBE_K_SLACK times over on the
    second.  At t0 = 0 the start is U*, a fixed point of the map: the
    check takes its ``steps`` steps and passes when every iterate is U*.
    t0, beta, gamma and eps must be numbers (a bool is not one).

    The curve is read over the Gram-Schmidt basis C through one 3x3 matrix
    T whose column j holds the coefficients <B_j, C_i> / ||C_i||^2 of B_j
    over C, so G(t) has coefficients T (t, g13, g23): row 0 is the
    first-coordinate map p1(t) the recovery inverts, rows 1 and 2 the
    curve's transverse coefficients the iterate is compared with.

    Each step is one ``ap_step`` call, which checks the iterate and
    returns it with its basis coefficients (the product ``coefficients``
    takes), so nothing is solved twice.  The steps stay one call each
    because each iterate is the next step's input; what is batched is the
    rest.  The coefficient rows of ``TUBE_BLOCK`` steps are collected in a
    list and made one array, then t is recovered for the whole block in
    one array pass: quasi-Newton on p1,
    every step started from the last recovered t, with the slope dp1/dt
    taken once, exactly, from p1 evaluated on the series t0 + s (over a run
    t moves by O(t^7) per step, so the slope barely changes and one
    correction usually reaches the tolerance).  The curve formulas are
    evaluated on the array with the bits of the scalar formulas and with
    ``curve_point``'s denominator checks entry by entry; the transverse
    deviations and bracket ratios are array expressions.

    The outcome is the one a step-by-step loop gives: the first step whose
    t leaves (0, t_prev) returns False, a failed recovery (ChartError or
    VanishingDenominatorError) and an ``ap_step`` error surface only when
    every earlier step passed.  After a False the rest of its block has
    already been stepped: at most ``TUBE_BLOCK - 1`` extra ``ap_step`` calls.
    """
    from .series import _curve_series  # series imports this module

    curve = require_slowest_curve(spec)
    spec = spec.canonical()
    steps = check_count("steps", steps)
    t0 = _curve_parameter(t0)
    E, = _planes([spec])
    Eo = orthogonalize(E)
    C = Eo.basis
    T = [[frob_inner(B, Ci) / frob_inner(Ci, Ci) for B in E.basis]
         for Ci in C]
    n2, n3 = frob_norm(C[1]), frob_norm(C[2])

    if not (all(map(is_number, (beta, gamma, eps)))
            and math.hypot(beta * n2, gamma * n3) < eps):    # NaN included
        raise ValueError("initial transverse offset must satisfy "
                         "||beta C2 + gamma C3|| < eps")
    if t0 == 0.0:   # while the iterates stay U*, each step is from U*
        return all(np.array_equal(ap_step(Eo, U_STAR)[0], U_STAR)
                   for _ in range(steps))

    U = (_curve_scalars(curve, t0)[4] + beta * t0 ** 7 * C[1]
         + gamma * t0 ** 7 * C[2])
    ts, _, g13, g23, _, _ = _curve_series(curve, 1, t0)
    p1_series = _coordinate(T[0], ts, g13, g23)
    t, p1_last, slope = t0, p1_series[0], p1_series[1]
    if slope == 0.0:
        raise ChartError("flat first-coordinate map")
    half = max(1, steps // 2)
    k_fit = r_late = 0.0
    transverse_ok = True
    for first in range(0, steps, TUBE_BLOCK):
        rows, failure = [], None
        try:
            for _ in range(min(TUBE_BLOCK, steps - first)):
                U, _rank, row = ap_step(Eo, U)
                rows.append(row)
        except (ValueError, EigenSolverError) as exc:
            failure = exc   # surfaces once the steps before it have passed
        n = len(rows)
        pobs, p2, p3 = np.array(rows).reshape(n, Eo.dim).T
        tn, p1, g13, g23, vanished, unresolved = _recover_block(
            curve, T[0], slope, t, p1_last, pobs)
        tprev = np.concatenate(([t], tn))[:-1]
        bad = vanished | unresolved | ~((0.0 < tn) & (tn < tprev))
        if bad.any():
            i = int(np.argmax(bad))
            if vanished[i]:
                raise VanishingDenominatorError("a curve denominator vanished")
            if unresolved[i]:
                raise ChartError("could not recover the curve parameter")
            return False
        if failure is not None:
            raise failure
        # far from 0 < t << 1 a power over- or underflows: the ratio fails
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            dev = np.hypot((p2 - _coordinate(T[1], tn, g13, g23)) * n2,
                           (p3 - _coordinate(T[2], tn, g13, g23)) * n3)
            transverse_ok &= not np.any(dev / _power(tn, 7) >= eps)
            ratios = np.abs(tn - _ap_shift(curve, tprev)) / _power(tprev, 8)
        split = min(max(half - first, 0), n)
        k_fit = max(k_fit, np.max(ratios[:split], initial=0.0))
        r_late = max(r_late, np.max(ratios[split:], initial=0.0))
        t, p1_last = float(tn[-1]), float(p1[-1])
    return transverse_ok and bool(r_late <= TUBE_K_SLACK * k_fit + 1e-9)
