"""The rational slowest curve G(t) of a type2 plane with c4 != 0, rational
formulas for its projections, a Newton continuation that rebuilds the curve
from the rank-1 chart, and the transverse perturbation-gain matrix.

All curve formulas are evaluated in the canonical (theta = 0) frame and the
resulting matrices conjugated back, so they stay consistent with
``planes.build_plane`` for rotated specs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .apengine import (_require_orthogonal, ap_step, grad_half_dist2_psi,
                       m_matrix, psi)
from .planes import (build_plane, conjugate, rotation_matrix,
                     type2_b1_products)
from .symcore import _eigh, frob_inner, frob_norm, orthogonalize

_EPS = np.finfo(float).eps
T_CAP = 0.2
DOMAIN_GRID = 200
DENOM_FLOOR = 0.1
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
NEWTON_JAC_STEP = 1e-7
TUBE_K_SLACK = 1.5


class VanishingDenominatorError(ZeroDivisionError):
    """A nested denominator of the curve formulas is (numerically) zero."""


class ResidualNoiseError(ArithmeticError):
    """Residual at t0 sits below the float noise floor; shrink the halving
    count or enlarge t0."""


class NewtonConvergenceError(RuntimeError):
    """Damped Newton failed to reach the residual tolerance."""


class ChartError(RuntimeError):
    """An iterate left the region where the curve decomposition is defined."""


def _require_type2_curve(spec):
    if spec.kind != "type2":
        raise ValueError("the slowest curve is defined for type2 planes")
    if spec.c[3] == 0.0:
        raise ValueError("the slowest curve requires c4 != 0")


def _w_parts(c, t):
    """Nested denominators of w(t) and w(t) itself, evaluated exactly as
    written: ``(d_inner, d_mid, d_q, q, w)``.  ``t`` is a float or an
    ndarray; nothing is checked here."""
    c1, c2, c3, c4, c5 = c
    t3 = t ** 3
    d_inner = c4 * (1.0 - 2.0 * c1 * t) + c5 * t
    mid = 1.0 - 2.0 * c1 * t + c2 * t * t / d_inner + c3 * t3 / c4
    d_mid = c4 * mid + c5 * t
    q = 1.0 - 2.0 * c1 * t + c2 * t * t / c4
    d_q = c4 * q + c5 * t
    w = (1.0 - 2.0 * c1 * t
         + c2 * t * t / d_mid
         + c3 * t3 / (d_q * q))
    return d_inner, d_mid, d_q, q, w


def w_rational(spec, t):
    """The nested rational function w(t), evaluated exactly as written."""
    _require_type2_curve(spec)
    try:
        d_inner, d_mid, d_q, q, w = _w_parts(spec.c, float(t))
    except ZeroDivisionError:
        raise VanishingDenominatorError("a denominator of w is zero") from None
    if abs(d_inner) <= 1e-12:
        raise VanishingDenominatorError("inner denominator vanished")
    for d in (d_mid, d_q, q):
        if abs(d) <= 1e-12:
            raise VanishingDenominatorError("nested denominator vanished")
    return w


@dataclass(frozen=True)
class CurvePoint:
    """One point of the slowest curve with its scalar ingredients."""

    t: float
    w: float
    g13: float
    g23: float
    h: float
    G: np.ndarray


def _curve_parts(c, t, w):
    """``(den, g13, g23, den4w)`` of the curve point at t with den = 2 c4 w +
    2 c5 t and den4w = den^4 w, in the canonical frame (h = 2 t^6 / den4w
    is left to ``_curve_scalars``).  ``t`` and ``w`` are floats or ndarrays
    of one shape, or ``TruncSeries``; nothing is checked here."""
    c4, c5 = c[3], c[4]
    nb1, ip21, ip31 = type2_b1_products(c)
    den = 2.0 * c4 * w + 2.0 * c5 * t
    t6, t7, den4w = t ** 6, t ** 7, den ** 4 * w
    gt13 = t * t / den - 2.0 * (2.0 * c5 ** 2 + 1.0) * t6 / den ** 5
    r0 = (c4 * ip31 + c5 * ip21) / (8.0 * c4 ** 5 * nb1) + 1.0 / (8.0 * c4 ** 3)
    r13 = (c5 / c4) * r0 * t7 + ip21 * t7 / (16.0 * c4 ** 6 * nb1)
    r23 = -2.0 * c5 * t6 / den4w + r0 * t7
    g13 = gt13 + r13
    g23 = -(gt13 / w) * t + r23
    return den, g13, g23, den4w


def _curve_scalars(spec, t):
    """(w, g13, g23, h) of the curve point at t, in the canonical frame."""
    t = float(t)
    w = w_rational(spec, t)
    try:
        den, g13, g23, den4w = _curve_parts(spec.c, t, w)
        h = 2.0 * t ** 6 / den4w
    except ZeroDivisionError:
        raise VanishingDenominatorError("w or 2 c4 w + 2 c5 t is zero") from None
    if abs(den) <= 1e-12:
        raise VanishingDenominatorError("2 c4 w + 2 c5 t vanished")
    return w, g13, g23, h


def _canonical_matrix(c, t, g13, g23):
    """Rows of G(t) = U* + t B1 + g13 B2 + g23 B3 in the canonical frame, as
    nested lists of entries of t's type (float, ndarray or ``TruncSeries``);
    for ndarray arguments ``np.array`` of them puts the matrix axes first."""
    c1, c2, c3, c4, c5 = c
    g11 = 1.0 - 2.0 * c1 * t + 2.0 * c2 * g13 - 2.0 * c3 * g23
    g22 = 2.0 * c4 * g13 - 2.0 * c5 * g23
    return [[g11, t, -g13],
            [t, g22, g23],
            [-g13, g23, 0.0 * t]]


def curve_point(spec, t):
    """Assemble G(t) = U* + t B1 + g13 B2 + g23 B3 from the rational
    formulas."""
    w, g13, g23, h = _curve_scalars(spec, t)
    G = np.array(_canonical_matrix(spec.c, float(t), g13, g23))
    if spec.theta != 0.0 or spec.reflect:
        P = rotation_matrix(spec.theta, spec.reflect)
        G = conjugate(P, G)
    return CurvePoint(t=float(t), w=w, g13=g13, g23=g23, h=h, G=G)


def psd_projection_formula(spec, t):
    """Rational model of P_psd(G(t)), accurate to O(t^8)."""
    _require_type2_curve(spec)
    c1, c2, c3, c4, c5 = spec.c
    nb1, ip21, ip31 = type2_b1_products(spec.c)
    cp = curve_point(spec.canonical(), t)
    w, g13, h = cp.w, cp.g13, cp.h

    m21 = -t ** 7 / (8.0 * c4 ** 4)
    m22 = h - ip21 * t ** 7 / (8.0 * c4 ** 5 * nb1)
    m31 = c4 * h
    m32 = (c5 * h - c5 * ip21 * t ** 7 / (8.0 * c4 ** 5 * nb1)
           - ip31 * t ** 7 / (8.0 * c4 ** 4 * nb1))
    m33 = g13 * g13 / w
    D = np.array([[0.0, m21, m31],
                  [m21, m22, m32],
                  [m31, m32, m33]])
    out = cp.G + D
    if spec.theta != 0.0 or spec.reflect:
        P = rotation_matrix(spec.theta, spec.reflect)
        out = conjugate(P, out)
    return out


def ap_image_formula(spec, t):
    """Rational model of one AP step applied to G(t): the curve point at
    t - t^7 / (4 c4^4 ||B1||^2), accurate to O(t^8)."""
    _require_type2_curve(spec)
    c4 = spec.c[3]
    nb1 = type2_b1_products(spec.c)[0]
    return curve_point(spec, t - t ** 7 / (4.0 * c4 ** 4 * nb1)).G


# --- curve domain ------------------------------------------------------------

def _domain_ok(c, t):
    """Whether the curve denominators d_inner, d_mid, d_q, q, w and
    2 c4 w + 2 c5 t all exceed DENOM_FLOOR in modulus and det G(t) > 0, in
    the canonical frame of coefficients ``c``.

    ``t`` is a NumPy float or an ndarray (elementwise answer).  A vanishing
    denominator yields inf or nan, which fails the floor test.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d_inner, d_mid, d_q, q, w = _w_parts(c, t)
        den, g13, g23, _ = _curve_parts(c, t, w)
        ok = np.abs(d_inner) > DENOM_FLOOR
        for d in (d_mid, d_q, q, w, den):
            ok &= np.abs(d) > DENOM_FLOOR
        # G is symmetric, so .T only moves the matrix axes last
        det = np.linalg.det(np.array(_canonical_matrix(c, t, g13, g23)).T)
    return ok & (det > 0.0)


def valid_t_max(spec):
    """Largest t <= T_CAP below which the curve denominators stay above
    DENOM_FLOOR and det G(t) stays positive.

    DOMAIN_GRID equally spaced points up to T_CAP are tested in one array
    call of the domain predicate (one stacked determinant); if one fails, 50
    bisection steps between it and the last passing grid point (0 if none)
    refine the answer, each testing one point with the same predicate.
    """
    _require_type2_curve(spec)
    c = spec.c
    ts = np.linspace(T_CAP / DOMAIN_GRID, T_CAP, DOMAIN_GRID)
    ok = _domain_ok(c, ts)
    if ok.all():
        return float(ts[-1])
    first_bad = int(np.argmin(ok))
    lo = ts[first_bad - 1] if first_bad else np.float64(0.0)
    hi = ts[first_bad]
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if _domain_ok(c, mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


# --- residual-order estimation ----------------------------------------------

def residual_order_certified(f, g, t0, halvings, t_cap):
    """Mean of log2(|f - g|(t_j) / |f - g|(t_{j+1})) over the ladder
    t_j = t0 / 2^j, j = 0..halvings, once the ladder is clear of rounding.

    A difference at t0 below 100 machine epsilons (relative to |f| at the
    first t0) is buried in rounding, and a deepest ladder point below 1e3 of
    them makes the estimate meaningless; either way t0 is enlarged, up to
    ``t_cap``.  At ``t_cap`` the first raises ResidualNoiseError, and the
    second reduces the halving count (never below 2, where a marginal
    deepest point is accepted).  Each point of the final ladder is
    evaluated once.  Returns ``(order, t0_used, halvings_used)``.
    """
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    if halvings < 2:
        raise ValueError("halvings must be >= 2")
    t0 = min(t0, t_cap)

    def diff(t):
        return float(np.linalg.norm(np.asarray(f(t)) - np.asarray(g(t))))

    scale = max(1.0, float(np.linalg.norm(np.asarray(f(t0)))))
    top = diff(t0)
    while True:
        if top < 100.0 * _EPS * scale:          # top of the ladder is noise
            if not t0 < t_cap:
                raise ResidualNoiseError(
                    "difference is below the noise floor over the whole "
                    "admissible range")
            t0 = min(2.0 * t0, t_cap)
            top = diff(t0)
            continue
        deep = diff(t0 / 2 ** halvings)
        if deep >= 1e3 * _EPS * scale:
            break                               # whole ladder is clean
        if t0 < t_cap:
            t0 = min(2.0 * t0, t_cap)
            top = diff(t0)
        elif halvings > 2:
            halvings -= 1
        else:
            break                               # accept a marginal deep point
    diffs = [top, *(diff(t0 / 2 ** j) for j in range(1, halvings)), deep]
    order = float(np.mean([np.log2(diffs[j] / diffs[j + 1])
                           for j in range(halvings)]))
    return order, t0, halvings


# --- Newton continuation ------------------------------------------------------

def newton_slowest_point(E, t):
    """Solve components 2 and 3 of F(x) = M(x)^{-1} grad 1/2 d^2(psi(x), E)
    for (x1, x3) with x2 = t held fixed, by damped Newton with a
    finite-difference Jacobian, from x = (1, t, -t^2 / (B_2)_22).

    Returns ``(x, p)`` where p are the curve coefficients
    <B_i, psi(x) - U*>/||B_i||^2 + F(x) in the (orthogonal) basis of E.
    """
    _require_orthogonal(E)

    def f23(x):
        M = m_matrix(E, x)
        try:
            F = np.linalg.solve(M, grad_half_dist2_psi(E, x))
        except np.linalg.LinAlgError as exc:
            raise NewtonConvergenceError("singular coupling matrix") from exc
        return F[1:]

    c4_proxy = 0.5 * E.basis[1][1, 1]
    x3 = -t * t / (2.0 * c4_proxy) if c4_proxy != 0.0 else 0.0
    x = np.array([1.0, t, x3], dtype=float)

    res = f23(x)
    for _ in range(NEWTON_MAX_ITER):
        if np.linalg.norm(res) < NEWTON_TOL:
            break
        J = np.empty((2, 2))
        for col, idx in enumerate((0, 2)):
            xp = x.copy(); xp[idx] += NEWTON_JAC_STEP
            xm = x.copy(); xm[idx] -= NEWTON_JAC_STEP
            J[:, col] = (f23(xp) - f23(xm)) / (2.0 * NEWTON_JAC_STEP)
        try:
            step = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError as exc:
            raise NewtonConvergenceError("singular Newton Jacobian") from exc
        lam = 1.0
        while True:
            xn = x.copy()
            xn[0] += lam * step[0]
            xn[2] += lam * step[1]
            rn = f23(xn)
            if np.linalg.norm(rn) < np.linalg.norm(res) or lam < 1e-8:
                x, res = xn, rn
                break
            lam *= 0.5
    if not np.linalg.norm(res) < NEWTON_TOL:
        raise NewtonConvergenceError(
            f"Newton did not reach {NEWTON_TOL:g} in {NEWTON_MAX_ITER} steps")

    M = m_matrix(E, x)
    F = np.linalg.solve(M, grad_half_dist2_psi(E, x))
    p = E.coefficients(psi(x)) + F
    return x, p


# --- transverse gain and tube check -------------------------------------------

@dataclass(frozen=True)
class PerturbGain:
    """2x2 transverse gain matrix R and its spectral norm (< 1 always)."""

    matrix: np.ndarray
    spectral_norm: float


def perturb_gain(spec):
    """Gain matrix of transverse perturbations along the slowest curve.

    Built from the Gram-Schmidt basis C1, C2, C3 and the matrices C~ with
    zeroed first row and column; its spectral norm is strictly below one for
    every type2 plane with c4 != 0.
    """
    _require_type2_curve(spec)
    E, _ = build_plane(spec.canonical())
    C = orthogonalize(E).basis
    tilde = []
    for M in C[1:]:
        T = np.array(M)
        T[0, :] = 0.0
        T[:, 0] = 0.0
        tilde.append(T)
    n2sq, n3sq = frob_inner(C[1], C[1]), frob_inner(C[2], C[2])
    cross = frob_inner(tilde[0], tilde[1]) / np.sqrt(n2sq * n3sq)
    R = np.array([
        [1.0 - frob_inner(tilde[0], tilde[0]) / n2sq, -cross],
        [-cross, 1.0 - frob_inner(tilde[1], tilde[1]) / n3sq]])
    norm = float(np.max(np.abs(_eigh(R)[0])))
    if not norm < 1.0:
        raise AssertionError(
            f"transverse gain {norm} is not < 1; degenerate basis?")
    return PerturbGain(matrix=R, spectral_norm=norm)


def _p1_of_t(spec, gram_row1, n1sq, t):
    """First curve coefficient p1(t) with the g13, g23 it was built from."""
    _, g13, g23, _ = _curve_scalars(spec, t)
    return t + (gram_row1[1] * g13 + gram_row1[2] * g23) / n1sq, g13, g23


def tube_check(spec, t0, beta, gamma, steps, eps):
    """Empirical invariance of a tube around the slowest curve.

    Starting from G(t0) + beta t0^7 C2 + gamma t0^7 C3, iterate the AP map;
    at each step recover t from the C1 coefficient, demand the transverse
    part stays below ``eps`` in the beta/gamma norm, and demand t decreases
    inside the bracket t - c t^7 -/+ K t^8 with K fitted on the first half
    of the run and allowed TUBE_K_SLACK times over on the second.

    Each step is one ``ap_step`` call, which checks the iterate and
    returns it with its basis coefficients (the same R^-1 z expression as
    ``coefficients``), so nothing is solved twice.  t is recovered from the
    first coefficient by quasi-Newton on the first-coordinate map p1,
    started at the predicted t - c t^7, with the finite-difference slope of
    p1 taken once (at the first step) and reused: over a run t moves by
    O(t^7) per step, so the slope barely changes and one correction usually
    reaches the tolerance.  The per-step scalar work runs on Python floats.
    """
    _require_type2_curve(spec)
    spec = spec.canonical()
    c4 = spec.c[3]
    E, _ = build_plane(spec)
    Eo = orthogonalize(E)
    C = Eo.basis
    n1sq = frob_inner(C[0], C[0])
    n2, n3 = frob_norm(C[1]), frob_norm(C[2])
    gram_row1 = E.gram[0].tolist()

    if math.hypot(beta * n2, gamma * n3) >= eps:
        raise ValueError("initial transverse offset must satisfy "
                         "||beta C2 + gamma C3|| < eps")
    if t0 == 0.0:
        return True

    c_shift = 1.0 / (4.0 * c4 ** 4 * n1sq)
    U = curve_point(spec, t0).G + beta * t0 ** 7 * C[1] + gamma * t0 ** 7 * C[2]
    t = t0
    slope = None
    ratios = []
    transverse_ok = True
    for _ in range(steps):
        U, _rank, coeffs = ap_step(Eo, U)
        pobs = coeffs.tolist()
        tol = 1e-13 * max(1.0, abs(pobs[0]))
        tn = t - c_shift * t ** 7
        for _ in range(60):
            p1, g13, g23 = _p1_of_t(spec, gram_row1, n1sq, tn)
            r = p1 - pobs[0]
            if abs(r) < tol:
                break
            if slope is None:
                hstep = 1e-7 * max(abs(tn), 1e-3)
                slope = (_p1_of_t(spec, gram_row1, n1sq, tn + hstep)[0]
                         - _p1_of_t(spec, gram_row1, n1sq, tn - hstep)[0]
                         ) / (2 * hstep)
                if slope == 0.0:
                    raise ChartError("flat first-coordinate map")
            tn -= r / slope
        else:
            raise ChartError("could not recover the curve parameter")
        if not 0.0 < tn < t:
            return False
        dev = math.hypot((pobs[1] - g13) * n2, (pobs[2] - g23) * n3)
        if dev / tn ** 7 >= eps:
            transverse_ok = False
        ratios.append(abs(tn - (t - c_shift * t ** 7)) / t ** 8)
        t = tn
    half = max(1, len(ratios) // 2)
    k_fit = max(ratios[:half])
    bracket_ok = all(r <= TUBE_K_SLACK * k_fit + 1e-9 for r in ratios[half:])
    return transverse_ok and bracket_ok
