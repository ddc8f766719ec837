"""The rational slowest curve G(t) of a type2 plane with c4 != 0, rational
formulas for its projections, a Newton continuation that rebuilds the curve
from the rank-1 chart, the transverse perturbation-gain matrix and the tube
check of AP iterates started near the curve.

All curve formulas are evaluated in the canonical (theta = 0) frame and the
resulting matrices conjugated back, so they stay consistent with
``planes.build_plane`` for rotated specs.  The same formula code runs on a
float, on an ndarray of t (with the float's bits, entry by entry) and on a
``TruncSeries`` in t.
"""

import math
from dataclasses import dataclass

import numpy as np

from .apengine import (_require_orthogonal, ap_step, grad_half_dist2_psi,
                       m_matrix, psi)
from .planes import (build_plane, conjugate, rotation_matrix,
                     type2_b1_products)
from .symcore import (EigenSolverError, _eigh, frob_inner, frob_norm,
                      orthogonalize)

_EPS = np.finfo(float).eps
T_CAP = 0.2
DOMAIN_GRID = 200
DENOM_FLOOR = 0.1
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
NEWTON_JAC_STEP = 1e-7
TUBE_K_SLACK = 1.5
TUBE_BLOCK = 256


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


def _power(x, k):
    """x ** k, entry by entry as the scalar ``**`` rounds it.  An ndarray
    goes through ``np.float_power``, which calls the same libm ``pow``;
    ``**`` on an ndarray may take a SIMD path that differs in the last bit,
    and then the array and scalar curve formulas would disagree."""
    return np.float_power(x, k) if isinstance(x, np.ndarray) else x ** k


def _w_parts(c, t):
    """Nested denominators of w(t) and w(t) itself, evaluated exactly as
    written: ``(d_inner, d_mid, d_q, q, w)``.  ``t`` is a float, an ndarray
    or a ``TruncSeries``; nothing is checked here."""
    c1, c2, c3, c4, c5 = c
    t3 = _power(t, 3)
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
    t6, t7, den4w = _power(t, 6), _power(t, 7), _power(den, 4) * w
    gt13 = t * t / den - 2.0 * (2.0 * c5 ** 2 + 1.0) * t6 / _power(den, 5)
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


def _p1_parts(c, gram_row1, n1sq, t):
    """First curve coefficient p1(t) = t + (<B1, B2> g13 + <B1, B3> g23) /
    ||B1||^2 with the g13, g23 it was built from, and the quantities
    ``_curve_scalars`` rejects the point for: the denominators it checks and
    den^4 w, its last divisor.  ``t`` is a float, an ndarray or a
    ``TruncSeries``; nothing is checked here."""
    d_inner, d_mid, d_q, q, w = _w_parts(c, t)
    den, g13, g23, den4w = _curve_parts(c, t, w)
    p1 = t + (gram_row1[1] * g13 + gram_row1[2] * g23) / n1sq
    return p1, g13, g23, (d_inner, d_mid, d_q, q, den), den4w


def _p1_block(c, gram_row1, n1sq, t):
    """``(p1, g13, g23, vanished)`` at every entry of the ndarray t, with the
    same bits as ``_curve_scalars`` gives one float at a time; ``vanished``
    marks the entries where it raises VanishingDenominatorError (a checked
    denominator at most 1e-12 in modulus, or a division by zero)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p1, g13, g23, dens, den4w = _p1_parts(c, gram_row1, n1sq, t)
        vanished = den4w == 0.0
        for d in dens:
            vanished |= np.abs(d) <= 1e-12
    return p1, g13, g23, vanished


def _recover_block(c, gram_row1, n1sq, slope, t_last, p1_last, pobs):
    """Curve parameters of a block of first coefficients ``pobs`` by
    quasi-Newton on p1 with the fixed ``slope``, every entry started from
    the last recovered t (where p1 is ``p1_last``) and iterated as an array
    until |p1(t) - pobs| < 1e-13 max(1, |pobs|), at most 60 evaluations.

    Returns ``(t, p1, g13, g23, vanished, unresolved)``; an entry marked
    vanished or unresolved has no valid t, p1, g13, g23.
    """
    tol = 1e-13 * np.maximum(1.0, np.abs(pobs))
    t = t_last - (p1_last - pobs) / slope
    p1, g13, g23 = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    vanished = np.zeros(t.shape, dtype=bool)
    todo = np.arange(t.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(60):
            p, a, b, gone = _p1_block(c, gram_row1, n1sq, t[todo])
            r = p - pobs[todo]
            done = (np.abs(r) < tol[todo]) & ~gone
            hit = todo[done]
            p1[hit], g13[hit], g23[hit] = p[done], a[done], b[done]
            vanished[todo[gone]] = True
            left = ~(done | gone)
            todo = todo[left]
            if not todo.size:
                break
            t[todo] -= r[left] / slope
    unresolved = np.zeros(t.shape, dtype=bool)
    unresolved[todo] = True
    return t, p1, g13, g23, vanished, unresolved


def tube_check(spec, t0, beta, gamma, steps, eps):
    """Empirical invariance of a tube around the slowest curve.

    Starting from G(t0) + beta t0^7 C2 + gamma t0^7 C3, iterate the AP map;
    at each step recover t from the C1 coefficient, demand the transverse
    part stays below ``eps`` in the beta/gamma norm, and demand t decreases
    inside the bracket t - c t^7 -/+ K t^8 with K fitted on the first half
    of the run and allowed TUBE_K_SLACK times over on the second.

    Each step is one ``ap_step`` call, which checks the iterate and
    returns it with its basis coefficients (the same R^-1 z expression as
    ``coefficients``), so nothing is solved twice.  The steps stay one call
    each because each iterate is the next step's input; what is batched is
    the rest.  The coefficients of ``TUBE_BLOCK`` steps are stored, then t
    is recovered for the whole block in one array pass: quasi-Newton on the
    first-coordinate map p1, every step started from the last recovered t,
    with the slope dp1/dt taken once, exactly, from p1 evaluated on the
    series t0 + s (over a run t moves by O(t^7) per step, so the slope
    barely changes and one correction usually reaches the tolerance).  The
    curve formulas are evaluated on the array with the bits of the scalar
    formulas and with ``curve_point``'s denominator checks entry by entry;
    the transverse deviations and bracket ratios are array expressions.

    The outcome is the one a step-by-step loop gives: the first step whose
    t leaves (0, t_prev) returns False, a failed recovery (ChartError or
    VanishingDenominatorError) and an ``ap_step`` error surface only when
    every earlier step passed.  After a False the rest of its block has
    already been stepped: at most ``TUBE_BLOCK - 1`` extra ``ap_step`` calls.
    """
    from .series import TruncSeries  # series imports this module

    _require_type2_curve(spec)
    spec = spec.canonical()
    c, c4 = spec.c, spec.c[3]
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
    if steps < 1:
        raise ValueError("steps must be >= 1")

    c_shift = 1.0 / (4.0 * c4 ** 4 * n1sq)
    U = curve_point(spec, t0).G + beta * t0 ** 7 * C[1] + gamma * t0 ** 7 * C[2]
    p1_series = _p1_parts(c, gram_row1, n1sq,
                          TruncSeries.from_coeffs([t0, 1.0], 1))[0]
    t, p1_last, slope = t0, p1_series[0], p1_series[1]
    if slope == 0.0:
        raise ChartError("flat first-coordinate map")
    half = max(1, steps // 2)
    k_fit = r_late = 0.0
    transverse_ok = True
    coeffs = np.empty((min(TUBE_BLOCK, steps), Eo.dim))
    for first in range(0, steps, TUBE_BLOCK):
        n, failure = min(TUBE_BLOCK, steps - first), None
        for i in range(n):
            try:
                U, _rank, coeffs[i] = ap_step(Eo, U)
            except (ValueError, EigenSolverError) as exc:
                # surfaces once the steps before it have passed
                n, failure = i, exc
                break
        pobs, p2, p3 = coeffs[:n].T
        tn, p1, g13, g23, vanished, unresolved = _recover_block(
            c, gram_row1, n1sq, slope, t, p1_last, pobs)
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
        dev = np.hypot((p2 - g13) * n2, (p3 - g23) * n3)
        transverse_ok &= not np.any(dev / tn ** 7 >= eps)
        ratios = np.abs(tn - (tprev - c_shift * tprev ** 7)) / tprev ** 8
        split = min(max(half - first, 0), n)
        k_fit = max(k_fit, np.max(ratios[:split], initial=0.0))
        r_late = max(r_late, np.max(ratios[split:], initial=0.0))
        t, p1_last = float(tn[-1]), float(p1[-1])
    return transverse_ok and r_late <= TUBE_K_SLACK * k_fit + 1e-9
