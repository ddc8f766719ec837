import dataclasses
import math

import numpy as np
from numpy.polynomial.polynomial import polyval
import pytest

from apcone.apengine import ap_step
from apcone.planes import (PlaneSpec, U_STAR, build_plane, conjugate,
                           require_slowest_curve, rotation_matrix,
                           type2_basis)
import apcone.slowcurve as slowcurve
import apcone.series as series
from apcone.catalog import get_example
from apcone.series import (TruncSeries, _ap_image_series, _first_degree,
                           _psd_projection_series, _rank_one_projection,
                           _stack, det_series)
from apcone.slowcurve import (TUBE_BLOCK, ChartError,
                              VanishingDenominatorError, _coordinate,
                              _curve_parts, _curve_scalars, _vanished,
                              ap_image_formula, curve_point,
                              newton_slowest_point, perturb_gain,
                              psd_projection_formula,
                              residual_order_certified, tube_check,
                              valid_t_max)
from apcone.symcore import (EigenSolverError, frob_inner, frob_norm,
                            orthogonalize, project_psd)
from apcone.verify import curve_probe_t, random_type2_spec

SPEC61 = PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0))
SPEC44 = PlaneSpec("type2", (0.0, 0.0, 1.0, 1.0, 0.0))


# --- w ------------------------------------------------------------------------

def test_w_moment_instance_exact():
    for t in (0.0, 1e-3, 0.05, 0.15):
        assert curve_point(SPEC61, t).w == 1.0 - 2.0 * t


def test_w_at_zero_is_one():
    spec = PlaneSpec("type2", (0.3, -0.7, 0.5, 1.2, -0.4))
    assert curve_point(spec, 0.0).w == 1.0


def test_w_recursion_pointwise_halving_order():
    # |w - (1 - 2 c1 t + 2 c2 g13 - 2 c3 g23)| = O(t^6): order >= 5.5
    spec = PlaneSpec("type2", (0.3, -0.7, 0.5, 1.2, -0.4))

    def lhs(t):
        return curve_point(spec, t).w

    def rhs(t):
        cp = curve_point(spec, t)
        c1, c2, c3 = spec.c[:3]
        return 1.0 - 2.0 * c1 * t + 2.0 * c2 * cp.g13 - 2.0 * c3 * cp.g23

    assert residual_order_certified(lhs, rhs, 0.08, 3) >= 5.5


# --- curve point ----------------------------------------------------------------

def test_curve_point_moment_closed_forms():
    for t in (1e-3, 0.02, 0.1):
        cp = curve_point(SPEC61, t)
        w = 1.0 - 2.0 * t
        g13 = t ** 2 / (2 * w) - t ** 6 / (16 * w ** 5)
        assert cp.g13 == pytest.approx(g13, rel=1e-14)
        # displayed closed form folds the r-corrections into 1/(1-2t) powers,
        # matching the evaluated g23 only through degree 7
        g23_display = -t ** 3 / (2 * w ** 2) + 3 * t ** 7 / (16 * w ** 6)
        assert abs(cp.g23 - g23_display) <= 4.0 * t ** 8
        assert cp.G[2, 2] == 0.0
        assert cp.G[0, 1] == t and cp.G[0, 2] == -cp.g13


def test_curve_point_h_is_the_rational_formula():
    # h = 2 t^6 / (den^4 w), den = 2 c4 w + 2 c5 t, to the last bit
    rng = np.random.RandomState(8)
    for _ in range(10):
        spec = random_type2_spec(rng)
        c4, c5 = spec.c[3], spec.c[4]
        for t in np.linspace(0.01, 0.4, 5) * valid_t_max(spec):
            cp = curve_point(spec, t)
            den = 2.0 * c4 * cp.w + 2.0 * c5 * float(t)
            assert cp.h == 2.0 * float(t) ** 6 / (den ** 4 * cp.w)


def test_curve_point_lies_in_plane():
    rng = np.random.RandomState(4)
    for _ in range(10):
        spec = random_type2_spec(rng)
        E, (A1, A2, A3) = build_plane(spec)
        t = 0.4 * valid_t_max(spec)
        G = curve_point(spec, t).G
        assert frob_inner(A1, G) == pytest.approx(1.0, abs=1e-12)
        assert frob_inner(A2, G) == pytest.approx(0.0, abs=1e-12)
        assert frob_inner(A3, G) == pytest.approx(0.0, abs=1e-12)


def test_curve_point_matches_basis_combination():
    # G(t) is assembled entrywise; the reference is U* + t B1 + g13 B2 + g23 B3
    rng = np.random.RandomState(12)
    for _ in range(10):
        spec = random_type2_spec(rng)
        B = type2_basis(spec.c)
        for t in np.linspace(0.01, 0.4, 5) * valid_t_max(spec):
            cp = curve_point(spec, t)
            ref = U_STAR + t * B[0] + cp.g13 * B[1] + cp.g23 * B[2]
            assert np.abs(cp.G - ref).max() <= 1e-15


def test_curve_point_conjugation_equivariance():
    base = PlaneSpec("type2", (0.5, 0.2, -0.7, 1.1, 0.4))
    rot = PlaneSpec("type2", base.c, theta=1.2)
    P = rotation_matrix(1.2)
    for t in (0.01, 0.05):
        G0 = curve_point(base, t).G
        G1 = curve_point(rot, t).G
        assert frob_norm(G1 - conjugate(P, G0)) <= 1e-14


def test_curve_determinant_leading_behaviour():
    # det G(t) ~ t^10/32 (1 + 14 t + ...): the series evaluation matches the
    # pointwise determinant, and the 5% band around 1/32 needs t <= ~3.5e-3
    d = det_series(SPEC61, cap=14)
    assert d[11] / d[10] == pytest.approx(14.0, rel=1e-10)
    for t in (3e-3, 1e-2):
        det_num = float(np.linalg.det(curve_point(SPEC61, t).G))
        assert det_num == pytest.approx(polyval(t, d.coeffs), rel=1e-3)
    ratio = float(np.linalg.det(curve_point(SPEC61, 3e-3).G)) / (3e-3 ** 10 / 32)
    assert abs(ratio - 1.0) < 0.05
    ratios = [float(np.linalg.det(curve_point(SPEC61, t).G)) / (t ** 10 / 32)
              for t in (4e-3, 2e-3, 1e-3)]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_curve_psd_projection_is_rank_one():
    for t in (0.01, 0.05, 0.1):
        _, rank = project_psd(curve_point(SPEC61, t).G)
        assert rank == 1


def test_valid_t_max():
    assert valid_t_max(SPEC61) == pytest.approx(0.2, abs=1e-6)
    # w's inner denominator 1 - 6t crosses the 0.1 floor at t = 0.15
    small = valid_t_max(PlaneSpec("type2", (3.0, 0.0, 0.0, 1.0, 0.0)))
    assert small == pytest.approx(0.15, abs=1e-3)


def _reference_valid_t_max(spec, t_cap=0.2, grid=200):
    """Point-by-point scan plus bisection through the scalar entry points."""
    spec = spec.canonical()
    c1, c2, c3, c4, c5 = spec.c

    def domain_ok(t):
        try:
            cp = curve_point(spec, t)
        except VanishingDenominatorError:
            return False
        d_inner = c4 * (1.0 - 2.0 * c1 * t) + c5 * t
        mid = 1.0 - 2.0 * c1 * t + c2 * t * t / d_inner + c3 * t ** 3 / c4
        q = 1.0 - 2.0 * c1 * t + c2 * t * t / c4
        dens = (d_inner, c4 * mid + c5 * t, c4 * q + c5 * t, q, cp.w,
                2.0 * c4 * cp.w + 2.0 * c5 * t)
        if min(abs(d) for d in dens) <= 0.1:
            return False
        return float(np.linalg.det(cp.G)) > 0.0

    last_ok, first_bad = 0.0, None
    for t in np.linspace(t_cap / grid, t_cap, grid):
        if not domain_ok(t):
            first_bad = t
            break
        last_ok = t
    if first_bad is None:
        return float(last_ok)
    lo, hi = last_ok, first_bad
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if domain_ok(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


def test_valid_t_max_matches_scalar_scan():
    rng = np.random.RandomState(3)
    specs = [SPEC61, SPEC44,
             PlaneSpec("type2", (3.0, 0.0, 0.0, 1.0, 0.0)),
             PlaneSpec("type2", (3.0, 0.4, -0.2, -0.8, 0.3), theta=0.7,
                       reflect=True)]
    # each of these is cut only by its named condition: d_inner, d_mid, q,
    # w and det G
    specs += [PlaneSpec("type2", c) for c in (
        (2.6, -2.6, -2.5, -0.4, 2.0), (2.6, -1.0, 2.7, 0.4, 0.2),
        (2.8, 0.3, -1.7, -1.2, -1.7), (2.2, 0.1, 2.5, -0.5, -2.5),
        (-1.2, -2.7, -1.4, -0.9, 1.9))]
    specs += [random_type2_spec(rng, mild=bool(i % 2)) for i in range(200)]
    cut = 0
    for spec in specs:
        expect = _reference_valid_t_max(spec)
        assert valid_t_max(spec) == expect, spec
        cut += expect < 0.2
    assert cut >= 50          # the bisection is exercised, not only the scan


# --- rational projection formulas -------------------------------------------------

def test_psd_formula_correction_entries():
    t = 0.03
    cp = curve_point(SPEC61, t)
    D = psd_projection_formula(SPEC61, t) - cp.G
    assert D[2, 2] == pytest.approx(cp.g13 ** 2 / cp.w, rel=1e-14)
    assert D[1, 0] == pytest.approx(-t ** 7 / 8.0, rel=1e-14)
    assert D[0, 0] == 0.0


def test_ap_image_formula_is_shifted_curve_point():
    t = 0.06
    shift = t - t ** 7 / 24.0  # 4 c4^4 ||B1||^2 = 24 for this instance
    want = curve_point(SPEC61, shift).G
    assert np.array_equal(ap_image_formula(SPEC61, t), want)


def test_ap_image_formula_fixed_point_at_zero():
    assert np.allclose(ap_image_formula(SPEC61, 0.0), U_STAR, atol=1e-15)


def _first_degrees(spec):
    """The first degree above 1e-8 of the kernel's series minus each
    formula's, psd projection then AP image, at cap 8."""
    E = build_plane(spec)[0]
    return [_first_degree(got - want, 1e-8)[0]
            for got, want in (_psd_projection_series(spec, 8, 1e-8),
                              _ap_image_series(E, spec, 8, 1e-8))]


def test_formula_residuals_start_at_degree_8():
    assert _first_degrees(SPEC61) == [8, 8]


def test_wrong_step_constant_shows_at_degree_7(monkeypatch):
    # 1.1 c in the curve's record puts a wrong t^7 term in both formulas:
    # m21 and m22 of the projection's correction, and the shift t - c t^7
    # of the AP image
    curve = require_slowest_curve(SPEC61)
    monkeypatch.setattr(series, "require_slowest_curve",
                        lambda spec: dataclasses.replace(
                            curve, step=1.1 * curve.step))
    assert _first_degrees(SPEC61) == [7, 7]


def test_kernel_matches_project_psd_on_the_curve():
    P = _psd_projection_series(SPEC61, 8, 1e-8)[0]
    for t in (1e-3, 1e-2):
        want = project_psd(curve_point(SPEC61, t).G)[0]
        assert np.abs(polyval(t, P) - want).max() <= 1e-13


def test_kernel_rejects_a_rank_two_projection():
    # ex3.2's line X(s) = U* + s L has the eigenvalue 2 s > 0 besides the
    # top one, so P_psd(X(s)) has rank 2 and G - P is 2 s E22 at degree 1
    L = get_example("ex3.2").plane.basis[0]
    s = TruncSeries.x(8)
    X = [[U_STAR[i, j] + L[i, j] * s for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError, match="rank above 1"):
        _rank_one_projection(_stack(X), 1e-8)
    # the same line with -s: one positive eigenvalue, P_psd is rank 1
    minus = [[U_STAR[i, j] - L[i, j] * s for j in range(3)] for i in range(3)]
    P = _rank_one_projection(_stack(minus), 1e-8)
    want = project_psd(U_STAR - 1e-2 * L)[0]
    assert np.abs(polyval(1e-2, P) - want).max() <= 1e-14


# --- residual order estimator -------------------------------------------------

def test_residual_order_exact_monomial():
    M = np.arange(9.0).reshape(3, 3) + 1.0
    g_at = []

    def f(t):
        return t ** 8 * M

    def g(t):
        g_at.append(t)
        return 0.0 * M

    # the deepest point (1/32)^8 |M| is clear of rounding
    order = residual_order_certified(f, g, 0.5, 4)
    assert order == pytest.approx(8.0, abs=1e-9)
    # each of the five ladder points is evaluated once
    assert sorted(g_at) == [0.5 / 2 ** j for j in range(4, -1, -1)]


# --- Newton continuation ---------------------------------------------------------

def test_newton_recovers_base_point():
    E = orthogonalize(build_plane(SPEC44)[0])
    x, p = newton_slowest_point(E, 0.0)
    assert np.allclose(x, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.abs(p).max() <= 1e-12


def test_newton_matches_continuation_expansions():
    E = orthogonalize(build_plane(SPEC44)[0])
    t = 0.05
    x, p = newton_slowest_point(E, t)
    assert x[1] == t
    assert abs(x[0] - (1 + t ** 3 - 2 * t ** 6)) < 1e-8
    assert abs(x[2] - (-t ** 2 / 2 + t ** 5 / 2)) < 1e-8


def test_newton_curve_agreement_order():
    E = orthogonalize(build_plane(SPEC44)[0])

    def newton_matrix(t):
        _, p = newton_slowest_point(E, t)
        return E.point(p)

    order = residual_order_certified(
        newton_matrix, lambda t: curve_point(SPEC44, t).G, t0=0.1, halvings=2)
    assert order >= 6.5


def test_newton_jacobian_matches_a_difference_quotient():
    """The closed-form Jacobian of F = M^-1 g against the fourth-order
    central difference of F (step 1e-4, error about 1e-12 here), at chart
    points near (1, 0, 0) on seeded planes."""
    rng = np.random.RandomState(11)
    for _ in range(10):
        E = orthogonalize(build_plane(random_type2_spec(rng))[0])
        x = np.array([1.0, 0.0, 0.0]) + rng.uniform(-0.2, 0.2, 3)
        _, dF = slowcurve._newton_system(E, x)
        h, diff = 1e-4, np.empty((3, 3))
        for j in range(3):
            F = [slowcurve._newton_system(E, x + s * h * np.eye(3)[j])[0]
                 for s in (-2, -1, 1, 2)]
            diff[:, j] = (F[0] - 8.0 * F[1] + 8.0 * F[2] - F[3]) / (12.0 * h)
        assert np.abs(diff - dF).max() <= 1e-9 * np.abs(dF).max()


# --- transverse gain ----------------------------------------------------------

def test_perturb_gain_moment_instance():
    gain = perturb_gain(SPEC61)
    assert np.allclose(gain.matrix, [[1.0 / 3.0, 0.0], [0.0, 0.0]], atol=1e-14)
    assert gain.spectral_norm == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_perturb_gain_symmetric_and_contractive():
    rng = np.random.RandomState(12)
    for _ in range(20):
        gain = perturb_gain(random_type2_spec(rng, mild=False))
        assert gain.matrix[0, 1] == gain.matrix[1, 0]
        assert gain.spectral_norm < 1.0


def test_perturb_gain_returns_a_gain_that_rounds_to_one():
    # the gain 1 - O(c4^2) rounds to 1.0 at c4 = 1e-9; lemma75's suite,
    # not perturb_gain, checks the bound
    gain = perturb_gain(PlaneSpec("type2", (0.3, 0.2, 0.1, 1e-9, 0.4)))
    assert gain.spectral_norm <= 1.0


def _perturb_gain_matrix_reference(spec):
    """The gain matrix from the basis of a second, orthogonalized subspace."""
    C = orthogonalize(build_plane(spec.canonical())[0]).basis
    tilde = []
    for M in C[1:]:
        T = np.array(M)
        T[0, :] = 0.0
        T[:, 0] = 0.0
        tilde.append(T)
    n2sq, n3sq = frob_inner(C[1], C[1]), frob_inner(C[2], C[2])
    cross = frob_inner(tilde[0], tilde[1]) / np.sqrt(n2sq * n3sq)
    return np.array([
        [1.0 - frob_inner(tilde[0], tilde[0]) / n2sq, -cross],
        [-cross, 1.0 - frob_inner(tilde[1], tilde[1]) / n3sq]])


@pytest.mark.parametrize("seed", [0, 1])
def test_perturb_gain_matches_the_orthogonalized_plane_bit_for_bit(seed):
    rng = np.random.RandomState(seed)   # lemma75's draws
    for _ in range(100):
        spec = random_type2_spec(rng, mild=False)
        got = perturb_gain(spec).matrix
        assert got.tobytes() == _perturb_gain_matrix_reference(spec).tobytes()


# --- tube check -------------------------------------------------------------------

def test_tube_check_on_curve():
    assert tube_check(SPEC61, t0=0.1, beta=0.0, gamma=0.0, steps=1500,
                      eps=1.0)


def test_tube_check_with_offset():
    beta = 0.5 / np.sqrt(6.0)  # ||beta C2|| = eps/2
    assert tube_check(SPEC61, t0=0.1, beta=beta, gamma=0.0, steps=1000,
                      eps=1.0)


def test_tube_check_takes_one_ap_step_per_step(monkeypatch):
    import apcone.slowcurve as slowcurve

    calls = []

    def counting_ap_step(E, U):
        calls.append(1)
        return ap_step(E, U)

    monkeypatch.setattr(slowcurve, "ap_step", counting_ap_step)
    assert tube_check(SPEC61, t0=0.1, beta=0.0, gamma=0.0, steps=300,
                      eps=1.0)
    assert len(calls) == 300


def test_tube_check_zero_start_trivial():
    assert tube_check(SPEC61, t0=0.0, beta=0.0, gamma=0.0, steps=5, eps=1.0)


def test_tube_check_tight_eps_fails():
    # the transverse attractor sits near 5 t0 in the beta/gamma norm, far
    # above a 1e-3 band: the check must honestly report failure
    assert not tube_check(SPEC61, t0=0.1, beta=0.0, gamma=0.0, steps=200,
                          eps=1e-3)


# --- block recovery of the curve parameter ------------------------------------

def _basis_change(spec):
    """T with column j the coefficients <B_j, C_i> / ||C_i||^2 of B_j over
    the Gram-Schmidt basis C: the curve point has coefficients
    T (t, g13, g23) over C."""
    E, _ = build_plane(spec.canonical())
    C = orthogonalize(E).basis
    return [[frob_inner(B, Ci) / frob_inner(Ci, Ci) for B in E.basis]
            for Ci in C]


def _p1_of_t(spec, row, t):
    """The scalar first-coordinate map, row 0 of the basis change, with
    the g13, g23 it was built from; NaN at a t the curve rejects as not
    finite, so that no recovery accepts it."""
    if not math.isfinite(t):
        return math.nan, math.nan, math.nan
    _, g13, g23, _, _ = _curve_scalars(require_slowest_curve(spec), t)
    return row[0] * t + row[1] * g13 + row[2] * g23, g13, g23


def _tube_check_stepwise(spec, t0, beta, gamma, steps, eps, step=ap_step):
    """The step-by-step tube check: one scalar recovery per AP step, with a
    central-difference slope of p1 taken at the first correction, and the
    transverse deviation measured from the curve's own C2, C3 coefficients
    (rows 1 and 2 of the basis change)."""
    spec = spec.canonical()
    c4 = spec.c[3]
    E, _ = build_plane(spec)
    Eo = orthogonalize(E)
    C = Eo.basis
    T = _basis_change(spec)
    n1sq = frob_inner(C[0], C[0])
    n2, n3 = frob_norm(C[1]), frob_norm(C[2])
    if t0 == 0.0:
        return True, []
    c_shift = 1.0 / (4.0 * c4 ** 4 * n1sq)
    U = curve_point(spec, t0).G + beta * t0 ** 7 * C[1] + gamma * t0 ** 7 * C[2]
    t = t0
    slope = None
    ratios, ts = [], []
    transverse_ok = True
    for _ in range(steps):
        U, _rank, coeffs = step(Eo, U)
        pobs = coeffs.tolist()
        tol = 1e-13 * max(1.0, abs(pobs[0]))
        tn = t - c_shift * t ** 7
        for _ in range(60):
            p1, g13, g23 = _p1_of_t(spec, T[0], tn)
            r = p1 - pobs[0]
            if abs(r) < tol:
                break
            if slope is None:
                hstep = 1e-7 * max(abs(tn), 1e-3)
                slope = (_p1_of_t(spec, T[0], tn + hstep)[0]
                         - _p1_of_t(spec, T[0], tn - hstep)[0]) / (2 * hstep)
                if slope == 0.0:
                    raise ChartError("flat first-coordinate map")
            tn -= r / slope
        else:
            raise ChartError("could not recover the curve parameter")
        if not 0.0 < tn < t:
            return False, ts
        p2, p3 = (T[i][0] * tn + T[i][1] * g13 + T[i][2] * g23 for i in (1, 2))
        dev = math.hypot((pobs[1] - p2) * n2, (pobs[2] - p3) * n3)
        if dev / tn ** 7 >= eps:
            transverse_ok = False
        ratios.append(abs(tn - (t - c_shift * t ** 7)) / t ** 8)
        ts.append(tn)
        t = tn
    half = max(1, len(ratios) // 2)
    k_fit = max(ratios[:half])
    bracket_ok = all(r <= 1.5 * k_fit + 1e-9 for r in ratios[half:])
    return transverse_ok and bracket_ok, ts


@pytest.mark.parametrize("draw", range(7))
def test_p1_block_is_the_scalar_map_bit_for_bit(draw):
    # the array curve formulas, their rejection predicate and row 0 of the
    # basis change, as the block recovery runs them, against the scalar
    # map.  Draw 0 is ex6.1's plane, draw 1 one whose inner denominator is
    # exactly zero at t = 0.5; the rest seeded mild and wide random planes
    if draw == 0:
        spec = SPEC61
    elif draw == 1:
        spec = PlaneSpec("type2", (1.0, 1.0, 0.0, 1.0, 0.0))
    else:
        spec = random_type2_spec(np.random.RandomState(draw),
                                 mild=draw % 2 == 0)
    row = _basis_change(spec)[0]
    ts = np.concatenate([np.linspace(-0.4, 0.6, 201),
                         np.geomspace(1e-6, 0.3, 97), [0.5]])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, g13, g23, den4w, checked = _curve_parts(
            require_slowest_curve(spec), ts)
        p1 = _coordinate(row, ts, g13, g23)
        vanished = _vanished(den4w, checked)
    raised = 0
    for i, t in enumerate(ts.tolist()):
        try:
            want = _p1_of_t(spec, row, t)
        except VanishingDenominatorError:
            assert vanished[i], t
            raised += 1
            continue
        assert not vanished[i], t
        got = (p1[i], g13[i], g23[i])
        assert np.array_equal(np.array(got), np.array(want)), t
    if draw == 1:
        assert raised >= 1


def _series_p1(spec, row, t):
    ts = TruncSeries.from_coeffs([t, 1.0], 1)
    curve = require_slowest_curve(spec)
    return _coordinate(row, ts, *_curve_parts(curve, ts)[1:3])


def test_tube_slope_is_the_exact_derivative_of_p1():
    for spec in (SPEC61, PlaneSpec("type2", (1.0, -0.7, 0.4, 1.0, 0.9)),
                 PlaneSpec("type2", (0.3, 0.5, -0.6, 0.8, -0.2))):
        row = _basis_change(spec)[0]
        for t in (0.03, 0.1):
            p1 = _series_p1(spec, row, t)
            assert p1[0] == pytest.approx(_p1_of_t(spec, row, t)[0],
                                          rel=1e-15)
            h = 1e-5 * t   # fourth-order central difference
            fd = (8.0 * (_p1_of_t(spec, row, t + h)[0]
                         - _p1_of_t(spec, row, t - h)[0])
                  - (_p1_of_t(spec, row, t + 2 * h)[0]
                     - _p1_of_t(spec, row, t - 2 * h)[0])) / (12.0 * h)
            assert p1[1] == pytest.approx(fd, rel=1e-8)
    # on ex6.1's plane the basis change is the identity and p1(t) = t
    T = _basis_change(SPEC61)
    assert T == np.eye(3).tolist()
    assert _series_p1(SPEC61, T[0], 0.1)[1] == 1.0


def _recovered_ts(monkeypatch):
    """Record the t that tube_check recovers, block by block."""
    blocks = []
    recover = slowcurve._recover_block

    def recording(*args):
        out = recover(*args)
        blocks.append(out[0].copy())
        return out

    monkeypatch.setattr(slowcurve, "_recover_block", recording)
    return blocks


def _assert_matches_the_stepwise_loop(spec, kw, monkeypatch):
    """Same outcome as the stepwise loop, and every t it recovered within
    2e-13 of the block's: each side stops within 1e-13 max(1, |p1|) of the
    observed p1, and dp1/dt is near 1 on these planes.  Returns the
    outcome."""
    want, want_ts = _tube_check_stepwise(spec, **kw)
    blocks = _recovered_ts(monkeypatch)
    assert tube_check(spec, **kw) == want
    got_ts = np.concatenate(blocks)
    assert len(got_ts) == kw["steps"] >= len(want_ts)
    n = len(want_ts)
    np.testing.assert_allclose(got_ts[:n], want_ts, rtol=0.0, atol=2e-13)
    return want


N2_61 = math.sqrt(6.0)   # ||C2|| on ex6.1's plane
N3_61 = math.sqrt(2.0)   # ||C3|| on ex6.1's plane


@pytest.mark.parametrize("kw", [
    dict(t0=0.1, beta=0.0, gamma=0.0, steps=2000, eps=1.0),
    dict(t0=0.1, beta=0.5 / N2_61, gamma=0.0, steps=2000, eps=1.0),
    dict(t0=0.05, beta=0.0, gamma=0.0, steps=2000, eps=0.35),
    dict(t0=0.1, beta=0.0, gamma=0.0, steps=600, eps=1e-6),
    dict(t0=0.15, beta=0.0, gamma=0.0, steps=600, eps=1.0),
    dict(t0=0.2, beta=0.0, gamma=0.0, steps=600, eps=1.0),
    dict(t0=0.1, beta=0.3 / N2_61, gamma=0.5 / N3_61, steps=2000, eps=1.0),
], ids=["prop76-on-curve", "prop76-offset", "prop76-t0.05", "eps1e-6",
        "t0.15", "t0.2", "c2-c3-offset"])
def test_tube_check_matches_the_stepwise_loop(kw, monkeypatch):
    _assert_matches_the_stepwise_loop(SPEC61, kw, monkeypatch)


@pytest.mark.parametrize("draw", range(3))
def test_tube_check_matches_the_stepwise_loop_on_random_planes(draw,
                                                               monkeypatch):
    # p1 is not linear in t here, and C2, C3 are not B2, B3, unlike on
    # ex6.1's plane; an on-curve start stays in the tube
    spec = random_type2_spec(np.random.RandomState(11 + draw))
    kw = dict(t0=0.05, beta=0.0, gamma=0.0, steps=600, eps=10.0)
    assert _assert_matches_the_stepwise_loop(spec, kw, monkeypatch) is True


def test_tube_check_holds_off_ex61_on_mild_planes():
    # 60 seeded mild planes, each started on its curve: the transverse
    # deviation is measured against the curve's own C2, C3 coefficients,
    # which differ from (g13, g23) once <B3, C2> != 0
    rng = np.random.RandomState(0)
    failed = []
    for i in range(60):
        spec = random_type2_spec(rng)
        t0 = curve_probe_t(spec, 0.5, 0.05)
        if not tube_check(spec, t0, 0.0, 0.0, steps=300, eps=1.0):
            failed.append((i, spec.c))
    assert not failed


def _patched_steps(monkeypatch, edits=None, raise_at=None):
    """Make tube_check's ap_step count its calls, raise EigenSolverError at
    call ``raise_at`` and pass call k's plane, iterate and coefficients
    through ``edits[k]``, which returns the iterate and coefficients
    handed on."""
    edits = edits or {}
    calls = []

    def step(E, U):
        calls.append(1)
        if len(calls) == raise_at:
            raise EigenSolverError("injected")
        W, rank, coeffs = ap_step(E, U)
        if len(calls) in edits:
            W, coeffs = edits[len(calls)](E, W, coeffs)
        return W, rank, coeffs

    monkeypatch.setattr(slowcurve, "ap_step", step)
    return step, calls


def _observe_p1(value):
    """Report ``value`` as the first coefficient; on ex6.1's plane p1(t) = t,
    so the recovered t is ``value``, and the next step goes on from the
    true iterate."""
    def edit(E, W, coeffs):
        return W, np.array([value, *coeffs[1:]])
    return edit


def _raise_p1(delta):
    return lambda E, W, coeffs: _observe_p1(coeffs[0] + delta)(E, W, coeffs)


def _move_along_c1(delta):
    """Move the iterate by delta C1, so every later step goes on from there."""
    def edit(E, W, coeffs):
        return W + delta * E.basis[0], coeffs + np.array([delta, 0.0, 0.0])
    return edit


KW61 = dict(t0=0.1, beta=0.0, gamma=0.0, steps=2000, eps=1.0)


def _both_outcomes(monkeypatch, kw, edits=None, raise_at=None):
    """(stepwise outcome, block outcome, steps the block took) under the
    same edited steps; an outcome is the result or the exception type."""
    outcomes = []
    for stepwise in (True, False):
        step, calls = _patched_steps(monkeypatch, edits, raise_at)
        try:
            if stepwise:
                out = _tube_check_stepwise(SPEC61, **kw, step=step)[0]
            else:
                out = tube_check(SPEC61, **kw)
        except (ChartError, VanishingDenominatorError, EigenSolverError) as exc:
            out = type(exc)
        outcomes.append(out)
    return (*outcomes, len(calls))


def test_tube_check_rising_t_fails_within_one_block(monkeypatch):
    assert _both_outcomes(monkeypatch, KW61, {5: _raise_p1(1e-3)}) == \
        (False, False, TUBE_BLOCK)


@pytest.mark.parametrize("edits, raise_at, want", [
    ({3: _raise_p1(np.nan), 7: _raise_p1(1e-3)}, None, ChartError),
    ({2: _raise_p1(1e-3), 3: _raise_p1(np.nan)}, None, False),
    # d_inner = 1 - 2t vanishes at t = 0.5
    ({3: _observe_p1(0.5)}, None, VanishingDenominatorError),
    ({2: _raise_p1(1e-3), 3: _observe_p1(0.5)}, None, False),
    # a step error in the second block, after a whole block of recoveries
    (None, TUBE_BLOCK + 8, EigenSolverError),
    ({TUBE_BLOCK + 5: _raise_p1(1e-3)}, TUBE_BLOCK + 8, False),
    ({TUBE_BLOCK + 5: _raise_p1(np.nan)}, TUBE_BLOCK + 8, ChartError),
], ids=["chart", "rise-then-chart", "vanish", "rise-then-vanish",
        "step-error", "rise-then-step-error", "chart-then-step-error"])
def test_tube_check_failure_precedence_follows_the_steps(monkeypatch, edits,
                                                         raise_at, want):
    stepwise, block, _ = _both_outcomes(monkeypatch, KW61, edits, raise_at)
    assert stepwise == block == want


@pytest.mark.parametrize("at, want", [(100, True), (450, False)])
def test_tube_check_bracket_is_fitted_on_the_first_half(monkeypatch, at,
                                                         want):
    # a jump of about 10 K t^8 down the curve widens the bracket when it
    # falls in the first half (steps 1-300) and breaks it in the second
    kw = dict(KW61, steps=600)
    stepwise, block, _ = _both_outcomes(monkeypatch, kw,
                                        {at: _move_along_c1(-1e-7)})
    assert stepwise == block == want


@pytest.mark.parametrize("kw, edits", [
    (dict(t0=0.1, eps=1.0), None),
    (dict(t0=0.1, eps=1e-3), None),
    (dict(t0=0.0, eps=1.0), None),
    (dict(t0=0.1, eps=1.0), {5: _raise_p1(1e-3)}),
], ids=["holds", "transverse-fails", "fixed-point", "t-rises"])
def test_tube_check_returns_a_plain_bool(kw, edits, monkeypatch):
    _patched_steps(monkeypatch, edits)
    out = tube_check(SPEC61, beta=0.0, gamma=0.0, steps=300, **kw)
    assert type(out) is bool
