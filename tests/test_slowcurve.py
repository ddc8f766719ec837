import math

import numpy as np
from numpy.polynomial.polynomial import polyval
import pytest

from apcone.apengine import ap_step
from apcone.planes import (PlaneSpec, U_STAR, build_plane, conjugate,
                           rotation_matrix, type2_basis)
import apcone.slowcurve as slowcurve
from apcone.series import TruncSeries
from apcone.slowcurve import (TUBE_BLOCK, ChartError, ResidualNoiseError,
                              VanishingDenominatorError, _curve_scalars,
                              _p1_block, _p1_parts, ap_image_formula,
                              curve_point, newton_slowest_point, perturb_gain,
                              psd_projection_formula,
                              residual_order_certified, tube_check,
                              valid_t_max, w_rational)
from apcone.series import det_series
from apcone.symcore import (EigenSolverError, frob_inner, frob_norm,
                            orthogonalize, project_psd)
from apcone.verify import random_type2_spec

SPEC61 = PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0))
SPEC44 = PlaneSpec("type2", (0.0, 0.0, 1.0, 1.0, 0.0))


# --- w ------------------------------------------------------------------------

def test_w_moment_instance_exact():
    for t in (0.0, 1e-3, 0.05, 0.15):
        assert w_rational(SPEC61, t) == 1.0 - 2.0 * t


def test_w_at_zero_is_one():
    spec = PlaneSpec("type2", (0.3, -0.7, 0.5, 1.2, -0.4))
    assert w_rational(spec, 0.0) == 1.0


def test_w_requires_c4():
    with pytest.raises(ValueError):
        w_rational(PlaneSpec("type2", (1, 0, 0, 0, 1)), 0.01)


def test_w_vanishing_denominator():
    # inner denominator c4 (1 - 2 c1 t) + c5 t hits zero at t = 0.5
    spec = PlaneSpec("type2", (1.0, 1.0, 0.0, 1.0, 0.0))
    with pytest.raises(VanishingDenominatorError):
        w_rational(spec, 0.5)


def test_w_recursion_pointwise_halving_order():
    # |w - (1 - 2 c1 t + 2 c2 g13 - 2 c3 g23)| = O(t^6): order >= 5.5
    spec = PlaneSpec("type2", (0.3, -0.7, 0.5, 1.2, -0.4))

    def lhs(t):
        return w_rational(spec, t)

    def rhs(t):
        cp = curve_point(spec, t)
        c1, c2, c3 = spec.c[:3]
        return 1.0 - 2.0 * c1 * t + 2.0 * c2 * cp.g13 - 2.0 * c3 * cp.g23

    order, t0, halvings = residual_order_certified(lhs, rhs, 1e-2, 3,
                                                   t_cap=0.08)
    assert order >= 5.5


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
            w = w_rational(spec, t)
            G = curve_point(spec, t).G
        except VanishingDenominatorError:
            return False
        d_inner = c4 * (1.0 - 2.0 * c1 * t) + c5 * t
        mid = 1.0 - 2.0 * c1 * t + c2 * t * t / d_inner + c3 * t ** 3 / c4
        q = 1.0 - 2.0 * c1 * t + c2 * t * t / c4
        dens = (d_inner, c4 * mid + c5 * t, c4 * q + c5 * t, q, w,
                2.0 * c4 * w + 2.0 * c5 * t)
        if min(abs(d) for d in dens) <= 0.1:
            return False
        return float(np.linalg.det(G)) > 0.0

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


@pytest.mark.parametrize("formula,oracle_builder", [
    (psd_projection_formula,
     lambda spec, E: (lambda t: project_psd(curve_point(spec, t).G)[0])),
    (ap_image_formula,
     lambda spec, E: (lambda t: ap_step(E, curve_point(spec, t).G)[0])),
])
def test_formula_residual_orders(formula, oracle_builder):
    E, _ = build_plane(SPEC61)
    oracle = oracle_builder(SPEC61, E)
    order, t0, halvings = residual_order_certified(
        oracle, lambda t: formula(SPEC61, t), t0=1e-2, halvings=3, t_cap=0.1)
    assert order >= 7.5


# --- residual order estimator -------------------------------------------------

def test_residual_order_exact_monomial():
    M = np.arange(9.0).reshape(3, 3) + 1.0
    g_at = []

    def f(t):
        return t ** 8 * M

    def g(t):
        g_at.append(t)
        return 0.0 * M

    # the deepest point (1/32)^8 |M| is clear of rounding: nothing escalates
    order, t0, halvings = residual_order_certified(f, g, 0.5, 4, t_cap=0.5)
    assert order == pytest.approx(8.0, abs=1e-9)
    assert (t0, halvings) == (0.5, 4)
    # each of the five ladder points is evaluated once
    assert sorted(g_at) == [0.5 / 2 ** j for j in range(4, -1, -1)]


def test_residual_order_noise_signal():
    M = np.eye(3)

    def f(t):
        return M

    def g(t):
        return M + 1e-18 * t * M

    # 1e-19 at t0 = 0.1 is noise, and t0 cannot be enlarged past t_cap
    with pytest.raises(ResidualNoiseError):
        residual_order_certified(f, g, 0.1, 3, t_cap=0.1)


def test_residual_order_certified_escalates():
    M = np.eye(3)

    def f(t):
        return t ** 8 * M

    def g(t):
        return 0.0 * M

    # at t0 = 1e-3 the difference is ~1e-24; certification walks t0 up
    order, t0, halvings = residual_order_certified(f, g, 1e-3, 3, t_cap=0.5)
    assert order == pytest.approx(8.0, abs=1e-6)
    assert t0 > 1e-3


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

    order, t0, halvings = residual_order_certified(
        newton_matrix, lambda t: curve_point(SPEC44, t).G,
        t0=0.1, halvings=2, t_cap=0.1)
    assert order >= 6.5


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


def test_tube_check_offset_precondition():
    with pytest.raises(ValueError):
        tube_check(SPEC61, t0=0.1, beta=1.0, gamma=0.0, steps=10, eps=1e-3)


def test_tube_check_needs_a_step():
    with pytest.raises(ValueError):
        tube_check(SPEC61, t0=0.1, beta=0.0, gamma=0.0, steps=0, eps=1.0)


# --- block recovery of the curve parameter ------------------------------------

def _first_coordinate_data(spec):
    E, _ = build_plane(spec.canonical())
    C = orthogonalize(E).basis
    return E.gram[0].tolist(), frob_inner(C[0], C[0])


def _p1_of_t(spec, gram_row1, n1sq, t):
    """The scalar first-coordinate map the tube check used step by step."""
    _, g13, g23, _ = _curve_scalars(spec, t)
    return t + (gram_row1[1] * g13 + gram_row1[2] * g23) / n1sq, g13, g23


def _tube_check_stepwise(spec, t0, beta, gamma, steps, eps, step=ap_step):
    """The step-by-step tube check: one scalar recovery per AP step, with a
    central-difference slope of p1 taken at the first correction."""
    spec = spec.canonical()
    c4 = spec.c[3]
    E, _ = build_plane(spec)
    Eo = orthogonalize(E)
    C = Eo.basis
    n1sq = frob_inner(C[0], C[0])
    n2, n3 = frob_norm(C[1]), frob_norm(C[2])
    gram_row1 = E.gram[0].tolist()
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
            return False, ts
        dev = math.hypot((pobs[1] - g13) * n2, (pobs[2] - g23) * n3)
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
    # draw 0 is ex6.1's plane, draw 1 one whose inner denominator is exactly
    # zero at t = 0.5; the rest seeded mild and wide random type2 planes
    if draw == 0:
        spec = SPEC61
    elif draw == 1:
        spec = PlaneSpec("type2", (1.0, 1.0, 0.0, 1.0, 0.0))
    else:
        spec = random_type2_spec(np.random.RandomState(draw),
                                 mild=draw % 2 == 0)
    gram_row1, n1sq = _first_coordinate_data(spec)
    ts = np.concatenate([np.linspace(-0.4, 0.6, 201),
                         np.geomspace(1e-6, 0.3, 97), [0.5]])
    p1, g13, g23, vanished = _p1_block(spec.c, gram_row1, n1sq, ts)
    raised = 0
    for i, t in enumerate(ts.tolist()):
        try:
            want = _p1_of_t(spec, gram_row1, n1sq, t)
        except VanishingDenominatorError:
            assert vanished[i], t
            raised += 1
            continue
        assert not vanished[i], t
        got = (p1[i], g13[i], g23[i])
        assert np.array_equal(np.array(got), np.array(want)), t
    if draw == 1:
        assert raised >= 1


def test_tube_slope_is_the_exact_derivative_of_p1():
    for spec in (SPEC61, PlaneSpec("type2", (1.0, -0.7, 0.4, 1.0, 0.9)),
                 PlaneSpec("type2", (0.3, 0.5, -0.6, 0.8, -0.2))):
        gram_row1, n1sq = _first_coordinate_data(spec)
        for t in (0.03, 0.1):
            p1 = _p1_parts(spec.c, gram_row1, n1sq,
                           TruncSeries.from_coeffs([t, 1.0], 1))[0]
            assert p1[0] == pytest.approx(
                _p1_of_t(spec, gram_row1, n1sq, t)[0], rel=1e-15)
            h = 1e-5 * t   # fourth-order central difference
            fd = (8.0 * (_p1_of_t(spec, gram_row1, n1sq, t + h)[0]
                         - _p1_of_t(spec, gram_row1, n1sq, t - h)[0])
                  - (_p1_of_t(spec, gram_row1, n1sq, t + 2 * h)[0]
                     - _p1_of_t(spec, gram_row1, n1sq, t - 2 * h)[0])
                  ) / (12.0 * h)
            assert p1[1] == pytest.approx(fd, rel=1e-8)
    # on ex6.1's plane p1(t) = t
    gram_row1, n1sq = _first_coordinate_data(SPEC61)
    p1 = _p1_parts(SPEC61.c, gram_row1, n1sq,
                   TruncSeries.from_coeffs([0.1, 1.0], 1))[0]
    assert p1[1] == 1.0


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


N2_61 = math.sqrt(6.0)   # ||C2|| on ex6.1's plane


def _assert_matches_the_stepwise_loop(spec, kw, monkeypatch):
    """Same outcome as the stepwise loop, and every t it recovered within
    2e-13 of the block's: each side stops within 1e-13 max(1, |p1|) of the
    observed p1, and dp1/dt is near 1 on these planes."""
    want, want_ts = _tube_check_stepwise(spec, **kw)
    blocks = _recovered_ts(monkeypatch)
    assert tube_check(spec, **kw) == want
    got_ts = np.concatenate(blocks)
    assert len(got_ts) == kw["steps"] >= len(want_ts)
    n = len(want_ts)
    np.testing.assert_allclose(got_ts[:n], want_ts, rtol=0.0, atol=2e-13)


N2_61 = math.sqrt(6.0)   # ||C2|| on ex6.1's plane


@pytest.mark.parametrize("kw", [
    dict(t0=0.1, beta=0.0, gamma=0.0, steps=2000, eps=1.0),
    dict(t0=0.1, beta=0.5 / N2_61, gamma=0.0, steps=2000, eps=1.0),
    dict(t0=0.05, beta=0.0, gamma=0.0, steps=2000, eps=0.35),
    dict(t0=0.1, beta=0.0, gamma=0.0, steps=600, eps=1e-6),
    dict(t0=0.15, beta=0.0, gamma=0.0, steps=600, eps=1.0),
    dict(t0=0.2, beta=0.0, gamma=0.0, steps=600, eps=1.0),
], ids=["prop76-on-curve", "prop76-offset", "prop76-t0.05", "eps1e-6",
        "t0.15", "t0.2"])
def test_tube_check_matches_the_stepwise_loop(kw, monkeypatch):
    _assert_matches_the_stepwise_loop(SPEC61, kw, monkeypatch)


@pytest.mark.parametrize("draw", range(3))
def test_tube_check_matches_the_stepwise_loop_on_random_planes(draw,
                                                               monkeypatch):
    # p1 is not linear in t here, unlike on ex6.1's plane
    spec = random_type2_spec(np.random.RandomState(11 + draw))
    kw = dict(t0=0.05, beta=0.0, gamma=0.0, steps=600, eps=10.0)
    _assert_matches_the_stepwise_loop(spec, kw, monkeypatch)


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
