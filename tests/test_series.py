import numpy as np
from numpy.polynomial.polynomial import polyval
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcone.planes import PlaneSpec
from apcone.series import (TruncSeries, ZeroConstantTermError, det_series,
                           expand_curve, moment_curve_defect,
                           w_recursion_defect)
from apcone.slowcurve import curve_point, w_rational

SPEC61 = PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0))

coeff_lists = st.lists(st.floats(-4, 4), min_size=1, max_size=8)


def ts(coeffs, cap=12):
    return TruncSeries.from_coeffs(coeffs, cap)


# --- ring arithmetic ---------------------------------------------------------

def test_geometric_series_by_division():
    one, t = ts([1.0]), TruncSeries.x(12)
    geo = one / (one - t)
    assert np.allclose(geo.coeffs, np.ones(13))
    shifted = t / (1 - t)
    assert np.allclose(shifted.coeffs, [0.0] + [1.0] * 12)


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
def test_multiplicative_inverse(coeffs):
    if abs(coeffs[0]) < 1e-3:
        coeffs[0] = 1.0
    a = ts(coeffs)
    inv = 1 / a
    prod = a * inv
    want = np.zeros(13)
    want[0] = 1.0
    # inverse coefficients can grow like (1/a0)^k; scale tolerance with them
    scale = max(1.0, np.abs(a.coeffs).max() * np.abs(inv.coeffs).max())
    assert np.abs(prod.coeffs - want).max() < 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(ca, cb, cc):
    a, b, c = ts(ca), ts(cb), ts(cc)
    scale = max(1.0, max(np.abs(s.coeffs).max() for s in (a, b, c)) ** 3)
    assoc = ((a * b) * c - a * (b * c)).coeffs
    dist = (a * (b + c) - (a * b + a * c)).coeffs
    comm = (a * b - b * a).coeffs
    assert np.abs(assoc).max() < 1e-12 * scale
    assert np.abs(dist).max() < 1e-12 * scale
    assert np.abs(comm).max() < 1e-12 * scale


def test_power_is_repeated_multiplication():
    a = ts([0.7, -1.3, 0.4, 2.1])
    want = a
    for k in range(1, 8):
        assert np.array_equal((a ** k).coeffs, want.coeffs)
        want = want * a
    for bad in (0, -1, 2.5):
        with pytest.raises(ValueError):
            a ** bad


def test_division_rejects_zero_constant():
    with pytest.raises(ZeroConstantTermError):
        ts([1.0]) / TruncSeries.x(12)


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(ValueError):
        ts([1.0, 1.0]).compose(ts([0.5, 1.0]))


def test_compose_geometric_identity():
    # (1/(1-u)) composed with u = t/(1+t) gives 1 + t
    cap = 10
    one, t = ts([1.0], cap), TruncSeries.x(cap)
    outer = one / (one - t)
    inner = t / (1 + t)
    got = outer.compose(inner)
    assert np.allclose(got.coeffs, [1.0, 1.0] + [0.0] * (cap - 1), atol=1e-12)


# --- curve expansions ----------------------------------------------------------

def test_expand_curve_moment_instance():
    w, g13, g23 = expand_curve(SPEC61)
    assert np.allclose(w.coeffs, [1.0, -2.0] + [0.0] * 11, atol=1e-14)
    # g13 = t^2/(2(1-2t)) - t^6/(16(1-2t)^5): note the negative t^6 correction
    want = [0, 0, 0.5, 1, 2, 4, 8 - 1 / 16, 16 - 10 / 16]
    assert np.allclose(g13.coeffs[:8], want, atol=1e-12)
    # g23 = -t^3/(2(1-2t)^2) + 3 t^7/16 + O(t^8): coefficients -(k+1) 2^k / 2
    assert np.allclose(g23.coeffs[3:8], [-0.5, -2, -6, -16, -40 + 3 / 16],
                       atol=1e-12)


def test_expand_curve_leading_terms_generic():
    spec = PlaneSpec("type2", (0.4, -0.9, 0.3, 1.7, -0.5))
    _, g13, g23 = expand_curve(spec)
    assert g13.coeffs[2] == pytest.approx(1 / (2 * 1.7), rel=1e-12)
    assert g13.coeffs[:2] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert g23.coeffs[3] == pytest.approx(-1 / (2 * 1.7), rel=1e-12)
    assert g23.coeffs[:3] == pytest.approx([0.0] * 3, abs=1e-15)


@pytest.mark.parametrize("spec", [
    pytest.param(SPEC61, id="ex6.1"),
    pytest.param(PlaneSpec("type2", (0.0, 0.0, 1.0, 1.0, 0.0)), id="ex4.4"),
    pytest.param(PlaneSpec("type2", (0.3, -0.7, 0.5, 1.2, -0.4), theta=0.7,
                           reflect=True), id="rotated-reflected"),
])
def test_series_matches_pointwise_curve(spec):
    w, g13, g23 = expand_curve(spec)
    t = 1e-3
    cp = curve_point(spec, t)
    assert polyval(t, w.coeffs) == pytest.approx(w_rational(spec, t),
                                                 rel=1e-12)
    assert polyval(t, g13.coeffs) == pytest.approx(cp.g13, rel=1e-12,
                                                   abs=1e-18)
    assert polyval(t, g23.coeffs) == pytest.approx(cp.g23, rel=1e-12,
                                                   abs=1e-18)


def test_expand_curve_requires_c4():
    with pytest.raises(ValueError):
        expand_curve(PlaneSpec("type2", (1.0, 0.0, 0.0, 0.0, 1.0)))


# --- w recursion ----------------------------------------------------------------

def test_w_recursion_moment_instance_exact():
    assert w_recursion_defect(SPEC61) == 0.0


def test_w_recursion_generic_spec():
    spec = PlaneSpec("type2", (0.3, -0.7, 0.5, 1.2, -0.4))
    assert w_recursion_defect(spec) <= 1e-10


def test_w_recursion_degree6_free():
    # degree-6 coefficients may genuinely differ: the bound is through 5 only
    spec = PlaneSpec("type2", (0.3, -0.7, 0.5, 1.2, -0.4))
    w, g13, g23 = expand_curve(spec)
    c1, c2, c3 = spec.c[:3]
    t = TruncSeries.x(12)
    rhs = 1 - 2 * c1 * t + 2 * c2 * g13 - 2 * c3 * g23
    assert abs(w.coeffs[6] - rhs.coeffs[6]) > 1e-8


# --- determinant series -----------------------------------------------------------

def test_det_series_moment_instance():
    d = det_series(SPEC61)
    assert np.abs(d.coeffs[:10]).max() == 0.0
    assert d[10] == pytest.approx(0.03125, abs=1e-12)


def test_det_series_c4_scaling():
    d = det_series(PlaneSpec("type2", (0.0, 0.0, 0.0, 2.0, 0.0)))
    assert d[10] == pytest.approx(1.0 / (32.0 * 64.0), rel=1e-12)


def test_det_series_random_specs():
    rng = np.random.RandomState(77)
    for _ in range(10):
        c = rng.uniform(-0.9, 0.9, 5)
        c[3] = rng.choice([-1, 1]) * rng.uniform(0.6, 1.6)
        d = det_series(PlaneSpec("type2", tuple(c)))
        lead = 1.0 / (32.0 * c[3] ** 6)
        assert np.abs(d.coeffs[:10]).max() <= 1e-10 * max(1.0, abs(lead))
        assert d[10] == pytest.approx(lead, rel=1e-8)


def test_det_series_needs_depth():
    with pytest.raises(ValueError):
        det_series(SPEC61, cap=10)


# --- moment-curve pattern ------------------------------------------------------

def test_moment_curve_pattern():
    assert moment_curve_defect() <= 1e-10


def test_moment_curve_entries():
    # spot-check the certified entries via the same substitution
    from apcone.series import curve_matrix_series
    cap = 8
    g = curve_matrix_series(SPEC61, cap)
    t = TruncSeries.x(cap)
    inner = t / (1 + 2 * t)
    e11 = (g[0][0] / (1 - 2 * t)).compose(inner)
    assert np.allclose(e11.coeffs[:8], [1.0] + [0.0] * 7, atol=1e-14)
    e22 = (g[1][1] / (1 - 2 * t)).compose(inner)
    assert e22.coeffs[2] == pytest.approx(1.0, abs=1e-12)
    assert e22.coeffs[6] == pytest.approx(-1 / 8, abs=1e-12)
    e31 = (g[2][0] / (1 - 2 * t)).compose(inner)
    assert e31.coeffs[2] == pytest.approx(-0.5, abs=1e-12)
    assert e31.coeffs[6] == pytest.approx(1 / 16, abs=1e-12)
    e32 = (g[2][1] / (1 - 2 * t)).compose(inner)
    assert e32.coeffs[3] == pytest.approx(-0.5, abs=1e-12)
    assert e32.coeffs[7] == pytest.approx(3 / 16, abs=1e-12)
