"""Acceptance suite: one test per criterion, printed as one line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
measured numbers).  Criterion 8 is asserted exactly as stated over the
pinned start G(0.1); from that start the measured slope and limit products
sit outside the stated bands (the in-test comment works out why), while the
reference-start reproduction right below it passes the same bands.  The
criterion is therefore kept faithful and red rather than weakened.
"""

import time

import numpy as np
import pytest

from apcone.apengine import ap_step, run_ap
from apcone.catalog import get_example
from apcone.planes import PlaneSpec, build_plane, plucker_coords, \
    plucker_relation_defect
from apcone.rates import (fit_geometric, fit_inverse_power,
                          recursive_sequence, slow_rate_constant)
from apcone.series import det_series
from apcone.slowcurve import (curve_point, newton_slowest_point,
                              residual_order_certified)
from apcone.symcore import frob_norm, orthogonalize, project_psd, sym_matrix
from apcone.verify import (random_type2_spec, run_suite, suite_lemma67,
                           suite_lemma75, suite_prop31, suite_thm41)

SPEC61 = PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0))
SPEC44 = PlaneSpec("type2", (0.0, 0.0, 1.0, 1.0, 0.0))
SEEDS = (0, 1, 2)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module", autouse=True)
def warm_up():
    # keep one-time costs (lazy imports, the first LAPACK call) out of the
    # timed sections by touching each entry point they use once
    E = get_example("ex3.2").plane
    run_ap(E, np.array([0.05]), max_iter=5, tol=0.0)
    recursive_sequence(1.0 / 3.0, 0.0, 2, 0.1, 10)
    project_psd(sym_matrix(np.diag([1.0, -1.0, 0.5])))
    ap_step(E, E.point(np.array([0.05])))
    E.coefficients(E.anchor)
    frob_norm(E.anchor)


def test_criterion_01_inverse_square_slope():
    inst = get_example("ex3.2", "pos")
    t0 = time.perf_counter()
    trace = run_ap(inst.plane, np.array([0.1]), max_iter=10 ** 5, tol=0.0)
    elapsed = time.perf_counter() - t0
    fit = fit_inverse_power(trace, 2, (10 ** 4, 10 ** 5))
    rel = abs(fit.slope - 1.0 / 9.0) * 9.0
    report(1, rel < 0.05 and elapsed < 5.0,
           f"slope={fit.slope:.6f} (1/9 rel err {rel:.2%}), {elapsed:.2f}s")
    assert elapsed < 5.0
    assert rel < 0.05


def test_criterion_02_linear_branch_ratio():
    inst = get_example("ex3.2", "neg")
    trace = run_ap(inst.plane, np.array([-0.05]), max_iter=40, tol=0.0)
    # the 1/3 contraction runs down to rounding level; should the distance
    # reach exactly zero inside [5, 30], the fit window stops at the last
    # positive distance
    last_positive = int(np.max(np.nonzero(trace.dists > 0.0)))
    fit = fit_geometric(trace, (5, min(30, last_positive)))
    err = abs(fit.ratio - 1.0 / 3.0)
    report(2, err <= 1e-3,
           f"ratio={fit.ratio:.9f} err={err:.2e} window={fit.window}")
    assert err <= 1e-3


def test_criterion_03_segment_plane_exact_ratios():
    pos = get_example("ex3.3", "pos")
    trace = run_ap(pos.plane, np.array([0.5]), max_iter=40, tol=0.0)
    fit_pos = fit_geometric(trace, (2, 18))
    neg = get_example("ex3.3", "neg")
    trace = run_ap(neg.plane, np.array([-0.1]), max_iter=40, tol=0.0)
    # below t ~ 1e-10 the plane's 1 - t matrix entry rounds away part of t,
    # so the exactness window ends at k = 14 on the contracting branch
    fit_neg = fit_geometric(trace, (2, 14))
    err_pos = abs(fit_pos.ratio - 0.8)
    err_neg = abs(fit_neg.ratio - 0.2)
    report(3, max(err_pos, err_neg) <= 1e-6,
           f"ratios {fit_pos.ratio:.9f}/{fit_neg.ratio:.9f}, "
           f"errs {err_pos:.1e}/{err_neg:.1e}")
    assert err_pos <= 1e-6
    assert err_neg <= 1e-6


def test_criterion_04_quartic_plane_ratio():
    inst = get_example("ex3.4")
    trace = run_ap(inst.plane, np.array([0.1, 0.0]), max_iter=40, tol=0.0)
    fit = fit_geometric(trace, (10, 40))
    rel = abs(fit.ratio - 0.75) / 0.75
    report(4, rel <= 0.01, f"ratio={fit.ratio:.6f} rel err={rel:.2%}")
    assert rel <= 0.01


def test_criterion_05_projection_formula_orders():
    # thm62 and thm63 at seed 0: ex6.1 and ten random planes (|c_i| <= 2 by
    # construction); each row reads the first degree above 1e-8 of the
    # rank-1 kernel's series minus the formula's (cap 8), which must be 8,
    # and ties the truncated kernel to the float projection at t = 1e-2
    t_start = time.perf_counter()
    rows = run_suite("thm62", SEEDS[0]) + run_suite("thm63", SEEDS[0])
    elapsed = time.perf_counter() - t_start
    ok = all(r.passed for r in rows)
    # a row's detail reads "order <degree> (tol 1e-8): ..."
    low = min(rows, key=lambda r: float(r.detail.split()[1]))
    report(5, ok and elapsed < 1.0,
           f"min {low.label}: {low.detail}; {len(rows)} rows, "
           f"{elapsed:.2f}s")
    assert elapsed < 1.0
    assert ok


def test_criterion_06_determinant_series():
    d = det_series(SPEC61)
    assert abs(d[10] - 0.03125) <= 1e-12
    results = suite_lemma67(SEEDS[0])
    ok = all(r.passed for r in results)
    report(6, ok, f"ex6.1 coeff10={d[10]!r}; 10 random specs "
                  f"{'ok' if ok else 'FAILED'}")
    assert ok


def test_criterion_07_w_recursion_series():
    rows = run_suite("lemma64", SEEDS[0])
    ok = all(r.passed for r in rows)
    # a row's detail reads "max coefficient gap <value>"
    worst = max(float(r.detail.split()[-1]) for r in rows)
    report(7, ok, f"{len(rows)} specs, max coefficient defect {worst:.2e}")
    assert ok


def _slow_run_products(t0, iters=10 ** 5):
    E, _ = build_plane(SPEC61)
    start = E.coefficients(curve_point(SPEC61, t0).G)
    t_start = time.perf_counter()
    trace = run_ap(E, start, max_iter=iters, tol=0.0)
    elapsed = time.perf_counter() - t_start
    fit = fit_inverse_power(trace, 6, (10 ** 4, iters))
    const = slow_rate_constant(SPEC61)
    prods = {k: const * k ** (1 / 6) * trace.dists[k]
             for k in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5)}
    return trace, elapsed, fit, prods


def test_criterion_08_slow_rate_from_pinned_start():
    trace, elapsed, fit, prods = _slow_run_products(0.1)
    slope_rel = abs(fit.slope - 0.0098) / 0.0098
    values = np.array([prods[k] for k in sorted(prods)])
    increasing = bool(np.all(np.diff(values) > 0))
    in_band = bool(np.all((values[1:] >= 0.55) & (values[1:] <= 1.05)))
    detail = (f"slope={fit.slope:.5f} (rel err {slope_rel:.0%} vs 0.0098), "
              f"products={[f'{v:.3f}' for v in values]}, "
              f"increasing={increasing}, band ok={in_band}, {elapsed:.1f}s")
    report(8, elapsed < 10 and slope_rel <= 0.25 and increasing and in_band,
           detail)
    assert elapsed < 10.0
    assert increasing
    # The two assertions below state the criterion verbatim for the pinned
    # start G(0.1).  Measured physics: the per-step contraction at t = 0.1
    # is ~t^7/(24 w(t)^6) with w(0.1)^6 = 0.264, so the window slope is
    # ~0.0050, and t survives the full 1e5 iterations near 0.098, leaving
    # the limit products near 0.25/0.37/0.53 at k = 1e3/1e4/1e5.  See the
    # reference-start test below for the same bands holding from the start
    # whose 1/dist^6 intercept matches 196.
    assert slope_rel <= 0.25, detail
    assert in_band, detail


def test_thm71_reference_start_reproduces_fit():
    # start chosen so 1/dist0^6 matches the 196.0 intercept of the reference
    # fit 196.0 + 0.0098 k; slope and late products then fall in the bands
    trace, elapsed, fit, prods = _slow_run_products(0.168)
    slope_rel = abs(fit.slope - 0.0098) / 0.0098
    assert trace.dists[0] ** -6 == pytest.approx(196.0, rel=0.03)
    assert slope_rel <= 0.25
    values = np.array([prods[k] for k in sorted(prods)])
    assert bool(np.all(np.diff(values) > 0))
    for k in (10 ** 4, 10 ** 5):
        assert 0.55 <= prods[k] <= 1.05
    print(f"[reference start] slope={fit.slope:.5f} "
          f"products={[f'{v:.3f}' for v in values]} {elapsed:.1f}s")


def test_criterion_09_eigenvalue_formula_agreement():
    results = suite_prop31(SEEDS[0])
    ok = all(r.passed for r in results)
    report(9, ok, "; ".join(r.detail for r in results))
    assert ok


def test_criterion_10_rank_one_relation_residuals():
    results = suite_thm41(SEEDS[0])
    ok = all(r.passed for r in results)
    report(10, ok, "; ".join(r.detail for r in results))
    assert ok


def test_criterion_11_transverse_gain_bound():
    results = suite_lemma75(SEEDS[0])
    ok = all(r.passed for r in results)
    report(11, ok, "; ".join(r.detail for r in results))
    assert ok


def test_criterion_12_recursion_limit_products():
    rows = run_suite("lemma77", SEEDS[0])
    ok = all(r.passed for r in rows)
    report(12, ok, "; ".join(f"{r.label}: {r.detail}" for r in rows))
    assert ok


@pytest.mark.parametrize("seed", SEEDS)
def test_criterion_13_property_suites(seed):
    rng = np.random.RandomState(seed)

    # projection idempotence / nonexpansiveness / minimality
    for _ in range(25):
        A = sym_matrix(rng.uniform(-2, 2, (3, 3)))
        B = sym_matrix(rng.uniform(-2, 2, (3, 3)))
        PA, _ = project_psd(A)
        PB, _ = project_psd(B)
        assert frob_norm(project_psd(PA)[0] - PA) <= 1e-12 * max(1.0, frob_norm(PA))
        assert frob_norm(PA - PB) <= frob_norm(A - B) + 1e-12
        X = rng.uniform(-1, 1, (3, 3))
        W = sym_matrix(X @ X.T)
        assert frob_norm(A - PA) <= frob_norm(A - W) + 1e-12

    # Fejer monotonicity of every singleton-intersection trace we produce
    traces = [run_ap(get_example("ex3.2").plane,
                     np.array([rng.uniform(-0.3, 0.3)]), 200, 0.0)]
    for _ in range(4):
        spec = random_type2_spec(rng)
        E, _ = build_plane(spec)
        traces.append(run_ap(E, rng.uniform(-0.2, 0.2, 3), 200, 0.0))
    for trace in traces:
        assert np.all(np.diff(trace.dists) <= 1e-12)

    # Pluecker quadratic relations
    for _ in range(5):
        spec = random_type2_spec(rng)
        E, _ = build_plane(spec)
        coords = plucker_coords(E)
        scale = max(1.0, float(np.max(np.abs(coords))) ** 2)
        assert plucker_relation_defect(coords) / scale < 1e-10

    # Newton continuation against the rational curve
    Eo = orthogonalize(build_plane(SPEC44)[0])

    def newton_matrix(t):
        _, p = newton_slowest_point(Eo, t)
        return Eo.point(p)

    order = residual_order_certified(
        newton_matrix, lambda t: curve_point(SPEC44, t).G, 0.1, 2)
    assert order >= 6.5
    report(13, True, f"seed {seed}: projections, Fejer, relations, "
                     f"newton order {order:.2f}")
