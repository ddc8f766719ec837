"""The library's input contract: ``LIBRARY_CONTRACT`` holds one row per bad
input (id, function, arguments, exact exception type, whole message), each
run with warnings as errors.  On generated arguments every call returns
finite output or raises an error that a row lists, with its message."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcone.apengine import (RankOneError, eigenvalue_formula_step, m_matrix,
                             psi, rank_one_step_residual, run_ap)
from apcone.catalog import get_example
from apcone.planes import (PlaneSpec, U_STAR, build_plane, plucker_coords,
                           slow_step_constant)
from apcone.rates import (fit_geometric, fit_inverse_power,
                          recursive_sequence, slow_rate_constant)
from apcone.series import (TruncSeries, ZeroConstantTermError, det_series,
                           expand_curve)
from apcone.slowcurve import (ChartError, ResidualNoiseError,
                              VanishingDenominatorError, ap_image_formula,
                              curve_point, newton_slowest_point,
                              perturb_gain, psd_projection_formula,
                              residual_order_certified, tube_check,
                              valid_t_max)
from apcone.symcore import (AffineSubspace, DependentBasisError,
                            EigenSolverError, orthogonalize)
from apcone.verify import run_suite

C61, C1 = (1, 0, 0, 1, 0), (1, 0, 0, 0, 1, 0, 0, 2)
SPEC61 = PlaneSpec("type2", C61)
DEGREE1 = PlaneSpec("type2", (1, 0, 0, 0, 1))    # c4 = 0
TYPE1 = PlaneSpec("type1", C1, mu=0.5)
E61 = build_plane(SPEC61)[0]
E61_ORTHO = orthogonalize(E61)
NAN, INF = math.nan, math.inf
Z3 = np.zeros(3)
X12 = TruncSeries.x(12)
NO_CURVE = "the slowest curve needs a type2 plane with c4 != 0"
NO_FLOAT_CURVE = ("the slowest curve's constants are not finite nonzero "
                  "floats on this plane")
FINITE_T = "the curve parameter t must be finite"
OVERFLOW = "the curve formulas overflow at this t"
FIRST_FACTOR = "the first factor 1 - C x0^q - K x0^(q+1) must be positive"
OFFSET = "initial transverse offset must satisfy ||beta C2 + gamma C3|| < eps"
CHART_PLANE = "the rank-1 chart needs a 3-plane in S^3"
LINE32, PLANE34 = (get_example(ex).plane for ex in ("ex3.2", "ex3.4"))
CURVE_FUNCS = (curve_point, psd_projection_formula, ap_image_formula)
E44_ORTHO = orthogonalize(get_example("ex4.4").plane)
# type2 c on which a constant of the curve's record is not a finite float
# (a power of c4, ||B1||^2 or c5 overflows, or a divisor underflows to 0)
NO_FLOAT_C = {"c4=1e-200": (0.3, 0.2, 0.1, 1e-200, 0.4),
              "c4=1e-80": (0.3, 0.2, 0.1, 1e-80, 0.4),
              "c4=1e77": (0.3, 0.2, 0.1, 1e77, 0.4),
              "c4=1e300": (0.3, 0.2, 0.1, 1e300, 0.4),
              "c1=1e150": (1e150, 0.2, 0.1, 1.0, 0.4),
              "c1=1e308": (1e308, 0.2, 0.1, 1.0, 0.4),
              "c5=1e160": (0.3, 0.2, 0.1, 1.0, 1e160),
              # c4^6 ||B1||^2 is a float, 16 c4^6 ||B1||^2 overflows
              "c4=10^51.2": (0.5, 0.5, 0.0, 10 ** 51.2, 0.0)}
# type2 c with 16 c4^6 ||B1||^2 below 1e-300, which the curve divides a
# series by, and 2 c4 w + 2 c5 t vanishing at t = 0
TINY_C4 = ((0.0, -0.596, 7.8e-52, 7.8e-52, 1.9e36),
           (5e-324, -0.88, -0.19, -2.8e-51, -2.8e-51))
# a c2 so large that the type2 basis loses rank in floats
HUGE_C2 = PlaneSpec("type2", (0.3, 1e300, 0.1, 1.0, 0.4))
# f, g for residual_order_certified: |f - g| = 1e-18 t sqrt(3)
NOISE = (lambda t: np.eye(3), lambda t: np.eye(3) * (1.0 + 1e-18 * t))

# (id, function, arguments, exception type, message)
LIBRARY_CONTRACT = [
    # counts: max_iter, steps, n and a series power must be integers >= 1
    *[(f"run_ap max_iter={v!r}", run_ap, (E61, Z3, v, 0.0), ValueError,
       "max_iter must be an integer >= 1") for v in (0, 2.5, NAN, True)],
    *[(f"tube_check t0={t0} steps=0", tube_check, (SPEC61, t0, 0, 0, 0, 1.0),
       ValueError, "steps must be an integer >= 1") for t0 in (0.0, 0.1)],
    *[(f"recursive_sequence n={n!r}", recursive_sequence, (0.1, 0, 2, 0.5, n),
       ValueError, "n must be an integer >= 1") for n in (0, 2.5)],
    *[(f"TruncSeries power {k!r}", X12.__pow__, (k,), ValueError,
       "exponent must be an integer >= 1") for k in (0, 2.5)],
    # run_ap's other arguments
    *[(f"run_ap tol={v!r}", run_ap, (E61, Z3, 10, v), ValueError,
       "tol must be >= 0") for v in (-1.0, NAN)],
    *[(f"run_ap tol={v!r}", run_ap, (E61, Z3, 10, v), ValueError,
       "tol must be a number >= 0") for v in ("x", None, True, [0.0])],
    ("run_ap start of 2", run_ap, (E61, np.zeros(2), 10, 0.0), ValueError,
     "expected 3 coefficients"),
    *[(f"run_ap start {bad}", run_ap, (E61, [0.1, bad, 0.0], 10, 0.0),
       EigenSolverError, "starting point has non-finite entries")
      for bad in (NAN, INF, -INF)],
    ("run_ap start 1e308", run_ap, (E61, [1e308] * 3, 10, 0.0), ValueError,
     "the start is too large: its matrix overflows"),
    ("run_ap start 1e160", run_ap, (E61, [1e160, 0, 0], 10, 0.0), ValueError,
     "the start is too far from the target: its squared distance overflows"),
    ("run_ap target 2x2", run_ap, (E61, Z3, 3, 0.0, np.eye(2)), ValueError,
     "dimension mismatch"),
    # the parameter-space formulas
    ("eigenvalue_formula_step basis not orthogonal", eigenvalue_formula_step,
     (build_plane(PlaneSpec("type2", (0.5, 0.3, -0.2, 1, 0.4)))[0], Z3),
     ValueError, "operation needs a pairwise-orthogonal basis; call "
     "symcore.orthogonalize first"),
    ("eigenvalue_formula_step p of 2", eigenvalue_formula_step,
     (E61_ORTHO, np.zeros(2)), ValueError, "expected 3 coefficients"),
    *[(f"eigenvalue_formula_step p {p}", eigenvalue_formula_step,
       (E61_ORTHO, p), EigenSolverError, "matrix has non-finite entries")
      for p in ([0.1, NAN, 0.0], [INF, 0.0, 0.0])],
    ("rank_one_step_residual p inf", rank_one_step_residual,
     (E61_ORTHO, [INF, 0, 0]), EigenSolverError,
     "matrix has non-finite entries"),
    ("rank_one_step_residual rank 2", rank_one_step_residual,
     (E61_ORTHO, [2.5, 1.0, 1.5]), RankOneError,
     "PSD projection has rank 2, expected 1"),
    # the rank-1 chart couples to 3-planes in S^3 only: ex3.2 is a line in
    # S^3, ex3.4 a 2-plane in S^4
    ("m_matrix on ex3.2", m_matrix, (LINE32, [1.0, 0.0, 0.0]), ValueError,
     CHART_PLANE),
    *[(f"newton_slowest_point on {name}", newton_slowest_point, (E, 0.05),
       ValueError, CHART_PLANE)
      for name, E in (("ex3.2", LINE32), ("ex3.4", PLANE34))],
    *[(f"newton_slowest_point t={t!r}", newton_slowest_point, (E44_ORTHO, t),
       ValueError, FINITE_T) for t in (NAN, INF, "0.1", True)],
    # the start's psi(x) overflows
    ("newton_slowest_point t=1e200", newton_slowest_point, (E44_ORTHO, 1e200),
     EigenSolverError, "matrix has non-finite entries"),
    *[(f"psi {x}", psi, (x,), ValueError, message) for x, message in [
        ([0.0, 1.0, 0.0], "psi requires x1 != 0"),
        ([0.0, 0.2, -0.3], "psi requires x1 != 0"),
        ([1.0, 0.2], "x must be a 3-vector")]],
    # plane specs: (kind, c, theta, reflect, mu)
    *[(f"PlaneSpec {name}", PlaneSpec, args, ValueError, message)
      for name, args, message in [
          ("type2 c of 3", ("type2", (1, 2, 3)),
           "type2 takes parameters c1..c5"),
          ("type1 c of 5", ("type1", C61, 0, False, 0.5),
           "type1 takes parameters c1..c8"),
          ("type1 A2 = 0", ("type1", (0,) * 8, 0, False, 1.0),
           "type1 requires a nonzero second constraint"),
          ("type1 mu=-1.0", ("type1", C1, 0, False, -1.0),
           "type1 requires mu > 0"),
          ("type1 mu=None", ("type1", C1), "type1 requires mu > 0"),
          ("type2 mu=1", ("type2", C61, 0, False, 1.0),
           "mu is a type1 parameter"),
          ("type3", ("type3", (1, 2, 3, 4, 5)), "unknown plane kind 'type3'"),
          *[(f"c={c!r}", ("type2", c), "plane field 'c' must list finite "
             "numbers") for c in (5, "10010", [1, 0, "x", 1, 0],
                                  [1, 0, NAN, 1, 0], [1, 0, True, 1, 0])],
          *[(f"theta={v!r}", ("type2", C61, v), "plane field 'theta' must be "
             "a finite number") for v in (NAN, -INF, "0", True)],
          *[(f"mu={v!r}", ("type1", C1, 0, False, v), "plane field 'mu' must "
             "be a finite number") for v in ("x", INF, "1")],
          *[(f"reflect={v!r}", ("type2", C61, 0, v), "plane field 'reflect' "
             "must be true or false") for v in ("false", 1)]]],
    ("plucker_coords of a 2-plane", plucker_coords,
     (AffineSubspace.from_basis(U_STAR, E61.basis[:2]),), ValueError,
     "Pluecker coordinates need a 3-plane in S^3"),
    ("AffineSubspace 2x2 basis at a 3x3 anchor", AffineSubspace.from_basis,
     (U_STAR, [np.eye(2)]), ValueError, "basis dimension does not match "
     "anchor"),
    # a basis that is not a stack of matrices, or whose squared norms
    # leave the normal floats
    *[(f"AffineSubspace basis {name}", AffineSubspace.from_basis,
       (U_STAR, basis), ValueError, message) for name, basis, message in [
           ("one 3x3 matrix", E61.basis[0], "basis must be a stack of shape "
            "(m, 3, 3) with m >= 1, got shape (3, 3)"),
           ("1.0", 1.0, "basis must be a stack of shape (m, 3, 3) with "
            "m >= 1, got shape ()"),
           ("1e200 x ex6.1's", 1e200 * E61.basis,
            "the basis is too large: its Gram matrix overflows"),
           ("1e-170 x ex6.1's", 1e-170 * E61.basis,
            "the basis is too small: its Gram matrix underflows")]],
    # R is 1 x 2, so its diagonal alone does not show the dependence
    ("AffineSubspace two 1x1 matrices", AffineSubspace.from_basis,
     ([[1.0]], [[[1.0]], [[2.0]]]), DependentBasisError,
     "basis matrices are linearly dependent"),
    # the slowest curve exists on type2 planes with c4 != 0 only
    *[(f"{func.__name__} {case}", func, (spec, *args), ValueError, NO_CURVE)
      for func, args in [*((f, (0.01,)) for f in CURVE_FUNCS),
                         (tube_check, (0.1, 0.0, 0.0, 5, 1.0)),
                         (slow_rate_constant, ()), (slow_step_constant, ()),
                         (expand_curve, ()),
                         (valid_t_max, ()), (perturb_gain, ())]
      for case, spec in [("type1", TYPE1), ("c4=0", DEGREE1),
                         ("no spec", None)]],
    # ... and its constants must be floats the formulas can divide by
    *[(f"{func.__name__} {case}", func, (PlaneSpec("type2", c), *args),
       ValueError, NO_FLOAT_CURVE)
      for func, args in [*((f, (0.01,)) for f in CURVE_FUNCS),
                         (tube_check, (0.1, 0.0, 0.0, 5, 1.0)),
                         (slow_rate_constant, ()), (slow_step_constant, ()),
                         (expand_curve, ()), (det_series, ()),
                         (valid_t_max, ()), (perturb_gain, ())]
      for case, c in NO_FLOAT_C.items()],
    *[(f"{func.__name__} c2=1e300", func, (HUGE_C2, *args),
       DependentBasisError, "basis matrices are linearly dependent")
      for func, args in [(build_plane, ()), (perturb_gain, ()),
                         (tube_check, (0.1, 0.0, 0.0, 5, 1.0))]],
    # the basis entry 2 c2 overflows to inf
    ("perturb_gain c2=1e308", perturb_gain,
     (PlaneSpec("type2", (0, 1e308, 0, 1, 0)),), ValueError,
     "matrix has non-finite entries"),
    # the curve parameter t
    *[(f"{func.__name__} t={t!r}", func, (SPEC61, t), ValueError, FINITE_T)
      for func in CURVE_FUNCS for t in (NAN, INF, -INF, "0.1", True, None)],
    *[(f"tube_check t0={t0!r}", tube_check, (SPEC61, t0, 0, 0, 5, 1.0),
       ValueError, FINITE_T) for t0 in (NAN, "0.1", False)],
    *[(f"{func.__name__} t=1e300", func, (SPEC61, 1e300), OverflowError,
       OVERFLOW) for func in CURVE_FUNCS],
    ("curve_point c2=1e300 t=1e10", curve_point, (HUGE_C2, 1e10),
     OverflowError, OVERFLOW),
    # the series rule: G's coefficients overflow to NaN
    *[(f"{func.__name__} c=(0, 1e100, 0, 1, 0)", func,
       (PlaneSpec("type2", (0, 1e100, 0, 1, 0)),), OverflowError, OVERFLOW)
      for func in (expand_curve, det_series)],
    # a series divided by a tiny number: the denominator rule decides
    *[(f"{func.__name__} c={c}", func, (PlaneSpec("type2", c),),
       VanishingDenominatorError, "a curve denominator vanished")
      for func in (expand_curve, det_series) for c in TINY_C4],
    # ex6.1's w = 1 - 2t: its denominators vanish at t = 0.5
    ("curve_point t=0.5", curve_point, (SPEC61, 0.5),
     VanishingDenominatorError, "a curve denominator vanished"),
    ("curve_point t=0.5+1e-13", curve_point, (SPEC61, 0.5 + 1e-13),
     VanishingDenominatorError, "a curve denominator vanished"),
    ("tube_check t0=1e8", tube_check, (SPEC61, 1e8, 0, 0, 5, 1.0), ChartError,
     "could not recover the curve parameter"),
    *[(f"tube_check {name}", tube_check, (SPEC61, 0.1, *args, 10, eps),
       ValueError, OFFSET) for name, args, eps in [
           ("beta=1", (1.0, 0.0), 1e-3), ("beta=nan", (NAN, 0.0), 1e-3),
           ("eps=nan", (0.0, 0.0), NAN), ("beta='0'", ("0", 0.0), 1.0),
           ("gamma=None", (0.0, None), 1.0), ("eps=True", (0.0, 0.0), True)]],
    *[(f"residual_order_certified t0={t0!r}", residual_order_certified,
       (*NOISE, t0, 3), ValueError, "t0 must be positive")
      for t0 in (0.0, NAN, "x")],
    *[(f"residual_order_certified halvings={h!r}", residual_order_certified,
       (*NOISE, 0.1, h), ValueError, "halvings must be an integer >= 2")
      for h in (1, 2.5, NAN, True)],
    # 2e-19 at t0 / 8 = 0.0125 is noise
    ("residual_order_certified noise", residual_order_certified,
     (*NOISE, 0.1, 3), ResidualNoiseError,
     "the deepest ladder point is below the noise floor"),
    *[(f"residual_order_certified f={v!r}", residual_order_certified,
       (lambda t, v=v: np.full((3, 3), v), NOISE[0], 0.1, 2), ValueError,
       "f - g is not finite at a ladder point") for v in (NAN, INF)],
    # series
    ("det_series cap=10", det_series, (SPEC61, 10), ValueError,
     "det_series needs cap >= 11"),
    ("TruncSeries division by t", (1.0 + 0 * X12).__truediv__, (X12,),
     ZeroConstantTermError, "division by a series with zero constant term"),
    ("TruncSeries division by 0.0", X12.__truediv__, (0.0,),
     ZeroDivisionError, "division of a series by zero"),
    ("TruncSeries compose 0.5 + t", (1.0 + X12).compose, (0.5 + X12,),
     ValueError, "composition needs zero inner constant term"),
    ("TruncSeries sum of caps 12 and 8", X12.__add__, (TruncSeries.x(8),),
     ValueError, "cap mismatch"),
    # rate fits and the slow-rate recursion: (C, K, q, x0, n, noise)
    *[(f"fit_geometric window {w}", fit_geometric,
       (np.linspace(1.0, 0.5, 10), w), ValueError,
       f"window {w} outside trace of length 10") for w in ((5, 20), (7, 3))],
    *[(f"fit_inverse_power p={p!r}", fit_inverse_power,
       (np.linspace(1.0, 0.5, 10), p, (0, 3)), ValueError,
       "p must be a finite number") for p in ("6", NAN, INF, True)],
    *[(f"{fit.__name__} window {w}", fit, (np.linspace(1.0, 0.5, 10), *p, w),
       ValueError, f"window {w} must be a pair of integers")
      for fit, p in ((fit_geometric, ()), (fit_inverse_power, (2,)))
      for w in ((0.5, 3.7), (0, 3.0), (True, 3))],
    ("fit_geometric zero distance", fit_geometric,
     ([1.0, 0.5, 0.0, 0.25], (0, 3)), ValueError,
     "distances must be positive on the fit window"),
    # dist^-6 overflows at 1e-60 and its square at 1e-30
    *[(f"fit_inverse_power dist={tiny}", fit_inverse_power,
       ([1.0, tiny, tiny / 2], 6, (0, 2)), ValueError,
       "dist^-6 or its square overflows on the fit window")
      for tiny in (1e-60, 1e-30)],
    *[(f"recursive_sequence {name}", recursive_sequence, args, ValueError,
       message) for name, args, message in [
        ("K=10", (0.1, 10.0, 2, 0.5, 10),
         "hypothesis (q+1) C - (q+2) K x0 > 0 violated"),
        *[(f"x0={x0!r}", (0.1, 0, 2, x0, 10), "x0 must be positive")
          for x0 in (-0.5, NAN, None, "0.5")],
        *[(f"q={q!r}", (0.5, 0, q, 0.5, 10), "q must be positive")
          for q in (0, -0.5, NAN, "2", True)],
        *[(f"C={C!r} K={K!r}", (C, K, 2, 0.5, 10),
           "C must be positive and K nonnegative")
          for C, K in ((0.0, 0.0), (NAN, 0.0), (0.1, -1.0), ("1", 0.0),
                       (True, 0.0), (0.1, "0"), (0.1, None))],
        ("noise=bogus", (0.1, 0, 2, 0.5, 10, "bogus"),
         "noise must be one of ['alternating', 'minus', 'plus']"),
        ("x0=1e160", (0.99999, 0, 1.4, 1e160, 3), "x0^(q+1) overflows"),
        # (q C)^(1/q) underflows to 0 and n^(1/q) overflows
        ("q=1/512", (0.5, 0, 1 / 512, 1.0, 4),
         "the limit product (q C)^(1/q) n^(1/q) x_n overflows"),
        *[(f"first factor C={C} K={K} x0={x0} n={n}", (C, K, 2, x0, n),
           FIRST_FACTOR)
          for C, K, x0 in ((1.0, 0.0, 2.0), (1.0, 0.0, 1.0), (0.5, 0.2, 1.2))
          for n in (5, 10 ** 4)],
        # the loop runs in y = C^(1/q) x: C^(1/q) subnormal; C^(1/q) = 1e320
        # overflows; C^(1/q) = 1 but C^(1/q) x_1 subnormal; q below 1/16
        *[(f"scaled C={C} q={q} x0={x0}", (C, 0, q, x0, 3),
           "the scaled recursion needs q >= 1/16 and normal floats "
           "C^(1/q) and C^(1/q) x_1")
          for C, q, x0 in ((1e-320, 1, 0.5), (1e160, 0.5, 5e-324),
                           (1.0, 2, 1e-310), (0.5, 0.05, 0.5))]]],
    # a verify suite's seed: an integer in [0, 2**32 - 1], a bool is none
    *[(f"run_suite seed={seed!r}", run_suite, ("lemma77", seed), ValueError,
       "Seed must be between 0 and 2**32 - 1") for seed in (True, 1.0, -1)],
    # str() of a KeyError is the repr of its message
    ("run_suite unknown name", run_suite, ("thm99",), KeyError,
     "\"unknown suite 'thm99'; known: prop31, thm41, thm62, thm63, lemma64, "
     "lemma67, lemma75, prop76, lemma77, plucker\""),
]


@pytest.mark.parametrize("func, args, kind, message",
                         [row[1:] for row in LIBRARY_CONTRACT],
                         ids=[row[0] for row in LIBRARY_CONTRACT])
def test_library_contract(func, args, kind, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as raised:
            func(*args)
    assert type(raised.value) is kind
    assert str(raised.value) == message


# --- the contract on generated input ---------------------------------------------

_LISTED = {(kind, message) for *_, kind, message in LIBRARY_CONTRACT}
_ODD = st.floats() | st.sampled_from(
    [1e308, -1e308, 1e160, 1e44, 1e16, 1e-320, 5e-324, -0.0, 0, -2, 2.5,
     True])
_COUNTS = st.integers(1, 12)
_SPECS = st.sampled_from([SPEC61, PlaneSpec("type2", (0, 0, 1, 1, 0)),
                          PlaneSpec("type2", C61, 0.7, True), DEGREE1, TYPE1])
_NOT_NUMBERS = st.sampled_from([None, "1", "x", [1.0], True, False])


def _one_odd(*valid, odd=_ODD):
    """Arguments drawn from the strategies ``valid``, one of them (or
    none) replaced by a draw of ``odd``, an odd number by default, so that
    odd values reach the work as well as the checks before it."""
    return st.tuples(st.tuples(*valid), st.integers(0, len(valid)),
                     odd).map(lambda a: tuple(
                         a[2] if i == a[1] else v for i, v in enumerate(a[0])))


def _curve_matrix(spec, t):
    return curve_point(spec, t).G


def _dists(*args):
    return run_ap(E61, *args).dists


def _recursion(*args):
    run = recursive_sequence(*args)
    return [*run.xs, run.product]


def _spec_numbers(fields):
    spec = PlaneSpec(**fields)
    return [*spec.c, spec.theta]


def _gain(spec):
    gain = perturb_gain(spec)
    return [*gain.matrix.ravel(), gain.spectral_norm]


def _expansion(spec):
    return [s.coeffs for s in expand_curve(spec)]


def _on_plane(func):
    """``func`` called with the type2 plane of its first argument, a c."""
    return lambda c, *args: func(PlaneSpec("type2", c), *args)


_ODD_OR_NOT_NUMBER = _ODD | _NOT_NUMBERS
_CURVE_ARGS = _one_odd(_SPECS, st.floats(-0.3, 0.3), odd=_ODD_OR_NOT_NUMBER)
# a type2 c with one entry odd, c4 also from the values whose powers leave
# the floats or come close
_ODD_C = _one_odd(*[st.floats(-2.0, 2.0)] * 3, st.floats(-2.0, 2.0)
                  | st.sampled_from([1e-200, 1e-80, 1e-9, 1e77, 1e300]),
                  st.floats(-2.0, 2.0))
# (function, strategy of its argument tuple); each returns the numbers
# that must be finite
_GENERATED = [
    (_curve_matrix, _CURVE_ARGS),
    (psd_projection_formula, _CURVE_ARGS),
    (ap_image_formula, _CURVE_ARGS),
    *[(_on_plane(func), st.tuples(_ODD_C, st.floats(-0.3, 0.3)))
      for func in (_curve_matrix, psd_projection_formula, ap_image_formula)],
    *[(_on_plane(func), st.tuples(_ODD_C))
      for func in (slow_step_constant, slow_rate_constant, valid_t_max,
                   _gain, _expansion)],
    (tube_check, _one_odd(st.just(SPEC61), st.floats(0.0, 0.15),
                          st.floats(-0.05, 0.05), st.floats(-0.05, 0.05),
                          _COUNTS, st.floats(0.5, 2.0),
                          odd=_ODD_OR_NOT_NUMBER)),
    (_dists, _one_odd(
        st.lists(st.floats(-0.5, 0.5) | _ODD, min_size=3, max_size=3)
        | st.lists(st.floats(-0.5, 0.5), max_size=4),
        _COUNTS, st.floats(0.0, 1e-3))),
    (_recursion, _one_odd(
        st.floats(0.01, 1.0), st.floats(0.0, 0.1), st.floats(0.5, 6.0),
        st.floats(0.01, 0.5), _COUNTS,
        st.sampled_from(["plus", "minus", "alternating"]),
        odd=_ODD_OR_NOT_NUMBER)),
    (_spec_numbers, st.tuples(st.fixed_dictionaries(
        {"kind": st.sampled_from(["type1", "type2", "type2", "type3"]),
         "c": st.lists(st.floats(-2.0, 2.0) | _ODD, min_size=5, max_size=5)
         | st.lists(st.floats(-2.0, 2.0) | _ODD, min_size=8, max_size=8)
         | st.sampled_from([5, "10010", [1, 0, "x", 1, 0], [1, 0, 0]])},
        optional={"theta": st.floats(-3.0, 3.0) | _ODD | _NOT_NUMBERS,
                  "mu": st.floats(0.1, 2.0) | _ODD | _NOT_NUMBERS,
                  "reflect": st.booleans() | _NOT_NUMBERS}))),
]


@settings(derandomize=True, max_examples=600, deadline=None)
@given(call=st.one_of(st.tuples(st.just(func), args)
                      for func, args in _GENERATED))
def test_library_contract_on_generated_input(call):
    func, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = func(*args)
        except Exception as exc:
            assert (type(exc), str(exc)) in _LISTED, repr(exc)
            return
    assert np.isfinite(np.asarray(out, dtype=float)).all()
