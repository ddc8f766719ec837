from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcone.catalog import get_example
from apcone.planes import PlaneSpec, slow_step_constant
from apcone.rates import (fit_geometric, fit_inverse_power, parse_trace_csv,
                          recursive_sequence, slow_rate_constant)
from apcone.verify import _Draws, random_type2_spec
from probes import peak_bytes

SPEC61 = PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0))


class FakeTrace:
    def __init__(self, dists):
        self.dists = np.asarray(dists, dtype=float)


# --- fits ---------------------------------------------------------------------

def test_inverse_power_fit_recovers_synthetic_model():
    a, b, p = 7.5, 0.31, 2
    k = np.arange(0, 5000)
    trace = FakeTrace((a + b * k) ** (-1.0 / p))
    fit = fit_inverse_power(trace, p, (0, 4999))
    assert fit.intercept == pytest.approx(a, abs=1e-9)
    assert fit.slope == pytest.approx(b, abs=1e-9)
    assert fit.rmse < 1e-9


def test_inverse_power_fit_sixth_power():
    a, b = 196.0, 0.0098
    k = np.arange(0, 20000)
    trace = FakeTrace((a + b * k) ** (-1.0 / 6.0))
    fit = fit_inverse_power(trace, 6, (100, 19999))
    assert fit.slope == pytest.approx(b, rel=1e-9)


def test_geometric_fit_recovers_synthetic_model():
    amp, ratio = 0.07, 1.0 / 3.0
    k = np.arange(0, 60)
    trace = FakeTrace(amp * ratio ** k)
    fit = fit_geometric(trace, (5, 30))
    assert fit.ratio == pytest.approx(ratio, abs=1e-12)
    assert fit.amplitude == pytest.approx(amp, rel=1e-9)


def test_fit_lacks_the_other_models_parameters():
    d = 0.5 ** np.arange(20.0)
    power = fit_inverse_power(d, 2, (0, 19))
    geometric = fit_geometric(d, (0, 19))
    for name in ("amplitude", "ratio"):
        with pytest.raises(AttributeError):
            getattr(power, name)
    for name in ("intercept", "slope"):
        with pytest.raises(AttributeError):
            getattr(geometric, name)
    assert geometric.ratio == pytest.approx(0.5, rel=1e-12)
    assert power.window == geometric.window == (0, 19)


def test_fit_window_takes_python_and_numpy_integers():
    d = 0.5 ** np.arange(20.0)
    want = fit_geometric(d, (2, 15))
    for window in [(np.int64(2), np.int32(15)), np.array([2, 15]),
                   [np.intp(2), 15]]:
        fit = fit_geometric(d, window)
        assert fit == want and type(fit.window[0]) is int
        assert fit_inverse_power(d, 2, window) == fit_inverse_power(
            d, 2, (2, 15))


def test_fit_accepts_plain_arrays():
    d = (10.0 + 0.5 * np.arange(100)) ** -0.5
    fit = fit_inverse_power(d, 2, (0, 99))
    assert fit.slope == pytest.approx(0.5, abs=1e-10)


# --- recursion ---------------------------------------------------------------

def test_recursion_q2_product_near_one():
    run = recursive_sequence(C=1.0 / 3.0, K=0.0, q=2, x0=0.1, n=10 ** 6)
    assert 0.99 <= run.product <= 1.01


def test_recursion_q6_product_slow_limit():
    # x0 = 0.1 leaves x0^-6 = 1e6 comparable to 6Ck at n = 1e6, so the
    # product is still far from 1: (0.25e6 / 1.25e6)^(1/6) = 0.7645
    run = recursive_sequence(C=1.0 / 24.0, K=0.0, q=6, x0=0.1, n=10 ** 6)
    assert run.product == pytest.approx((0.25 / 1.25) ** (1.0 / 6.0),
                                        abs=2e-4)
    # from x0 = 0.2 the transient is 16x smaller and the product is within 2%
    run = recursive_sequence(C=1.0 / 24.0, K=0.0, q=6, x0=0.2, n=10 ** 6)
    assert run.product == pytest.approx(1.0, abs=0.02)


def test_recursion_monotone_decrease():
    run = recursive_sequence(C=1.0 / 3.0, K=0.05, q=2, x0=0.1, n=5000,
                             noise="alternating")
    assert run.decreasing


def test_recursion_product_approaches_one():
    prods = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        prods.append(recursive_sequence(C=1.0 / 3.0, K=0.0, q=2, x0=0.1,
                                        n=n).product)
    gaps = [abs(p - 1.0) for p in prods]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_recursion_noise_modes_bracket():
    for n in range(1, 101):
        plus = recursive_sequence(1.0 / 3.0, 0.03, 2, 0.1, n, "plus")
        minus = recursive_sequence(1.0 / 3.0, 0.03, 2, 0.1, n, "minus")
        assert minus.xs[-1] <= plus.xs[-1]


def test_recursion_keeps_only_decade_checkpoints():
    run = recursive_sequence(1.0 / 3.0, 0.0, 2, 0.1, 2500)
    assert run.ks.tolist() == [0, 1, 10, 100, 1000, 2500]
    assert recursive_sequence(1.0 / 3.0, 0.0, 2, 0.1, 1).ks.tolist() == [0, 1]
    assert recursive_sequence(1.0 / 3.0, 0.0, 2, 0.1, 10).ks.tolist() == [
        0, 1, 10]
    for a in (run.ks, run.xs):
        with pytest.raises(ValueError):
            a[0] = 1


def test_recursion_memory_does_not_grow_with_n():
    recursive_sequence(1.0 / 3.0, 0.0, 2, 0.1, 10)    # first-call costs
    peak = peak_bytes(lambda: recursive_sequence(1.0 / 3.0, 0.0, 2, 0.1,
                                                 10 ** 5))
    assert peak < 64 * 1024


# --- recursion against a decimal reference -----------------------------------
#
# In the domain below (q >= 1, C x0^q <= 1/(q+2), K x0 <= C/2) the first
# factor is at least 1/2 and the exact map is contracting in relative
# error, so the rounding errors of the steps add up and are not amplified:
# a step's own error is at most about 4 eps (the worst case at
# C x^q = 1/3, K x = C/2, about 1 eps at small C x^q), the scaled start
# y_1, the scale and the read-out add 2 eps, and every checkpoint x_k is
# within _C_BOUND (k + 2) eps of the exact value.

_EPS = 2.0 ** -52
_C_BOUND = 5.0
# a step whose exact relative decrease (x_k - x_(k+1)) / x_k exceeds
# _MOVES moves the float x; one whose decrease is below _STUCK cannot.  In
# between, the rounding of the float x and of x^(q+1) decides.
_MOVES, _STUCK = 2.0 ** -50, 2.0 ** -56


def _decimal_recursion(C, K, q, x0, n, noise):
    """x_0..x_n of the recursion in 40-digit decimal arithmetic from the
    exact values of the float arguments (q an int or a float), and the
    exact relative decrease of each step."""
    with localcontext() as ctx:
        ctx.prec = 40
        C, K, x = Decimal(C), Decimal(K), Decimal(x0)
        q = q if isinstance(q, int) else Decimal(q)
        xs, drops = [x], []
        for k in range(n):
            minus = noise == "minus" or (noise == "alternating" and k % 2)
            xq = x ** q
            drop = C * xq + (K if minus else -K) * xq * x
            x *= 1 - drop
            xs.append(x)
            drops.append(drop)
    return xs, drops


def _assert_decreasing_as_the_steps_decide(run, drops):
    if min(drops) > _MOVES:
        assert run.decreasing
    if min(drops) < _STUCK:
        assert not run.decreasing


def _assert_near_reference(run, reference, C, q):
    """``run``, of n steps, against ``reference``, the decimal recursion of
    its arguments through at least step n: its checkpoints within the
    bound, its product equal to the limit product of its own last
    checkpoint, and ``decreasing`` as the exact decreases decide it."""
    xs, drops = reference
    n = int(run.ks[-1])
    for k, x in zip(run.ks.tolist(), run.xs.tolist()):
        assert abs(Decimal(x) / xs[k] - 1) <= _C_BOUND * (k + 2) * _EPS, k
    with localcontext() as ctx:
        ctx.prec = 40
        want = ((Decimal(q) * Decimal(C) * n) ** (1 / Decimal(q))
                * Decimal(run.xs[-1].item()))
        # the float roots n^(1/q), q^(1/q) and 1/q each add about an ulp
        assert abs(Decimal(run.product) / want - 1) <= 8 * _EPS
    _assert_decreasing_as_the_steps_decide(run, drops[:n])


@pytest.mark.parametrize("mode", [0, 1, 2])
@pytest.mark.parametrize("C,K,q,x0", [(1.0 / 3.0, 0.0, 2, 0.1),
                                      (1.0 / 24.0, 0.0, 6, 0.2),
                                      (1.0 / 3.0, 0.03, 2, 0.1),
                                      (1.0 / 24.0, 0.002, 6, 0.2)])
def test_recursion_matches_decimal_reference_at_suite_parameters(
        C, K, q, x0, mode):
    # lemma77's two runs and noisy ones beside them, each n up to 1000 as
    # the last step, and 20000
    noise = ("plus", "minus", "alternating")[mode]
    reference = _decimal_recursion(C, K, q, x0, 20000, noise)
    for n in [*range(1, 1001), 20000]:
        _assert_near_reference(recursive_sequence(C, K, q, x0, n, noise),
                               reference, C, q)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(q=st.sampled_from([1, 2, 6, 1.5]),
       x0=st.floats(0.01, 2.0),
       first=st.floats(-20.0, 0.0),
       k_share=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       n=st.integers(1, 2000),
       noise=st.sampled_from(["plus", "minus", "alternating"]))
def test_recursion_checkpoints_and_decrease_match_decimal_reference(
        q, x0, first, k_share, n, noise):
    # C x0^q runs from 1e-20, where no step moves x, up to 1 / (q + 2), and
    # K x0 up to C / 2: there the map contracts the relative error
    C = 10.0 ** first / (q + 2) / x0 ** q
    K = k_share * C / (2.0 * x0)
    if isinstance(q, float):    # a decimal power is slow: fewer steps
        n = n % 150 + 1
    _assert_near_reference(recursive_sequence(C, K, q, x0, n, noise),
                           _decimal_recursion(C, K, q, x0, n, noise), C, q)


# At q = 2^52 one step that moves x cuts C x^q by orders of magnitude, so
# runs whose steps move and stick in a set order are easy to build: from
# x0 = 1 - 66 * 2^-53 with C = 1, C x0^q = e^-33 and a step moves x; after
# it C x^q < e^-54 and no step can, nor any from 1 - 200 * 2^-53, where
# C x0^q = e^-100.  K_EDGE puts K x0 2^-30 below the hypothesis' bound
# C (q+1)/(q+2), so a + step decreases x by about 2^-30 C x^q and cannot
# move it, and a - step by 2 C x^q.
_STEEP_Q = 2 ** 52
_MOVING_X0, _STUCK_X0 = 1.0 - 66 * 2.0 ** -53, 1.0 - 200 * 2.0 ** -53
_K_EDGE = (_STEEP_Q + 1) / ((_STEEP_Q + 2) * _MOVING_X0) * (1.0 - 2.0 ** -30)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100])
@pytest.mark.parametrize("x0, K, noise, moving", [
    *[(_MOVING_X0, 0.0, noise, {1})
      for noise in ("plus", "minus", "alternating")],
    (_STUCK_X0, 0.0, "plus", set()),
    (_MOVING_X0, _K_EDGE, "minus", {1}), (_MOVING_X0, _K_EDGE, "plus", set()),
    (_MOVING_X0, _K_EDGE, "alternating", {2})])
def test_recursion_decreasing_reads_every_step(x0, K, noise, moving, n):
    run = recursive_sequence(1.0, K, _STEEP_Q, x0, n, noise)
    _, drops = _decimal_recursion(1.0, K, _STEEP_Q, x0, n, noise)
    # step k moves x for k in moving and cannot for every other k
    assert all(drop > _MOVES if k in moving else drop < _STUCK
               for k, drop in enumerate(drops, 1))
    assert run.decreasing == (set(range(1, n + 1)) <= moving)
    _assert_decreasing_as_the_steps_decide(run, drops)


# --- limit-law constant ----------------------------------------------------------

def test_slow_rate_constant_moment_instance():
    const = slow_rate_constant(SPEC61)
    assert const == pytest.approx((1.0 / 864.0) ** (1.0 / 6.0), rel=1e-14)
    assert const == pytest.approx(0.3240269, abs=1e-6)
    assert 1.0 / const == pytest.approx(3.086, abs=2e-3)


def test_slow_rate_constant_c1_zero():
    const = slow_rate_constant(PlaneSpec("type2", (0.0, 0.0, 0.0, 1.0, 0.0)))
    assert const == pytest.approx((3.0 / 32.0) ** (1.0 / 6.0), rel=1e-14)
    assert const == pytest.approx(0.674003, abs=1e-5)


def test_slow_rate_constant_ignores_other_parameters():
    base = slow_rate_constant(SPEC61)
    other = slow_rate_constant(PlaneSpec("type2", (1.0, -0.7, 0.4, 1.0, 0.9)))
    assert other == base


_LAW_SPECS = st.sampled_from([SPEC61, get_example("ex4.4").spec]) | st.builds(
    lambda seed, mild: random_type2_spec(_Draws(seed), mild),
    st.integers(0, 2 ** 32 - 1), st.booleans())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(spec=_LAW_SPECS, start=st.floats(0.05, 0.9), K=st.floats(0.0, 0.1),
       n=st.integers(1, 3000))
def test_the_pieces_of_the_slow_rate_law_agree(spec, start, K, n):
    # the step constant c, the limit-law constant and the recursion's
    # products are one law: t_k ~ (6 c k)^(-1/6) and dist_k ~ ||B1|| t_k
    c, nb1 = slow_step_constant(spec), 4.0 * spec.c[0] ** 2 + 2.0
    assert slow_rate_constant(spec) ** 6 * nb1 ** 3 == pytest.approx(
        6.0 * c, rel=1e-14, abs=0.0)
    # a start with c x0^6 = start^6 < 1 and a K small enough for the
    # decrease hypothesis, whatever the size of c
    x0 = start * c ** (-1.0 / 6.0)
    run = recursive_sequence(c, K * c / x0, 6, x0, n)
    assert run.product == run.products[-1]
    law = [(6.0 * c) ** (1.0 / 6.0) * k ** (1.0 / 6.0) * x
           for k, x in zip(run.ks.tolist(), run.xs.tolist())]
    assert run.products.tolist() == pytest.approx(law, rel=1e-14, abs=0.0)


# --- CSV ---------------------------------------------------------------------

def test_parse_trace_csv_skips_comments():
    text = ("# produced by a run\n"
            "k,dist,psd_rank,inv2,inv6\n"
            "0,0.5,1,4,64\n"
            "# interjected comment\n"
            "1,0.25,1,16,4096\n")
    cols = parse_trace_csv(text)
    assert list(cols) == ["k", "dist", "psd_rank", "inv2", "inv6"]
    assert np.array_equal(cols["dist"], [0.5, 0.25])
    assert np.array_equal(cols["k"], [0, 1])
