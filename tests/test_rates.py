import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apcone.planes import PlaneSpec
from apcone.rates import (fit_geometric, fit_inverse_power, parse_trace_csv,
                          recursive_sequence, slow_rate_constant)
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


def _reference_recurrence(C, K, q, x0, n, mode):
    """The recursion with the sign chosen inside the loop, step by step."""
    xs = np.empty(n + 1)
    xs[0] = x0
    x = x0
    for k in range(n):
        xq = x ** q
        sign = 1.0
        if mode == 1 or (mode == 2 and k % 2 == 1):
            sign = -1.0
        x = x * (1.0 - C * xq + sign * K * xq * x)
        xs[k + 1] = x
    return xs


def _assert_matches_reference(run, C, K, q, x0, n, want):
    """``run`` is recursive_sequence(C, K, q, x0, n) and ``want`` the
    reference sequence through at least step n."""
    want = want[:n + 1]
    assert run.ks[-1] == n
    assert np.array_equal(run.xs.view(np.int64),
                          want[run.ks].view(np.int64))
    q = float(q)
    assert run.product == (q * C) ** (1.0 / q) * n ** (1.0 / q) * want[n]
    assert run.decreasing == bool(np.all(np.diff(want) < 0.0))


@pytest.mark.parametrize("mode", [0, 1, 2])
@pytest.mark.parametrize("C,K,q,x0", [(1.0 / 3.0, 0.0, 2, 0.1),
                                      (1.0 / 24.0, 0.0, 6, 0.2),
                                      (1.0 / 3.0, 0.03, 2, 0.1),
                                      (1.0 / 24.0, 0.002, 6, 0.2)])
def test_recurrence_kernel_matches_reference_bitwise(C, K, q, x0, mode):
    noise = ("plus", "minus", "alternating")[mode]
    want = _reference_recurrence(C, K, q, x0, 20000, mode)
    for n in [*range(1, 1001), 20000]:
        _assert_matches_reference(recursive_sequence(C, K, q, x0, n, noise),
                                  C, K, q, x0, n, want)


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([2, 6]),
       x0=st.floats(0.01, 2.0),
       log_first=st.floats(-20.0, -0.005),
       k_share=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
       n=st.integers(1, 2000),
       mode=st.sampled_from([0, 1, 2]))
def test_recursion_checkpoints_and_decrease_match_reference(
        q, x0, log_first, k_share, n, mode):
    # C x0^q = 10^log_first, below 1e-16 a factor that rounds to 1 and an x
    # that never decreases; K takes a share of what both hypotheses leave it
    first = 10.0 ** log_first
    C = first / x0 ** q
    K = k_share * min((q + 1) * C / ((q + 2) * x0),
                      (1.0 - first) / x0 ** (q + 1))
    assume(C * x0 ** q + K * x0 ** (q + 1) < 1.0)
    noise = ("plus", "minus", "alternating")[mode]
    _assert_matches_reference(recursive_sequence(C, K, q, x0, n, noise),
                              C, K, q, x0, n,
                              _reference_recurrence(C, K, q, x0, n, mode))


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
