"""Seeded verification suites behind the ``apcone verify`` subcommand.

Each suite runs a batch of numerical checks of one analytic statement and
returns CheckResult rows; the CLI prints one line per row and exits nonzero
when anything fails.

A suite's random draws are NumPy's legacy ``RandomState(seed)`` streams
(frozen by NumPy's RNG policy), reproduced bit for bit by ``_Draws`` on the
standard library's Mersenne Twister, so the suites never load
``numpy.random``.  ``run_suite`` takes a seed in [0, 2**32 - 1], the range
``RandomState`` takes, and rejects any other before a suite runs.
``random_type2_spec`` takes any rng with ``uniform`` and ``choice``, a
``RandomState`` included.  A suite composes the package's operations and
writes none of its own: prop31's direct AP step is ``ap_step``'s.  A
suite that checks many planes draws all its specs first, in the order a
one-at-a-time loop draws them, and then makes one stacked call per
per-plane operation: ``planes._planes`` builds the planes,
``orthogonalize`` orthogonalizes them, ``valid_t_max`` probes their curve
domains and ``perturb_gain`` computes their gains (lemma75, thm41,
prop31, thm63, plucker).
"""

import random
from dataclasses import dataclass

import numpy as np

from .apengine import ap_step, eigenvalue_formula_step, rank_one_step_residual
from .catalog import _SPEC_61, get_example
from .planes import (PlaneSpec, _planes, plucker_coords,
                     plucker_relation_defect, slow_step_constant)
from .rates import recursive_sequence
from .series import (_ap_image_series, _first_degree, _psd_projection_series,
                     det_series, moment_curve_defect, w_recursion_defect)
from .slowcurve import curve_point, perturb_gain, tube_check, valid_t_max
from .symcore import frob_norm, is_integer, orthogonalize, project_psd

@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str


def _check_seed(seed):
    """The seed as an int; ValueError unless it is one in [0, 2**32 - 1]."""
    if not (is_integer(seed) and 0 <= seed <= 0xFFFFFFFF):
        raise ValueError("Seed must be between 0 and 2**32 - 1")
    return int(seed)


class _Draws:
    """NumPy's ``RandomState(seed)`` draws, bit for bit, for the calls the
    suites make: ``uniform``, ``randint(high)`` and ``choice(seq)``.

    Both are MT19937.  The state is ``init_genrand(seed)``, RandomState's
    seeding of an int: 624 words, read from position 624.  ``random()`` is
    the same 53-bit double as RandomState's, ``uniform`` is
    ``low + (high - low) * random()`` and ``randint`` is RandomState's
    masked rejection on 32-bit outputs (``high`` <= 2**32).
    """

    def __init__(self, seed):
        key = [_check_seed(seed)]
        for i in range(1, 624):
            key.append((1812433253 * (key[-1] ^ (key[-1] >> 30)) + i)
                       & 0xFFFFFFFF)
        self._mt = random.Random()
        self._mt.setstate((3, (*key, 624), None))

    def uniform(self, low, high, size=None):
        low = float(low)
        span = float(high) - low
        if size is None:
            return low + span * self._mt.random()
        return np.array([low + span * self._mt.random()
                         for _ in range(size)])

    def randint(self, high):
        if not 1 <= high <= 1 << 32:
            raise ValueError("randint takes a high in [1, 2**32]")
        top = high - 1
        if top == 0:
            return 0  # RandomState draws nothing for a one-value range
        mask = (1 << top.bit_length()) - 1
        while True:
            value = self._mt.getrandbits(32) & mask
            if value <= top:
                return value

    def choice(self, seq):
        return seq[self.randint(len(seq))]


def random_type2_spec(rng, mild=True):
    """Draw a type2 spec with c4 bounded away from zero.

    The mild draw keeps |c1..c3, c5| <= 0.8 and |c4| in [0.7, 1.5], a range
    over which the curve domain comfortably contains the probe scales; the
    wide draw allows |c_i| <= 2 with |c4| down to 1e-3.  ``rng`` is any
    object with RandomState's ``uniform`` and ``choice``: the suites pass
    a ``_Draws``, and ``RandomState(seed)`` gives the same spec.
    """
    if mild:
        c = rng.uniform(-0.8, 0.8, 5)
        c[3] = rng.choice([-1.0, 1.0]) * rng.uniform(0.7, 1.5)
    else:
        c = rng.uniform(-2.0, 2.0, 5)
        c[3] = rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(1e-3),
                                                            np.log(2.0)))
    return PlaneSpec("type2", tuple(c))


def _orth_planes(specs):
    """The orthogonalized planes of ``specs``: one stacked build, one
    stacked Gram-Schmidt."""
    return orthogonalize(_planes(specs))


def formula_vs_direct_gap(E, p):
    """|eigenvalue-formula step - direct AP step| (max over coordinates),
    the direct step's coefficients read from ``ap_step``."""
    stepped = eigenvalue_formula_step(E, p)
    direct = ap_step(E, E.point(p))[2]
    return float(np.max(np.abs(stepped - direct)))


def suite_prop31(seed=0):
    """Eigenvalue-formula steps match direct AP steps on 20 planes: the two
    catalog probes and one random probe on each of 18 random type2 planes."""
    rng = _Draws(seed)
    draws = [(random_type2_spec(rng), rng.uniform(-0.05, 0.05, 3))
             for _ in range(18)]
    probes = [(get_example("ex3.2").plane, np.array([0.06])),
              (get_example("ex3.4").plane, np.array([0.07, 0.03])),
              *zip(_orth_planes([spec for spec, _ in draws]),
                   (p for _, p in draws))]
    worst = 0.0
    for E, p in probes:
        worst = max(worst, formula_vs_direct_gap(E, p))
    return [CheckResult(
        "formula-vs-direct gap on 20 planes", worst < 1e-12,
        f"max gap {worst:.3e} (tol 1e-12)")]


def curve_probe_t(spec, frac=0.5, cap=0.1):
    return min(cap, frac * valid_t_max(spec))


def suite_thm41(seed=0):
    """Rank-1 chart relation has rounding-level residual on 20 planes.

    Specs are drawn in order until 20 have a probe t = min(0.05, 0.45
    valid_t_max) of at least 5e-3: each round draws as many as are still
    missing and probes them in one stacked ``valid_t_max`` call, so the
    draws are those of a one-at-a-time loop."""
    rng = _Draws(seed)
    kept = []
    while len(kept) < 20:
        specs = [random_type2_spec(rng) for _ in range(20 - len(kept))]
        for spec, t_max in zip(specs, valid_t_max(specs)):
            t = min(0.05, 0.45 * t_max)     # curve_probe_t(spec, 0.45, 0.05)
            if t >= 5e-3:
                kept.append((spec, t))
    worst = 0.0
    for E, (spec, t) in zip(_orth_planes([spec for spec, _ in kept]), kept):
        p = E.coefficients(curve_point(spec, t).G)
        res = rank_one_step_residual(E, p)
        worst = max(worst, res / (1.0 + float(np.linalg.norm(p))))
    return [CheckResult("rank-1 step relation on 20 planes", worst < 1e-9,
                        f"max residual {worst:.3e} (tol 1e-9)")]


def _series_suite(label, check, seed):
    """One row per plane, on ex6.1 and ten random planes.  ``check(specs,
    cap, tol, Gs)`` returns, for each spec, the kernel's series and the
    formula's, as coefficient stacks through degree ``cap`` = 8 (the
    kernel's rank test at ``tol`` = 1e-8), and the float matrix the
    kernel's series, truncated, must give at t = 1e-2 from its
    G = G(1e-2) in ``Gs``.  A row passes when the difference of the series
    is first above 1e-8 at degree 8 and the truncated series is within
    1e-13 of the float matrix."""
    rng = _Draws(seed)
    names = ["ex6.1"] + [f"random #{i}" for i in range(1, 11)]
    specs = [_SPEC_61] + [random_type2_spec(rng) for _ in range(10)]
    Gs = [curve_point(spec, 1e-2).G for spec in specs]
    rows = []
    for name, (kernel, model, want) in zip(names,
                                           check(specs, 8, 1e-8, Gs)):
        degree, below, at = _first_degree(kernel - model, 1e-8)
        at_tie = np.einsum("d,dij->ij", 1e-2 ** np.arange(9), kernel)
        tie = float(np.max(np.abs(at_tie - want)))
        rows.append(CheckResult(
            f"{label} order, {name}", degree == 8 and tie <= 1e-13,
            f"order {degree} (tol 1e-8): max coefficient {below:.1e} below "
            f"it, {at:.3g} at it; float tie {tie:.1e} at t=1e-2"))
    return rows


def suite_thm62(seed=0):
    """P_psd(G(t)) minus the PSD-projection formula starts at t^8."""
    def check(specs, cap, tol, Gs):
        return [(*_psd_projection_series(spec, cap, tol), project_psd(G)[0])
                for spec, G in zip(specs, Gs)]

    return _series_suite("psd-projection formula", check, seed)


def suite_thm63(seed=0):
    """One AP step from G(t) minus the AP-image formula starts at t^8."""
    def check(specs, cap, tol, Gs):
        return [(*_ap_image_series(E, spec, cap, tol), ap_step(E, G)[0])
                for E, spec, G in zip(_planes(specs), specs, Gs)]

    return _series_suite("ap-image formula", check, seed)


def suite_lemma64(seed=0):
    """w satisfies its own recursion through degree 5 (series check)."""
    rng = _Draws(seed)
    defects = [w_recursion_defect(random_type2_spec(rng)) for _ in range(10)]
    return [CheckResult(f"w recursion degrees 0..5, spec #{i}",
                        defect <= 1e-10, f"max coefficient gap {defect:.3e}")
            for i, defect in enumerate(defects)]


def _det_lead(spec):
    """The leading coefficient 1 / (32 c4^6) of det G(t), at t^10."""
    return 1.0 / (32.0 * spec.c[3] ** 6)


def suite_lemma67(seed=0):
    """det G(t) = t^10/(32 c4^6) + O(t^11), via series; and the ex6.1 curve
    G(t)/(1 - 2t), at t = s/(1 + 2s), is the perturbed moment curve of
    (1, s, -s^2/2) through degree 7."""
    rng = _Draws(seed)
    results = []
    d, lead = det_series(_SPEC_61), _det_lead(_SPEC_61)
    results.append(CheckResult(
        "det-series coefficient 10, ex6.1", abs(d[10] - lead) <= 1e-12,
        f"coeff10 {d[10]!r} expect {lead!r}"))
    defect = moment_curve_defect()
    results.append(CheckResult(
        "perturbed moment-curve pattern, ex6.1", defect <= 1e-10,
        f"max coefficient gap {defect:.3e} (tol 1e-10)"))
    for i in range(10):
        spec = random_type2_spec(rng)
        d, lead = det_series(spec), _det_lead(spec)
        low = float(np.max(np.abs(d.coeffs[:10]))) / max(1.0, abs(lead))
        ok = low <= 1e-10 and abs(d[10] - lead) <= 1e-8 * abs(lead)
        results.append(CheckResult(
            f"det-series leading term, spec #{i}", ok,
            f"low-degree {low:.2e}, coeff10 rel err "
            f"{abs(d[10] - lead) / abs(lead):.2e}"))
    return results


def suite_lemma75(seed=0):
    """Transverse gain norm < 1 on 100 wide-random c4 != 0 specs."""
    rng = _Draws(seed)
    specs = [random_type2_spec(rng, mild=False) for _ in range(100)]
    worst = 0.0
    for gain in perturb_gain(specs):
        worst = max(worst, gain.spectral_norm)
    return [CheckResult("||R||_2 < 1 on 100 specs", worst < 1.0,
                        f"max spectral norm 1 - {1.0 - worst:.3e}")]


def suite_prop76(seed=0):
    """AP iterates started on/near the slowest curve stay in its tube."""
    # ||C2|| on ex6.1
    n2 = frob_norm(_orth_planes([_SPEC_61])[0].basis[1])
    cases = [
        ("on-curve start, t0=0.1", dict(t0=0.1, beta=0.0, gamma=0.0,
                                        steps=2000, eps=1.0)),
        ("offset eps/2, t0=0.1", dict(t0=0.1, beta=0.5 / n2, gamma=0.0,
                                      steps=2000, eps=1.0)),
        ("on-curve start, t0=0.05", dict(t0=0.05, beta=0.0, gamma=0.0,
                                         steps=2000, eps=0.35)),
        ("t0=0 fixed point", dict(t0=0.0, beta=0.0, gamma=0.0,
                                  steps=10, eps=1.0)),
    ]
    return [CheckResult(label, tube_check(_SPEC_61, **kw), str(kw))
            for label, kw in cases]


def suite_lemma77(seed=0):
    """Slow-rate recursion products approach 1 (fast for q=2, slow for q=6)."""
    run = recursive_sequence(C=1.0 / 3.0, K=0.0, q=2, x0=0.1, n=10 ** 6)
    results = [
        CheckResult("q=2 product at n=1e6", abs(run.product - 1.0) <= 0.01,
                    f"product {run.product:.6f}"),
        CheckResult("q=2 monotone decrease", run.decreasing,
                    f"x {'' if run.decreasing else 'not '}strictly "
                    "decreasing on all 1e6 steps")]
    c = slow_step_constant(_SPEC_61)    # an AP step maps G(t) to G(t - c t^7)
    run = recursive_sequence(C=c, K=0.0, q=6, x0=0.2, n=10 ** 6)
    prods = run.products[run.ks >= 10 ** 3].tolist()
    gaps = [abs(p - 1.0) for p in prods]
    return results + [
        CheckResult("q=6 product at n=1e6", abs(run.product - 1.0) <= 0.10,
                    f"product {run.product:.6f}"),
        CheckResult("q=6 monotone approach over decades",
                    bool(np.all(np.diff(gaps) < 0.0)),
                    "products " + ", ".join(f"{p:.4f}" for p in prods))]


def suite_plucker(seed=0):
    """Grassmann quadratic relations vanish on random planes."""
    rng = _Draws(seed)
    specs = []
    for i in range(10):
        if i % 2 == 0:
            spec = random_type2_spec(rng)
        else:
            c = tuple(rng.uniform(-1.0, 1.0, 8))
            spec = PlaneSpec("type1", c, mu=float(rng.uniform(0.2, 2.0)))
        specs.append(PlaneSpec(spec.kind, spec.c,
                               theta=float(rng.uniform(0, 2 * np.pi)),
                               reflect=bool(rng.randint(2)), mu=spec.mu))
    worst = 0.0
    for E in _planes(specs):
        coords = plucker_coords(E)
        scale = float(np.max(np.abs(coords))) ** 2
        worst = max(worst, plucker_relation_defect(coords) / max(1.0, scale))
    return [CheckResult("quadratic relations on 10 random planes",
                        worst < 1e-10, f"max normalized defect {worst:.3e}")]


# suite name -> suite, in the order the CLI lists them
SUITES = {
    "prop31": suite_prop31, "thm41": suite_thm41, "thm62": suite_thm62,
    "thm63": suite_thm63, "lemma64": suite_lemma64,
    "lemma67": suite_lemma67, "lemma75": suite_lemma75,
    "prop76": suite_prop76, "lemma77": suite_lemma77,
    "plucker": suite_plucker,
}


def run_suite(name, seed=0):
    """Run one suite; KeyError for an unknown name, ValueError for a seed
    outside [0, 2**32 - 1], whether or not the suite draws."""
    fn = SUITES.get(name)
    if fn is None:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return fn(_check_seed(seed))
