"""Seeded verification suites behind the ``apcone verify`` subcommand.

Each suite runs a batch of numerical checks of one analytic statement and
returns CheckResult rows; the CLI prints one line per row and exits nonzero
when anything fails.
"""

import math
from dataclasses import dataclass

import numpy as np

from .apengine import ap_step, eigenvalue_formula_step, rank_one_step_residual
from .catalog import get_example
from .planes import PlaneSpec, build_plane, plucker_coords, \
    plucker_relation_defect
from .rates import recursive_sequence
from .series import det_series, moment_curve_defect, w_recursion_defect
from .slowcurve import (ap_image_formula, curve_point, perturb_gain,
                        psd_projection_formula, residual_order_certified,
                        tube_check, valid_t_max)
from .symcore import orthogonalize, project_psd

SUITES = ("prop31", "thm41", "thm62", "thm63", "lemma64", "lemma67",
          "lemma75", "prop76", "lemma77", "plucker")


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str


def random_type2_spec(rng, mild=True):
    """Draw a type2 spec with c4 bounded away from zero.

    The mild draw keeps |c1..c3, c5| <= 0.8 and |c4| in [0.7, 1.5], a range
    over which the curve domain comfortably contains the probe scales; the
    wide draw allows |c_i| <= 2 with |c4| down to 1e-3.
    """
    if mild:
        c = rng.uniform(-0.8, 0.8, 5)
        c[3] = rng.choice([-1.0, 1.0]) * rng.uniform(0.7, 1.5)
    else:
        c = rng.uniform(-2.0, 2.0, 5)
        c[3] = rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(1e-3),
                                                            np.log(2.0)))
    return PlaneSpec("type2", tuple(c))


def _orth_plane(spec):
    E, _ = build_plane(spec)
    return orthogonalize(E)


def formula_vs_direct_gap(E, p):
    """|eigenvalue-formula step - direct AP step| (max over coordinates)."""
    stepped = eigenvalue_formula_step(E, p)
    direct = E.coefficients(project_psd(E.point(np.asarray(p, float)))[0])
    return float(np.max(np.abs(stepped - direct)))


def suite_prop31(seed=0):
    """Eigenvalue-formula steps match direct AP steps on 20 planes: the two
    catalog probes and one random probe on each of 18 random type2 planes."""
    rng = np.random.RandomState(seed)
    worst = 0.0
    for E, p in ((get_example("ex3.2").plane, np.array([0.06])),
                 (get_example("ex3.4").plane, np.array([0.07, 0.03]))):
        worst = max(worst, formula_vs_direct_gap(E, p))
    for _ in range(18):
        E = _orth_plane(random_type2_spec(rng))
        p = rng.uniform(-0.05, 0.05, 3)
        worst = max(worst, formula_vs_direct_gap(E, p))
    return [CheckResult(
        "formula-vs-direct gap on 20 planes", worst < 1e-12,
        f"max gap {worst:.3e} (tol 1e-12)")]


def curve_probe_t(spec, frac=0.5, cap=0.1):
    return min(cap, frac * valid_t_max(spec))


def suite_thm41(seed=0):
    """Rank-1 chart relation has rounding-level residual on 20 planes."""
    rng = np.random.RandomState(seed)
    results = []
    worst = 0.0
    done = 0
    while done < 20:
        spec = random_type2_spec(rng)
        t = curve_probe_t(spec, 0.45, 0.05)
        if t < 5e-3:
            continue
        E = _orth_plane(spec)
        p = E.coefficients(curve_point(spec, t).G)
        res = rank_one_step_residual(E, p)
        worst = max(worst, res / (1.0 + float(np.linalg.norm(p))))
        done += 1
    results.append(CheckResult(
        "rank-1 step relation on 20 planes", worst < 1e-9,
        f"max residual {worst:.3e} (tol 1e-9)"))
    return results


def _order_suite(label, oracle_of_spec, formula, seed):
    rng = np.random.RandomState(seed)
    results = []
    specs = [("ex6.1", PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0)))]
    while len(specs) < 11:
        spec = random_type2_spec(rng)
        if curve_probe_t(spec) >= 0.02:
            specs.append((f"random #{len(specs)}", spec))
    for name, spec in specs:
        cap = curve_probe_t(spec)
        order, t0, halvings = residual_order_certified(
            oracle_of_spec(spec), lambda t, s=spec: formula(s, t),
            t0=1e-2, halvings=3, t_cap=cap)
        results.append(CheckResult(
            f"{label} order, {name}", order >= 7.5,
            f"order {order:.2f} at t0={t0:g}, {halvings} halvings"))
    return results


def suite_thm62(seed=0):
    """PSD-projection formula residual vanishes at order >= 7.5."""
    def oracle(spec):
        return lambda t: project_psd(curve_point(spec, t).G)[0]

    return _order_suite("psd-projection formula", oracle,
                        psd_projection_formula, seed)


def suite_thm63(seed=0):
    """AP-image formula residual vanishes at order >= 7.5."""
    def oracle(spec):
        E, _ = build_plane(spec)
        return lambda t: ap_step(E, curve_point(spec, t).G)[0]

    return _order_suite("ap-image formula", oracle, ap_image_formula, seed)


def suite_lemma64(seed=0):
    """w satisfies its own recursion through degree 5 (series check)."""
    rng = np.random.RandomState(seed)
    results = []
    for i in range(10):
        spec = random_type2_spec(rng)
        defect = w_recursion_defect(spec)
        results.append(CheckResult(
            f"w recursion degrees 0..5, spec #{i}", defect <= 1e-10,
            f"max coefficient gap {defect:.3e}"))
    return results


def suite_lemma67(seed=0):
    """det G(t) = t^10/(32 c4^6) + O(t^11), via series; and the ex6.1 curve
    G(t)/(1 - 2t), at t = s/(1 + 2s), is the perturbed moment curve of
    (1, s, -s^2/2) through degree 7."""
    rng = np.random.RandomState(seed)
    results = []
    d = det_series(PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0)))
    results.append(CheckResult(
        "det-series coefficient 10, ex6.1", abs(d[10] - 0.03125) <= 1e-12,
        f"coeff10 {d[10]!r} expect 0.03125"))
    defect = moment_curve_defect()
    results.append(CheckResult(
        "perturbed moment-curve pattern, ex6.1", defect <= 1e-10,
        f"max coefficient gap {defect:.3e} (tol 1e-10)"))
    for i in range(10):
        spec = random_type2_spec(rng)
        c4 = spec.c[3]
        d = det_series(spec)
        lead = 1.0 / (32.0 * c4 ** 6)
        low = float(np.max(np.abs(d.coeffs[:10]))) / max(1.0, abs(lead))
        ok = low <= 1e-10 and abs(d[10] - lead) <= 1e-8 * abs(lead)
        results.append(CheckResult(
            f"det-series leading term, spec #{i}", ok,
            f"low-degree {low:.2e}, coeff10 rel err "
            f"{abs(d[10] - lead) / abs(lead):.2e}"))
    return results


def suite_lemma75(seed=0):
    """Transverse gain norm < 1 on 100 wide-random c4 != 0 specs."""
    rng = np.random.RandomState(seed)
    worst = 0.0
    for _ in range(100):
        spec = random_type2_spec(rng, mild=False)
        worst = max(worst, perturb_gain(spec).spectral_norm)
    return [CheckResult("||R||_2 < 1 on 100 specs", worst < 1.0,
                        f"max spectral norm 1 - {1.0 - worst:.3e}")]


def suite_prop76(seed=0):
    """AP iterates started on/near the slowest curve stay in its tube."""
    spec = PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0))
    n2 = math.sqrt(6.0)  # ||C2|| for this spec
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
    return [CheckResult(label, tube_check(spec, **kw), str(kw))
            for label, kw in cases]


def suite_lemma77(seed=0):
    """Slow-rate recursion products approach 1 (fast for q=2, slow for q=6)."""
    results = []
    run = recursive_sequence(C=1.0 / 3.0, K=0.0, q=2, x0=0.1, n=10 ** 6)
    results.append(CheckResult(
        "q=2 product at n=1e6", abs(run.product - 1.0) <= 0.01,
        f"product {run.product:.6f}"))
    results.append(CheckResult(
        "q=2 monotone decrease", run.decreasing,
        "x strictly decreasing on all 1e6 steps"))
    run = recursive_sequence(C=1.0 / 24.0, K=0.0, q=6, x0=0.2, n=10 ** 6)
    results.append(CheckResult(
        "q=6 product at n=1e6", abs(run.product - 1.0) <= 0.10,
        f"product {run.product:.6f}"))
    x_at = dict(zip(run.ks.tolist(), run.xs.tolist()))
    decades = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    prods = [(6.0 / 24.0) ** (1 / 6) * n ** (1 / 6) * x_at[n] for n in decades]
    gaps = [abs(p - 1.0) for p in prods]
    results.append(CheckResult(
        "q=6 monotone approach over decades",
        bool(np.all(np.diff(gaps) < 0.0)),
        "products " + ", ".join(f"{p:.4f}" for p in prods)))
    return results


def suite_plucker(seed=0):
    """Grassmann quadratic relations vanish on random planes."""
    rng = np.random.RandomState(seed)
    results = []
    worst = 0.0
    for i in range(10):
        if i % 2 == 0:
            spec = random_type2_spec(rng)
        else:
            c = tuple(rng.uniform(-1.0, 1.0, 8))
            spec = PlaneSpec("type1", c, mu=float(rng.uniform(0.2, 2.0)))
        spec = PlaneSpec(spec.kind, spec.c,
                         theta=float(rng.uniform(0, 2 * np.pi)),
                         reflect=bool(rng.randint(2)), mu=spec.mu)
        E, _ = build_plane(spec)
        coords = plucker_coords(E)
        scale = float(np.max(np.abs(coords))) ** 2
        worst = max(worst, plucker_relation_defect(coords) / max(1.0, scale))
    results.append(CheckResult(
        "quadratic relations on 10 random planes", worst < 1e-10,
        f"max normalized defect {worst:.3e}"))
    return results


def run_suite(name, seed=0):
    fn = {
        "prop31": suite_prop31, "thm41": suite_thm41, "thm62": suite_thm62,
        "thm63": suite_thm63, "lemma64": suite_lemma64,
        "lemma67": suite_lemma67, "lemma75": suite_lemma75,
        "prop76": suite_prop76, "lemma77": suite_lemma77,
        "plucker": suite_plucker,
    }.get(name)
    if fn is None:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return fn(seed)
