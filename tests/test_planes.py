import json
from dataclasses import asdict
from itertools import combinations

import numpy as np
import pytest

from apcone.planes import (PLUCKER_INDEX_TRIPLES, PlaneSpec, U_STAR,
                           build_plane, conjugate, coords_to_sym,
                           plucker_coords, plucker_relation_defect,
                           rotation_matrix, singularity_degree,
                           sym_to_coords, type2_b1_products, type2_basis)
from apcone.symcore import (AffineSubspace, _standard_sym_basis, eig_sym,
                            frob_inner, frob_norm)


def test_type2_basis_matches_template():
    E, _ = build_plane(PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0)))
    want = [np.array([[-2, 1, 0], [1, 0, 0], [0, 0, 0]], float),
            np.array([[0, 0, -1], [0, 2, 0], [-1, 0, 0]], float),
            np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], float)]
    for B, W in zip(E.basis, want):
        assert np.array_equal(B, W)


def test_type2_b1_products_closed_form():
    rng = np.random.RandomState(41)
    for _ in range(20):
        c = tuple(rng.uniform(-2.0, 2.0, 5))
        B = type2_basis(c)
        want = [frob_inner(B[0], B[0]), frob_inner(B[1], B[0]),
                frob_inner(B[2], B[0])]
        got = type2_b1_products(c)
        assert got == pytest.approx(want, rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("spec", [
    PlaneSpec("type2", (0.3, -0.8, 0.5, 1.2, -0.1)),
    PlaneSpec("type2", (0.3, -0.8, 0.5, 1.2, -0.1), theta=0.9),
    PlaneSpec("type1", (0.2, -0.4, 0.7, 0.1, 1.0, 0.3, -0.2, 0.5), mu=0.8),
])
def test_anchor_satisfies_constraints(spec):
    E, (A1, A2, A3) = build_plane(spec)
    assert frob_inner(A1, E.anchor) == pytest.approx(1.0, abs=1e-14)
    assert frob_inner(A2, E.anchor) == pytest.approx(0.0, abs=1e-14)
    assert frob_inner(A3, E.anchor) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("spec", [
    PlaneSpec("type2", (0.3, -0.8, 0.5, 1.2, -0.1), theta=0.4),
    PlaneSpec("type1", (0.2, -0.4, 0.7, 0.1, 1.0, 0.3, -0.2, 0.5),
              mu=0.8, theta=-1.1, reflect=True),
])
def test_plane_points_satisfy_constraints(spec):
    rng = np.random.RandomState(0)
    E, (A1, A2, A3) = build_plane(spec)
    for _ in range(10):
        X = E.point(rng.uniform(-1, 1, 3))
        assert frob_inner(A1, X) == pytest.approx(1.0, abs=1e-12)
        assert frob_inner(A2, X) == pytest.approx(0.0, abs=1e-12)
        assert frob_inner(A3, X) == pytest.approx(0.0, abs=1e-12)


def test_conjugation_equivariance():
    base = PlaneSpec("type2", (0.5, 0.2, -0.7, 1.1, 0.4))
    rot = PlaneSpec("type2", base.c, theta=0.77, reflect=True)
    E0, A0 = build_plane(base)
    E1, A1 = build_plane(rot)
    P = rotation_matrix(0.77, True)
    assert frob_norm(E1.anchor - conjugate(P, E0.anchor)) <= 1e-14
    for B0, B1 in zip(E0.basis, E1.basis):
        assert np.abs(B1 - conjugate(P, B0)).max() <= 1e-14
    for M0, M1 in zip(A0, A1):
        assert np.abs(M1 - conjugate(P, M0)).max() <= 1e-14


@pytest.mark.parametrize("spec,expected", [
    (PlaneSpec("type2", (0.0, 0.0, 0.0, 1.0, 0.0)), 2),
    (PlaneSpec("type2", (0.5, -0.5, 2.0, 0.0, 1.0)), 1),
    (PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0), theta=2.0), 2),
    (PlaneSpec("type1", (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0), mu=2.0), 1),
    (PlaneSpec("type1", (1.0, 2.0, 0.1, 0.3, 0.0, 0.2, 0.9, -1.0), mu=0.1), 1),
])
def test_singularity_degree(spec, expected):
    assert singularity_degree(spec) == expected


@pytest.mark.parametrize("spec", [
    PlaneSpec("type2", (0.6, -0.3, 0.2, 0.9, 0.5)),
    PlaneSpec("type2", (0.0, 0.0, 0.0, 1.0, 0.0), theta=1.3),
    PlaneSpec("type1", (0.3, 0.1, -0.2, 0.4, 1.0, 0.0, 0.5, 0.2), mu=1.5),
])
def test_sampled_points_leave_psd_cone(spec):
    # heuristic check that the plane meets the cone only near the anchor
    rng = np.random.RandomState(42)
    E, _ = build_plane(spec)
    for _ in range(10 ** 4):
        p = rng.uniform(-1, 1, 3)
        if np.linalg.norm(p) < 1e-2:
            continue
        lam_min = eig_sym(E.point(p)).eigenvalues[-1]
        assert lam_min < 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        PlaneSpec("type2", (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        PlaneSpec("type1", (0,) * 8, mu=1.0)       # A2 == 0
    with pytest.raises(ValueError):
        PlaneSpec("type1", (0, 0, 0, 0, 1, 0, 0, 0), mu=-1.0)
    with pytest.raises(ValueError):
        PlaneSpec("type3", (1, 2, 3, 4, 5))


@pytest.mark.parametrize("field, value", [
    ("c", 5), ("c", "10010"), ("c", [1, 0, "x", 1, 0]),
    ("c", [1, 0, np.nan, 1, 0]), ("c", [1, 0, True, 1, 0]),
    ("theta", np.nan), ("theta", -np.inf), ("theta", "0"),
    ("mu", "x"), ("mu", np.inf), ("reflect", "false"), ("reflect", 1)])
def test_spec_rejects_bad_fields(field, value):
    fields = ({"kind": "type1", "c": (1, 0, 0, 0, 1, 0, 0, 2), "mu": 0.5}
              if field == "mu" else {"kind": "type2", "c": (1, 0, 0, 1, 0)})
    fields[field] = value
    with pytest.raises(ValueError, match=f"plane field '{field}' must"):
        PlaneSpec(**fields)


def test_spec_json_round_trip():
    for spec in (PlaneSpec("type2", (1, 0, 0, 1, 0), theta=0.2),
                 PlaneSpec("type1", (1, 0, 0, 0, 1, 0, 0, 2), mu=0.5,
                           reflect=True)):
        back = PlaneSpec.from_json(json.loads(json.dumps(asdict(spec))))
        assert back == spec


# --- Pluecker ----------------------------------------------------------------

def test_plucker_standard_triple():
    e = _standard_sym_basis(3)
    E = AffineSubspace.from_basis(U_STAR, np.array([e[0], e[1], e[2]]))
    coords = plucker_coords(E)
    assert coords[0] == pytest.approx(1.0, abs=1e-15)
    assert np.abs(coords[1:]).max() <= 1e-15


def test_sym_coords_match_inner_products():
    # reference: one Frobenius inner product per basis element
    e = _standard_sym_basis(3)
    rng = np.random.RandomState(3)
    for _ in range(20):
        X = rng.normal(size=(3, 3))
        X = X + X.T
        want = np.array([frob_inner(b, X) for b in e])
        assert np.allclose(sym_to_coords(X), want, rtol=1e-15, atol=0.0)
        assert np.allclose(coords_to_sym(want), X, rtol=1e-15, atol=1e-15)


def test_plucker_scaling_multilinearity():
    spec = PlaneSpec("type2", (0.4, 0.1, -0.6, 1.0, 0.3))
    E, _ = build_plane(spec)
    scaled = AffineSubspace.from_basis(
        E.anchor, np.array([3.0 * E.basis[0], E.basis[1], E.basis[2]]))
    assert np.allclose(plucker_coords(scaled), 3.0 * plucker_coords(E),
                       rtol=1e-12, atol=1e-14)


def test_plucker_relations_random_planes():
    rng = np.random.RandomState(9)
    for _ in range(10):
        c = rng.uniform(-1.5, 1.5, 5)
        c[3] = rng.uniform(0.5, 1.5)
        spec = PlaneSpec("type2", tuple(c), theta=float(rng.uniform(0, 6.3)))
        E, _ = build_plane(spec)
        coords = plucker_coords(E)
        scale = max(1.0, float(np.max(np.abs(coords))) ** 2)
        assert plucker_relation_defect(coords) / scale < 1e-10


def _plucker_relation_defect_loop(coords):
    """The relation-by-relation loop, rebuilding signs and indices per term."""
    coords = np.asarray(coords, dtype=float)
    lut = {trip: coords[i] for i, trip in enumerate(PLUCKER_INDEX_TRIPLES)}

    def signed(i, j, k):
        trip = (i, j, k)
        if len(set(trip)) < 3:
            return 0.0
        order = tuple(sorted(trip))
        perm = [order.index(t) for t in trip]
        sign = 1.0
        for a in range(3):
            for b in range(a + 1, 3):
                if perm[a] > perm[b]:
                    sign = -sign
        return sign * lut[order]

    worst = 0.0
    for alpha in combinations(range(6), 2):
        for beta in combinations(range(6), 4):
            acc = 0.0
            for k, bk in enumerate(beta):
                rest = tuple(b for b in beta if b != bk)
                acc += (-1.0) ** k * signed(alpha[0], alpha[1], bk) * lut[rest]
            worst = max(worst, abs(acc))
    return worst


def test_plucker_relation_defect_matches_the_loop_bit_for_bit():
    rng = np.random.RandomState(4)
    cases = [rng.standard_normal(20) * rng.choice([1e-3, 1.0, 1e3])
             for _ in range(30)]
    nan = rng.standard_normal(20)
    nan[7] = np.nan                   # its relations are passed over
    cases.append(nan)
    for coords in cases:
        with np.errstate(invalid="ignore"):
            got = plucker_relation_defect(coords)
            want = _plucker_relation_defect_loop(coords)
        assert got == want
    assert plucker_relation_defect(nan) > 0.0
    for wrong in (np.zeros(19), np.zeros(21), np.zeros((4, 5))):
        with pytest.raises(ValueError):
            plucker_relation_defect(wrong)


def test_plucker_relation_defect_matches_the_loop_on_the_suite(monkeypatch):
    import apcone.verify as verify

    seen = []

    def recording(coords):
        seen.append(coords)
        return plucker_relation_defect(coords)

    monkeypatch.setattr(verify, "plucker_relation_defect", recording)
    for seed in (0, 1, 7):
        assert all(row.passed for row in verify.suite_plucker(seed))
    assert len(seen) == 30
    for coords in seen:
        assert plucker_relation_defect(coords) == \
            _plucker_relation_defect_loop(coords)


def test_plucker_needs_3plane():
    B = type2_basis((0, 0, 0, 1, 0))[:2]
    E = AffineSubspace.from_basis(U_STAR, B)
    with pytest.raises(ValueError):
        plucker_coords(E)


def test_rate_classification_matches_singularity_degree():
    # Rate classes separate the families: degree-1 planes follow the
    # k^(-1/2) law (1/dist^2 grows linearly in k), while a degree-2 plane
    # started on its slowest curve follows the k^(-1/6) law (1/dist^6
    # linear in k).
    from apcone.apengine import run_ap
    from apcone.rates import fit_inverse_power
    from apcone.slowcurve import curve_point

    type1 = PlaneSpec("type1", (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
                      mu=2.0)
    E1, _ = build_plane(type1)
    trace = run_ap(E1, np.array([0.05, -0.03, 0.04]), max_iter=4000, tol=0.0)
    early = fit_inverse_power(trace, 2, (100, 1000))
    late = fit_inverse_power(trace, 2, (2000, 4000))
    assert early.slope > 0.05
    assert late.slope == pytest.approx(early.slope, rel=0.15)
    assert late.rmse < 1e-3 * trace.dists[4000] ** -2.0

    slow = PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0))
    E2, _ = build_plane(slow)
    start = E2.coefficients(curve_point(slow, 0.1).G)
    trace = run_ap(E2, start, max_iter=4000, tol=0.0)
    inv6 = fit_inverse_power(trace, 6, (100, 4000))
    assert inv6.slope > 0.0
    assert inv6.rmse < 1e-4 * trace.dists[4000] ** -6.0
    # on the k^(-1/2) scale the same trace is degenerate: its inverse-square
    # slope collapses relative to the degree-1 plane's
    slow_inv2 = fit_inverse_power(trace, 2, (100, 4000))
    assert slow_inv2.slope < 0.01 * early.slope


def test_constraints_match_golden_text_block():
    # constraint triple (A1, A2, A3) of the c = (0,0,1,1,0) instance
    want = [[[1, 0, 0], [0, 0, 1], [0, 1, 0]],
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 1]]]
    _, got = build_plane(PlaneSpec("type2", (0.0, 0.0, 1.0, 1.0, 0.0)))
    assert len(got) == 3
    for W, G in zip(want, got):
        assert np.array_equal(np.array(W, dtype=float), G)
