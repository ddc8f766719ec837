import warnings

import numpy as np
import pytest

from apcone.apengine import (RankOneError, ap_step, eigenvalue_formula_step,
                             extract_rank_one_param, grad_half_dist2_psi,
                             m_matrix, psi, psi_partial,
                             rank_one_step_residual, run_ap)
from apcone.catalog import get_example
from apcone.planes import PlaneSpec, build_plane
from apcone.slowcurve import curve_point
from apcone.symcore import (AffineSubspace, EigenSolverError, dist2_affine,
                            frob_inner, frob_norm, orthogonalize,
                            project_affine, project_psd, sym_matrix)
from apcone.verify import formula_vs_direct_gap, random_type2_spec

SPEC61 = PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0))
SPEC44 = PlaneSpec("type2", (0.0, 0.0, 1.0, 1.0, 0.0))


# --- ap_step ----------------------------------------------------------------

def test_ap_step_fixed_point():
    E, _ = build_plane(SPEC61)
    U, rank, coeffs = ap_step(E, E.anchor)
    assert frob_norm(U - E.anchor) <= 1e-15
    assert np.abs(coeffs).max() <= 1e-15
    assert rank == 1


def test_ap_step_segment_plane_exact_ratios():
    # one-dimensional plane meeting the cone in a segment: the update is
    # exactly linear on both sides of the segment
    neg = get_example("ex3.3", "neg")
    U1, rank, _ = ap_step(neg.plane, neg.plane.point(np.array([-0.1])))
    assert rank == 1
    assert frob_norm(U1 - neg.plane.point(np.array([-0.02]))) <= 1e-12

    pos = get_example("ex3.3", "pos")
    U1, _, _ = ap_step(pos.plane, pos.plane.point(np.array([0.5])))
    assert frob_norm(U1 - pos.plane.point(np.array([0.4]))) <= 1e-12


def test_ap_step_is_projection_composition():
    E, _ = build_plane(SPEC61)
    U = curve_point(SPEC61, 0.08).G
    stepped, rank, _ = ap_step(E, U)
    V, rank2 = project_psd(U)
    composed, _ = project_affine(E, V)
    assert rank == rank2
    assert np.array_equal(stepped, composed)


def test_ap_step_is_projection_composition_on_seeded_points():
    # bit-equal to project_psd then project_affine on type1 and type2 planes,
    # at random points and on the slowest curve, with the same rank
    rng = np.random.RandomState(17)
    ranks = []
    for i in range(300):
        if i % 3 == 0:
            spec = PlaneSpec("type1", tuple(rng.uniform(-1.0, 1.0, 8)),
                             mu=float(rng.uniform(0.2, 2.0)))
        else:
            spec = random_type2_spec(rng)
        E, _ = build_plane(spec)
        if i % 3 == 2:
            U = curve_point(spec, rng.uniform(0.02, 0.1)).G
        else:
            U = E.point(rng.uniform(-0.5, 0.5, E.dim))
        stepped, rank, coeffs = ap_step(E, U)
        V, rank2 = project_psd(U)
        composed, coeffs2 = project_affine(E, V)
        assert rank == rank2
        assert np.array_equal(stepped, composed)
        assert np.array_equal(coeffs, coeffs2)
        ranks.append(rank)
    assert {1, 2} <= set(ranks)


@pytest.mark.parametrize("U, rank", [(-np.diag([1.0, 2.0, 3.0]), 0),
                                     (np.diag([1.0, 2.0, 3.0]), 3)])
def test_ap_step_nsd_and_pd_inputs(U, rank):
    # rank 0 clips to the zero matrix, full rank keeps U
    E, _ = build_plane(SPEC61)
    stepped, got, coeffs = ap_step(E, U)
    V, _ = project_psd(U)
    assert got == rank
    assert frob_norm(V - (U if rank else np.zeros_like(U))) <= 1e-14
    composed, composed_coeffs = project_affine(E, V)
    assert np.array_equal(stepped, composed)
    assert np.array_equal(coeffs, composed_coeffs)


# --- run_ap -------------------------------------------------------------------

def test_run_ap_immediate_convergence():
    E, _ = build_plane(SPEC61)
    trace = run_ap(E, np.zeros(3), max_iter=50, tol=1e-12)
    assert len(trace) == 1
    assert trace.converged and trace.stop_reason == "tol"
    assert trace.psd_ranks[0] == 1


def test_run_ap_trace_contents():
    E, _ = build_plane(SPEC61)
    p0 = E.coefficients(curve_point(SPEC61, 0.1).G)
    trace = run_ap(E, p0, max_iter=500, tol=0.0, stride=100)
    assert len(trace) == 501
    assert trace.stop_reason == "max_iter"
    assert set(trace.sample_ks) == {0, 100, 200, 300, 400, 500}
    rows = list(trace.iterates())
    k, coeffs, dist, rank = rows[0]
    assert k == 0 and np.allclose(coeffs, p0) and rank == 1
    assert dist == pytest.approx(frob_norm(E.point(p0) - E.anchor), rel=1e-12)
    assert np.all(trace.psd_ranks >= 0) and np.all(trace.psd_ranks <= 3)


def test_run_ap_fejer_monotone_singleton_planes():
    rng = np.random.RandomState(2)
    for _ in range(5):
        spec = random_type2_spec(rng)
        E, _ = build_plane(spec)
        trace = run_ap(E, rng.uniform(-0.2, 0.2, 3), max_iter=300, tol=0.0)
        drops = np.diff(trace.dists)
        assert np.all(drops <= 1e-12)


def test_run_ap_matches_iterated_ap_step():
    # run_ap iterates ap_step's own step, so the two agree bit for bit; the
    # reference both are held to is built here from project_psd and the
    # Gram system G s = (<B_i, V - anchor>)_i
    E, _ = build_plane(SPEC61)
    p0 = E.coefficients(curve_point(SPEC61, 0.1).G)
    trace = run_ap(E, p0, max_iter=50, tol=0.0, stride=10)
    U = U_ref = E.point(p0)
    coeffs = s_ref = p0
    for k in range(51):
        assert frob_norm(U - E.anchor) == trace.dists[k]
        assert trace.dists[k] == pytest.approx(frob_norm(U_ref - E.anchor),
                                               rel=1e-12)
        assert np.allclose(coeffs, s_ref, rtol=1e-12, atol=0)
        if k % 10 == 0:
            assert np.array_equal(trace.sample_coeffs[k // 10], coeffs)
        V, rank_ref = project_psd(U_ref)
        b = np.array([frob_inner(B, V - E.anchor) for B in E.basis])
        s_ref = np.linalg.solve(E.gram, b)
        U_ref = E.anchor + np.tensordot(s_ref, E.basis, axes=1)
        U, rank, coeffs = ap_step(E, U)
        assert rank == rank_ref == trace.psd_ranks[k]


def _random_planes(rng, count):
    """type2 and type1 planes with random rotation and reflection, plus
    their Gram-Schmidt orthogonalized copies."""
    for i in range(count):
        if i % 2:
            spec = PlaneSpec("type1", tuple(rng.uniform(-1.0, 1.0, 8)),
                             mu=float(rng.uniform(0.2, 2.0)))
        else:
            spec = random_type2_spec(rng, mild=False)
        spec = PlaneSpec(spec.kind, spec.c,
                         theta=float(rng.uniform(0, 2 * np.pi)),
                         reflect=bool(rng.randint(2)), mu=spec.mu)
        E, _ = build_plane(spec)
        yield E
        yield orthogonalize(E)


def test_ap_step_returns_symmetric_iterate_and_its_coefficients():
    rng = np.random.RandomState(41)
    for E in _random_planes(rng, 30):
        for _ in range(5):
            U = E.point(rng.uniform(-0.5, 0.5, E.dim))
            W, rank, coeffs = ap_step(E, U)
            assert np.array_equal(W, W.T)
            assert 0 <= rank <= 3
            ref = E.coefficients(W)
            assert np.abs(coeffs - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ap_step_non_finite_input_raises(bad):
    E, _ = build_plane(SPEC61)
    U = np.array(E.anchor)
    U[1, 2] = U[2, 1] = bad
    with pytest.raises(EigenSolverError):
        ap_step(E, U)


def test_ap_step_rejects_malformed_input():
    E, _ = build_plane(SPEC61)
    U = np.array(E.anchor)
    U[0, 1] = 1e-300
    with pytest.raises(ValueError, match="not exactly symmetric"):
        ap_step(E, U)
    with pytest.raises(ValueError, match="square"):
        ap_step(E, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        ap_step(E, np.eye(2))


def test_run_ap_stagnation_stop():
    # tol=0 can never trigger; an exactly fixed start must stop as stagnation
    E, _ = build_plane(SPEC61)
    trace = run_ap(E, np.zeros(3), max_iter=10 ** 6, tol=0.0)
    assert trace.stop_reason == "stagnation"
    assert len(trace) < 200


def test_run_ap_argument_validation():
    E, _ = build_plane(SPEC61)
    with pytest.raises(ValueError):
        run_ap(E, np.zeros(3), max_iter=0, tol=0.0)
    with pytest.raises(ValueError):
        run_ap(E, np.zeros(3), max_iter=10, tol=-1.0)
    with pytest.raises(ValueError):
        run_ap(E, np.zeros(2), max_iter=10, tol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_ap_non_finite_start_raises(bad):
    # LAPACK may return NaN eigenvalues without an error; the clip would then
    # send the iterate to the anchor, so the start is checked before the loop
    E, _ = build_plane(SPEC61)
    with pytest.raises(EigenSolverError):
        run_ap(E, np.array([0.1, bad, 0.0]), max_iter=10, tol=0.0)


def test_run_ap_zero_stride_raises():
    E, _ = build_plane(SPEC61)
    with pytest.raises(ValueError, match="stride must be >= 1"):
        run_ap(E, np.array([0.1, 0.0, 0.0]), max_iter=10, tol=0.0, stride=0)


# --- eigenvalue formula ----------------------------------------------------------

def test_formula_step_psd_interior_is_identity():
    # interior of the intersection segment: no negative eigenvalues anywhere
    pos = get_example("ex3.3", "pos")
    p = np.array([-0.5])  # anchor + (-0.5) B = midpoint of the segment
    stepped = eigenvalue_formula_step(pos.plane, p)
    assert stepped == pytest.approx(p, abs=1e-12)
    # just past either end of the segment an eigenvalue crosses zero; the
    # step is still the direct one
    for t, expect in ((1e-9, 8.0e-10), (-1.0 - 1e-9, -1.0)):
        p = np.array([t])
        stepped = eigenvalue_formula_step(pos.plane, p)
        direct = pos.plane.coefficients(project_psd(pos.plane.point(p))[0])
        assert abs(stepped[0] - direct[0]) <= 1e-12
        assert direct[0] == pytest.approx(expect, rel=0.01)


def test_formula_step_line_cubic_contraction():
    E = get_example("ex3.2").plane
    t = 0.01
    stepped = eigenvalue_formula_step(E, np.array([t]))
    direct = E.coefficients(project_psd(E.point(np.array([t])))[0])
    assert abs(stepped[0] - direct[0]) < 1e-12
    assert stepped[0] == pytest.approx(t - t ** 3 / 3.0, abs=1e-8)


def test_formula_step_random_type2_agrees_with_direct():
    rng = np.random.RandomState(15)
    worst = 0.0
    for _ in range(20):
        spec = random_type2_spec(rng)
        E = orthogonalize(build_plane(spec)[0])
        p = rng.uniform(-0.05, 0.05, 3)
        worst = max(worst, formula_vs_direct_gap(E, p))
    assert worst < 1e-12


def test_formula_step_requires_orthogonal_basis():
    E, _ = build_plane(PlaneSpec("type2", (0.5, 0.3, -0.2, 1.0, 0.4)))
    with pytest.raises(ValueError, match="orthogonal"):
        eigenvalue_formula_step(E, np.zeros(3))


def test_formula_step_rejects_bad_p():
    E = orthogonalize(build_plane(SPEC61)[0])
    with pytest.raises(ValueError, match="expected 3 coefficients"):
        eigenvalue_formula_step(E, np.zeros(2))
    with pytest.raises(EigenSolverError):
        eigenvalue_formula_step(E, np.array([0.1, np.nan, 0.0]))
    # an infinite coefficient is rejected without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigenSolverError):
            eigenvalue_formula_step(E, np.array([np.inf, 0.0, 0.0]))


# --- rank-1 chart ------------------------------------------------------------------

def test_psi_basics():
    assert np.array_equal(psi([1.0, 0.0, 0.0]), np.diag([1.0, 0.0, 0.0]))
    assert np.array_equal(psi([2.0, 0.0, 0.0]), np.diag([2.0, 0.0, 0.0]))
    assert np.array_equal(psi_partial([2.0, 0.0, 0.0], 0),
                          np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        psi([0.0, 1.0, 0.0])
    x = [1.0, 0.2, -0.3]
    for k in (-1, 3):
        with pytest.raises(ValueError, match="k must be"):
            psi_partial(x, k)
    with pytest.raises(ValueError, match="x must be a 3-vector"):
        psi_partial([1.0, 0.2], 1)
    with pytest.raises(ValueError, match="x1 != 0"):
        psi_partial([0.0, 0.2, -0.3], 1)


def test_psi_scaling_invariance_and_rank():
    x = np.array([1.3, -0.4, 0.7])
    P = psi(x)
    assert np.linalg.matrix_rank(P, tol=1e-10) == 1
    assert np.allclose(P * x[0], np.outer(x, x))


def test_psi_partial_matches_finite_differences():
    rng = np.random.RandomState(8)
    h = 1e-5
    for _ in range(10):
        x = np.array([1.0, 0, 0]) + rng.uniform(-0.3, 0.3, 3)
        for k in range(3):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            fd = (psi(xp) - psi(xm)) / (2 * h)
            assert frob_norm(fd - psi_partial(x, k)) < 5e-9  # O(h^2)


def test_m_matrix_invertible_for_nonzero_c3():
    E = orthogonalize(build_plane(SPEC44)[0])
    M = m_matrix(E, np.array([1.0, 0.0, 0.0]))
    assert abs(np.linalg.det(M) - 8.0) < 1e-12  # det = 8 c3 at the base point


def test_m_matrix_linearity_in_basis():
    E = orthogonalize(build_plane(SPEC44)[0])
    x = np.array([1.0, 0.05, -0.01])
    M = m_matrix(E, x)
    # the closed form is the pairing M[k, i] = <d_k psi(x), B_i>
    pairs = [[frob_inner(psi_partial(x, k), B) for B in E.basis]
             for k in range(3)]
    assert np.allclose(M, pairs, rtol=1e-14, atol=1e-15)
    scaled = AffineSubspace.from_basis(
        E.anchor, np.array([2.0 * E.basis[0], E.basis[1], E.basis[2]]))
    M2 = m_matrix(scaled, x)
    assert np.allclose(M2[:, 0], 2.0 * M[:, 0], rtol=1e-14)
    assert np.allclose(M2[:, 1:], M[:, 1:], rtol=1e-14)


def test_grad_vanishes_on_plane_points():
    E = orthogonalize(build_plane(SPEC44)[0])
    # x* maps to the anchor, which lies in E
    g = grad_half_dist2_psi(E, np.array([1.0, 0.0, 0.0]))
    assert np.abs(g).max() <= 1e-14


def test_grad_matches_finite_differences():
    rng = np.random.RandomState(21)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        spec = random_type2_spec(rng)
        E = orthogonalize(build_plane(spec)[0])
        x = np.array([1.0, 0, 0]) + rng.uniform(-0.2, 0.2, 3)
        g = grad_half_dist2_psi(E, x)
        for k in range(3):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            fd = (0.5 * dist2_affine(E, psi(xp))
                  - 0.5 * dist2_affine(E, psi(xm))) / (2 * h)
            worst = max(worst, abs(fd - g[k]))
    assert worst < 1e-8


def test_extract_rank_one_param_round_trip():
    x = np.array([0.9, 0.2, -0.4])
    got = extract_rank_one_param(psi(x))
    assert np.allclose(got, x, rtol=1e-12, atol=1e-14)
    with pytest.raises(RankOneError):
        extract_rank_one_param(sym_matrix(np.diag([0.0, 0.0, 1.0])))


def test_rank_one_residual_zero_start():
    E = orthogonalize(build_plane(SPEC61)[0])
    assert rank_one_step_residual(E, np.zeros(3)) <= 1e-14


def test_rank_one_residual_on_curve_points():
    E = orthogonalize(build_plane(SPEC61)[0])
    p = E.coefficients(curve_point(SPEC61, 0.05).G)
    assert rank_one_step_residual(E, p) < 1e-10


def test_rank_one_residual_random_planes():
    from apcone.slowcurve import valid_t_max

    rng = np.random.RandomState(33)
    done = 0
    while done < 20:
        spec = random_type2_spec(rng)
        t = min(0.05, 0.45 * valid_t_max(spec))
        if t < 5e-3:
            continue
        E = orthogonalize(build_plane(spec)[0])
        p = E.coefficients(curve_point(spec, t).G)
        res = rank_one_step_residual(E, p)
        assert res <= 1e-9 * (1.0 + float(np.linalg.norm(p)))
        done += 1


def test_rank_one_residual_rejects_infinite_p():
    E = orthogonalize(build_plane(SPEC61)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigenSolverError):
            rank_one_step_residual(E, np.array([np.inf, 0.0, 0.0]))


def test_rank_one_residual_rejects_rank2():
    E = orthogonalize(build_plane(SPEC61)[0])
    # far from the anchor the projection keeps two positive eigenvalues
    with pytest.raises(RankOneError):
        rank_one_step_residual(E, np.array([2.5, 1.0, 1.5]))
