import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcone.planes import PlaneSpec, build_plane, type2_basis
from apcone.symcore import (AffineSubspace, DependentBasisError,
                            EigenSolverError, _eigh, check_sym, eig_sym,
                            frob_inner, frob_norm, orthogonalize,
                            project_affine, project_psd, sym_matrix)
from apcone.verify import random_type2_spec

RNG = np.random.RandomState(101)


def random_sym(n, rng=RNG, scale=1.0):
    A = rng.uniform(-scale, scale, (n, n))
    return sym_matrix(A)


# --- frob_inner -------------------------------------------------------------

def test_frob_inner_identity():
    assert frob_inner(np.eye(3), np.eye(3)) == 3.0


def test_frob_inner_type2_basis_values():
    B = type2_basis((1.0, 2.0, 0.0, 1.0, 0.0))
    assert frob_inner(B[0], B[0]) == 6.0          # 4 c1^2 + 2
    assert frob_inner(B[0], B[1]) == -8.0         # -4 c1 c2


def test_frob_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        frob_inner(np.eye(2), np.eye(3))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_frob_inner_symmetric_bilinear(seed):
    rng = np.random.RandomState(seed)
    A, B, C = (random_sym(3, rng) for _ in range(3))
    a, b = rng.uniform(-2, 2, 2)
    assert frob_inner(A, B) == pytest.approx(frob_inner(B, A), abs=1e-12)
    lhs = frob_inner(a * A + b * B, C)
    rhs = a * frob_inner(A, C) + b * frob_inner(B, C)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# --- _eigh -------------------------------------------------------------------

def _eigh_cases(rng):
    """Symmetric matrices for n = 1..5: random, rank-deficient, and with
    repeated eigenvalues, each C-ordered, F-ordered and transposed."""
    for n in range(1, 6):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        mats = [np.zeros((n, n)), np.eye(n), (Q * 2.0) @ Q.T]
        for _ in range(20):
            A = rng.standard_normal((n, n))
            mats.append(A + A.T)
            for r in range(n):
                X = rng.standard_normal((n, r))
                mats.append(X @ X.T)
            lam = rng.choice([-1.0, 0.0, 2.0], size=n)
            mats.append((Q * lam) @ Q.T)
        for M in mats:
            yield from (M, np.asfortranarray(M), M.T,
                        np.asfortranarray(M).T)


def test_eigh_bit_identical_to_numpy():
    count = 0
    for M in _eigh_cases(np.random.default_rng(2024)):
        lam, vecs = _eigh(M)
        ref_lam, ref_vecs = np.linalg.eigh(M)
        assert np.array_equal(lam, ref_lam)
        assert np.array_equal(vecs, ref_vecs)
        count += 1
    assert count > 1000


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_eigh_infinite_input_raises(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigenSolverError):
            _eigh(np.diag([bad, 0.0, 0.0]))


@pytest.mark.parametrize("a", [np.diag([np.nan, 0.0, 0.0]),
                               np.full((3, 3), np.nan)])
def test_eigh_nan_input_raises(a):
    # the full-NaN matrix makes LAPACK fail, which also sets the invalid flag
    with np.errstate(invalid="ignore"):
        with pytest.raises(EigenSolverError):
            _eigh(a)


# --- eig_sym ------------------------------------------------------------------

def test_eig_diag():
    dec = eig_sym(np.diag([1.0, 0.0, 0.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 0.0, 0.0])


def test_eig_2x2_block_closed_form():
    # [[1,0,-t],[0,2t,0],[-t,0,0]] at t = 0.1: eigenvalues 2t, (1 +/- sqrt(1+4t^2))/2
    t = 0.1
    U = sym_matrix([[1, 0, -t], [0, 2 * t, 0], [-t, 0, 0]])
    lam = eig_sym(U).eigenvalues
    root = np.sqrt(1 + 4 * t * t)
    expect = np.sort([2 * t, (1 + root) / 2, (1 - root) / 2])[::-1]
    assert np.allclose(lam, expect, atol=1e-14)


def test_eig_quartic_plane_characteristic_polynomial():
    # 4x4 two-parameter plane: nonzero eigenvalues solve
    # lam^3 - lam^2 - 2 r^2 lam + r^2 = 0 with r^2 = p1^2 + p2^2
    p1, p2 = 0.1, 0.0
    U = sym_matrix([[1, 0, p1, p2], [0, 0, p1, p2],
                    [p1, p1, 0, 0], [p2, p2, 0, 0]])
    r2 = p1 ** 2 + p2 ** 2
    lam = eig_sym(U).eigenvalues
    nonzero = lam[np.abs(lam) > 1e-9]
    assert len(nonzero) == 3
    for v in nonzero:
        assert abs(v ** 3 - v ** 2 - 2 * r2 * v + r2) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_eig_reconstruction_and_orthonormality(n):
    for seed in range(5):
        A = random_sym(n, np.random.RandomState(seed), scale=2.0)
        dec = eig_sym(A)
        scale = max(1.0, frob_norm(A))
        V = dec.eigenvectors
        assert frob_norm((V * dec.eigenvalues) @ V.T - A) <= 1e-12 * scale
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.abs(gram - np.eye(n)).max() <= 1e-12
        assert np.all(np.diff(dec.eigenvalues) <= 1e-15)


def test_eig_sign_convention():
    dec = eig_sym(random_sym(4, np.random.RandomState(7)))
    for col in dec.eigenvectors.T:
        lead = col[np.abs(col) > 1e-12][0]
        assert lead > 0


@pytest.mark.parametrize("solver", [eig_sym, project_psd])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eig_non_finite_input_raises(solver, bad):
    with pytest.raises(EigenSolverError):
        solver(sym_matrix([[1.0, bad], [bad, 0.0]]))


# --- project_psd ----------------------------------------------------------------

def test_project_psd_diag():
    P, rank = project_psd(np.diag([1.0, -1.0]))
    assert np.allclose(P, np.diag([1.0, 0.0]))
    assert rank == 1


def test_project_psd_fixed_point():
    rng = np.random.RandomState(3)
    for _ in range(5):
        X = rng.uniform(-1, 1, (4, 3))
        W = sym_matrix(X @ X.T)
        P, rank = project_psd(W)
        assert frob_norm(P - W) <= 1e-11 * max(1.0, frob_norm(W))
        assert rank == np.linalg.matrix_rank(W, tol=1e-9)


def test_project_psd_idempotent_nonexpansive_minimal():
    rng = np.random.RandomState(11)
    for _ in range(50):
        A = random_sym(3, rng, 2.0)
        B = random_sym(3, rng, 2.0)
        PA, _ = project_psd(A)
        PB, _ = project_psd(B)
        PPA, _ = project_psd(PA)
        assert frob_norm(PPA - PA) <= 1e-12 * max(1.0, frob_norm(PA))
        assert frob_norm(PA - PB) <= frob_norm(A - B) + 1e-12
        X = rng.uniform(-1, 1, (3, 3))
        W = sym_matrix(X @ X.T)  # arbitrary PSD competitor
        assert frob_norm(A - PA) <= frob_norm(A - W) + 1e-12


def test_project_psd_exactly_symmetric_at_every_rank():
    # the clip is S @ S.T with no symmetrization pass; NumPy's symmetric
    # rank-k product must make it exactly symmetric at every size and rank
    rng = np.random.RandomState(29)
    for n in range(2, 6):
        for r in range(n + 1):
            for _ in range(120):
                Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                lam = np.concatenate([rng.uniform(0.1, 2.0, r),
                                      -rng.uniform(0.1, 2.0, n - r)])
                P, rank = project_psd(sym_matrix((Q * lam) @ Q.T))
                assert rank == r
                assert np.array_equal(P, P.T)


# --- check_sym ------------------------------------------------------------------

def test_check_sym_decision_matches_array_equal():
    nan, inf = np.nan, np.inf
    cases = [
        sym_matrix([[1.0, 2.0], [2.0, 3.0]]),
        np.array([[1.0, 2.0], [2.0 + 1e-16 * 4, 3.0]]),
        np.array([[nan, 0.0], [0.0, 1.0]]),
        np.array([[1.0, nan], [nan, 1.0]]),
        np.array([[inf, -inf], [-inf, 1.0]]),
        np.array([[1.0, inf], [-inf, 1.0]]),
        np.array([[0.0, -0.0], [0.0, 0.0]]),
        np.zeros((0, 0)),
        random_sym(4),
        random_sym(4) + np.triu(np.full((4, 4), 1e-12), 1),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in cases:
            if np.array_equal(a, a.T):
                check_sym(a)
            else:
                with pytest.raises(ValueError, match="not exactly symmetric"):
                    check_sym(a)


# --- affine subspace ---------------------------------------------------------

@pytest.fixture
def plane_ex32():
    B = sym_matrix([[0, 0, -1], [0, 2, 0], [-1, 0, 0]])
    return AffineSubspace.from_basis(np.diag([1.0, 0, 0]), np.array([B]))


def test_project_affine_fixed_point(plane_ex32):
    X = plane_ex32.point(np.array([0.35]))
    Y, coeffs = project_affine(plane_ex32, X)
    assert frob_norm(Y - X) <= 1e-12
    assert coeffs == pytest.approx([0.35], abs=1e-12)


# unit normals of the ex3.2 line's direction [[0, 0, -1], [0, 2, 0], [-1, 0, 0]]
_NORMAL_11 = np.diag([1.0, 0.0, 0.0])
_NORMAL_12 = sym_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) / np.sqrt(2.0)


def test_project_affine_complement_direction(plane_ex32):
    X = sym_matrix(plane_ex32.anchor + 0.7 * _NORMAL_12)
    Y, coeffs = project_affine(plane_ex32, X)
    assert frob_norm(Y - plane_ex32.anchor) <= 1e-12
    assert np.abs(coeffs).max() <= 1e-12


def test_projected_coefficient_cubic_correction(plane_ex32):
    # P_E(P_psd(U(0.1))) pulls t = 0.1 back by t^3/3 + O(t^4)
    V, _ = project_psd(plane_ex32.point(np.array([0.1])))
    _, coeffs = project_affine(plane_ex32, V)
    assert abs(coeffs[0] - (0.1 - 0.1 ** 3 / 3.0)) < 1e-4


def test_project_affine_residual_orthogonal():
    rng = np.random.RandomState(5)
    E = AffineSubspace.from_basis(np.diag([1.0, 0, 0]),
                                  type2_basis((0.4, -0.2, 0.9, 1.1, -0.6)))
    for _ in range(20):
        X = random_sym(3, rng)
        Y, _ = project_affine(E, X)
        for B in E.basis:
            assert abs(frob_inner(X - Y, B)) <= 1e-10 * max(1.0, frob_norm(X))


def _random_planes(rng):
    for _ in range(6):
        c = tuple(rng.uniform(-1.5, 1.5, 5))
        yield PlaneSpec("type2", c, theta=float(rng.uniform(0, 2 * np.pi)),
                        reflect=bool(rng.randint(2)))
        c = tuple(rng.uniform(-1.0, 1.0, 8))
        yield PlaneSpec("type1", c, mu=float(rng.uniform(0.2, 2.0)),
                        theta=float(rng.uniform(0, 2 * np.pi)),
                        reflect=bool(rng.randint(2)))


def test_qr_coefficients_match_gram_system():
    # reference: the normal equations G s = (<B_i, X - anchor>)_i
    rng = np.random.RandomState(29)
    for spec in _random_planes(rng):
        E, _ = build_plane(spec)
        for _ in range(5):
            X = random_sym(3, rng, 2.0)
            b = np.array([frob_inner(B, X - E.anchor) for B in E.basis])
            ref = np.linalg.solve(E.gram, b)
            Y, coeffs = project_affine(E, X)
            assert np.array_equal(Y, Y.T)
            scale = np.abs(ref).max()
            assert np.abs(E.coefficients(X) - ref).max() <= 1e-12 * scale
            assert np.abs(coeffs - ref).max() <= 1e-12 * scale
            Y_ref = E.anchor + np.tensordot(ref, E.basis, axes=1)
            assert frob_norm(Y - Y_ref) <= 1e-12 * max(1.0, frob_norm(Y_ref))


def test_point_is_exactly_symmetric():
    rng = np.random.RandomState(31)
    for spec in _random_planes(rng):
        E, _ = build_plane(spec)
        for _ in range(5):
            U = E.point(rng.uniform(-3.0, 3.0, E.dim))
            assert np.array_equal(U, U.T)
            project_psd(U)               # rejects an asymmetric input


def test_dependent_basis_rejected():
    B = sym_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(DependentBasisError):
        AffineSubspace.from_basis(np.zeros((3, 3)), np.array([B, 2 * B]))


@pytest.mark.parametrize("fn", [project_affine, AffineSubspace.coefficients])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_affine_non_finite_input_raises(plane_ex32, fn, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigenSolverError, match="non-finite"):
            fn(plane_ex32, np.diag([bad, 0.0, 0.0]))


def _dist2(E, X):
    """Squared distance ||X - P_E(X)||^2, from project_affine's residual."""
    R = X - project_affine(E, X)[0]
    return frob_inner(R, R)


def test_dist2_affine_zero_on_plane(plane_ex32):
    X = plane_ex32.point(np.array([-0.2]))
    assert _dist2(plane_ex32, X) <= 1e-20


def test_dist2_affine_pythagoras(plane_ex32):
    for N in (_NORMAL_11, _NORMAL_12):
        X = sym_matrix(plane_ex32.anchor + 0.3 * N)
        assert _dist2(plane_ex32, X) == pytest.approx(0.09, rel=1e-12)


def test_projector_matches_qr_route():
    # reference: the projection and coefficients through the QR factors,
    # anchor + mat(Q (Q^T vec X - Q^T vec anchor)) and R^-1 of the same
    # Q-coordinates
    rng = np.random.RandomState(31)
    for spec in _random_planes(rng):
        E, _ = build_plane(spec)
        for _ in range(10):
            X = random_sym(3, rng, 2.0)
            z = X.ravel() @ E.Q - E.anchor.ravel() @ E.Q
            ref = E.anchor + (E.Q @ z).reshape(3, 3)
            Y, coeffs = project_affine(E, X)
            assert np.abs(Y - ref).max() <= 1e-14 * np.abs(ref).max()
            ref_c = E.R_inv @ z
            assert (np.abs(coeffs - ref_c).max()
                    <= 1e-14 * np.abs(ref_c).max())


def test_dist2_affine_matches_projection_path():
    # reference: the part of X - anchor in the span of the plane's
    # constraint matrices A_i, which are normal to its direction space
    rng = np.random.RandomState(17)
    for spec in _random_planes(rng):
        E, constraints = build_plane(spec)
        A = np.array(constraints).reshape(3, 9)
        for _ in range(10):
            X = random_sym(3, rng, 2.0)
            y = A @ (X - E.anchor).ravel()
            ref = y @ np.linalg.solve(A @ A.T, y)
            assert _dist2(E, X) == pytest.approx(ref, rel=1e-10, abs=1e-18)


# --- orthogonalize -----------------------------------------------------------

def test_orthogonalize_keeps_orthogonal_basis():
    E = AffineSubspace.from_basis(np.diag([1.0, 0, 0]),
                                  type2_basis((1.0, 0.0, 0.0, 1.0, 0.0)))
    Eo = orthogonalize(E)
    assert np.abs(Eo.basis - E.basis).max() <= 1e-14


def test_orthogonalize_type2_general():
    E = AffineSubspace.from_basis(np.diag([1.0, 0, 0]),
                                  type2_basis((0.7, -0.4, 0.2, 1.3, 0.5)))
    Eo = orthogonalize(E)
    assert np.array_equal(Eo.basis[0], E.basis[0])  # first element kept
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(frob_inner(Eo.basis[i], Eo.basis[j])) < 1e-12


def _gram_schmidt(basis):
    """Reference: classical Gram-Schmidt in order, first element verbatim."""
    out = []
    for B in basis:
        R = B.copy()
        for C in out:
            R = R - (frob_inner(C, B) / frob_inner(C, C)) * C
        out.append(R)
    return np.array(out)


def test_orthogonalize_is_unit_triangular_in_the_basis():
    # Gram-Schmidt in order: Eo.basis[j] = E.basis[j] + sum_{i<j} T_ij
    # E.basis[i], a unit triangular transform, with orthogonal results
    # that match the loop above
    rng = np.random.RandomState(41)
    for _ in range(50):
        spec = random_type2_spec(rng, mild=False)
        spec = PlaneSpec("type2", spec.c, theta=float(rng.uniform(0, 6.3)),
                         reflect=bool(rng.randint(2)))
        E, _ = build_plane(spec)
        Eo = orthogonalize(E)
        F, Fo = E.basis.reshape(3, 9), Eo.basis.reshape(3, 9)
        T = np.linalg.lstsq(F.T, Fo.T, rcond=None)[0]   # Fo.T = F.T T
        assert np.abs(F.T @ T - Fo.T).max() <= 1e-12 * np.abs(F).max()
        assert np.abs(np.diag(T) - 1.0).max() <= 1e-12
        assert np.abs(np.tril(T, -1)).max() <= 1e-12 * np.abs(T).max()
        G = Fo @ Fo.T
        off = np.abs(G - np.diag(np.diag(G))).max()
        assert off <= 1e-12 * np.diag(G).max()
        assert np.array_equal(Eo.basis[0], E.basis[0])
        ref = _gram_schmidt(E.basis)
        for C, C_ref in zip(Eo.basis, ref):
            assert np.abs(C - C_ref).max() <= 1e-14 * np.abs(C_ref).max()


def test_orthogonalize_preserves_projections():
    rng = np.random.RandomState(23)
    E = AffineSubspace.from_basis(np.diag([1.0, 0, 0]),
                                  type2_basis((0.7, -0.4, 0.2, 1.3, 0.5)))
    Eo = orthogonalize(E)
    for _ in range(20):
        X = random_sym(3, rng)
        Y1, _ = project_affine(E, X)
        Y2, _ = project_affine(Eo, X)
        assert frob_norm(Y1 - Y2) <= 1e-10 * max(1.0, frob_norm(X))


def test_affine_subspace_arrays_are_frozen(plane_ex32):
    for name in ("anchor", "basis", "gram", "Q", "R_inv", "aug", "coef_map",
                 "coef_offset"):
        with pytest.raises(ValueError):
            getattr(plane_ex32, name).flat[0] = 1.0
