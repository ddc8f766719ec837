"""Symmetric-matrix core: Frobenius geometry, eigendecomposition, and the
two projections (PSD cone, affine subspace) everything else composes.

Matrices are plain float64 ndarrays kept exactly symmetric.  An affine
subspace carries its anchor, a (not necessarily orthogonal) basis of the
direction space and its Gram matrix, and, from the one QR factorization
``B = Q R`` of the raveled basis made when it is built, Q (columns exactly
symmetric, Frobenius-orthonormal), R^-1 and two affine maps of a flat
``v = vec(V)``: the augmented projector ``aug = [Q Q^T | offset]``, with
``vec(P_E(V)) = aug [v | 1]``, and the coefficient map, whose basis
coefficients of P_E(V) are ``v Q R^-T - R^-1 Q^T vec(anchor)``.  The
private ``AffineSubspace._project`` and ``_coefficients`` apply them, one
matrix-vector product each, for ``coefficients``, ``project_affine`` and
the AP step in ``apengine``; ``orthogonalize`` reads its Gram-Schmidt
basis off Q and R.

Every eigendecomposition in the package goes through the private
``_eigh``: one call of LAPACK's symmetric eigensolver through the gufunc
``numpy.linalg._umath_linalg.eigh_lo`` that ``numpy.linalg.eigh`` itself
calls, so the results are the same bits, eigenvalues ascending.  The
public wrapper's checks, ``np.errstate`` context and result wrapping cost
about 5 us per 3x3 call; the gufunc itself takes about 3.6 us of the
~7.5 us step of ``apengine.run_ap`` (2-core x86-64, numpy 2.4).  Failure
is detected instead from the output (NaN eigenvalues raise
``EigenSolverError``).  Every PSD projection goes through ``psd_part``,
which returns ``S S^T``, written into a caller's array when given one;
NumPy evaluates that as a symmetric rank-k product, so the clip is exactly
symmetric without a symmetrization pass.  ``psd_part``, ``_project`` and
``_coefficients`` check nothing.
Input is checked (square, finite, exactly symmetric) once, where it enters
a public function, by ``check_sym`` or ``check_finite_sym``; a point of an
affine subspace is checked the same way, size included, by the private
``AffineSubspace._check_point``.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

DEPENDENT_BASIS_TOL = 1e-10


class EigenSolverError(RuntimeError):
    """LAPACK's symmetric eigensolver failed, or its input was not finite."""


class DependentBasisError(ValueError):
    """Basis matrices fed to an affine subspace are linearly dependent."""


def sym_matrix(entries):
    """Build an exactly symmetric float64 matrix, upper triangle authoritative."""
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    u = np.triu(a)
    return u + np.triu(a, 1).T


def check_sym(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # same decision as np.array_equal for a square array (NaN != NaN,
    # -0.0 == 0.0: tolist makes a new float per entry, so no NaN is
    # compared with itself), at a third of the cost of (a == a.T).all()
    if a.tolist() != a.T.tolist():
        raise ValueError("matrix is not exactly symmetric")
    return a


def frob_inner(a, b):
    """Frobenius inner product <A, B> = sum_ij A_ij B_ij."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.vdot(a, b))


def frob_norm(a):
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


@dataclass(frozen=True)
class EigDecomp:
    """Eigenvalues sorted descending with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _eigh(a):
    """Eigenvalues of a symmetric float64 matrix in ascending order, with
    matching orthonormal columns (LAPACK's own order).

    Calls the gufunc behind ``numpy.linalg.eigh`` directly, with the same
    arguments, so the output is bit-identical to it.  Only the lower
    triangle is read and the input is not checked: callers check that it
    is finite, since for n <= 2 non-finite input can come back finite.
    The gufunc reports a LAPACK failure as NaN output, which raises
    ``EigenSolverError`` here, as does NaN from non-finite input.  A
    failure also sets floating-point flags, which NumPy reports as
    ``np.errstate`` says (a ``RuntimeWarning`` by default).
    """
    lam, vecs = _umath_linalg.eigh_lo(a, signature="d->dd")
    # sum() is NaN iff an eigenvalue is NaN, or both +inf and -inf occur
    if math.isnan(sum(lam.tolist())):
        raise EigenSolverError("LAPACK eigh failed: NaN eigenvalues")
    return lam, vecs


def psd_part(lam, vecs, out=None):
    """PSD projection from an ascending eigendecomposition (``_eigh``'s).

    Eigenvalues above tau = 1e-12 * max(1, lambda_max) are retained, a
    suffix of ``lam``; returns ``(S S^T, rank)`` with ``S`` the retained
    columns scaled by sqrt(lambda), ``S S^T`` written into ``out`` (C
    contiguous, n x n) when it is given.  NumPy computes ``S.dot(S.T)`` as
    a symmetric rank-k product, so the projection is exactly symmetric.
    The products on the AP step use ``ndarray.dot``: it gives the bits
    ``@`` gives and skips the matmul gufunc's dispatch, about 0.8 us a
    call at these sizes.
    """
    lams = lam.tolist()
    lo = bisect_right(lams, 1e-12 * max(1.0, lams[-1]))
    S = vecs[:, lo:] * np.sqrt(lam[lo:])
    return S.dot(S.T, out=out), len(lams) - lo


def check_finite_sym(a):
    """``check_sym`` preceded by a finiteness check that raises
    ``EigenSolverError``."""
    a = np.asarray(a, dtype=float)
    # a finite sum has finite terms; a sum that overflows is decided
    # entry by entry
    if not (math.isfinite(sum(a.ravel().tolist())) or np.isfinite(a).all()):
        raise EigenSolverError("matrix has non-finite entries")
    return check_sym(a)


def eig_sym(a):
    """Symmetric eigendecomposition; the first component above 1e-12 in
    magnitude of every eigenvector is positive."""
    lam, vecs = _eigh(check_finite_sym(a))
    lam, vecs = lam[::-1], vecs[:, ::-1]
    lead = np.argmax(np.abs(vecs) > 1e-12, axis=0)
    signs = np.where(vecs[lead, np.arange(vecs.shape[1])] < 0.0, -1.0, 1.0)
    return EigDecomp(lam, vecs * signs)


def project_psd(a):
    """Project onto the PSD cone; returns (projection, retained rank)."""
    return psd_part(*_eigh(check_finite_sym(a)))


def _standard_sym_basis(n):
    """Orthonormal basis of S^n: E_ii then (E_ij + E_ji)/sqrt(2), i<j."""
    out = []
    for i in range(n):
        M = np.zeros((n, n))
        M[i, i] = 1.0
        out.append(M)
    for i in range(n):
        for j in range(i + 1, n):
            M = np.zeros((n, n))
            M[i, j] = M[j, i] = 1.0 / np.sqrt(2.0)
            out.append(M)
    return out


def _freeze(a):
    a = np.array(a, dtype=float)  # private copy
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AffineSubspace:
    """Affine subspace anchor + span{basis} of S^n with projection data.

    ``Q`` (n*n, m) and ``R_inv`` (m, m) come from the thin QR factorization
    ``basis.reshape(m, n*n).T = Q R``; each column of Q, as an n x n
    matrix, is exactly symmetric.  A flat v projects to ``aug [v | 1]``
    with ``aug = [Q Q^T | offset]`` (rows (i, j) and (j, i) equal), with
    basis coefficients ``v coef_map - coef_offset``
    (``coef_map = Q R^-T``).  A basis whose R has a diagonal entry at most
    ``DEPENDENT_BASIS_TOL`` times its largest is rejected as dependent.
    """

    anchor: np.ndarray
    basis: np.ndarray          # (m, n, n)
    gram: np.ndarray           # (m, m)
    Q: np.ndarray = field(repr=False)
    R_inv: np.ndarray = field(repr=False)
    aug: np.ndarray = field(repr=False)          # (n*n, n*n + 1)
    coef_map: np.ndarray = field(repr=False)
    coef_offset: np.ndarray = field(repr=False)  # (m,)

    @property
    def n(self):
        return self.anchor.shape[0]

    @property
    def dim(self):
        return self.basis.shape[0]

    @classmethod
    def from_basis(cls, anchor, basis):
        anchor = check_sym(anchor)
        basis = np.array([check_sym(B) for B in basis], dtype=float)
        m, n = basis.shape[0], anchor.shape[0]
        if basis.shape[1:] != (n, n):
            raise ValueError("basis dimension does not match anchor")
        flat = basis.reshape(m, n * n)
        Q, R = np.linalg.qr(flat.T)
        diag = np.abs(np.diag(R))
        if not diag.min() > DEPENDENT_BASIS_TOL * diag.max():
            raise DependentBasisError("basis matrices are linearly dependent")

        def mirror(A):   # rows (i, j) and (j, i) replaced by their mean
            A = A.reshape(n, n, -1)
            return (0.5 * (A + A.transpose(1, 0, 2))).reshape(n * n, -1)

        # columns of Q are symmetric only up to rounding; make them exactly
        # symmetric, and rows (i, j) and (j, i) of aug equal, so that every
        # projection aug [v | 1] is exactly symmetric
        Q, R_inv, a = mirror(Q), np.linalg.inv(R), anchor.ravel()
        proj, coef_map = mirror(Q @ Q.T), Q @ R_inv.T
        aug = np.hstack([proj, mirror(a - proj @ a)])
        return cls(*map(_freeze, (anchor, basis, flat @ flat.T, Q, R_inv, aug,
                                  coef_map, a @ coef_map)))

    def point(self, coeffs):
        """phi(p) = anchor + sum_i p_i B_i, exactly symmetric."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coefficients")
        n = self.n
        flat = self.basis.reshape(self.dim, n * n)
        # a non-finite coefficient gives NaN entries (inf * 0) without a
        # warning; callers that need a finite point check for them
        with np.errstate(invalid="ignore", over="ignore"):
            U = self.anchor + (coeffs @ flat).reshape(n, n)
            return 0.5 * (U + U.T)

    def coefficients(self, X):
        """Coefficients R^-1 Q^T vec(X - anchor) of the best approximation
        to X - anchor in span{basis}."""
        return self._coefficients(self._check_point(X).ravel())

    def _check_point(self, X):
        """X as a finite, exactly symmetric n x n float array: a
        non-finite entry raises ``EigenSolverError``, any other fault
        ``ValueError``."""
        X = check_finite_sym(X)
        if X.shape[0] != self.n:
            raise ValueError("dimension mismatch")
        return X

    def _project(self, r, out):
        """vec of the orthogonal projection of V, written into the flat
        ``out`` and returned, from the unchecked row r = [vec V | 1]."""
        return self.aug.dot(r, out=out)

    def _coefficients(self, v):
        """Basis coefficients of the projection of flat, unchecked v."""
        return v.dot(self.coef_map) - self.coef_offset


def project_affine(E, X):
    """Orthogonal projection onto E; returns (point, coefficients)."""
    X = E._check_point(X)
    r = np.empty(X.size + 1)
    r[-1] = 1.0
    v = r[:-1]
    v[:] = X.ravel()
    return (E._project(r, np.empty(X.size)).reshape(X.shape),
            E._coefficients(v))


def orthogonalize(E):
    """Gram-Schmidt the basis in order (first element kept verbatim).

    Element i is B_i less its projection onto span{B_0, ..., B_{i-1}}, read
    off the stored QR factors as R_ii mat(Q_i), with R_ii = 1 / (R^-1)_ii.
    """
    C = (E.Q / np.diag(E.R_inv)).T.reshape(E.dim, E.n, E.n)
    C[0] = E.basis[0]
    return AffineSubspace.from_basis(E.anchor, C)
