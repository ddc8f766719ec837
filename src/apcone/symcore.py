"""Symmetric-matrix core: Frobenius geometry, eigendecomposition, and the
two projections (PSD cone, affine subspace) everything else composes.

Matrices are plain float64 ndarrays kept exactly symmetric; an affine
subspace carries its anchor, a (not necessarily orthogonal) basis of the
direction space, its Gram matrix, and the orthonormal factor Q and the
inverse of the triangular factor R of the thin QR factorization ``B = Q R``
of the raveled basis (each column of Q an exactly symmetric matrix,
orthonormal in the Frobenius inner product).  That QR is the one
factorization of a subspace: it is computed once, when the subspace is
built, and so is ``vec(anchor) Q``.  The projection of V is then
``anchor + mat(Q z)`` with ``z = Q^T vec(V - anchor)``, evaluated as
``vec(V) Q - vec(anchor) Q``, and its basis coefficients are ``R^-1 z``;
those expressions (the private ``AffineSubspace._q_coords`` and
``_coefficients_from_q``) serve ``coefficients``, ``project_affine``,
``dist2_affine`` and both AP entry points in ``apengine``; ``orthogonalize``
reads its Gram-Schmidt basis off Q and R.

Every eigendecomposition in the package goes through the private
``_eigh`` (LAPACK via ``numpy.linalg.eigh``, eigenvalues ascending; its
reversed view ``eigh_desc`` serves ``eig_sym``), every PSD projection
through ``psd_part`` and every affine projection through the private
``AffineSubspace._project``.  ``psd_part`` returns ``S S^T``, which NumPy
evaluates as a symmetric rank-k product, so the clip is exactly symmetric
without a symmetrization pass.  These check nothing.
Input is checked (square, finite, exactly symmetric) once, where it enters
a public function, by ``check_sym`` or ``check_finite_sym``; a point of an
affine subspace is checked, size included, by the private
``AffineSubspace._check_point``.
"""

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

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
    # -0.0 == 0.0), without its overhead
    if not (a == a.T).all():
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

    def reconstruct(self):
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


def _eigh(a):
    """Eigenvalues of a symmetric matrix in ascending order, with matching
    orthonormal columns (LAPACK's own order).

    Only the lower triangle is read and the input is not checked; raises
    ``EigenSolverError`` when LAPACK reports a failure.
    """
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"LAPACK eigh failed: {exc}") from exc


def eigh_desc(a):
    """``_eigh`` in descending order: reversed views of its output."""
    lam, vecs = _eigh(a)
    return lam[::-1], vecs[:, ::-1]


def psd_part(lam, vecs):
    """PSD projection from an ascending eigendecomposition (``_eigh``'s).

    Eigenvalues above tau = 1e-12 * max(1, lambda_max) are retained, a
    suffix of ``lam``; returns ``(S @ S.T, rank)`` with ``S`` the retained
    columns scaled by sqrt(lambda).  NumPy computes ``S @ S.T`` as a
    symmetric rank-k product, so the projection is exactly symmetric.
    """
    lams = lam.tolist()
    lo = bisect_right(lams, 1e-12 * max(1.0, lams[-1]))
    S = vecs[:, lo:] * np.sqrt(lam[lo:])
    return S @ S.T, len(lams) - lo


def check_finite_sym(a):
    """``check_sym`` preceded by a finiteness check that raises
    ``EigenSolverError``."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise EigenSolverError("matrix has non-finite entries")
    return check_sym(a)


def eig_sym(a):
    """Symmetric eigendecomposition; the first component above 1e-12 in
    magnitude of every eigenvector is positive."""
    lam, vecs = eigh_desc(check_finite_sym(a))
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
    of the raveled basis, ``basis.reshape(m, n*n).T = Q R``; every column of
    Q, read as an n x n matrix, is exactly symmetric, so mirror entries of
    ``mat(Q z)`` are the same dot product.  ``anchor_q`` is
    ``vec(anchor) Q``, so the Q-coordinates of V - anchor are
    ``vec(V) Q - anchor_q``.  A basis whose R has a diagonal entry at most
    ``DEPENDENT_BASIS_TOL`` times its largest is rejected as dependent.
    """

    anchor: np.ndarray
    basis: np.ndarray          # (m, n, n)
    gram: np.ndarray           # (m, m)
    Q: np.ndarray = field(repr=False)
    R_inv: np.ndarray = field(repr=False)
    anchor_q: np.ndarray = field(repr=False)  # (m,)

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
        # columns of Q are symmetric only up to rounding; make them exactly
        # symmetric so that every projection anchor + mat(Q z) is too
        Q = Q.T.reshape(m, n, n)
        Q = (0.5 * (Q + Q.transpose(0, 2, 1))).reshape(m, n * n).T
        return cls(_freeze(anchor), _freeze(basis), _freeze(flat @ flat.T),
                   _freeze(Q), _freeze(np.linalg.inv(R)),
                   _freeze(anchor.ravel() @ Q))

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
        return self._coefficients_from_q(self._q_coords(self._check_point(X)))

    def _check_point(self, X, finite=False):
        """X as an exactly symmetric n x n float array; ``ValueError``
        otherwise, and with ``finite`` an ``EigenSolverError`` on non-finite
        entries."""
        X = check_finite_sym(X) if finite else check_sym(X)
        if X.shape[0] != self.n:
            raise ValueError("dimension mismatch")
        return X

    def _q_coords(self, V):
        """Q-coordinates ``z = vec(V) Q - anchor_q`` of unchecked V, those of
        V - anchor."""
        return V.ravel() @ self.Q - self.anchor_q

    def _project(self, V):
        """Orthogonal projection of unchecked V with its Q-coordinates:
        ``(anchor + mat(Q z), z)`` with z from ``_q_coords``; the point is
        exactly symmetric because every column of Q is."""
        z = self._q_coords(V)
        return self.anchor + (self.Q @ z).reshape(self.anchor.shape), z

    def _coefficients_from_q(self, z):
        """Basis coefficients R^-1 z of the point anchor + mat(Q z)."""
        return self.R_inv @ z


def project_affine(E, X):
    """Orthogonal projection onto E; returns (point, coefficients)."""
    W, z = E._project(E._check_point(X))
    return W, E._coefficients_from_q(z)


def dist2_affine(E, X):
    """Squared Frobenius distance ||X - P_E(X)||^2 to E."""
    X = E._check_point(X)
    r = (X - E._project(X)[0]).ravel()
    return float(r @ r)


def orthogonalize(E):
    """Gram-Schmidt the basis in order (first element kept verbatim).

    Element i is B_i less its projection onto span{B_0, ..., B_{i-1}}, read
    off the stored QR factors as R_ii mat(Q_i), with R_ii = 1 / (R^-1)_ii.
    """
    C = (E.Q / np.diag(E.R_inv)).T.reshape(E.dim, E.n, E.n)
    C[0] = E.basis[0]
    return AffineSubspace.from_basis(E.anchor, C)


def read_sym_matrices(text):
    """Parse the test matrix format: '#' comments, blank-line-separated
    blocks of whitespace-separated row-major entries, one matrix per block."""
    blocks, current = [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            if current:
                blocks.append(current)
                current = []
            continue
        current.extend(float(tok) for tok in line.split())
    if current:
        blocks.append(current)
    out = []
    for vals in blocks:
        n = int(round(len(vals) ** 0.5))
        if n * n != len(vals):
            raise ValueError(f"block of {len(vals)} entries is not square")
        out.append(sym_matrix(np.array(vals).reshape(n, n)))
    return out


def write_sym_matrices(mats):
    lines = []
    for M in mats:
        for row in np.asarray(M):
            lines.append(" ".join(f"{v:.17g}" for v in row))
        lines.append("")
    return "\n".join(lines)
