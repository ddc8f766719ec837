"""Symmetric-matrix core: Frobenius geometry, eigendecomposition, and the
two projections (PSD cone, affine subspace) everything else composes.

Matrices are plain float64 ndarrays kept exactly symmetric; an affine
subspace carries its anchor, a (not necessarily orthogonal) basis of the
direction space, its Gram matrix, the thin QR factorization ``B = Q R`` of
the raveled basis (columns of Q orthonormal in the Frobenius inner product),
and an orthonormal basis of the Frobenius-orthogonal complement.  All three
are computed once, when the subspace is built; coefficients and projections
then cost one product with Q^T and one m x m solve with R.

Every eigendecomposition in the package goes through ``eigh_desc`` (LAPACK
via ``numpy.linalg.eigh``) and every PSD projection through ``psd_part``.
"""

from dataclasses import dataclass, field

import numpy as np

COMPLEMENT_DROP_TOL = 1e-10


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
    if not np.array_equal(a, a.T):
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


def eigh_desc(a):
    """Eigenvalues of a symmetric matrix in descending order, with matching
    orthonormal columns.

    Only the lower triangle is read and the input is not checked; raises
    ``EigenSolverError`` when LAPACK reports a failure.
    """
    try:
        lam, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"LAPACK eigh failed: {exc}") from exc
    return lam[::-1], vecs[:, ::-1]


def psd_part(lam, vecs):
    """PSD projection from a descending eigendecomposition.

    Eigenvalues above tau = 1e-12 * max(1, lambda_max) are retained; returns
    ``(projection, rank)`` with the projection exactly symmetric.
    """
    rank = int(np.count_nonzero(lam > 1e-12 * max(1.0, float(lam[0]))))
    V = vecs[:, :rank]
    P = (V * lam[:rank]) @ V.T
    return 0.5 * (P + P.T), rank


def _finite_sym(a):
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise EigenSolverError("matrix has non-finite entries")
    return check_sym(a)


def eig_sym(a):
    """Symmetric eigendecomposition; the first component above 1e-12 in
    magnitude of every eigenvector is positive."""
    lam, vecs = eigh_desc(_finite_sym(a))
    lead = np.argmax(np.abs(vecs) > 1e-12, axis=0)
    signs = np.where(vecs[lead, np.arange(vecs.shape[1])] < 0.0, -1.0, 1.0)
    return EigDecomp(lam, vecs * signs)


def project_psd(a):
    """Project onto the PSD cone; returns (projection, retained rank)."""
    return psd_part(*eigh_desc(_finite_sym(a)))


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

    ``Q`` (n*n, m) and ``R`` (m, m) are the thin QR factors of the raveled
    basis, ``basis.reshape(m, n*n).T = Q R``; ``complement`` holds an
    orthonormal basis of the Frobenius-orthogonal complement in S^n.
    """

    anchor: np.ndarray
    basis: np.ndarray          # (m, n, n)
    gram: np.ndarray           # (m, m)
    Q: np.ndarray = field(repr=False)
    R: np.ndarray = field(repr=False)
    complement: np.ndarray = field(repr=False)  # (n(n+1)/2 - m, n, n)

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
        if not diag.min() > COMPLEMENT_DROP_TOL * diag.max():
            raise DependentBasisError("basis matrices are linearly dependent")

        # Orthogonal complement: remove the span{basis} part from the
        # standard basis of S^n; the residuals span the complement, and their
        # left singular vectors with nonzero singular value (exactly 1 in
        # exact arithmetic) are an orthonormal basis of it.
        S = np.array(_standard_sym_basis(n)).reshape(-1, n * n).T
        U, sv, _ = np.linalg.svd(S - Q @ (Q.T @ S), full_matrices=False)
        comp = U[:, sv > COMPLEMENT_DROP_TOL].T.reshape(-1, n, n)
        expected = n * (n + 1) // 2 - m
        if len(comp) != expected:
            raise DependentBasisError(
                f"complement construction found {len(comp)} directions, "
                f"expected {expected}")
        comp = 0.5 * (comp + comp.transpose(0, 2, 1))
        return cls(_freeze(anchor), _freeze(basis), _freeze(flat @ flat.T),
                   _freeze(Q), _freeze(R), _freeze(comp))

    def point(self, coeffs):
        """phi(p) = anchor + sum_i p_i B_i, exactly symmetric."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coefficients")
        n = self.n
        flat = self.basis.reshape(self.dim, n * n)
        U = self.anchor + (coeffs @ flat).reshape(n, n)
        return 0.5 * (U + U.T)

    def coefficients(self, X):
        """Coefficients R^-1 Q^T vec(X - anchor) of the best approximation
        to X - anchor in span{basis}."""
        X = check_sym(X)
        if X.shape[0] != self.n:
            raise ValueError("dimension mismatch")
        return np.linalg.solve(self.R, self.Q.T @ (X - self.anchor).ravel())


def project_affine(E, X):
    """Orthogonal projection onto E; returns (point, coefficients)."""
    s = E.coefficients(X)
    return E.point(s), s


def dist2_affine(E, X):
    """Squared Frobenius distance to E via the orthogonal-complement sum."""
    X = check_sym(X)
    if X.shape[0] != E.n:
        raise ValueError("dimension mismatch")
    C = E.complement.reshape(len(E.complement), E.n * E.n)
    return float(np.sum((C @ (X - E.anchor).ravel()) ** 2))


def orthogonalize(E):
    """Gram-Schmidt the basis in order (first element kept verbatim)."""
    basis = [np.array(E.basis[0])]
    for i in range(1, E.dim):
        R = np.array(E.basis[i])
        for C in basis:
            R = R - (frob_inner(C, E.basis[i]) / frob_inner(C, C)) * C
        if frob_norm(R) <= COMPLEMENT_DROP_TOL * max(1.0, frob_norm(E.basis[i])):
            raise DependentBasisError(
                f"basis element {i} is dependent on its predecessors")
        basis.append(0.5 * (R + R.T))
    return AffineSubspace.from_basis(E.anchor, np.array(basis))


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
