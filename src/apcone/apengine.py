"""Alternating-projection sequences and the two analytic update formulas.

``run_ap`` runs the AP loop and returns an immutable trace; the
rest of the module verifies the parameter-space descriptions of one AP step:
the eigenvalue formula on an orthogonal basis, whose derivative is taken
exactly from one eigendecomposition, and the rank-1 chart relation
M(x)(p~ - p) + grad 1/2 d^2(psi(x), E) = 0, whose M(x) and gradient are
closed-form array products.
"""

import math
from dataclasses import dataclass

import numpy as np

from .symcore import (EigenSolverError, _eigh, check_finite_sym, check_sym,
                      eig_sym, project_affine, project_psd, psd_part)

_STAGNATION_REL = 1e-16
_STAGNATION_RUN = 100


class RankOneError(ValueError):
    """The intermediate PSD projection does not have rank one."""


def default_stride(max_iter):
    return 1 if max_iter <= 1000 else 1000


@dataclass(frozen=True)
class APTrace:
    """Per-iteration log of one alternating-projection run.

    ``dists[k]`` is the Frobenius distance of iterate k to the target and
    ``psd_ranks[k]`` the rank of its PSD projection; full coefficient vectors
    are kept every ``stride`` iterations (``sample_ks`` / ``sample_coeffs``).
    """

    plane: object
    dists: np.ndarray
    psd_ranks: np.ndarray
    sample_ks: np.ndarray
    sample_coeffs: np.ndarray
    converged: bool
    stop_reason: str

    def __len__(self):
        return len(self.dists)

    def iterates(self):
        """(k, coeffs, dist, psd_rank) rows at the sampled iterations."""
        for i, k in enumerate(self.sample_ks):
            yield int(k), self.sample_coeffs[i], float(self.dists[k]), \
                int(self.psd_ranks[k])


def _step(E, U):
    """P_E(P_psd(U)) without checking U.

    Returns ``(W, rank, z)``: the next iterate, exactly symmetric; the rank
    of P_psd(U); and the Q-coordinates z of W (see
    ``AffineSubspace._project``).
    """
    P, rank = psd_part(*_eigh(U))
    W, z = E._project(P)
    return W, rank, z


def ap_step(E, U):
    """One alternating-projection step P_E(P_psd(U)).

    ``U`` is checked once, here: a non-square or not exactly symmetric
    matrix, or one of the wrong size, raises ``ValueError``, and non-finite
    entries raise ``EigenSolverError``.  The step is the one ``run_ap``
    iterates.  Returns ``(W, rank, coeffs)``: the next iterate, exactly
    symmetric; the rank of the intermediate PSD projection; and the basis
    coefficients of W, from the same R^-1 z expression
    (``E._coefficients_from_q``) that ``E.coefficients`` uses, so no
    second solve is needed.
    """
    W, rank, z = _step(E, E._check_point(U, finite=True))
    return W, rank, E._coefficients_from_q(z)


def run_ap(E, p0, max_iter, tol, stride=None, target=None):
    """Iterate U <- P_E(P_psd(U)) from phi(p0) and record an APTrace.

    Stops on dist < tol, on max_iter, or once the distance stagnates (less
    than 1e-16 relative decrease for 100 consecutive steps).  A start with
    non-finite entries raises ``EigenSolverError`` before the first step;
    ``max_iter < 1``, ``tol < 0`` and ``stride < 1`` raise ``ValueError``.
    Each step is ``ap_step``'s, without its input check: the iterates are
    built here, exactly symmetric.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if tol < 0:
        raise ValueError("tol must be >= 0")
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (E.dim,):
        raise ValueError(f"expected {E.dim} starting coefficients")
    if stride is None:
        stride = default_stride(max_iter)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    target = E.anchor if target is None else check_sym(target)

    U = E.point(p0)
    if not np.isfinite(U).all():
        raise EigenSolverError("starting point has non-finite entries")

    dists = np.empty(max_iter + 1)
    ranks = np.empty(max_iter + 1, dtype=np.int64)
    sample_ks, sample_coeffs = [], []
    dist = dists[0] = float(np.linalg.norm(U - target))
    z = None            # Q-coordinates of U; coefficients are R^-1 z
    stagnant = 0
    k = 0
    while True:
        W, ranks[k], z_next = _step(E, U)
        if k % stride == 0:
            sample_ks.append(k)
            sample_coeffs.append(p0 if z is None
                                 else E._coefficients_from_q(z))
        if dist < tol:
            stop = "tol"
            break
        if k == max_iter:
            stop = "max_iter"
            break
        if stagnant >= _STAGNATION_RUN:
            stop = "stagnation"
            break
        U, z = W, z_next
        k += 1
        d = (U - target).ravel()
        prev, dist = dist, math.sqrt(d @ d)
        dists[k] = dist
        if prev - dist < _STAGNATION_REL * max(prev, 1e-300):
            stagnant += 1
        else:
            stagnant = 0
    if sample_ks[-1] != k:
        sample_ks.append(k)
        sample_coeffs.append(E._coefficients_from_q(z))

    def own(a):
        out = np.array(a)
        out.setflags(write=False)
        return out

    return APTrace(plane=E, dists=own(dists[:k + 1]),
                   psd_ranks=own(ranks[:k + 1]),
                   sample_ks=own(np.array(sample_ks, dtype=np.int64)),
                   sample_coeffs=own(np.array(sample_coeffs)),
                   converged=(stop == "tol"), stop_reason=stop)


# --- eigenvalue formula ----------------------------------------------------

def _require_orthogonal(E, tol=1e-10):
    G = E.gram
    if np.abs(np.triu(G, 1)).max() > tol * G.diagonal().max():
        raise ValueError(
            "operation needs a pairwise-orthogonal basis; call "
            "symcore.orthogonalize first")


def eigenvalue_formula_step(E, p):
    """Parameter update p_i - (1/||B_i||^2) d/dp_i [1/2 sum_{lam<0} lam^2].

    1/2 sum_{lam<0} lam^2 = 1/2 ||U_-||^2 is C^1 in p, with partial
    derivative <U_-, B_i> = sum_{lam_j<0} lam_j u_j^T B_i u_j (Lewis 1996),
    taken exactly from one eigendecomposition of phi(p).  The eigenpairs
    counted as negative are exactly those ``psd_part`` drops.  A wrong-length
    ``p`` raises ``ValueError``, a non-finite one ``EigenSolverError``.
    """
    _require_orthogonal(E)
    lam, vecs = _eigh(check_finite_sym(E.point(p)))
    k = len(lam) - psd_part(lam, vecs)[1]   # psd_part drops lam[:k]
    neg = vecs[:, :k]
    U_minus = (neg * lam[:k]) @ neg.T
    grad = E.basis.reshape(E.dim, -1) @ U_minus.ravel()
    return np.asarray(p, dtype=float) - grad / E.gram.diagonal()


# --- rank-1 chart ------------------------------------------------------------

def _check_chart_point(x):
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("x must be a 3-vector")
    if x[0] == 0.0:
        raise ValueError("psi requires x1 != 0")
    return x


def psi(x):
    """Rank-1 chart psi(x) = (1/x1) x x^T."""
    x = _check_chart_point(x)
    return np.outer(x, x) / x[0]


def psi_partial(x, k):
    """Exact partial derivative of psi with respect to x_k (k = 0, 1, 2):
    (e_k x^T + x e_k^T)/x1, less x x^T/x1^2 when k = 0."""
    x = _check_chart_point(x)
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    D = np.zeros((3, 3))
    D[k] = x / x[0]
    D = D + D.T
    if k == 0:
        D -= np.outer(x, x) / x[0] ** 2
    return D


def _pair_with_psi_partials(A, x):
    """<d_k psi(x), A> = 2 (A x)_k/x1 - delta_k0 x^T A x/x1^2 for symmetric
    A of shape (..., 3, 3); k runs along the last axis."""
    Ax = A @ x
    out = 2.0 * Ax / x[0]
    out[..., 0] -= Ax @ x / x[0] ** 2
    return out


def m_matrix(E, x):
    """Coupling matrix M(x) with entries M[k, i] = <d_k psi(x), B_i>."""
    if E.n != 3 or E.dim != 3:
        raise ValueError("m_matrix needs a 3-plane in S^3")
    return _pair_with_psi_partials(E.basis, _check_chart_point(x)).T


def grad_half_dist2_psi(E, x):
    """Gradient in x of 1/2 d^2(psi(x), E): <d_k psi(x), R> with R the
    projection residual psi(x) - P_E(psi(x))."""
    x = _check_chart_point(x)
    P = psi(x)
    return _pair_with_psi_partials(P - project_affine(E, P)[0], x)


def extract_rank_one_param(V, u1_tol=1e-8):
    """Recover x with psi(x) = V from a rank-1 PSD matrix V = lam u u^T."""
    dec = eig_sym(V)
    lam, u = dec.eigenvalues, dec.eigenvectors[:, 0]
    if abs(u[0]) < u1_tol:
        raise RankOneError("leading eigenvector has (near-)zero first component")
    return lam[0] * u[0] * u


def rank_one_step_residual(E, p):
    """Residual of M(x)(p~ - p) + grad 1/2 d^2(psi(x), E) over one AP step.

    Requires an orthogonal basis and a rank-1 intermediate projection; the
    relation holds to rounding whenever those preconditions do.
    """
    _require_orthogonal(E)
    p = np.asarray(p, dtype=float)
    U = E.point(p)
    V, rank = project_psd(U)
    if rank != 1:
        raise RankOneError(f"PSD projection has rank {rank}, expected 1")
    x = extract_rank_one_param(V)
    p_next = E.coefficients(V)
    res = m_matrix(E, x) @ (p_next - p) + grad_half_dist2_psi(E, x)
    return float(np.linalg.norm(res))
