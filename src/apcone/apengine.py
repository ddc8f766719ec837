"""Alternating-projection sequences and the two analytic update formulas.

``run_ap`` runs the AP loop and returns an immutable trace.  It steps a
block of ``_BLOCK`` preallocated flat iterates at a time, each step one
``_psd_clip`` (``_eigh``, then ``S = V D`` for the kept eigenvectors V
and the diagonal D of their eigenvalues' square roots, and ``S S^T``,
through the calling thread's workspace, into a row ``[vec P | 1]``) and
one product with the plane's augmented projector into the next row, and
settles the distances and stop rules once per block, so each step is only
the ``_eigh`` and the products, into arrays made before the loop.
``ap_step`` is the checked one-step API: it checks its input, then calls
the same kernel on the row the calling thread's workspace keeps for it,
and the next iterate and its coefficients are one product each with that
row.  README gives the time of each layer of a step.  The rest of the
module verifies the parameter-space descriptions of one AP step: the
eigenvalue formula on an orthogonal basis, whose derivative is taken
exactly from one eigendecomposition, and the rank-1 chart relation
M(x)(p~ - p) + grad 1/2 d^2(psi(x), E) = 0, whose M(x) and gradient are
products with the one array of psi's partials, ``_psi_partials``.  The
slowest-curve Newton solve reads that array too, with the pairing with
psi's second partials that it differentiates them with, and the chart's
plane check, ``_require_chart_plane``.
"""

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .symcore import (EigenSolverError, _psd_clip, _workspace, check_count,
                      check_finite_sym, check_sym, eig_sym, is_number,
                      project_affine, project_psd)

# AP steps per block of run_ap: the once-per-block distances and row views
# cost little next to 64 steps, and an early stop drops at most 63
_BLOCK = 64
_STAGNATION_REL = 1e-16
_STAGNATION_RUN = 100
_ORTHOGONAL_TOL = 1e-10   # |off-diagonal Gram entry| / largest diagonal one
_U1_TOL = 1e-8            # least |u_1| the rank-1 chart inverts


class RankOneError(ValueError):
    """The intermediate PSD projection does not have rank one."""


@dataclass(frozen=True)
class APTrace:
    """Per-iteration log of one alternating-projection run.

    ``dists[k]`` is the Frobenius distance of iterate k to the target and
    ``psd_ranks[k]`` the rank of its PSD projection.  Full coefficient
    vectors are kept at the decade checkpoints k = 0, 1, 10, 100, ... and
    at the last k (``sample_ks`` / ``sample_coeffs``).
    """

    plane: object
    dists: np.ndarray
    psd_ranks: np.ndarray
    sample_ks: np.ndarray
    sample_coeffs: np.ndarray
    stop_reason: str

    def __len__(self):
        return len(self.dists)


def _ap_steps(E, steps, ranks):
    """AP steps u -> w = P_E(P_psd(u)), without checks, in the order given.

    Each of ``steps`` is ``(u, p, r, w)``: the n x n iterate u; the row
    r = [vec P | 1] of length n*n + 1, whose first n*n entries receive
    P = P_psd(u) through p, their n x n view; and the flat w, which receives
    ``E._project(r)``, exactly symmetric.  The rank of each P is appended to
    ``ranks`` as its step completes, so after an ``EigenSolverError`` the
    length of ``ranks`` counts the steps taken.
    """
    ws, project = _workspace(E.n), E._project
    for u, p, r, w in steps:
        ranks.append(_psd_clip(ws, u, p))
        project(r, w)


def ap_step(E, U):
    """One alternating-projection step P_E(P_psd(U)).

    ``U`` is checked on every call: non-finite entries raise
    ``EigenSolverError``, then a non-square, a not exactly symmetric and a
    wrong-size matrix raise ``ValueError``, in that order.  The step is
    the kernel ``run_ap`` iterates, called directly: ``_psd_clip`` writes
    P = P_psd(U) into the row r = [vec P | 1] of the calling thread's
    ``_workspace(n)``, and ``E._project`` and ``E._coefficients`` each
    read r in one product into a fresh array.  Returns
    ``(W, rank, coeffs)``: the next iterate, exactly symmetric; the rank of
    P; and the basis coefficients of W, from the expression
    ``project_affine`` applies to P, so no second solve is needed.
    """
    U = E._check_point(U)
    n = len(U)
    ws = _workspace(n)
    r, P = ws[2]
    rank = _psd_clip(ws, U, P)
    return E._project(r).reshape(n, n), rank, E._coefficients(r)


def run_ap(E, p0, max_iter, tol, target=None):
    """Iterate U <- P_E(P_psd(U)) from phi(p0) and record an APTrace.

    Stops on dist < tol, on max_iter, or once the distance stagnates (less
    than 1e-16 relative decrease for 100 consecutive steps).  A start with
    non-finite entries raises ``EigenSolverError`` before the first step;
    a ``max_iter`` that is not an integer >= 1, a ``tol`` that is not a
    number (a bool is not one), a negative or NaN ``tol``,
    a target of the wrong size, a start of the wrong length, finite
    coefficients whose matrix overflows and a start whose squared distance
    to the target overflows raise ``ValueError``.

    The steps are ``ap_step``'s, without its check, taken ``_BLOCK`` at a
    time through preallocated rows (``min(_BLOCK, max_iter + 1)`` of them,
    so memory grows with the steps taken, not with ``max_iter``).  A
    block is shorter where the state at its start bounds the stop: it
    takes no step past ``max_iter``, only the step ``psd_ranks[k]`` needs
    when iterate k already meets ``tol``, and no more steps than a
    stagnation run under way needs to reach its end.  While ``tol > 0``
    the first block is one step.  Each later one takes at most
    ``ceil(a / 2)`` steps, with ``a = log(dist / tol) / r`` the steps to
    the first iterate below tol at r, the mean log-decrease of the
    distance per step over the last block; once ``a <= 1`` it takes the
    ``ceil(a) + 1`` steps to that iterate and from it.  So a run whose
    rate speeds up near tol wastes few steps.  After each
    block the distances are computed together and the stop rules are
    applied step by step, in the order a step-by-step loop applies them;
    steps past the stop are discarded, and an ``EigenSolverError`` in one
    of them does not surface.  The sampled coefficients (k = 0: ``p0``)
    are ``ap_step``'s expression.
    """
    max_iter = check_count("max_iter", max_iter)
    if not is_number(tol):
        raise ValueError("tol must be a number >= 0")
    if not tol >= 0:    # NaN included
        raise ValueError("tol must be >= 0")
    target = (E.anchor if target is None
              else E._check_point(check_sym(target))).ravel()

    p0 = np.asarray(p0, dtype=float)
    u = E.point(p0).ravel()
    if not np.isfinite(u).all():
        if np.isfinite(p0).all():
            raise ValueError("the start is too large: its matrix overflows")
        raise EigenSolverError("starting point has non-finite entries")
    with np.errstate(over="ignore"):
        d = u - target
        dist = math.sqrt(d.dot(d))
    if dist == math.inf:
        raise ValueError("the start is too far from the target: its squared "
                         "distance overflows")

    # step i of a block maps iterate U[i] through R[i + 1] = [vec P | 1] to
    # U[i + 1]; U[0] and R[0] carry the last iterate and its P over blocks
    n, size = E.n, u.size
    rows = min(_BLOCK, max_iter + 1)
    U = np.empty((rows + 1, size))
    R = np.ones((rows + 1, size + 1))
    U[0] = u
    steps = list(zip(U[:-1].reshape(rows, n, n),
                     R[1:, :-1].reshape(rows, n, n), R[1:], U[1:]))

    dists, ranks = array("d", [dist]), array("q")
    sample_ks, sample_coeffs = [0], [p0]
    checkpoint = 1
    stagnant = 0
    k = 0
    while True:
        # no step past a stop the state already fixes: only the step from
        # iterate k when k meets tol, and no more steps than a stagnation
        # run under way needs to reach its end
        if dist < tol:
            need = 1
        else:
            need = _STAGNATION_RUN - stagnant + 1 if stagnant else rows
            if tol:
                # and while tol is set, half the steps after which the last
                # block's mean log-decrease per step puts an iterate below
                # tol, so a rate that speeds up wastes few steps; once one
                # step should do, that step and the one its rank needs.
                # The first block is a step
                log_dist = math.log(dist)
                rate = ((math.log(base_dist) - log_dist) / (k - base) if k
                        else math.inf)
                ahead = ((log_dist - math.log(tol)) / rate if rate > 0
                         else math.inf)
                if ahead <= 1:    # 1 or 2 steps, never above need
                    need = math.ceil(ahead) + 1
                elif ahead < 2 * need:
                    need = math.ceil(ahead / 2)
        base, base_dist = k, dist
        block_ranks = []
        try:
            _ap_steps(E, steps[:min(need, max_iter - k + 1)], block_ranks)
        except EigenSolverError as exc:
            failure = exc
        else:
            failure = None
        m = len(block_ranks)
        D = U[1:m + 1] - target
        block_dists = np.sqrt(np.vecdot(D, D)).tolist()
        for new in block_dists:   # the step from iterate k has been taken
            if dist < tol or k == max_iter or stagnant >= _STAGNATION_RUN:
                break
            k += 1
            if k == checkpoint:
                sample_ks.append(k)
                sample_coeffs.append(E._coefficients(R[k - base]))
                checkpoint *= 10
            if dist - new < _STAGNATION_REL * max(dist, 1e-300):
                stagnant += 1
            else:
                stagnant = 0
            dist = new
        else:
            if failure is not None:   # a step the run takes failed
                raise failure
            ranks.fromlist(block_ranks)
            dists.fromlist(block_dists)
            U[0], R[0] = U[m], R[m]
            continue
        break
    stop = ("tol" if dist < tol else "max_iter" if k == max_iter
            else "stagnation")
    i = k - base
    ranks.fromlist(block_ranks[:i + 1])
    dists.fromlist(block_dists[:i])
    if sample_ks[-1] != k:    # R[i] holds the P that U[i] was projected from
        sample_ks.append(k)
        sample_coeffs.append(E._coefficients(R[i]))

    def own(a):
        a.setflags(write=False)
        return a

    return APTrace(plane=E, dists=own(np.frombuffer(dists)),
                   psd_ranks=own(np.frombuffer(ranks, np.int64)),
                   sample_ks=own(np.array(sample_ks, dtype=np.int64)),
                   sample_coeffs=own(np.array(sample_coeffs)),
                   stop_reason=stop)


# --- eigenvalue formula ----------------------------------------------------

def _require_orthogonal(E):
    G = E.gram
    if np.abs(np.triu(G, 1)).max() > _ORTHOGONAL_TOL * G.diagonal().max():
        raise ValueError(
            "operation needs a pairwise-orthogonal basis; call "
            "symcore.orthogonalize first")


def eigenvalue_formula_step(E, p):
    """Parameter update p_i - (1/||B_i||^2) d/dp_i [1/2 sum_{lam<0} lam^2].

    1/2 sum_{lam<0} lam^2 = 1/2 ||U_-||^2 is C^1 in p, with partial
    derivative <U_-, B_i> = sum_{lam_j<0} lam_j u_j^T B_i u_j (Lewis 1996),
    taken exactly from one eigendecomposition of phi(p).  The eigenpairs
    counted as negative are exactly those ``_psd_clip`` drops.  A wrong-length
    ``p`` raises ``ValueError``, a non-finite one ``EigenSolverError``.
    """
    _require_orthogonal(E)
    U = check_finite_sym(E.point(p))
    ws = _workspace(E.n)
    k = E.n - _psd_clip(ws, U, np.empty(U.shape))   # the clip drops lam[:k]
    (lam, vecs), _, _ = ws
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


def _psi_partials(x):
    """The partials d_k psi(x) = e_k y^T + y e_k^T - [k = 1] y y^T, with
    y = x / x1, as the rows vec(d_k psi(x)) of a 3x9 array; x unchecked."""
    y, eye = x / x[0], np.eye(3)
    dpsi = (eye[:, :, None] * y + eye[:, None, :] * y[:, None]).reshape(3, 9)
    dpsi[0] -= np.outer(y, y).ravel()
    return dpsi


def _pair_with_psi_second_partials(A, x):
    """<d_j d_k psi(x), A> = (2/x1) (L A L^T)_jk with L = I - e1 x^T/x1, for
    a symmetric 3x3 A: the second partials of <psi(x), A> in x."""
    L = np.eye(3)
    L[0] -= x / x[0]
    return 2.0 / x[0] * (L @ A @ L.T)


def _require_chart_plane(E):
    """The check of a plane the rank-1 chart couples to: a 3-plane in S^3,
    else ``ValueError``."""
    if E.n != 3 or E.dim != 3:
        raise ValueError("the rank-1 chart needs a 3-plane in S^3")


def m_matrix(E, x):
    """Coupling matrix M(x) with entries M[k, i] = <d_k psi(x), B_i>."""
    _require_chart_plane(E)
    return _psi_partials(_check_chart_point(x)) @ E.basis.reshape(3, 9).T


def grad_half_dist2_psi(E, x):
    """Gradient in x of 1/2 d^2(psi(x), E): <d_k psi(x), R> with R the
    projection residual psi(x) - P_E(psi(x))."""
    x = _check_chart_point(x)
    P = psi(x)
    return _psi_partials(x) @ (P - project_affine(E, P)[0]).ravel()


def extract_rank_one_param(V):
    """Recover x with psi(x) = V from a rank-1 PSD matrix V = lam u u^T."""
    dec = eig_sym(V)
    lam, u = dec.eigenvalues, dec.eigenvectors[:, 0]
    if abs(u[0]) < _U1_TOL:
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
