"""Symmetric-matrix core: Frobenius geometry, eigendecomposition, and the
two projections (PSD cone, affine subspace) everything else composes.

Matrices are plain float64 ndarrays kept exactly symmetric.  An affine
subspace carries its anchor, a (not necessarily orthogonal) basis of the
direction space and its Gram matrix, and, from the one QR factorization
``B = Q R`` of the raveled basis made when it is built, Q (columns exactly
symmetric, Frobenius-orthonormal), R^-1 and two affine maps of a flat
``v = vec(V)``, both augmented so that they read the same row
``[v | 1]``: the projector ``aug = [Q Q^T | offset]``, with
``vec(P_E(V)) = aug [v | 1]``, and the coefficient map
``coef_aug = [R^-1 Q^T | -R^-1 Q^T vec(anchor)]``, whose product with
``[v | 1]`` is the basis coefficients of P_E(V).  The private
``AffineSubspace._project`` and ``_coefficients`` apply them, one
matrix-vector product each, for ``coefficients``, ``project_affine`` and
the AP step in ``apengine``; ``_gram_schmidt`` reads the Gram-Schmidt
basis off Q and R.

Every factorization goes through the private ``_factor``: the gufuncs
``qr_r_raw``, ``qr_reduced`` and ``inv`` of ``numpy.linalg._umath_linalg``
that ``numpy.linalg.qr`` and ``numpy.linalg.inv`` call, with their
arguments and their ``np.errstate``, so Q and R^-1 are the same bits
without the wrappers' copies, checks and ``np.triu``.  ``from_basis``
builds a plane's maps from it into arrays it allocates once and freezes
in place, and the transverse gain in ``slowcurve`` reads the Gram-Schmidt
basis off it with no plane built.  The per-plane operations are stacked:
``_factor`` and ``_gram_schmidt`` take a stack of B bases (B, m, n, n)
and call each gufunc once on all of it, ``from_basis`` given such a stack
and ``orthogonalize`` given a list of planes return tuples of planes, and
a single plane is the stack of one.  Each plane of a stack has the bits
it has alone, and a stack with a bad basis raises the error of its first
bad basis.

Every eigendecomposition in the package goes through the private
``_eigh``: one call of the gufunc ``numpy.linalg._umath_linalg.eigh_lo``
that ``numpy.linalg.eigh`` itself calls (LAPACK's symmetric eigensolver),
so the results are the same bits, eigenvalues ascending, without the
public wrapper's checks and result wrapping.  Failure is detected from
the output: NaN eigenvalues raise ``EigenSolverError``.  Every PSD
projection goes through ``_psd_clip``, which writes ``S S^T`` into a
caller's array, ``S`` being the kept eigenvectors times the diagonal
matrix of the square roots of the kept eigenvalues (one BLAS product);
NumPy evaluates ``S S^T`` as a symmetric rank-k product, so the clip is
exactly symmetric.  The clip makes no array of its own: it writes into
the buffers of the calling thread's workspace (``_workspace``, one per
matrix size n, which also holds ``ap_step``'s row ``[vec P | 1]``), so
``run_ap``, ``ap_step``, ``project_psd`` and ``eigenvalue_formula_step``
share one rank cut and no two threads share a buffer.  ``_psd_clip``,
``_project`` and ``_coefficients`` check nothing.
Every array raised to a power goes through ``_power`` (entry by entry the
bits of the scalar ``**``): the curve formulas, the tube check, the rate
fit and the trace CSV's inv columns, so a fit reads the numbers the CSV
prints.
Input is checked once, where it enters a public function.  A matrix
(finite, square, exactly symmetric) is checked by ``check_finite_sym`` or
``check_sym``, which differ only in the error a non-finite entry raises:
``EigenSolverError`` for an eigensolver's input, ``ValueError`` for an
affine subspace's anchor and basis and a distance target.  A basis must
be a stack (m, n, n), m >= 1, or a stack of B >= 1 such bases
(``_check_basis``), and after the dependency test its Gram matrix must be
finite with normal diagonal entries (``_factor``).  A point of an affine
subspace is checked the same way, size included, by the private
``AffineSubspace._check_point``.  Of several faults the first in the
order non-finite, square, symmetric, size decides the error.  A step or
iteration count is checked by ``check_count``; whether a scalar argument
is an integer or a real number at all is decided by ``is_integer`` and
``is_number``, for which a bool is neither, and whether it is a finite
number by ``is_finite_number``.
"""

import functools
import itertools
import math
import sys
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from numbers import Integral, Real
from operator import itemgetter

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg
from numpy.linalg._linalg import (_raise_linalgerror_qr,
                                  _raise_linalgerror_singular)

DEPENDENT_BASIS_TOL = 1e-10


class EigenSolverError(RuntimeError):
    """LAPACK's symmetric eigensolver failed, or its input was not finite."""


class DependentBasisError(ValueError):
    """Basis matrices fed to an affine subspace are linearly dependent."""


def sym_matrix(entries):
    """Build an exactly symmetric float64 matrix, upper triangle authoritative."""
    a = np.array(entries, dtype=float)
    _check_square(a)
    u = np.triu(a)
    return u + np.triu(a, 1).T


def _check_square(a):
    """The order n of the square array ``a``; any other shape raises
    ``ValueError``."""
    shape = a.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    return shape[0]


def check_sym(a):
    """``check_finite_sym`` with non-finite entries reported as
    ``ValueError``: ``a`` as a float array, checked finite, square and
    exactly symmetric (-0.0 equals 0.0), the first fault in that order
    deciding the error."""
    try:
        return check_finite_sym(a)
    except EigenSolverError as exc:
        raise ValueError(*exc.args) from None


def is_integer(value):
    """Whether ``value`` is a Python or NumPy integer; a bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_number(value):
    """Whether ``value`` is a real number (``numbers.Real``: a Python or
    NumPy float or integer, NaN and inf included); a bool is not one."""
    return isinstance(value, Real) and not isinstance(value, bool)


def is_finite_number(value):
    """Whether ``value`` is a finite real number: ``is_number`` and
    neither NaN nor inf."""
    return is_number(value) and math.isfinite(value)


def check_count(name, value, least=1):
    """``value`` as an int when it is an integer >= ``least`` (a bool is
    not one); anything else raises ``ValueError`` naming it."""
    if not (is_integer(value) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}")
    return int(value)


def frob_inner(a, b):
    """Frobenius inner product <A, B> = sum_ij A_ij B_ij."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.vdot(a, b))


def frob_norm(a):
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def _power(x, k):
    """x ** k, entry by entry as the scalar ``**`` rounds it.  An ndarray
    goes through ``np.float_power``, which calls the same libm ``pow``;
    ``**`` on an ndarray may take a SIMD path that differs in the last bit.
    A float or a ``TruncSeries`` uses its own ``**``."""
    return np.float_power(x, k) if isinstance(x, np.ndarray) else x ** k


@dataclass(frozen=True)
class EigDecomp:
    """Eigenvalues sorted descending with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _eigh(a, out=None):
    """Eigenvalues of a symmetric float64 matrix in ascending order, with
    matching orthonormal columns (LAPACK's own order).

    Calls the gufunc behind ``numpy.linalg.eigh`` directly, with the same
    arguments, so the output is bit-identical to it; ``out`` is None or
    the pair of float64 arrays (n,) and (n, n) it writes into.  Returns
    ``(lam, vecs, lams)``, where ``lams`` is ``lam`` as a list: the NaN
    check needs it, and ``_psd_clip``'s rank cut reads the same list.
    Only the lower triangle is read and the input is not checked: callers
    check that it is finite, since for n <= 2 non-finite input can come
    back finite.  The gufunc reports a LAPACK failure as NaN output, which
    raises ``EigenSolverError`` here, as does NaN from non-finite input.  A
    failure also sets floating-point flags, which NumPy reports as
    ``np.errstate`` says (a ``RuntimeWarning`` by default).
    """
    lam, vecs = out or (np.empty(len(a)), np.empty(a.shape))
    # out arrays passed by position: the gufunc's fast call path
    _umath_linalg.eigh_lo(a, lam, vecs, signature="d->dd")
    lams = lam.tolist()
    # sum() is NaN iff an eigenvalue is NaN, or both +inf and -inf occur
    if math.isnan(sum(lams)):
        raise EigenSolverError("LAPACK eigh failed: NaN eigenvalues")
    return lam, vecs, lams


_PER_THREAD = threading.local()


def _workspace(n):
    """The calling thread's buffers for ``_psd_clip`` on n x n matrices,
    made on its first clip of that size and reused after.

    Returns ``((lam, vecs), cuts, (row, P))``: ``_eigh``'s output pair,
    ``vecs`` Fortran-ordered, and for each rank cut ``lo`` (the clip drops
    ``lam[:lo]``) the tuple ``cuts[lo]`` of the views ``lam[lo:]`` and
    ``vecs[:, lo:]`` (contiguous at every ``lo``, since the columns are),
    a k x k diagonal matrix ``D`` (k = n - lo) with the view of its
    diagonal, and ``S`` (n x k, C-ordered) with ``S.T``.  Each cut's ``D``
    is its own zero-filled array: the clip writes only its diagonal, and a
    prefix of one shared array would hold another cut's diagonal among its
    zeros, while a view ``D[lo:, lo:]`` of one n x n matrix is not
    contiguous, which ``ndarray.dot`` copies.  The ``S`` of every cut are
    prefixes of one array.  ``row`` is ``ap_step``'s ``[vec P | 1]``, its
    last entry 1 for good, and ``P`` the n x n view the clip writes P into.
    A workspace holds 3 n^2 + n + 1 floats and the sum of k^2 for
    k = 0, ..., n (45 in all at n = 3).
    """
    try:
        return _PER_THREAD.workspaces[n]
    except AttributeError:      # the thread's first clip
        _PER_THREAD.workspaces = {}
    except KeyError:            # its first clip of this size
        pass
    lam, flat_S = np.empty(n), np.empty(n * n)
    vecs = np.empty((n, n), order="F")
    cuts = []
    for lo in range(n + 1):
        k = n - lo
        D = np.zeros((k, k))
        S = flat_S[:n * k].reshape(n, k)
        cuts.append((lam[lo:], vecs[:, lo:], D, D.reshape(-1)[::k + 1], S,
                     S.T))
    row = np.ones(n * n + 1)
    ws = _PER_THREAD.workspaces[n] = ((lam, vecs), cuts,
                                      (row, row[:-1].reshape(n, n)))
    return ws


def _psd_clip(ws, a, out):
    """PSD projection of the unchecked symmetric n x n ``a``, written into
    ``out`` (C contiguous, n x n); returns its rank.  ``ws`` is the calling
    thread's ``_workspace(n)``, passed in so that a loop of clips looks it
    up once; afterwards it holds ``a``'s ascending eigendecomposition
    ``(lam, vecs)``.

    Eigenvalues above tau = 1e-12 * max(1, lambda_max) are retained, a
    suffix ``lam[lo:]``, and ``out`` receives ``S S^T`` with
    ``S = vecs[:, lo:] D``, ``D = diag(sqrt(lam[lo:]))``, every step into
    the workspace's buffers.  The scaling is one BLAS product, which skips
    the broadcast multiply's general iterator; each entry of ``S`` is one
    rounded product plus exact zeros, so it has the broadcast's bits (up
    to the sign of a zero).  NumPy computes ``S.dot(S.T)`` as a symmetric
    rank-k product, so the projection is exactly symmetric.  The products
    use ``ndarray.dot``: it gives the bits ``@`` gives and skips the
    matmul gufunc's dispatch, about 0.8 us a call at these sizes.
    """
    pair, cuts, _ = ws
    lams = _eigh(a, pair)[2]
    lo = bisect_right(lams, 1e-12 * max(1.0, lams[-1]))
    kept, kept_vecs, D, diagonal, S, S_T = cuts[lo]
    np.sqrt(kept, diagonal)
    kept_vecs.dot(D, S)
    S.dot(S_T, out)
    return len(lams) - lo


def check_finite_sym(a):
    """``a`` as a float array, checked for an eigensolver: non-finite
    entries raise ``EigenSolverError``, a non-square shape or an entry
    that differs from its mirror image ``ValueError``.  Finiteness and
    symmetry are decided from one list of the entries."""
    a = np.asarray(a, dtype=float)
    flat = a.ravel().tolist()
    # a finite sum has finite terms; a sum that overflows is decided
    # entry by entry
    if not (math.isfinite(sum(flat)) or np.isfinite(a).all()):
        raise EigenSolverError("matrix has non-finite entries")
    upper, lower = _triangles(_check_square(a))
    # every entry is finite, so tuple equality decides exact symmetry
    if upper(flat) != lower(flat):
        raise ValueError("matrix is not exactly symmetric")
    return a


def _no_entries(flat):
    return ()


@functools.cache
def _triangles(n):
    """The pair of maps from the row-major entry list of an n x n matrix
    to its entries above the diagonal, row by row, and to their mirror
    images below it, in the same order.  (``itemgetter`` of one index
    returns the entry itself, which compares the same way.)"""
    if n < 2:
        return _no_entries, _no_entries
    pairs = [(i * n + j, j * n + i) for i in range(n) for j in range(i + 1, n)]
    return tuple(itemgetter(*side) for side in zip(*pairs))


def eig_sym(a):
    """Symmetric eigendecomposition; the first component above 1e-12 in
    magnitude of every eigenvector is positive."""
    lam, vecs, _ = _eigh(check_finite_sym(a))
    lam, vecs = lam[::-1], vecs[:, ::-1]
    lead = np.argmax(np.abs(vecs) > 1e-12, axis=0)
    signs = np.where(vecs[lead, np.arange(vecs.shape[1])] < 0.0, -1.0, 1.0)
    return EigDecomp(lam, vecs * signs)


def project_psd(a):
    """Project onto the PSD cone; returns (projection, retained rank)."""
    a = check_finite_sym(a)
    out = np.empty(a.shape)
    return out, _psd_clip(_workspace(len(a)), a, out)


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


@functools.cache
def _layout(n, m):
    """Index tables of a plane of m n x n basis matrices: the row order
    that swaps each row (i, j) of a flat n*n-row array with row (j, i),
    and the flat positions of the entries below the diagonal of an m x m
    matrix.  Built on first use, and read-only, since every caller gets
    the same arrays."""
    swap = np.array([j * n + i for i in range(n) for j in range(n)])
    below = np.array([i * m + j for i in range(m) for j in range(i)],
                     dtype=np.intp)
    for table in (swap, below):
        table.setflags(write=False)
    return swap, below


def _check_basis(basis, n):
    """``(stack, one)``: ``basis`` as a new C-ordered float stack of bases
    (B, m, n, n), and whether it came as one basis (m, n, n), which is the
    stack of one.  B >= 1 and m >= 1, and each matrix is checked as
    ``check_sym`` checks it, in order, then its size: a non-finite entry,
    a shape that is not square and an entry that differs from its mirror
    image each raise ``ValueError``, the first fault in that order
    deciding the error, as does anything that is not such a stack.  The
    stack is checked in one pass first; only a stack that fails it is
    checked matrix by matrix, for the first fault's error.  A ragged list
    is not refused up front: its matrices are checked first, and NumPy then
    refuses to stack it."""
    try:
        shape = np.shape(basis)
    except ValueError:      # ragged
        shape = None
    if shape is not None and (len(shape) not in (3, 4)
                              or not all(shape[:-2])):
        raise ValueError(f"basis must be a stack of shape (m, {n}, {n}) "
                         f"with m >= 1, got shape {shape}")
    one = shape is None or len(shape) == 3
    try:
        stack = np.array(basis, dtype=float, order="C")
        fine = (stack.shape[-1] == stack.shape[-2]
                and np.isfinite(stack).all()
                and (stack == stack.swapaxes(-1, -2)).all())
    except (ValueError, TypeError):
        fine = False
    if not fine:
        for B in (basis if one else itertools.chain.from_iterable(basis)):
            check_sym(B)
        stack = np.array(basis, dtype=float, order="C")
    if stack.shape[-2:] != (n, n):
        raise ValueError("basis dimension does not match anchor")
    return (stack[None] if one else stack), one


def _factor(basis):
    """The one factorization of each basis of a checked stack ``basis``
    (B, m, n, n): the thin QR ``basis[b].reshape(m, n*n).T = Q R``, each
    gufunc called once on the whole stack.

    Returns ``(gram, Q, R_inv)``, new C-ordered stacks (B, m, m),
    (B, n*n, m) and (B, m, m): the Gram matrix ``flat flat^T`` of each
    raveled basis, Q with each column mirrored (rows (i, j) and (j, i)
    replaced by their mean), so that as an n x n matrix it is exactly
    symmetric, and R^-1.  LAPACK runs through the gufuncs that
    ``numpy.linalg.qr`` and ``numpy.linalg.inv`` call, with their arguments
    and their ``np.errstate``, so the factors have their bits and a LAPACK
    failure raises their ``LinAlgError``.  A basis whose R has a diagonal
    entry at most ``DEPENDENT_BASIS_TOL`` times its largest, or that has
    more than n*n matrices, raises ``DependentBasisError``; then a Gram
    matrix with an entry that is not finite, or a diagonal entry below the
    smallest normal float, raises ``ValueError``: the basis is too large or
    too small for its squared norms to be floats.  The checks are made per
    basis, and a stack raises the error of its first bad basis, the one
    that basis raises alone.  The floating-point flags that ``np.errstate``
    turns into ``LinAlgError`` are those of the whole stack, so after one
    the bases are factored one at a time, and the first that fails alone
    raises.
    """
    (B, m), n = basis.shape[:2], basis.shape[2]
    flat = basis.reshape(B, m, -1)
    swap, below = _layout(n, m)
    # LAPACK overwrites a with R and its reflectors
    a = flat.swapaxes(1, 2).copy()
    try:
        with np.errstate(call=_raise_linalgerror_qr, invalid="call",
                         over="ignore", divide="ignore", under="ignore"):
            tau = _umath_linalg.qr_r_raw(a, signature="d->d")
            Q = _umath_linalg.qr_reduced(a, tau, signature="dd->d")
        R = a[:, :m]
        with np.errstate(over="ignore", invalid="ignore"):
            gram = flat @ flat.swapaxes(1, 2)
        for diag, entries in zip(np.abs(np.diagonal(R, 0, 1, 2)).tolist(),
                                 gram.reshape(B, -1).tolist()):
            # an operation that makes a NaN raises in the errstate above,
            # so min and max see none; R has fewer than m rows when
            # m > n*n
            if not (len(diag) == m
                    and min(diag) > DEPENDENT_BASIS_TOL * max(diag)):
                raise DependentBasisError(
                    "basis matrices are linearly dependent")
            # a finite sum has finite terms; a sum that overflows is
            # decided entry by entry
            if not (math.isfinite(sum(entries))
                    or all(map(math.isfinite, entries))):
                raise ValueError("the basis is too large: its Gram matrix "
                                 "overflows")
            if min(entries[::m + 1]) < sys.float_info.min:
                raise ValueError("the basis is too small: its Gram matrix "
                                 "underflows")
        a.reshape(B, -1)[:, below] = 0.0     # LAPACK's reflectors, below R
        with np.errstate(call=_raise_linalgerror_singular, invalid="call",
                         over="ignore", divide="ignore", under="ignore"):
            R_inv = _umath_linalg.inv(R, signature="d->d")
    except LinAlgError:
        if B > 1:       # the first basis that fails alone raises
            for j in range(B):
                _factor(basis[j:j + 1])
        raise
    return gram, 0.5 * (Q + Q[:, swap]), R_inv


@dataclass(frozen=True)
class AffineSubspace:
    """Affine subspace anchor + span{basis} of S^n with projection data.

    ``Q`` (n*n, m) and ``R_inv`` (m, m) come from the thin QR factorization
    ``basis.reshape(m, n*n).T = Q R`` (``_factor``); each column of Q, as
    an n x n matrix, is exactly symmetric.  A flat v projects to
    ``aug [v | 1]`` with ``aug = [Q Q^T | offset]`` (rows (i, j) and (j, i)
    equal), with basis coefficients ``coef_aug [v | 1]``, where
    ``coef_aug = [R^-1 Q^T | -R^-1 Q^T vec(anchor)]`` (Fortran-ordered).
    Every field is read-only.
    """

    anchor: np.ndarray
    basis: np.ndarray          # (m, n, n)
    gram: np.ndarray           # (m, m)
    Q: np.ndarray = field(repr=False)
    R_inv: np.ndarray = field(repr=False)
    aug: np.ndarray = field(repr=False)          # (n*n, n*n + 1)
    coef_aug: np.ndarray = field(repr=False)     # (m, n*n + 1)

    @property
    def n(self):
        return self.anchor.shape[0]

    @property
    def dim(self):
        return self.basis.shape[0]

    @classmethod
    def from_basis(cls, anchor, basis):
        """The plane through ``anchor`` spanned by ``basis``, a stack of m
        n x n matrices, both checked (``check_sym``, ``_check_basis``) and
        copied; the basis is factored once (``_factor``).

        Given a stack of B such bases (B, m, n, n) instead, it returns the
        tuple of the B planes through ``anchor``, made by one call of each
        operation on the whole stack, with the bits each basis gives alone;
        their fields are views of the stacked arrays, and they share one
        copy of the anchor.  A stack with a bad basis raises the error its
        first bad basis raises alone."""
        anchor = np.array(check_sym(anchor))
        n = len(anchor)
        basis, one = _check_basis(basis, n)
        gram, Q, R_inv = _factor(basis)
        (B, m), nn = basis.shape[:2], n * n
        swap, _ = _layout(n, m)
        a = anchor.ravel()
        # rows (i, j) and (j, i) of aug replaced by their mean, so that
        # every projection aug [v | 1] is exactly symmetric
        P = Q @ Q.swapaxes(1, 2)
        proj = 0.5 * (P + P[:, swap])
        offset = a - proj @ a
        aug = np.empty((B, nn, nn + 1))
        aug[:, :, :nn] = proj
        aug[:, :, nn] = 0.5 * (offset + offset[:, swap])
        # each coef_aug is Fortran-ordered, a layout the rounding of the
        # read-out coef_aug.dot(r) depends on; its transpose's rows are
        # those of Q R^-T, then the anchor's coefficients, negated
        coef_aug_T = np.empty((B, nn + 1, m))
        coef_map = coef_aug_T[:, :nn]
        np.matmul(Q, R_inv.swapaxes(1, 2), out=coef_map)
        np.negative(a @ coef_map, out=coef_aug_T[:, nn])
        fields = (basis, gram, Q, R_inv, aug, coef_aug_T.swapaxes(1, 2))
        for array in (anchor, *fields):
            array.setflags(write=False)
        planes = tuple(cls(anchor, *(array[b] for array in fields))
                       for b in range(B))
        return planes[0] if one else planes

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
        return self._coefficients(np.append(self._check_point(X), 1.0))

    def _check_point(self, X):
        """X as a finite, exactly symmetric n x n float array: a
        non-finite entry raises ``EigenSolverError``, any other fault
        ``ValueError``."""
        X = check_finite_sym(X)
        if len(X) != len(self.anchor):
            raise ValueError("dimension mismatch")
        return X

    def _project(self, r, out=None):
        """vec of the orthogonal projection of V from the unchecked row
        r = [vec V | 1], written into the flat ``out`` when given one."""
        return self.aug.dot(r, out)

    def _coefficients(self, r):
        """Basis coefficients of the projection of V from the unchecked
        row r = [vec V | 1], the row ``_project`` reads: one product."""
        return self.coef_aug.dot(r)


def project_affine(E, X):
    """Orthogonal projection onto E; returns (point, coefficients)."""
    X = E._check_point(X)
    r = np.append(X, 1.0)
    return E._project(r).reshape(X.shape), E._coefficients(r)


def _gram_schmidt(basis, Q, R_inv):
    """The bases of the checked stack ``basis`` (B, m, n, n) Gram-Schmidted
    in order (first element kept verbatim), from their ``_factor`` Q and
    R^-1, as a new C-ordered (B, m, n, n) array, laid out as
    ``from_basis`` stores a basis so that sums over its entries run in the
    same order.

    Element i is B_i less its projection onto span{B_0, ..., B_{i-1}}, read
    off the QR factors as R_ii mat(Q_i), with R_ii = 1 / (R^-1)_ii.
    """
    C = (Q / np.diagonal(R_inv, 0, 1, 2)[:, None]).swapaxes(1, 2)
    C = C.reshape(basis.shape).copy()
    C[:, 0] = basis[:, 0]
    return C


def orthogonalize(E):
    """E with its basis Gram-Schmidted in order (``_gram_schmidt``).

    Given a list or tuple of planes through one anchor instead, it returns
    the tuple of theirs, made by one call of each operation on the stack
    of their bases; planes through different anchors raise ``ValueError``.
    """
    one = isinstance(E, AffineSubspace)
    planes = (E,) if one else tuple(E)
    anchor = planes[0].anchor
    if not all(P.anchor is anchor or np.array_equal(P.anchor, anchor)
               for P in planes):
        raise ValueError("the planes of a stack must share one anchor")
    C = _gram_schmidt(np.array([P.basis for P in planes]),
                      np.array([P.Q for P in planes]),
                      np.array([P.R_inv for P in planes]))
    Eo = AffineSubspace.from_basis(anchor, C)
    return Eo[0] if one else Eo
