"""Families of 3-planes in S^3 meeting the PSD cone only at U* = E_11.

Two parametric templates cover every such plane (up to the rotation block
P~): "type1" planes have singularity degree 1; "type2" planes have degree 2
exactly when c4 != 0.  The constraint matrices are one float64 array
literal and the type2 basis one fixed array with its five c entries set,
for one c or a stack of them; each is conjugated only by a rotation block
that is not the identity.  ``_planes`` builds the planes of many specs in
one stacked ``from_basis`` call, and ``build_plane`` is its stack of one
with the constraint matrices added.  A spec's numeric fields must pass
``symcore.is_finite_number``.  ``require_slowest_curve`` is the one gate
of the slowest curve and the one maker of its constants: for a type2
plane with c4 != 0 it returns a ``CurveConstants`` record of the numbers
the curve formulas read (||B1||^2, <B2, B1>, <B3, B1>, the step constant,
the coefficients of g13 and g23), each formed once, and refuses a plane
on which one of them is not a finite float or a divisor is zero.  The
module also computes Pluecker coordinates of a 3-plane inside the
6-dimensional space S^3.
"""

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .symcore import (AffineSubspace, DependentBasisError,
                      _standard_sym_basis, is_finite_number, sym_matrix)

U_STAR = sym_matrix([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
U_STAR.setflags(write=False)


@dataclass(frozen=True)
class PlaneSpec:
    """Parameters of a type1/type2 plane plus the 2x2 rotation block."""

    kind: str                 # "type1" | "type2"
    c: tuple
    theta: float = 0.0
    reflect: bool = False
    mu: float | None = None   # type1 only, > 0

    def __post_init__(self):
        if not (isinstance(self.c, (list, tuple, np.ndarray))
                and all(map(is_finite_number, self.c))):
            raise ValueError("plane field 'c' must list finite numbers")
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        if not is_finite_number(self.theta):
            raise ValueError("plane field 'theta' must be a finite number")
        if not isinstance(self.reflect, bool):
            raise ValueError("plane field 'reflect' must be true or false")
        if self.mu is not None and not is_finite_number(self.mu):
            raise ValueError("plane field 'mu' must be a finite number")
        if self.kind == "type1":
            if len(self.c) != 8:
                raise ValueError("type1 takes parameters c1..c8")
            if self.mu is None or self.mu <= 0:
                raise ValueError("type1 requires mu > 0")
            if not any(v != 0.0 for v in self.c[4:8]):
                raise ValueError("type1 requires a nonzero second constraint")
        elif self.kind == "type2":
            if len(self.c) != 5:
                raise ValueError("type2 takes parameters c1..c5")
            if self.mu is not None:
                raise ValueError("mu is a type1 parameter")
        else:
            raise ValueError(f"unknown plane kind {self.kind!r}")

    def canonical(self):
        """Same parameters with the rotation block stripped."""
        return PlaneSpec(self.kind, self.c, 0.0, False, self.mu)

    @classmethod
    def from_json(cls, data):
        """Spec from a decoded plane JSON object (a dict); an unknown or a
        missing required key raises ``ValueError`` naming it."""
        known = sorted(cls.__dataclass_fields__)
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(f"unknown plane key {unknown[0]!r}; known: "
                             f"{', '.join(known)}")
        for key in ("kind", "c"):
            if key not in data:
                raise ValueError(f"plane key {key!r} is required")
        return cls(**data)


def rotation_matrix(theta, reflect=False):
    """3x3 block rotation fixing e1; reflect flips the block determinant."""
    ct, st = np.cos(theta), np.sin(theta)
    blk = np.array([[ct, -st], [st, ct]])
    if reflect:
        blk = blk @ np.array([[1.0, 0.0], [0.0, -1.0]])
    P = np.eye(3)
    P[1:, 1:] = blk
    return P


def _sym_stack(entries):
    """A stack of matrices, each written out symmetric, as one float64
    array; adding 0.0 turns a -0.0 entry into +0.0, as ``sym_matrix`` does."""
    return np.array(entries, dtype=float) + 0.0


def conjugate(P, M):
    """P M P^T of one matrix M or of each in a stack, re-symmetrized so
    rounding cannot break exact symmetry."""
    out = P @ M @ P.T
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _rotated(spec, M):
    """M (one matrix or a stack) conjugated by the spec's rotation block;
    M itself when there is none (theta = 0, no reflection)."""
    if spec.theta == 0.0 and not spec.reflect:
        return M
    return conjugate(rotation_matrix(spec.theta, spec.reflect), M)


def constraint_matrices(spec):
    """The three constraint matrices (A1, A2, A3) of the plane."""
    if spec.kind == "type1":
        c1, c2, c3, c4, c5, c6, c7, c8 = spec.c
        A = _sym_stack([[[1, c1, c2], [c1, c3, c4], [c2, c4, 0]],
                        [[0, c5, c6], [c5, c7, c8], [c6, c8, 0]],
                        [[0, 0, 0], [0, spec.mu, 0], [0, 0, 1]]])
    else:
        c1, c2, c3, c4, c5 = spec.c
        A = _sym_stack([[[1, c1, c2], [c1, 0, c3], [c2, c3, 0]],
                        [[0, 0, c4], [0, 1, c5], [c4, c5, 0]],
                        [[0, 0, 0], [0, 0, 0], [0, 0, 1]]])
    return tuple(_rotated(spec, A))


# the type2 basis at c = 0, raveled, and its entries that hold c:
# (B1)_11 = -2 c1, (B2)_11 = 2 c2, (B3)_11 = -2 c3, (B2)_22 = 2 c4 and
# (B3)_22 = -2 c5
_TYPE2_AT_ZERO = _sym_stack([[[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                             [[0, 0, -1], [0, 0, 0], [-1, 0, 0]],
                             [[0, 0, 0], [0, 0, 1], [0, 1, 0]]]).ravel()
_TYPE2_AT_ZERO.setflags(write=False)
_TYPE2_C_ENTRIES = [0, 9, 18, 13, 22]
_TYPE2_C_SCALES = np.array([-2.0, 2.0, -2.0, 2.0, -2.0])


def type2_basis(c):
    """Direction basis of a canonical type2 plane (not orthogonal in
    general), or, for a (B, 5) array of c, the (B, 3, 3, 3) stack of the B
    bases:

        [[-2 c1, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[2 c2, 0, -1], [0, 2 c4, 0], [-1, 0, 0]],
        [[-2 c3, 0, 0], [0, -2 c5, 1], [0, 1, 0]].

    An entry 2 c_i past the largest float is inf, with no warning, as it is
    in Python floats."""
    c = np.asarray(c, dtype=float)
    B = np.empty((*c.shape[:-1], 27))
    B[...] = _TYPE2_AT_ZERO
    with np.errstate(over="ignore"):
        B[..., _TYPE2_C_ENTRIES] = _TYPE2_C_SCALES * c
    return B.reshape(*c.shape[:-1], 3, 3, 3) + 0.0   # -0.0 becomes +0.0


def slow_step_constant(spec):
    """The step constant c = 1 / (4 c4^4 ||B1||^2) of the slowest curve:
    one AP step maps G(t) to G(t - c t^7 + O(t^8)), so t_k ~ (6 c k)^(-1/6)
    (1/24 on ex6.1).  ``spec`` must have a slowest curve."""
    return require_slowest_curve(spec).step


def _type1_basis(spec):
    # Null space of the three constraint functionals over S^3.
    A1, A2, A3 = constraint_matrices(spec.canonical())
    rows = np.array([sym_to_coords(A) for A in (A1, A2, A3)])
    u, s, vt = np.linalg.svd(rows)
    if s.min() <= 1e-12 * s.max():
        raise DependentBasisError("type1 constraints are linearly dependent")
    return np.array([coords_to_sym(v) for v in vt[3:]])


def _planes(specs):
    """The planes of ``specs``, the ``AffineSubspace``s anchored at U* that
    ``build_plane`` returns, as a tuple made by one ``from_basis`` call on
    the stack of their bases (the type2 ones from one ``type2_basis``
    call).  A spec whose basis cannot be made raises first; then the first
    bad basis raises as it does alone."""
    c = [spec.c for spec in specs if spec.kind == "type2"]
    # a c so large that the basis or its rotation overflows gives inf or
    # NaN entries, which from_basis rejects: no warning on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        type2 = iter(type2_basis(c) if c else ())
        bases = [_rotated(spec, next(type2) if spec.kind == "type2"
                          else _type1_basis(spec)) for spec in specs]
    return AffineSubspace.from_basis(U_STAR, bases)


def build_plane(spec):
    """Construct the plane as (AffineSubspace anchored at U*, constraints).

    For theta != 0 the canonical basis and constraints are conjugated by the
    rotation, so conjugation equivariance holds by construction.  Callers
    that need only the plane take it from ``_planes``.
    """
    return _planes([spec])[0], constraint_matrices(spec)


def singularity_degree(spec):
    """1 for type1; for type2, 2 exactly when c4 != 0, else 1."""
    return 2 if spec.kind == "type2" and spec.c[3] != 0.0 else 1


@dataclass(frozen=True)
class CurveConstants:
    """The constants of a plane's slowest curve that its formulas read,
    made and checked by ``require_slowest_curve`` alone.  They are Python
    floats, so a ``TruncSeries`` t can be multiplied by them;
    ``slowcurve._columns`` stacks the records of B planes into one whose
    fields are (B, 1) columns of them."""

    c: tuple            # c1..c5
    nb1: float          # ||B1||^2 = 4 c1^2 + 2
    ip21: float         # <B2, B1> = -4 c1 c2
    ip31: float         # <B3, B1> = 4 c1 c3
    step: float         # c = 1 / (4 c4^4 ||B1||^2), of one AP step
    r0: float           # of t^7 in g23, and times c5 / c4 in g13
    d16: float          # 16 c4^6 ||B1||^2, divides g13's <B2, B1> term
    k5: float           # 2 (2 c5^2 + 1), of g13's t^6 / den^5 term
    nb1_cubed: float    # ||B1||^6, of the limit-law constant


def require_slowest_curve(spec):
    """The ``CurveConstants`` of ``spec``'s slowest curve, which only a
    ``PlaneSpec`` of degree 2 has; anything else (None included) raises
    ``ValueError``.  So does a plane on which a constant is not a finite
    float or the divisor 16 c4^6 ||B1||^2 is zero (every other divisor of
    the formulas, c4 aside, sits inside a constant that is then not
    finite).  Each constant is written here once; its powers are taken on
    ``np.float64`` under ``np.errstate``, with the bits of Python's float
    power, so an overflow gives inf and raises nothing."""
    if not (isinstance(spec, PlaneSpec) and singularity_degree(spec) == 2):
        raise ValueError("the slowest curve needs a type2 plane with c4 != 0")
    c1, c2, c3, c4, c5 = map(np.float64, spec.c)
    with np.errstate(all="ignore"):
        nb1 = 4.0 * c1 * c1 + 2.0
        ip21, ip31 = -4.0 * c1 * c2, 4.0 * c1 * c3
        r0 = ((c4 * ip31 + c5 * ip21) / (8.0 * c4 ** 5 * nb1)
              + 1.0 / (8.0 * c4 ** 3))
        d16 = 16.0 * c4 ** 6 * nb1
        values = (nb1, ip21, ip31, 1.0 / (4.0 * c4 ** 4 * nb1), r0, d16,
                  2.0 * (2.0 * c5 ** 2 + 1.0), nb1 ** 3)
    if not (all(map(math.isfinite, values)) and d16 != 0.0):
        raise ValueError("the slowest curve's constants are not finite "
                         "nonzero floats on this plane")
    return CurveConstants(spec.c, *map(float, values))


# --- Pluecker coordinates -------------------------------------------------

# Orthonormal basis e1..e6 of S^3 (E_ii, then (E_ij + E_ji)/sqrt(2), i < j),
# raveled to rows of length 9.
_SYM3_ROWS = np.array(_standard_sym_basis(3)).reshape(6, 9)
_SYM3_ROWS.setflags(write=False)


def sym_to_coords(X):
    """Coordinates of X in the orthonormal basis e1..e6."""
    return _SYM3_ROWS @ np.ravel(X)


def coords_to_sym(v):
    return (np.asarray(v, dtype=float) @ _SYM3_ROWS).reshape(3, 3)


PLUCKER_INDEX_TRIPLES = tuple(combinations(range(6), 3))
_TRIPLES = np.array(PLUCKER_INDEX_TRIPLES)
_TRIPLES.setflags(write=False)


def plucker_coords(E):
    """The 20 coordinates of B1^B2^B3: all 3x3 minors of the coefficient
    matrix over e1..e6, ordered lexicographically by index triple."""
    if E.n != 3 or E.dim != 3:
        raise ValueError("Pluecker coordinates need a 3-plane in S^3")
    M = np.array([sym_to_coords(B) for B in E.basis])  # 3 x 6
    # the 20 3 x 3 minors M[:, cols] as one stack, one det call
    return np.linalg.det(M[:, _TRIPLES].swapaxes(0, 1))


@functools.cache
def _plucker_tables():
    """``(first, second, sign)``, each (225, 4): term k of the relation for
    the pair alpha and quadruple beta (both lexicographic) is
    ``sign * p[first] * p[second]`` with p the coordinates and a zero
    appended, ``first`` the sorted triple alpha + b_k (the zero where it
    repeats an index), ``second`` the triple beta - b_k and ``sign``
    (-1)^k times the parity of sorting alpha + b_k.  Built on first use."""
    index = {trip: i for i, trip in enumerate(PLUCKER_INDEX_TRIPLES)}
    first, second, sign = [], [], []
    for alpha in combinations(range(6), 2):
        for beta in combinations(range(6), 4):
            for k, bk in enumerate(beta):
                trip = (*alpha, bk)
                inversions = sum(a > b for a, b in combinations(trip, 2))
                first.append(index.get(tuple(sorted(trip)), len(index)))
                second.append(index[tuple(b for b in beta if b != bk)])
                sign.append((-1.0) ** (k + inversions))
    tables = tuple(np.array(a).reshape(-1, 4) for a in (first, second, sign))
    for table in tables:
        table.setflags(write=False)
    return tables


def plucker_relation_defect(coords):
    """Largest violation of the quadratic Grassmann-Pluecker relations.

    For every pair alpha = (a1 < a2) and quadruple beta = (b1 < .. < b4) the
    alternating sum  sum_k (-1)^k  p[alpha + b_k] p[beta - b_k]  must vanish
    (p of a triple with a repeated index is 0).  The four terms of every
    relation are summed in order k = 1..4, all relations at once; a NaN
    relation is passed over.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (len(PLUCKER_INDEX_TRIPLES),):
        raise ValueError("expected the 20 Pluecker coordinates")
    first, second, sign = _plucker_tables()
    p = np.append(coords, 0.0)
    terms = sign * p[first] * p[second]
    acc = ((terms[:, 0] + terms[:, 1]) + terms[:, 2]) + terms[:, 3]
    return float(np.fmax.reduce(np.abs(acc), initial=0.0))
