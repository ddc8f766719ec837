"""Families of 3-planes in S^3 meeting the PSD cone only at U* = E_11.

Two parametric templates cover every such plane (up to the rotation block
P~): "type1" planes have singularity degree 1; "type2" planes have degree 2
exactly when c4 != 0.  The module also computes Pluecker coordinates of a
3-plane inside the 6-dimensional space S^3.
"""

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from numbers import Real

import numpy as np

from .symcore import (AffineSubspace, DependentBasisError,
                      _standard_sym_basis, sym_matrix)

U_STAR = sym_matrix([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
U_STAR.setflags(write=False)


def _finite(v):
    return not isinstance(v, bool) and isinstance(v, Real) and math.isfinite(v)


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
                and all(map(_finite, self.c))):
            raise ValueError("plane field 'c' must list finite numbers")
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        if not _finite(self.theta):
            raise ValueError("plane field 'theta' must be finite")
        if not isinstance(self.reflect, bool):
            raise ValueError("plane field 'reflect' must be true or false")
        if self.mu is not None and not _finite(self.mu):
            raise ValueError("plane field 'mu' must be finite")
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


def conjugate(P, M):
    """P M P^T, re-symmetrized so rounding cannot break exact symmetry."""
    out = P @ M @ P.T
    return 0.5 * (out + out.T)


def constraint_matrices(spec):
    """The three constraint matrices (A1, A2, A3) of the plane."""
    P = rotation_matrix(spec.theta, spec.reflect)
    if spec.kind == "type1":
        c1, c2, c3, c4, c5, c6, c7, c8 = spec.c
        A1 = sym_matrix([[1, c1, c2], [c1, c3, c4], [c2, c4, 0]])
        A2 = sym_matrix([[0, c5, c6], [c5, c7, c8], [c6, c8, 0]])
        A3 = np.diag([0.0, spec.mu, 1.0])
    else:
        c1, c2, c3, c4, c5 = spec.c
        A1 = sym_matrix([[1, c1, c2], [c1, 0, c3], [c2, c3, 0]])
        A2 = sym_matrix([[0, 0, c4], [0, 1, c5], [c4, c5, 0]])
        A3 = np.diag([0.0, 0.0, 1.0])
    return tuple(conjugate(P, A) for A in (A1, A2, A3))


def type2_basis(c):
    """Direction basis of a canonical type2 plane (not orthogonal in general)."""
    c1, c2, c3, c4, c5 = c
    B1 = sym_matrix([[-2 * c1, 1, 0], [1, 0, 0], [0, 0, 0]])
    B2 = sym_matrix([[2 * c2, 0, -1], [0, 2 * c4, 0], [-1, 0, 0]])
    B3 = sym_matrix([[-2 * c3, 0, 0], [0, -2 * c5, 1], [0, 1, 0]])
    return np.array([B1, B2, B3])


def type2_b1_products(c):
    """(||B1||^2, <B2, B1>, <B3, B1>) of ``type2_basis(c)`` in closed form."""
    c1, c2, c3 = c[0], c[1], c[2]
    return 4.0 * c1 * c1 + 2.0, -4.0 * c1 * c2, 4.0 * c1 * c3


def _type1_basis(spec):
    # Null space of the three constraint functionals over S^3.
    A1, A2, A3 = constraint_matrices(spec.canonical())
    rows = np.array([sym_to_coords(A) for A in (A1, A2, A3)])
    u, s, vt = np.linalg.svd(rows)
    if s.min() <= 1e-12 * s.max():
        raise DependentBasisError("type1 constraints are linearly dependent")
    return np.array([coords_to_sym(v) for v in vt[3:]])


def build_plane(spec):
    """Construct the plane as (AffineSubspace anchored at U*, constraints).

    For theta != 0 the canonical basis and constraints are conjugated by the
    rotation, so conjugation equivariance holds by construction.
    """
    if spec.kind == "type2":
        basis = type2_basis(spec.c)
    else:
        basis = _type1_basis(spec)
    P = rotation_matrix(spec.theta, spec.reflect)
    if spec.theta != 0.0 or spec.reflect:
        basis = np.array([conjugate(P, B) for B in basis])
    E = AffineSubspace.from_basis(U_STAR, basis)
    return E, constraint_matrices(spec)


def singularity_degree(spec):
    """1 for type1; for type2, 2 exactly when c4 != 0, else 1."""
    if spec.kind == "type1":
        return 1
    return 2 if spec.c[3] != 0.0 else 1


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


def plucker_coords(E):
    """The 20 coordinates of B1^B2^B3: all 3x3 minors of the coefficient
    matrix over e1..e6, ordered lexicographically by index triple."""
    if E.n != 3 or E.dim != 3:
        raise ValueError("Pluecker coordinates need a 3-plane in S^3")
    M = np.array([sym_to_coords(B) for B in E.basis])  # 3 x 6
    return np.array([np.linalg.det(M[:, cols]) for cols in PLUCKER_INDEX_TRIPLES])


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
