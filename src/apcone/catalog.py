"""Built-in experiment instances (ids ex3.2, ex3.3, ex3.4, ex4.4, ex6.1).

Each instance fixes a plane, a distance target, a default start, and the
fit that summarizes its convergence behaviour.  A plane object (a
``PlaneSpec``) makes an instance too, with no default start: its fit, like
that of the type2 instances, follows from its singularity degree.
"""

from dataclasses import dataclass, replace

import numpy as np

from .planes import PlaneSpec, U_STAR, build_plane, singularity_degree
from .symcore import AffineSubspace, sym_matrix

BUILTIN_IDS = ("ex3.2", "ex3.3", "ex3.4", "ex4.4", "ex6.1")


@dataclass(frozen=True)
class ExampleInstance:
    ident: str
    variant: str
    plane: AffineSubspace
    target: np.ndarray
    start: np.ndarray | None    # default coefficients
    default_iters: int | None
    fit_power: int | None       # fit dist^-p against k; None: geometric
    spec: PlaneSpec | None      # set for type2 instances and plane objects


_LINE_32 = sym_matrix([[0, 0, -1], [0, 2, 0], [-1, 0, 0]])
_LINE_33 = sym_matrix([[-1, 0, 0], [0, 1, 1], [0, 1, 1]])

_SPEC_44 = PlaneSpec("type2", (0.0, 0.0, 1.0, 1.0, 0.0))
_SPEC_61 = PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0))


def _ex32(variant):
    variant = variant or "pos"
    E = AffineSubspace.from_basis(U_STAR, np.array([_LINE_32]))
    if variant == "pos":
        return ExampleInstance("ex3.2", "pos", E, U_STAR, np.array([0.1]),
                               100000, 2, None)
    if variant == "neg":
        return ExampleInstance("ex3.2", "neg", E, U_STAR, np.array([-0.05]),
                               40, None, None)
    raise ValueError("ex3.2 variants: pos, neg")


def _ex33(variant):
    variant = variant or "neg"
    if variant == "neg":
        E = AffineSubspace.from_basis(U_STAR, np.array([_LINE_33]))
        return ExampleInstance("ex3.3", "neg", E, U_STAR, np.array([-0.1]),
                               40, None, None)
    if variant == "pos":
        # anchor at the far endpoint of the intersection segment
        anchor = sym_matrix(U_STAR + _LINE_33)
        E = AffineSubspace.from_basis(anchor, np.array([_LINE_33]))
        return ExampleInstance("ex3.3", "pos", E, anchor, np.array([0.5]),
                               60, None, None)
    raise ValueError("ex3.3 variants: pos, neg")


def _ex34():
    anchor = np.zeros((4, 4))
    anchor[0, 0] = 1.0
    B1 = np.zeros((4, 4))
    B1[0, 2] = B1[2, 0] = B1[1, 2] = B1[2, 1] = 1.0
    B2 = np.zeros((4, 4))
    B2[0, 3] = B2[3, 0] = B2[1, 3] = B2[3, 1] = 1.0
    E = AffineSubspace.from_basis(sym_matrix(anchor),
                                  np.array([sym_matrix(B1), sym_matrix(B2)]))
    return ExampleInstance("ex3.4", "default", E, E.anchor,
                           np.array([0.1, 0.0]), 40, None, None)


def plane_instance(spec):
    """The instance of a plane object, labelled ``plane (<kind>)``: it
    targets the plane's anchor U* and has no default start or iteration
    count.  At singularity degree 2 the fit is dist^-6 against k (the
    k^(-1/6) law from the slowest curve), otherwise geometric."""
    E, _ = build_plane(spec)
    power = 6 if singularity_degree(spec) == 2 else None
    return ExampleInstance("plane", spec.kind, E, E.anchor, None, None, power,
                           spec)


def _type2_instance(ident, spec, start_t, iters):
    from .slowcurve import curve_point

    inst = plane_instance(spec)
    start = inst.plane.coefficients(curve_point(spec, start_t).G)
    return replace(inst, ident=ident, variant="default", start=start,
                   default_iters=iters)


def get_example(ident, variant=None):
    """Look up a built-in instance; raises KeyError for unknown ids and
    ValueError for a variant the id does not have."""
    if ident == "ex3.2":
        return _ex32(variant)
    if ident == "ex3.3":
        return _ex33(variant)
    if ident not in BUILTIN_IDS:
        raise KeyError(f"unknown example id {ident!r}; "
                       f"known: {', '.join(BUILTIN_IDS)}")
    if variant not in (None, "default"):
        raise ValueError(f"{ident} has one variant: default")
    if ident == "ex3.4":
        return _ex34()
    if ident == "ex4.4":
        return _type2_instance("ex4.4", _SPEC_44, 0.05, 10000)
    return _type2_instance("ex6.1", _SPEC_61, 0.1, 100000)
