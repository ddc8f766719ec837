"""Built-in experiment instances (ids ex3.2, ex3.3, ex3.4, ex4.4, ex6.1).

Each instance fixes a plane, whose anchor is the distance target, a
default start, and the fit that summarizes its convergence behaviour.  A
plane object (a ``PlaneSpec``) makes an instance too, with no default
start: its fit, like that of the type2 instances, follows from its
singularity degree.
"""

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .planes import PlaneSpec, U_STAR, _planes, singularity_degree
from .slowcurve import curve_point
from .symcore import AffineSubspace, sym_matrix


@dataclass(frozen=True)
class ExampleInstance:
    ident: str
    variant: str
    plane: AffineSubspace
    start: np.ndarray | None    # default coefficients
    default_iters: int | None
    fit_power: int | None       # fit dist^-p against k; None: geometric
    spec: PlaneSpec | None      # set for type2 instances and plane objects

    @property
    def target(self):
        """The distance target: the plane's anchor."""
        return self.plane.anchor


_LINE_32 = sym_matrix([[0, 0, -1], [0, 2, 0], [-1, 0, 0]])
_LINE_33 = sym_matrix([[-1, 0, 0], [0, 1, 1], [0, 1, 1]])

_SPEC_44 = PlaneSpec("type2", (0.0, 0.0, 1.0, 1.0, 0.0))
_SPEC_61 = PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0))


def _line(anchor, direction, start, iters, power, ident, variant):
    """The line instance anchor + s ``direction``, started at s = ``start``:
    fitted as dist^-power against k, or geometrically when ``power`` is
    None."""
    E = AffineSubspace.from_basis(anchor, np.array([direction]))
    return ExampleInstance(ident, variant, E, np.array([start]), iters, power,
                           None)


def _ex34(ident, variant):
    anchor = np.zeros((4, 4))
    anchor[0, 0] = 1.0
    B1 = np.zeros((4, 4))
    B1[0, 2] = B1[2, 0] = B1[1, 2] = B1[2, 1] = 1.0
    B2 = np.zeros((4, 4))
    B2[0, 3] = B2[3, 0] = B2[1, 3] = B2[3, 1] = 1.0
    E = AffineSubspace.from_basis(sym_matrix(anchor),
                                  np.array([sym_matrix(B1), sym_matrix(B2)]))
    return ExampleInstance(ident, variant, E, np.array([0.1, 0.0]), 40, None,
                           None)


def plane_instance(spec):
    """The instance of a plane object, labelled ``plane (<kind>)``: it
    targets the plane's anchor U* and has no default start or iteration
    count.  At singularity degree 2 the fit is dist^-6 against k (the
    k^(-1/6) law from the slowest curve), otherwise geometric."""
    E, = _planes([spec])
    power = 6 if singularity_degree(spec) == 2 else None
    return ExampleInstance("plane", spec.kind, E, None, None, power, spec)


def _type2_instance(spec, start_t, iters, ident, variant):
    inst = plane_instance(spec)
    start = inst.plane.coefficients(curve_point(spec, start_t).G)
    return replace(inst, ident=ident, variant=variant, start=start,
                   default_iters=iters)


# id -> {variant: builder(ident, variant)}; an id's first variant is its
# default
_CATALOG = {
    "ex3.2": {"pos": partial(_line, U_STAR, _LINE_32, 0.1, 100000, 2),
              "neg": partial(_line, U_STAR, _LINE_32, -0.05, 40, None)},
    # the pos variant is anchored at the far endpoint of the intersection
    # segment
    "ex3.3": {"neg": partial(_line, U_STAR, _LINE_33, -0.1, 40, None),
              "pos": partial(_line, sym_matrix(U_STAR + _LINE_33), _LINE_33,
                             0.5, 60, None)},
    "ex3.4": {"default": _ex34},
    "ex4.4": {"default": partial(_type2_instance, _SPEC_44, 0.05, 10000)},
    "ex6.1": {"default": partial(_type2_instance, _SPEC_61, 0.1, 100000)},
}
BUILTIN_IDS = tuple(_CATALOG)


def get_example(ident, variant=None):
    """Look up a built-in instance; raises KeyError for unknown ids and
    ValueError for a variant the id does not have."""
    builders = _CATALOG.get(ident)
    if builders is None:
        raise KeyError(f"unknown example id {ident!r}; "
                       f"known: {', '.join(BUILTIN_IDS)}")
    if variant is None:
        variant = next(iter(builders))
    if variant not in builders:
        # a line's two read "pos, neg" whichever is its default
        names = ", ".join(sorted(builders, reverse=True))
        raise ValueError(f"{ident} variants: {names}" if len(builders) > 1
                         else f"{ident} has one variant: {names}")
    return builders[variant](ident, variant)
