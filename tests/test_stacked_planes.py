"""The stacked forms of the per-plane operations: a stack of B planes,
orthogonal planes, gains, curve domains and Pluecker coordinates equals
the B one-plane calls byte for byte, a stack with a bad basis raises the
error its first bad basis raises alone, and the verify suites that draw
many planes factor them in one call per operation."""

import sys
from dataclasses import fields

import numpy as np
import pytest

from apcone import symcore, verify
from apcone.planes import (PLUCKER_INDEX_TRIPLES, U_STAR, PlaneSpec, _planes,
                           build_plane, plucker_coords, sym_to_coords,
                           type2_basis)
from apcone.slowcurve import T_CAP, perturb_gain, valid_t_max
from apcone.symcore import (AffineSubspace, DependentBasisError,
                            orthogonalize)
from apcone.verify import random_type2_spec

from test_symcore import random_sym


def _bytes(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _same_plane(got, want):
    return all(_bytes(getattr(got, f.name)) == _bytes(getattr(want, f.name))
               for f in fields(AffineSubspace))


def _draws(seed):
    """Mild, wide, rotated and type1 draws, ten of each, interleaved."""
    rng = np.random.RandomState(seed)
    specs = []
    for _ in range(10):
        specs.append(random_type2_spec(rng))
        specs.append(random_type2_spec(rng, mild=False))
        spec = random_type2_spec(rng, mild=bool(rng.randint(2)))
        specs.append(PlaneSpec("type2", spec.c,
                               theta=float(rng.uniform(0, 2 * np.pi)),
                               reflect=bool(rng.randint(2))))
        specs.append(PlaneSpec("type1", tuple(rng.uniform(-1.0, 1.0, 8)),
                               theta=float(rng.uniform(0, 2 * np.pi)),
                               reflect=bool(rng.randint(2)),
                               mu=float(rng.uniform(0.2, 2.0))))
    return specs


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_stacked_planes_equal_the_one_plane_calls(seed):
    specs = _draws(seed)
    planes = _planes(specs)
    assert len(planes) == len(specs)
    for spec, E in zip(specs, planes):
        alone = build_plane(spec)[0]
        assert _same_plane(E, alone)
        assert _bytes(plucker_coords(E)) == _bytes(plucker_coords(alone))
        # the public one-basis form of from_basis
        assert _same_plane(E, AffineSubspace.from_basis(U_STAR, E.basis))
        assert not E.basis.flags.writeable
    for E, Eo in zip(planes, orthogonalize(planes)):
        assert _same_plane(Eo, orthogonalize(E))
    # the 20 minors from one det call, against one det per index triple
    for E in planes:
        M = np.array([sym_to_coords(B) for B in E.basis])
        want = np.array([np.linalg.det(M[:, cols])
                         for cols in PLUCKER_INDEX_TRIPLES])
        assert _bytes(plucker_coords(E)) == _bytes(want)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_stacked_gains_and_domains_equal_the_one_plane_calls(seed):
    specs = [s for s in _draws(seed) if s.kind == "type2"]
    gains = perturb_gain(specs)
    for spec, gain in zip(specs, gains):
        alone = perturb_gain(spec)
        assert _bytes(gain.matrix) == _bytes(alone.matrix)
        assert gain.spectral_norm == alone.spectral_norm
    t_max = valid_t_max(specs)
    assert t_max == tuple(valid_t_max(spec) for spec in specs)
    # wide draws whose grid fails, so that the bisection runs
    assert sum(t < T_CAP for t in t_max) >= 5
    bases = type2_basis(np.array([spec.c for spec in specs]))
    for spec, basis in zip(specs, bases):
        assert _bytes(basis) == _bytes(type2_basis(spec.c))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_from_basis_at_every_size(n):
    rng = np.random.RandomState(70 + n)
    for m in range(1, n * (n + 1) // 2 + 1):
        anchor = random_sym(n, rng)
        stack = np.array([[random_sym(n, rng) for _ in range(m)]
                          for _ in range(4)])
        planes = AffineSubspace.from_basis(anchor, stack)
        for basis, E in zip(stack, planes):
            assert _same_plane(E, AffineSubspace.from_basis(anchor, basis))


def _bad_bases():
    """Good type2 bases and, by name, bad ones: a dependent basis and two
    whose Gram matrices overflow and underflow."""
    good = type2_basis(np.array([[0.3, -0.2, 0.5, 1.1, 0.4],
                                 [0.1, 0.7, -0.4, -0.9, 0.2],
                                 [1.5, -1.1, 0.3, 0.02, 1.3]]))
    dependent = good[0].copy()
    dependent[2] = dependent[0] + dependent[1]
    return good, {"dependent": dependent, "overflow": 1e200 * good[1],
                  "underflow": 1e-170 * good[2]}


def _error(call):
    with pytest.raises(Exception) as raised:
        call()
    return type(raised.value), str(raised.value)


@pytest.mark.parametrize("first, second", [
    ("dependent", "overflow"), ("overflow", "dependent"),
    ("underflow", "dependent"), ("dependent", "underflow"),
    ("overflow", None), ("dependent", None)])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_stack_raises_the_error_of_its_first_bad_basis(first, second, j):
    good, bad = _bad_bases()
    stack = [*good]
    stack.insert(j, bad[first])
    if second is not None:
        stack.append(bad[second])
    want = _error(lambda: AffineSubspace.from_basis(U_STAR, bad[first]))
    assert want[0] in (DependentBasisError, ValueError)
    assert _error(lambda: AffineSubspace.from_basis(U_STAR,
                                                    np.array(stack))) == want


@pytest.mark.parametrize("j", [0, 2])
def test_stack_checks_its_matrices_in_order(j):
    good, _ = _bad_bases()
    asymmetric, infinite = good.copy(), good.copy()
    asymmetric[j, 1, 0, 1] = 5.0
    infinite[j, 2, 1, 1] = np.inf
    for stack, message in ((asymmetric, "matrix is not exactly symmetric"),
                           (infinite, "matrix has non-finite entries")):
        assert _error(lambda: AffineSubspace.from_basis(U_STAR, stack)) == (
            ValueError, message)
    # both faults: the earlier matrix decides
    both = asymmetric.copy()
    both[j, 2, 1, 1] = np.inf
    assert _error(lambda: AffineSubspace.from_basis(U_STAR, both)) == (
        ValueError, "matrix is not exactly symmetric")


class _QRFailingOn:
    """``symcore._umath_linalg`` with a QR that fails, as LAPACK's flags
    make numpy's errstate fail, on any stack holding the entry ``mark``."""

    def __init__(self, mark):
        self.mark = mark

    def __getattr__(self, name):
        return getattr(_UMATH_LINALG, name)

    def qr_r_raw(self, a, **kwargs):
        if (a == self.mark).any():
            raise np.linalg.LinAlgError("Incorrect argument found while "
                                        "performing QR factorization")
        return _UMATH_LINALG.qr_r_raw(a, **kwargs)


_UMATH_LINALG = symcore._umath_linalg


@pytest.mark.parametrize("j", [0, 1, 2])
def test_stack_whose_lapack_call_fails_is_factored_one_at_a_time(
        monkeypatch, j):
    good, bad = _bad_bases()
    failing = good[1].copy()
    failing[0, 0, 0] = 7.25
    monkeypatch.setattr(symcore, "_umath_linalg", _QRFailingOn(7.25))
    stack = [*good]
    stack.insert(j, failing)
    alone = _error(lambda: AffineSubspace.from_basis(U_STAR, failing))
    assert alone[0] is np.linalg.LinAlgError
    # the QR of the whole stack fails; the planes before it pass alone
    assert _error(lambda: AffineSubspace.from_basis(U_STAR,
                                                    np.array(stack))) == alone
    # a bad basis before it decides the error
    stack.insert(j, bad["dependent"])
    assert _error(lambda: AffineSubspace.from_basis(U_STAR,
                                                    np.array(stack))) == (
        DependentBasisError, "basis matrices are linearly dependent")


def test_orthogonalize_refuses_a_stack_of_two_anchors():
    E, F = _planes([PlaneSpec("type2", (1.0, 0.0, 0.0, 1.0, 0.0))] * 2)
    moved = AffineSubspace.from_basis(np.eye(3), F.basis)
    with pytest.raises(ValueError,
                       match="the planes of a stack must share one anchor"):
        orthogonalize([E, moved])


# --- factorizations per suite ------------------------------------------------

# symcore._factor calls of one run of each suite that draws many planes:
# one per stacked operation (prop31 also builds the ex3.2 and ex3.4 lines)
FACTOR_CALLS = {"lemma75": 1, "thm41": 2, "prop31": 4, "thm63": 1,
                "plucker": 1}


@pytest.fixture
def factor_calls(monkeypatch):
    """A counter of ``symcore._factor`` calls, through every apcone module
    that holds it."""
    original, calls = symcore._factor, []

    def counted(basis):
        calls.append(len(basis))
        return original(basis)

    for name, module in list(sys.modules.items()):
        if name.startswith("apcone"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("suite", FACTOR_CALLS)
def test_many_plane_suites_factor_once_per_operation(factor_calls, suite,
                                                     seed):
    rows = verify.run_suite(suite, seed)
    assert all(row.passed for row in rows)
    assert len(factor_calls) == FACTOR_CALLS[suite], factor_calls
