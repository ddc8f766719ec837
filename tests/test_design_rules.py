"""Design rules of apcone, read from the source with ``ast``: each operation
has one implementation, so a second copy fails here rather than drifting in
unnoticed.

A rule is a node predicate plus the qualified functions allowed to match it
(``module.Class.method``; module level reads as ``module.<module>``).  Every
rule must match in exactly its allowed functions across ``src/apcone``, and
each is shown a planted violation on a source string.  Adding a rule is one
entry in ``RULES`` and one case in ``PLANTED``.  One more rule reads the
tests themselves: every hypothesis test draws a fixed set of examples."""

import ast
import functools
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "apcone"
EIGENSOLVERS = {"eig", "eigh", "eigh_lo", "eigh_up", "eigvals", "eigvalsh"}
POWERS = {"float_power", "power"}
DENOMINATORS = {"d_inner", "d_mid", "d_q"}
RUN_PATH = {"run_ap", "trace_csv", "_summarize"}
RANK_CUTS = {"bisect", "bisect_left", "bisect_right", "searchsorted"}
FACTORIZATIONS = {"qr", "qr_r_raw", "qr_reduced", "inv"}
FLOAT_EXCEPTIONS = {"ZeroDivisionError", "OverflowError"}


def _attr(node, names):
    return isinstance(node, ast.Attribute) and node.attr in names


def _name(node, names, ctx=ast.expr_context):
    return (isinstance(node, ast.Name) and node.id in names
            and isinstance(node.ctx, ctx))


def _imports_from(node, names, module=None):
    """``from module import <one of names>``; any module when None."""
    return (isinstance(node, ast.ImportFrom)
            and module in (None, node.module)
            and any(alias.name in names for alias in node.names))


def _numpy_random(node):
    """``np.random`` / ``numpy.random`` as an attribute or an import."""
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.random") for a in node.names)
    return (_attr(node, {"random"}) and _name(node.value, {"np", "numpy"})
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("numpy.random")
            or _imports_from(node, {"random"}, "numpy"))


def _coefficient(node, k):
    """The type2 coefficient c_k: a name ``ck``, or ``c[k - 1]`` of a name
    or an attribute ``c``."""
    return _name(node, {f"c{k}"}) or (
        isinstance(node, ast.Subscript)
        and (_name(node.value, {"c"}) or _attr(node.value, {"c"}))
        and isinstance(node.slice, ast.Constant) and node.slice.value == k - 1)


def _c4_zero_test(node):
    """A comparison of c4 (``_coefficient``) with the number 0."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(_coefficient(o, 4) for o in operands) and any(
        isinstance(o, ast.Constant) and type(o.value) in (int, float)
        and o.value == 0 for o in operands)


def _calls(node, names):
    """A call of one of ``names``, as a bare name or an attribute."""
    return isinstance(node, ast.Call) and (_name(node.func, names)
                                           or _attr(node.func, names))


def _factors(node):
    """The operands of a chain of multiplications."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) + _factors(node.right)
    return [node]


def _curve_constant(node):
    """A constant of the slowest curve formed: a ``**`` of c4, c5 or
    ||B1||^2 (a name or attribute ``nb1``), a product of two of c4 and c5,
    or a closed-form product with B1, c1 times c1, c2 or c3."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        base = node.left
        return (_coefficient(base, 4) or _coefficient(base, 5)
                or _name(base, {"nb1"}) or _attr(base, {"nb1"}))
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    factors = _factors(node)

    def count(ks):
        return sum(any(_coefficient(f, k) for k in ks) for f in factors)

    return count((4, 5)) >= 2 or (count((1,)) >= 1 and count((1, 2, 3)) >= 2)


def _finite_number_test(node):
    """An ``and`` of an ``is_number(...)`` call and an ``isfinite(...)``
    call."""
    return (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And)
            and any(_calls(v, {"is_number"}) for v in node.values)
            and any(_calls(v, {"isfinite"}) for v in node.values))


def _series_t(node):
    """A series t: a call ``TruncSeries.x(...)``, or its base-point form
    ``TruncSeries.from_coeffs([t0, 1], ...)``, a two-entry list or tuple
    whose second entry is the number 1."""
    if not (isinstance(node, ast.Call)
            and _attr(node.func, {"x", "from_coeffs"})
            and _name(node.func.value, {"TruncSeries"})):
        return False
    if node.func.attr == "x":
        return True
    first = node.args[0] if node.args else None
    return (isinstance(first, (ast.List, ast.Tuple)) and len(first.elts) == 2
            and isinstance(first.elts[1], ast.Constant)
            and first.elts[1].value == 1)


def _float_exception_handler(node):
    """An ``except`` clause naming ZeroDivisionError or OverflowError,
    alone or in a tuple."""
    if not (isinstance(node, ast.ExceptHandler) and node.type is not None):
        return False
    kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(_name(kind, FLOAT_EXCEPTIONS) for kind in kinds)


def _assertion(node):
    """An ``assert`` statement or a ``raise`` of AssertionError."""
    return isinstance(node, ast.Assert) or (
        isinstance(node, ast.Raise) and node.exc is not None
        and (_name(node.exc, {"AssertionError"})
             or _calls(node.exc, {"AssertionError"})))


# rule: (predicate on a node, the functions allowed to match it)
RULES = {
    # PSD projection and every spectrum: one eigendecomposition, named as
    # an attribute, a bare name or an import
    "eigensolver": (
        lambda n: (_attr(n, EIGENSOLVERS) or _name(n, EIGENSOLVERS)
                   or _imports_from(n, EIGENSOLVERS)),
        {"symcore._eigh"}),
    # one array power; a bare ``power`` is a plain variable name
    "power_ufunc": (
        lambda n: _attr(n, POWERS) or _imports_from(n, POWERS, "numpy"),
        {"symcore._power"}),
    # the slowest curve's formulas: every store of a nested denominator of w
    "curve_denominators": (
        lambda n: _name(n, DENOMINATORS, ast.Store),
        {"slowcurve._curve_parts"}),
    # the PSD clip's rank cut: one search of the ascending eigenvalues
    "rank_cut": (
        lambda n: _attr(n, RANK_CUTS) or _name(n, RANK_CUTS, ast.Load),
        {"symcore._psd_clip"}),
    # the stored affine maps have one reader each
    "projector": (
        lambda n: _attr(n, {"aug"}),
        {"symcore.AffineSubspace._project"}),
    "coefficient_map": (
        lambda n: _attr(n, {"coef_aug"}),
        {"symcore.AffineSubspace._coefficients"}),
    # every plane's QR factorization and R^-1: one function, which calls
    # the gufuncs behind numpy.linalg.qr and inv, named as an attribute, a
    # bare name or an import
    "one_factorization": (
        lambda n: (_attr(n, FACTORIZATIONS) or _name(n, FACTORIZATIONS)
                   or _imports_from(n, FACTORIZATIONS)),
        {"symcore._factor"}),
    # R^-1 is made by the one factorization, stored by from_basis and read
    # back by the one Gram-Schmidt, to which orthogonalize passes a plane's
    "inverse_r_factor": (
        lambda n: _attr(n, {"R_inv"}) or _name(n, {"R_inv"}, ast.Load),
        {"symcore._factor", "symcore.AffineSubspace.from_basis",
         "symcore._gram_schmidt", "symcore.orthogonalize"}),
    # the verify suites draw through verify._Draws
    "numpy_random": (_numpy_random, set()),
    # a plane has a slowest curve exactly when c4 != 0: one test of that,
    # which planes.require_slowest_curve asks
    "c4_zero_test": (_c4_zero_test, {"planes.singularity_degree"}),
    # ``apcone example`` and ``apcone run`` share one run-and-report path
    "cli_run_path": (
        lambda n: isinstance(n, ast.Call) and (_attr(n.func, RUN_PATH)
                                               or _name(n.func, RUN_PATH)),
        {"cli._run_and_report"}),
    # psi(x) = x x^T / x1 and its partials are the only outer products
    "outer_product": (
        lambda n: _attr(n, {"outer"}) or _imports_from(n, {"outer"}, "numpy"),
        {"apengine.psi", "apengine._psi_partials"}),
    # the slowest curve's constants are formed once, in the record its
    # gate makes; verify's det-series lead 1 / (32 c4^6) is the paper's
    # value, formed on its own to check the series against
    "curve_constants": (_curve_constant, {"planes.require_slowest_curve",
                                          "verify._det_lead"}),
    # a finite number is one test, next to is_number
    "finite_number_test": (_finite_number_test, {"symcore.is_finite_number"}),
    # every series of the curve in t starts from one series t
    "series_t": (_series_t, {"series._curve_series",
                             "series.moment_curve_defect"}),
    # the curve formulas run under np.errstate and one rejection rule
    # decides their output, so a float exception is translated only
    # where the slow-rate recursion's plain-float powers raise it
    "float_exception_translation": (_float_exception_handler,
                                    {"rates.recursive_sequence"}),
    # a check that raises survives python -O; an assert does not
    "no_assertion": (_assertion, set()),
}


def _scan(source, module):
    """{rule: qualified functions holding a node its predicate matches}."""
    found = {rule: set() for rule in RULES}

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = (*scope, node.name)
        where = ".".join(scope if len(scope) > 1 else (*scope, "<module>"))
        for rule, (match, _) in RULES.items():
            if match(node):
                found[rule].add(where)
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(ast.parse(source), (module,))
    return found


@functools.cache
def _scan_apcone():
    found = {rule: set() for rule in RULES}
    for path in sorted(SRC.glob("*.py")):
        for rule, where in _scan(path.read_text(), path.stem).items():
            found[rule] |= where
    return found


@pytest.mark.parametrize("rule", RULES)
def test_rule_matches_its_allowed_functions_only(rule):
    assert _scan_apcone()[rule] == RULES[rule][1]


# (rule, source of module m, the functions the rule flags in it)
PLANTED = [
    ("eigensolver", "def f(a):\n    return np.linalg.eig(a)\n", {"m.f"}),
    ("eigensolver", "class C:\n    solve = eigh\n", {"m.C"}),
    ("eigensolver", "from scipy.linalg import eigvalsh\n", {"m.<module>"}),
    ("power_ufunc", "def f(x):\n    return np.power(x, 3)\n", {"m.f"}),
    ("power_ufunc", "from numpy import float_power\n", {"m.<module>"}),
    ("power_ufunc", "def f(power):\n    return power\n", set()),
    ("curve_denominators",
     "def f(t):\n    d_q, x = t\n    for d_mid in t:\n        d_inner += 1\n"
     "    return d_q\n", {"m.f"}),
    ("curve_denominators",
     "class C:\n    def g(t):\n        return (d_q := t)\n", {"m.C.g"}),
    ("curve_denominators", "def f(t):\n    return d_q + d_mid\n", set()),
    ("projector", "def f(E, v):\n    return E.aug @ v\n", {"m.f"}),
    ("coefficient_map", "def f(E, r):\n    return E.coef_aug @ r\n", {"m.f"}),
    ("one_factorization", "def f(a):\n    return np.linalg.qr(a)\n", {"m.f"}),
    ("one_factorization",
     "class C:\n    def g(a, tau):\n        return "
     "_umath_linalg.qr_reduced(a, tau), inv(a)\n", {"m.C.g"}),
    ("one_factorization", "from numpy.linalg import inv, solve\n",
     {"m.<module>"}),
    ("one_factorization",
     "def f(R, qr_tau):\n    return R.invert(), qr_tau, 'qr'\n", set()),
    ("inverse_r_factor", "R_inv = 1\ndef f(E):\n    return E.R_inv\n",
     {"m.f"}),
    ("inverse_r_factor", "def f(R_inv):\n    return R_inv\n", {"m.f"}),
    ("numpy_random", "def f():\n    return np.random.RandomState(0)\n",
     {"m.f"}),
    ("numpy_random", "import numpy.random as npr\n", {"m.<module>"}),
    ("numpy_random", "class C:\n    from numpy import random\n", {"m.C"}),
    ("numpy_random", "from numpy.random import RandomState\n",
     {"m.<module>"}),
    ("numpy_random", "import random\nrandom.Random()\n", set()),
    ("cli_run_path",
     "def f(E):\n    run_ap(E)\ndef g(t):\n    cli.trace_csv(t)\n",
     {"m.f", "m.g"}),
    ("rank_cut", "def f(lams, tau):\n    return bisect_right(lams, tau)\n",
     {"m.f"}),
    ("rank_cut",
     "class C:\n    def g(lam):\n        return lam.searchsorted(0.0)\n",
     {"m.C.g"}),
    ("rank_cut",
     "from bisect import bisect_right\ndef f(a):\n    bisect.bisect(a)\n",
     {"m.f"}),
    ("c4_zero_test", "def f(spec):\n    return spec.c[3] == 0.0\n", {"m.f"}),
    ("c4_zero_test", "def f(c1, c4):\n    if 0 != c4:\n        return c1\n",
     {"m.f"}),
    ("c4_zero_test",
     "def f(c, c4):\n    return c[3] > 1.0 or c[2] == 0 or c4 < c[3]\n",
     set()),
    ("curve_constants",
     "def f(c4, nb1):\n    return 1.0 / (4.0 * c4 ** 4 * nb1)\n", {"m.f"}),
    ("curve_constants",
     "class C:\n    def g(spec, curve):\n        return spec.c[4] ** 2, "
     "curve.nb1 ** 3\n", {"m.C.g"}),
    ("curve_constants",
     "def f(c):\n    c1, c2 = c[0], c[1]\n    return -4.0 * c1 * c2\n"
     "def g(c4):\n    return c4 * 2.0 * c4\n", {"m.f", "m.g"}),
    ("curve_constants",
     "def f(c1, c4, c, t, curve):\n    return (2.0 * c1 * t + (c4 / c4) "
     "* curve.r0 + t ** 7 + c[2] ** 2 + 2.0 * c[3] * t)\n", set()),
    ("outer_product", "def f(y):\n    return np.outer(y, y).ravel()\n",
     {"m.f"}),
    ("outer_product", "from numpy import outer\n", {"m.<module>"}),
    ("outer_product", "def f(outer):\n    return outer @ outer\n", set()),
    ("finite_number_test",
     "def f(t):\n    if not (is_number(t) and math.isfinite(t)):\n"
     "        raise ValueError\n", {"m.f"}),
    ("finite_number_test",
     "class C:\n    ok = staticmethod(lambda v: is_number(v) and v > 0 "
     "and isfinite(v))\n", {"m.C"}),
    ("finite_number_test",
     "def f(v):\n    return is_number(v) or math.isfinite(v)\n", set()),
    ("series_t", "def f(cap):\n    return TruncSeries.x(cap) * 2\n",
     {"m.f"}),
    ("series_t", "def f(t0):\n    return TruncSeries.from_coeffs((t0, 1.0), "
     "1)\n", {"m.f"}),
    ("series_t", "def f(cap):\n    return TruncSeries.from_coeffs([0, 2], "
     "cap), from_coeffs([0, 1], cap), x(cap)\n", set()),
    ("float_exception_translation",
     "def f(x):\n    try:\n        return 1 / x\n"
     "    except ZeroDivisionError:\n        return 0.0\n", {"m.f"}),
    ("float_exception_translation",
     "class C:\n    def g(x):\n        try:\n            return x ** 9\n"
     "        except (ValueError, OverflowError):\n            raise\n",
     {"m.C.g"}),
    ("float_exception_translation",
     "def f(x):\n    try:\n        return 1 / x\n"
     "    except ArithmeticError:\n        raise OverflowError\n", set()),
    ("no_assertion", "def f(x):\n    assert x > 0\n", {"m.f"}),
    ("no_assertion",
     "def f(x):\n    raise AssertionError(x)\nclass C:\n    def g():\n"
     "        raise AssertionError\n", {"m.f", "m.C.g"}),
    ("no_assertion",
     "def f(x):\n    raise ValueError('assert x')\n", set()),
]


@pytest.mark.parametrize("rule, source, flagged", PLANTED, ids=[
    f"{rule}-{i}" for i, (rule, *_) in enumerate(PLANTED)])
def test_rule_flags_a_planted_violation(rule, source, flagged):
    assert _scan(source, "m")[rule] == flagged


# --- hypothesis draws the same examples on every run --------------------------

def _random_draws(source):
    """Line numbers of the ``settings(...)`` calls without
    ``derandomize=True`` and of the ``@given`` tests with no ``settings``
    decorator."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if _calls(node, {"settings"}) and not any(
                k.arg == "derandomize" and isinstance(k.value, ast.Constant)
                and k.value.value is True for k in node.keywords):
            lines.append(node.lineno)
        if isinstance(node, ast.FunctionDef) and (
                any(_calls(d, {"given"}) for d in node.decorator_list)
                and not any(_calls(d, {"settings"})
                            for d in node.decorator_list)):
            lines.append(node.lineno)
    return sorted(lines)


def test_hypothesis_tests_are_derandomized():
    found = {str(path.relative_to(TESTS)): lines
             for path in sorted(TESTS.rglob("*.py"))
             if (lines := _random_draws(path.read_text()))}
    assert found == {}


def test_random_draws_flags_a_planted_test():
    source = ("@settings(max_examples=5)\n@given(st.none())\ndef f(x): pass\n"
              "@hypothesis.settings(derandomize=False)\ndef g(): pass\n"
              "@given(st.none())\ndef h(x): pass\n"
              "@settings(derandomize=True, max_examples=5)\n"
              "@hypothesis.given(st.none())\ndef k(x): pass\n")
    assert _random_draws(source) == [1, 4, 7]
