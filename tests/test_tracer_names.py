"""The benchmark (apbench/*.py) looks apcone names up: the tracer by name
strings, the rest by attribute reads.  A renamed or deleted name must fail
here, not inside a benchmark run."""

import ast
import importlib
from pathlib import Path

APBENCH = Path(__file__).resolve().parents[1] / "apbench"
TRACER = APBENCH / "tracer.py"


def _literal(name):
    """Value of the module-level literal assignment ``name = ...``."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} has no {name}")


def test_traced_functions_resolve():
    pairs = [(mod, fn) for mod, fns in _literal("TRACED").items()
             for fn in fns]
    pairs += [tuple(q.split(".")) for q in _literal("_EIG_CALLERS")]
    assert pairs
    missing = [f"{mod}.{fn}" for mod, fn in pairs
               if not callable(getattr(importlib.import_module(
                   f"apcone.{mod}"), fn, None))]
    assert not missing, f"traced names missing from apcone: {missing}"


def _apcone_reads(path):
    """Dotted apcone names a file reads: each name a ``from apcone[.mod]
    import`` binds, and each attribute chain rooted at such a name or at
    ``apcone`` after ``import apcone[.mod]``."""
    tree = ast.parse(path.read_text())
    roots, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "apcone":
                    roots[alias.asname or "apcone"] = (
                        alias.name if alias.asname else "apcone")
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "apcone"):
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                roots[alias.asname or alias.name] = dotted
                reads.add(dotted)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in roots:
            reads.add(".".join([roots[node.id], *reversed(chain)]))
    return reads


def _resolves(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            return False
    return True


def test_apbench_apcone_reads_resolve():
    reads = set().union(*map(_apcone_reads, APBENCH.glob("*.py")))
    # one read of each form: import apcone.mod, from apcone import mod,
    # from apcone.mod import name
    assert {"apcone.cli.main", "apcone.catalog.get_example",
            "apcone.symcore.AffineSubspace"} <= reads
    missing = sorted(r for r in reads if not _resolves(r))
    assert not missing, f"apbench reads names missing from apcone: {missing}"
